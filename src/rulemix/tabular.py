"""Synthetic tabular generators with controlled rule-vs-data structure.

``synth_monotone_regression`` builds groups whose difference-correlation
between one feature and the target is tuned to a requested value, standing
in for grouped sales data with known price sensitivity.
``synth_shifted_classification`` builds threshold-labeled data mixing
rule-consistent ("usual") and rule-inconsistent ("unusual") samples at exact
counts, standing in for risk classification under distribution shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, assign_splits
from .errors import GenerationError

CORR_TOLERANCE = 0.05
MAX_RETRIES = 20

# weak, domain-independent signal carried by the non-threshold features of
# the shifted-classification generator; shared across source/target domains
WEAK_FEATURE_WEIGHTS = (0.30, 0.25, 0.20, 0.15, 0.10)
# unit spread keeps the threshold feature comparable to the others, so an
# untrained network responds to it with sample-dependent sign (a positive
# initial rule loss) and a trained one leans on it hard
THRESHOLD_FEATURE_SPREAD = 1.0


@dataclass(frozen=True)
class CorrGroupSpec:
    """One group with a target difference-correlation on feature k."""

    n: int = 2000
    d: int = 5
    feature: int = 0
    target_corr: float = -0.2
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not -1.0 <= self.target_corr <= 1.0:
            raise ValueError("target_corr must lie in [-1, 1]")
        if self.n < 100:
            raise ValueError("n must be >= 100")
        if not 0 <= self.feature < self.d:
            raise ValueError("feature index out of range")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")


def difference_correlation(x_k: np.ndarray, y: np.ndarray) -> float:
    """Correlation between consecutive-row differences of feature and target."""
    dx = np.diff(np.asarray(x_k, dtype=np.float64).reshape(-1))
    dy = np.diff(np.asarray(y, dtype=np.float64).reshape(-1))
    return float(np.corrcoef(dx, dy)[0, 1])


def synth_monotone_regression(
    spec: CorrGroupSpec,
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> Dataset:
    """Linear-plus-interaction regression with a tuned monotone feature effect.

    The coefficient on feature k is solved analytically from the requested
    difference-correlation, then checked empirically; generation retries with
    fresh draws until the measured value is within +/-0.05 of the target.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.target_corr
    for _ in range(MAX_RETRIES):
        x = rng.standard_normal((spec.n, spec.d))
        others = [j for j in range(spec.d) if j != spec.feature]
        w = rng.uniform(0.5, 1.0, size=len(others)) * rng.choice([-1.0, 1.0], size=len(others))
        # mild interaction between the first two non-monotone features
        q = 0.3 if len(others) >= 2 else 0.0
        # variance budget of everything except the monotone term (unit-variance
        # features): solve corr = beta / sqrt(V + beta^2) for beta
        v_rest = float(np.sum(w * w)) + q * q + spec.noise**2
        if abs(c) >= 1.0:
            raise GenerationError("|target_corr| = 1 is not attainable with noise")
        beta = c * np.sqrt(v_rest / (1.0 - c * c))
        y = x[:, others] @ w + beta * x[:, spec.feature]
        if q:
            y = y + q * x[:, others[0]] * x[:, others[1]]
        y = y + spec.noise * rng.standard_normal(spec.n)
        measured = difference_correlation(x[:, spec.feature], y)
        if abs(measured - c) <= CORR_TOLERANCE:
            return Dataset(x=x, y=y.reshape(-1, 1), split=assign_splits(spec.n, split_fractions))
    raise GenerationError(
        f"could not hit correlation {c} within +/-{CORR_TOLERANCE} after {MAX_RETRIES} draws"
    )


@dataclass(frozen=True)
class ShiftMixSpec:
    """Exact usual/unusual sample counts around a threshold rule on feature k.

    A "usual" sample's label agrees with the threshold rule (label 1 iff the
    feature is at or above the threshold); an "unusual" sample's label is the
    opposite.
    """

    n_usual: int
    n_unusual: int
    threshold: float = 1.3
    feature: int = 0
    d: int = 6

    def __post_init__(self) -> None:
        if self.n_usual < 0 or self.n_unusual < 0 or self.n_usual + self.n_unusual == 0:
            raise ValueError("need a positive total sample count")
        if not 0 <= self.feature < self.d:
            raise ValueError("feature index out of range")
        if self.d - 1 > len(WEAK_FEATURE_WEIGHTS):
            raise ValueError(f"at most {len(WEAK_FEATURE_WEIGHTS) + 1} features supported")

    @property
    def usual_ratio(self) -> float:
        return self.n_usual / (self.n_usual + self.n_unusual)


def synth_shifted_classification(
    spec: ShiftMixSpec,
    seed: int = 0,
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
) -> Dataset:
    """Mixture of rule-consistent and rule-inconsistent threshold-labeled rows.

    Feature k straddles the threshold; the remaining features carry the same
    weak label signal in every generated domain, so datasets with different
    mixing ratios share their conditional structure and differ only in how
    often the threshold rule agrees with the label.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_usual + spec.n_unusual
    usual = np.zeros(n, dtype=bool)
    usual[: spec.n_usual] = True
    rng.shuffle(usual)
    x = np.empty((n, spec.d))
    x_k = spec.threshold + THRESHOLD_FEATURE_SPREAD * rng.standard_normal(n)
    side = (x_k >= spec.threshold).astype(np.float64)
    y = np.where(usual, side, 1.0 - side)
    others = [j for j in range(spec.d) if j != spec.feature]
    x[:, spec.feature] = x_k
    for pos, j in enumerate(others):
        x[:, j] = rng.standard_normal(n) + WEAK_FEATURE_WEIGHTS[pos] * (2.0 * y - 1.0)
    return Dataset(x=x, y=y.reshape(-1, 1), split=assign_splits(n, split_fractions))

