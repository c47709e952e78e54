"""Rule catalog: losses that measure violation, and verification accounting.

Three rule families are supported:

* threshold rules r(y_hat) <= limit with a differentiable r,
* the energy-damping rule for next-state prediction (predicted energy must
  not exceed the input state's energy),
* perturbation-based monotonicity rules for a single feature, where a rule
  that is not differentiable in the inputs is expressed by nudging one
  feature upward and penalizing the wrong-direction output change.

Every loss is >= 0 and exactly 0 iff the rule holds; the verification ratio
counts the fraction of samples with zero violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .errors import UndefinedRatioError
from .pendulum import PendulumParams, energy, energy_gradient

DEFAULT_PERTURB_BOUND = 0.1


@dataclass(frozen=True)
class ThresholdRule:
    """r(y_hat) <= limit for a registered row function r."""

    fn: str
    limit: float

    def __post_init__(self) -> None:
        if not isinstance(self.fn, str) or self.fn not in THRESHOLD_FUNCTIONS:
            raise ValueError(f"unknown threshold function {self.fn!r}, expected one of {sorted(THRESHOLD_FUNCTIONS)}")


@dataclass(frozen=True)
class EnergyDampingRule:
    """Predicted next-state energy must not exceed the current state's."""

    params: PendulumParams


@dataclass(frozen=True)
class MonotonicRule:
    """Output must move with (increase) or against (decrease) feature k.

    ``guard`` restricts the rule to perturbations that cross the guard value
    from below; ``bound`` is the upper limit of the relative perturbation
    scale.
    """

    feature: int
    direction: str  # "increase" | "decrease"
    guard: float | None = None
    bound: float = DEFAULT_PERTURB_BOUND

    def __post_init__(self) -> None:
        if self.direction not in ("increase", "decrease"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.bound <= 0:
            raise ValueError("perturbation bound must be positive")
        if self.feature < 0:
            raise ValueError("feature index must be non-negative")


RuleSpec = ThresholdRule | EnergyDampingRule | MonotonicRule

# registered r functions for threshold rules: value (n,d)->(n,), jacobian (n,d)->(n,d)
THRESHOLD_FUNCTIONS = {
    "row_mean": (
        lambda y: y.mean(axis=1),
        lambda y: np.full_like(y, 1.0 / y.shape[1]),
    ),
    "row_sumsq": (
        lambda y: (y * y).sum(axis=1),
        lambda y: 2.0 * y,
    ),
}


def threshold_rule_loss(r_value: float, limit: float) -> float:
    """Hinge penalty max(r - limit, 0)."""
    return max(float(r_value) - float(limit), 0.0)


def energy_rule_loss(x: np.ndarray, y_hat: np.ndarray, params: PendulumParams) -> np.ndarray:
    """Per-sample max(E(y_hat) - E(x), 0) for 4-column state batches."""
    x = np.asarray(x, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4 or y_hat.shape != x.shape:
        raise ValueError(f"expected matching (n, 4) state batches, got {x.shape} and {y_hat.shape}")
    return np.maximum(energy(y_hat, params) - energy(x, params), 0.0)


@dataclass(frozen=True)
class PerturbedBatch:
    """Original rows, rows with feature k nudged upward, and validity flags."""

    x: np.ndarray
    x_p: np.ndarray
    gamma: np.ndarray  # realized relative scales, one per row
    valid: np.ndarray  # rows where the perturbation exercises the rule


def perturb_batch(
    x: np.ndarray,
    rule: MonotonicRule,
    rng: np.random.Generator,
) -> PerturbedBatch:
    """Nudge feature k of every row upward by gamma*|x_k|, gamma ~ U[0, bound).

    A row is valid when the nudge actually moved the feature (gamma > 0 and
    x_k != 0) and, for guarded rules, when the move crosses the guard from
    below. Rows with x_k == 0 stay unperturbed and are marked invalid.
    """
    x = np.asarray(x, dtype=np.float64)
    k = rule.feature
    if k >= x.shape[1]:
        raise ValueError(f"feature {k} out of range for {x.shape[1]} columns")
    gamma = rng.uniform(0.0, rule.bound, size=x.shape[0])
    x_p = x.copy()
    x_p[:, k] = x[:, k] + gamma * np.abs(x[:, k])
    valid = (gamma > 0.0) & (x[:, k] != 0.0)
    if rule.guard is not None:
        valid &= (x[:, k] < rule.guard) & (x_p[:, k] > rule.guard)
    return PerturbedBatch(x=x, x_p=x_p, gamma=gamma, valid=valid)


def perturb_input(
    x_row: np.ndarray,
    feature: int,
    bound: float,
    rng: np.random.Generator,
    guard: float | None = None,
) -> PerturbedBatch:
    """Single-row convenience wrapper around perturb_batch."""
    rule = MonotonicRule(feature=feature, direction="increase", guard=guard, bound=bound)
    return perturb_batch(np.asarray(x_row, dtype=np.float64).reshape(1, -1), rule, rng)


def monotonic_rule_loss(
    y_hat: np.ndarray,
    y_hat_p: np.ndarray,
    direction: str,
    valid: np.ndarray,
) -> np.ndarray:
    """Per-pair hinge on the wrong-direction output change; invalid pairs are 0.

    direction="decrease": output should fall when the feature rises, so the
    penalty is max(y_p - y, 0); "increase" penalizes max(y - y_p, 0).
    """
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    y_hat_p = np.asarray(y_hat_p, dtype=np.float64).reshape(-1)
    if y_hat.shape != y_hat_p.shape:
        raise ValueError("output batches must have matching shapes")
    if direction == "decrease":
        raw = np.maximum(y_hat_p - y_hat, 0.0)
    elif direction == "increase":
        raw = np.maximum(y_hat - y_hat_p, 0.0)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return np.where(np.asarray(valid, dtype=bool), raw, 0.0)


def verification_ratio(
    rule: RuleSpec,
    inputs: np.ndarray,
    outputs: np.ndarray,
    perturbed_outputs: np.ndarray | None = None,
    valid: np.ndarray | None = None,
) -> float:
    """Fraction of evaluated samples with zero rule violation.

    For monotonicity rules only valid perturbation pairs enter the
    denominator; an empty evaluation set (or all-invalid pairs) raises.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.shape[0] == 0:
        raise UndefinedRatioError("verification ratio of an empty sample set")
    if isinstance(rule, EnergyDampingRule):
        return float(np.mean(energy(outputs, rule.params) <= energy(np.asarray(inputs), rule.params)))
    if isinstance(rule, ThresholdRule):
        fn, _ = THRESHOLD_FUNCTIONS[rule.fn]
        return float(np.mean(fn(outputs) <= rule.limit))
    if perturbed_outputs is None or valid is None:
        raise ValueError("monotonic verification needs perturbed outputs and validity flags")
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise UndefinedRatioError("no valid perturbation pairs to verify")
    y = np.asarray(outputs, dtype=np.float64).reshape(-1)[valid]
    y_p = np.asarray(perturbed_outputs, dtype=np.float64).reshape(-1)[valid]
    if rule.direction == "decrease":
        return float(np.mean(y_p <= y))
    return float(np.mean(y_p >= y))


# ----------------------------------------------------------------------
# tape-side loss builders (training path)
# ----------------------------------------------------------------------


def energy_rule_node(tape: Tape, rule: EnergyDampingRule, x: np.ndarray, y_hat: int) -> int:
    """Mean max(E(y_hat) - E(x), 0) as a differentiable tape node."""
    p = rule.params
    e_pred = tape.rowmap(y_hat, lambda s: energy(s, p), lambda s: energy_gradient(s, p))
    e_in = tape.constant(energy(np.asarray(x), p).reshape(-1, 1), "state_energy")
    return tape.mean_relu_diff(e_pred, e_in)


def monotonic_rule_node(
    tape: Tape,
    rule: MonotonicRule,
    y_hat: int,
    y_hat_p: int,
    valid: np.ndarray,
) -> int:
    """Batch-mean directed hinge between paired outputs, gated by validity."""
    weights = np.asarray(valid, dtype=np.float64).reshape(-1, 1)
    if rule.direction == "decrease":
        return tape.mean_relu_diff(y_hat_p, y_hat, weights)
    return tape.mean_relu_diff(y_hat, y_hat_p, weights)


def threshold_rule_node(tape: Tape, rule: ThresholdRule, y_hat: int) -> int:
    """Batch-mean hinge max(r(y_hat) - limit, 0) on the tape."""
    fn, jac = THRESHOLD_FUNCTIONS[rule.fn]
    r_node = tape.rowmap(y_hat, fn, jac)
    n = tape.value(r_node).shape[0]
    limit = tape.constant(np.full((n, 1), rule.limit), "limit")
    return tape.mean_relu_diff(r_node, limit)
