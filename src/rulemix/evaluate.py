"""Metrics, inference-time strength sweeps, and operating-point selection.

A sweep evaluates a frozen model over a grid of rule strengths without any
retraining, recording the task metric and the rule verification ratio at
each point. Selection picks the grid point minimizing the task metric,
optionally restricted to points above a verification floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleSelectionError
from .model import ModelSpec, forward_per_alpha, predict_values  # noqa: F401  (evaluate.predict_values stays importable)
from .rules import RuleSpec, perturb_batch, verification_ratio

METRICS = ("mae", "cross_entropy", "accuracy")
PROB_CLAMP = 1e-12
EXTENDED_ALPHA_RANGE = (-0.2, 1.4)  # reaches beyond the training range on both sides


def task_metric(kind: str, y_hat: np.ndarray, y: np.ndarray) -> float:
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.size == 0:
        raise ValueError("empty evaluation set")
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch {y_hat.shape} vs {y.shape}")
    if kind == "mae":
        return float(np.mean(np.abs(y_hat - y)))
    if kind == "cross_entropy":
        p = np.clip(y_hat, PROB_CLAMP, 1.0 - PROB_CLAMP)
        return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    if kind == "accuracy":
        return float(np.mean((y_hat >= 0.5) == (y >= 0.5)))
    raise ValueError(f"unknown metric {kind!r}")


def alpha_grid(start: float = 0.0, stop: float = 1.0, step: float = 0.05) -> list[float]:
    """Inclusive grid, rounded to avoid float drift in the endpoints.

    The one builder of strength grids: config sweeps, CLI overrides and the
    extended grid all come through here, so every grid is validated alike.
    """
    try:
        start, stop, step = float(start), float(stop), float(step)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"alpha grid bounds must be numbers: {exc}") from exc
    finite = all(math.isfinite(v) for v in (start, stop, step))
    if not (finite and step > 0 and stop >= start):
        raise ConfigError(
            f"alpha grid needs finite bounds with step > 0 and stop >= start, "
            f"got start={start} stop={stop} step={step}"
        )
    n = int(round((stop - start) / step))
    return [round(start + i * step, 10) for i in range(n + 1)]


def extended_alpha_grid(step: float = 0.05) -> list[float]:
    """Extrapolation grid over EXTENDED_ALPHA_RANGE."""
    return alpha_grid(*EXTENDED_ALPHA_RANGE, step)


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    task_metric: float
    verification: float
    split: str


def alpha_sweep(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    rule: RuleSpec,
    alphas: list[float],
    metric_kind: str,
    split: str = "test",
    perturb_seed: int = 0,
) -> list[SweepRecord]:
    """Evaluate the frozen model at each strength; parameters are never touched.

    The input (and, for rules that need perturbation, its perturbed copy) is
    encoded once; see ``forward_per_alpha``. For such rules one seeded
    perturbation set is drawn up front and reused at every grid point so
    records are comparable across strengths.
    """
    def outputs(inputs: np.ndarray):
        return (tape.value(fwd.output) for tape, fwd in forward_per_alpha(spec, params, inputs, alphas))

    perturbed, valid = itertools.repeat(None), None
    if rule.needs_perturbation:
        pert = perturb_batch(x, rule, np.random.default_rng(perturb_seed))
        perturbed, valid = outputs(pert.x_p), pert.valid
    records = []
    for alpha, y_hat, y_hat_p in zip(alphas, outputs(x), perturbed):
        ver = verification_ratio(rule, x, y_hat, y_hat_p, valid)
        records.append(
            SweepRecord(
                alpha=float(alpha),
                task_metric=task_metric(metric_kind, y_hat, y),
                verification=ver,
                split=split,
            )
        )
    return records


def sweep_to_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("alpha,task_metric,verification,split\n")
        for r in records:
            fh.write(f"{r.alpha:.17g},{r.task_metric:.17g},{r.verification:.17g},{r.split}\n")


def sweep_from_csv(path) -> list[SweepRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "alpha,task_metric,verification,split":
            raise ValueError(f"unexpected sweep header {header!r}")
        for line in fh:
            alpha, metric, ver, split = line.strip().split(",")
            records.append(SweepRecord(float(alpha), float(metric), float(ver), split))
    return records


@dataclass(frozen=True)
class AlphaSelection:
    alpha: float
    task_metric: float
    verification: float
    objective: str
    min_verification: float | None = None


def select_alpha(
    records: list[SweepRecord],
    min_verification: float | None = None,
) -> AlphaSelection:
    """Metric-minimal grid point, optionally above a verification floor.

    Ties break toward the smallest strength. If no record clears the floor,
    the error reports the best achievable verification.
    """
    if not records:
        raise ValueError("empty sweep")
    if min_verification is not None:
        feasible = [r for r in records if r.verification >= min_verification]
        if not feasible:
            best = max(r.verification for r in records)
            raise InfeasibleSelectionError(
                f"no sweep point reaches verification {min_verification}; best achievable is {best:.4f}"
            )
        objective = f"min_error_subject_to_verification>={min_verification}"
    else:
        feasible = list(records)
        objective = "min_error"
    ordered = sorted(feasible, key=lambda r: r.alpha)
    chosen = ordered[0]
    for r in ordered[1:]:
        if r.task_metric < chosen.task_metric:
            chosen = r
    return AlphaSelection(
        alpha=chosen.alpha,
        task_metric=chosen.task_metric,
        verification=chosen.verification,
        objective=objective,
        min_verification=min_verification,
    )


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rank_corr(a, b) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length 1-D sequences")
    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt(np.sum(ra * ra) * np.sum(rb * rb))
    if denom == 0.0:
        raise ValueError("constant input has no rank correlation")
    return float(np.sum(ra * rb) / denom)
