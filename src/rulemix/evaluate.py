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

from .autodiff import PROB_CLAMP, Arrays
from .data import read_table, write_table
from .errors import ConfigError, InfeasibleSelectionError
from .model import ModelSpec, encode, forward_per_alpha, predict_values  # noqa: F401  (evaluate.predict_values stays importable)
from .parallel import forked_map, worker_count
from .rules import RuleSpec, perturb_batch, rule_inputs, verification_ratio

METRICS = ("mae", "cross_entropy", "error_rate")  # each lower-is-better, as select_alpha assumes
EXTENDED_ALPHA_RANGE = (-0.2, 1.4)  # reaches beyond the training range on both sides
MAX_ALPHA_POINTS = 100_001  # step 1e-5 over [0, 1]; a finer grid is a typo, not a sweep
# A sweep whose decodes take fewer multiply-adds (``decode_macs`` per row,
# times rows, passes and strengths) runs in the calling process. Desk-spec
# sweeps on a 2-core x86-64 host with one BLAS thread, 2 workers against one
# process, medians of 15 alternating sweeps:
#   21 strengths x 1,000 rows    6.7M  forked 12.3 ms  serial 10.7 ms
#   21 strengths x 2,000 rows   13.4M  forked 20.4 ms  serial 21.4 ms
#   21 strengths x 3,000 rows   20.2M  forked 32.7 ms  serial 34.5 ms
#   21 strengths x 6,000 rows   40.3M  forked 62.2 ms  serial 76.5 ms  (train-desk)
#   81 strengths x 250 rows      6.5M  forked 12.8 ms  serial 11.0 ms
#   81 strengths x 500 rows     13.0M  forked 17.0 ms  serial 18.5 ms
#   81 strengths x 1,000 rows   25.9M  forked 21.3 ms  serial 25.9 ms  (sweep-cli val)
#   81 strengths x 3,000 rows   77.8M  forked 58.7 ms  serial 82.9 ms  (sweep-cli test)
# An earlier run of 9 had 81 x 500 rows lose (18.2 against 14.9 ms) and 21 x
# 3,000 break even (35.9 against 35.1 ms), so the gate sits above 13.4M.
FORK_MIN_MACS = 20_000_000


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
    if kind == "error_rate":
        return float(np.mean((y_hat >= 0.5) != (y >= 0.5)))
    raise ValueError(f"unknown metric {kind!r}")


def alpha_grid(start: float = 0.0, stop: float = 1.0, step: float = 0.05) -> list[float]:
    """Inclusive grid, rounded to avoid float drift in the endpoints.

    The one builder of strength grids: config sweeps, CLI overrides and the
    extended grid all come through here, so every grid is validated alike.
    """
    start, stop, step = float(start), float(stop), float(step)
    finite = all(math.isfinite(v) for v in (start, stop, step))
    if not (finite and step > 0 and stop >= start):
        raise ConfigError(
            f"alpha grid needs finite bounds with step > 0 and stop >= start, "
            f"got start={start} stop={stop} step={step}"
        )
    steps = (stop - start) / step  # inf when a subnormal step overflows the quotient
    n = int(round(steps)) + 1 if steps < MAX_ALPHA_POINTS else math.inf
    if n > MAX_ALPHA_POINTS:
        raise ConfigError(
            f"alpha grid would have {steps + 1:.6g} points (start={start} stop={stop} step={step}), "
            f"more than MAX_ALPHA_POINTS={MAX_ALPHA_POINTS}"
        )
    return [round(start + i * step, 10) for i in range(n)]


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    task_metric: float
    verification: float
    split: str


def decode_macs(spec: ModelSpec) -> int:
    """Multiply-adds of one row's decode at one strength: the decision block and any alpha-fed encoder.

    Under ``scaled_concat`` ``encode`` computed the first decision layer's
    products, so that layer's blend counts one per output element.
    """
    first, *rest = spec.decision_layers()
    blend = first.fan_out if spec.coupling == "scaled_concat" else first.fan_in * first.fan_out
    return blend + sum(layer.fan_in * layer.fan_out for layer in (*rest, *spec.blocks().get("encoder", ())))


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
    encoded once, then decoded at each strength (``forward_per_alpha``).
    Under ``scaled_concat`` the encoding holds the first decision layer's two
    products, so a strength costs that layer's blend and the layers after
    it, not a product over the concatenated latents. For
    such rules one seeded perturbation set is drawn up front and reused at
    every grid point so records are comparable across strengths. A rule's
    ``prepare``, if it has one, runs once on the input.

    The strengths are decoded in contiguous shares, one forked process per
    usable core (``parallel.forked_map``), when the decodes take at least
    ``FORK_MIN_MACS`` multiply-adds and ``parallel.worker_count`` allows
    children that call BLAS (this process runs one OS thread); otherwise in
    the calling process. The records and the first error, in grid order, do
    not depend on the number of processes.
    """
    pert = perturb_batch(x, rule, np.random.default_rng(perturb_seed)) if rule.needs_perturbation else None
    inputs = rule_inputs(rule, x)
    latents = encode(Arrays(), spec, params, x)
    latents_p, valid = (None, None) if pert is None else (encode(Arrays(), spec, params, pert.x_p), pert.valid)

    def decode_share(share: list[float]) -> list[tuple[float, float, float]]:
        """(alpha, task metric, verification) at each strength of ``share``, in its own buffers."""
        perturbed = itertools.repeat(None) if pert is None else forward_per_alpha(spec, params, latents_p, share)
        rows = []
        for alpha, out, out_p in zip(share, forward_per_alpha(spec, params, latents, share), perturbed):
            ver = verification_ratio(rule, inputs, out, out_p, valid)
            rows.append((float(alpha), task_metric(metric_kind, out, y), ver))
        return rows

    n = len(alphas)
    macs = n * x.shape[0] * (1 if pert is None else 2) * decode_macs(spec)
    workers = worker_count(n, blas=True) if macs >= FORK_MIN_MACS else 1
    shares = [(list(alphas[k * n // workers:(k + 1) * n // workers]),) for k in range(workers)]
    return [SweepRecord(*row, split) for rows in forked_map(decode_share, shares, workers) for row in rows]


SWEEP_COLUMNS = ["alpha", "task_metric", "verification", "split"]


def sweep_to_csv(records: list[SweepRecord], path) -> None:
    numbers = np.array([(r.alpha, r.task_metric, r.verification) for r in records], dtype=np.float64)
    write_table(path, SWEEP_COLUMNS, [numbers.reshape(len(records), 3)], [r.split for r in records])


def sweep_from_csv(path) -> list[SweepRecord]:
    """Records written by ``sweep_to_csv``; ``read_table`` names a malformed file, line and column.

    Every number must be finite: a NaN metric would otherwise become an
    operating point that no comparison can rank.
    """
    header, numbers, splits = read_table(path)
    if header != SWEEP_COLUMNS:
        raise ValueError(f"{path}:1: unexpected sweep header {','.join(header)!r}")
    return [SweepRecord(*row, split) for row, split in zip(numbers.tolist(), splits)]


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

