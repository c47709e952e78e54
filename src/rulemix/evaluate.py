"""Metrics, inference-time strength sweeps, and operating-point selection.

A sweep evaluates a frozen model over a grid of rule strengths without any
retraining, recording the task metric and the rule verification ratio at
each point. Selection picks the grid point minimizing the task metric,
optionally restricted to points above a verification floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import PROB_CLAMP
from .data import read_table, write_table
from .errors import ConfigError, InfeasibleSelectionError
from .model import ModelSpec, decode_buffers, encode_all, forward_per_alpha, passages
from .model import predict_values  # noqa: F401  (evaluate.predict_values stays importable)
from .parallel import threaded_map, worker_count
from .rules import RuleSpec, perturb_batch, rule_inputs, verification_ratio

METRICS = ("mae", "cross_entropy", "error_rate")  # each lower-is-better, as select_alpha assumes
EXTENDED_ALPHA_RANGE = (-0.2, 1.4)  # reaches beyond the training range on both sides
MAX_ALPHA_POINTS = 100_001  # step 1e-5 over [0, 1]; a finer grid is a typo, not a sweep
# A phase of a sweep runs on threads when one of its tasks takes at least
# its gate's multiply-adds: a passage's encoding of the rows (``encode_macs``
# per row), or one strength's decode of every input (``decode_macs`` per row
# and input). Tasks on 2 threads against 1 on a 2-core x86-64 host with one
# BLAS thread, medians of 21 alternating runs:
#   encoding                  rows   per task   2 threads   1 thread
#     desk spec, one input     500     6.7M      1.27 ms    1.19 ms
#                            1,000    13.3M      2.10       2.51
#                            6,000    79.9M     10.04      13.57
#     (100, 16) encoders     2,000     4.4M      0.95       1.22
#       one input            4,000     8.9M      3.75       2.73
#                            6,000    13.3M      5.07       4.75
#       two inputs           4,000     8.9M      3.93       5.68
#   decode at 21 strengths     500     0.16M     3.82       4.04
#                            1,000     0.32M     5.65       4.87
#                            2,000     0.64M     8.39       9.56
#                            6,000     1.92M    21.20      31.38
#   decode at 81 strengths   1,000     0.32M    22.45      21.96
#                            2,000     0.64M    33.72      38.68
#                            3,000     0.96M    47.08      60.29
# Where two threads each write a large array of their own, what they cost
# depends on whether malloc hands back pages already mapped: the (100, 16)
# encodings that lost took 3 to 6 times the page faults of one thread, and
# in other runs the same encodings won or lost. Decodes of 0.16M and 0.32M
# lost by up to 1.6x and won by up to 0.76x in earlier runs. The host's
# second core is not always free either, so both gates sit above the
# break-even points. Decodes of the (100, 16) encoders' one-unit products
# (1 to 12 thousand per strength) took 1.2 to 1.9x as long on threads.
ENCODE_THREAD_MIN_MACS = 10_000_000
DECODE_THREAD_MIN_MACS = 500_000


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


def encode_macs(spec: ModelSpec) -> int:
    """Multiply-adds of one row's encoding by one passage: its encoder and, under ``scaled_concat``, its product."""
    names = passages(spec)
    if not names:
        return 0
    first = spec.decision_layers()[0]
    product = first.fan_in // 2 * first.fan_out if spec.coupling == "scaled_concat" else 0
    return sum(layer.fan_in * layer.fan_out for layer in spec.blocks()[names[0]]) + product


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

    Both phases run on threads (``parallel.threaded_map``), one per usable
    core, when a task is worth it and ``parallel.worker_count`` allows
    threads that call BLAS (this process runs one OS thread); otherwise in
    the calling thread. The encoding's tasks are the passages of each input
    (``model.encode_all``), on threads when a passage's encoding takes at
    least ``ENCODE_THREAD_MIN_MACS`` multiply-adds. The decode's tasks are
    the strengths, dealt round-robin to the threads, on threads when a
    strength's decode takes at least ``DECODE_THREAD_MIN_MACS``. The calling
    thread makes the arrays each share of strengths decodes into
    (``model.decode_buffers``). The records and the first error, in grid
    order, do not depend on the number of threads.
    """
    pert = perturb_batch(x, rule, np.random.default_rng(perturb_seed)) if rule.needs_perturbation else None
    inputs, valid = rule_inputs(rule, x), None if pert is None else pert.valid
    sources = [x] if pert is None else [x, pert.x_p]
    passage_work = x.shape[0] * encode_macs(spec)
    tasks = len(passages(spec)) * len(sources)
    encodings = encode_all(spec, params, sources,
                           worker_count(tasks, blas=True) if passage_work >= ENCODE_THREAD_MIN_MACS else 1)

    def decode_at(alpha: float, buffers: list[list[list[np.ndarray]]]) -> tuple[float, float, float]:
        """(alpha, task metric, verification), each input decoded into its arrays of the strength's share."""
        out, *perturbed = [next(forward_per_alpha(spec, params, e, (alpha,), b)) for e, b in zip(encodings, buffers)]
        ver = verification_ratio(rule, inputs, out, perturbed[0] if perturbed else None, valid)
        return float(alpha), task_metric(metric_kind, out, y), ver

    strength_work = x.shape[0] * len(sources) * decode_macs(spec)
    workers = worker_count(len(alphas), blas=True) if strength_work >= DECODE_THREAD_MIN_MACS else 1
    shares = [[decode_buffers(spec, params, enc) for enc in encodings] for _ in range(workers)]
    rows = threaded_map(decode_at, [(alpha, shares[i % workers]) for i, alpha in enumerate(alphas)], workers)
    return [SweepRecord(*row, split) for row in rows]


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

