"""Span tracing of rulemix's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper at the place
where its caller looks it up: names a module imported with ``from x import
f`` are patched in the importing module, and ``Tape`` / ``Dataset`` methods
on the class. Every call becomes a span (name, start, end, parent) plus one
optional number taken from the arguments or the result (flops, rows, RK4
steps, tape length). Spans are kept in flat arrays in memory and written out
once, at the end of the run; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

import rulemix.autodiff as autodiff
import rulemix.checkpoint as checkpoint
import rulemix.cli as cli
import rulemix.config as config
import rulemix.data as data
import rulemix.evaluate as evaluate
import rulemix.model as model
import rulemix.pendulum as pendulum
import rulemix.train as train

TAPE_OPS = (
    "affine", "relu", "sigmoid", "concat", "scale", "add", "divide",
    "rowmap", "mean_relu_diff", "mse", "bce",
)


def _affine_flops(args, kwargs, result):
    tape, x, w = args[0], args[1], args[2]
    n = tape.value(x).shape[0]
    fan_in, fan_out = tape.value(w).shape
    return 2.0 * n * fan_in * fan_out


def _block_rows(args, kwargs, result):
    tape, x = args[0], args[4]
    return float(tape.value(x).shape[0])


def _block_name(args, kwargs):
    return f"model.block.{args[3]}"


def _tape_length(args, kwargs, result):
    return float(len(args[0]))


def _rk4_steps(args, kwargs, result):
    return float(args[2])


def _epochs(args, kwargs, result):
    return float(result.report.final_epoch)


def patch_table():
    """(owner, attribute, span name, extra) for every traced lookup site."""
    table = [(autodiff.Tape, op, f"autodiff.{op}", None) for op in TAPE_OPS]
    table[0] = (autodiff.Tape, "affine", "autodiff.affine", _affine_flops)
    table += [
        (autodiff.Tape, "constant", "autodiff.constant", None),
        (autodiff.Tape, "param", "autodiff.param", None),
        (autodiff.Tape, "backprop", "autodiff.backprop", _tape_length),
        (autodiff, "as_matrix", "autodiff.as_matrix", None),
        (model, "as_matrix", "autodiff.as_matrix", None),
        (train, "adam_update", "optim.adam_update", None),
        (train, "predict", "model.predict", None),
        (model, "predict", "model.predict", None),
        (model, "mlp_forward", _block_name, _block_rows),
        (model, "couple", "model.couple", None),
        (train, "fit", "train.fit", _epochs),
        (train, "train_step", "train.train_step", None),
        (train, "evaluate_task_loss", "train.evaluate_task_loss", None),
        (train, "evaluate_rule_loss", "train.evaluate_rule_loss", None),
        (train, "compute_loss_scale", "train.compute_loss_scale", None),
        (train, "sample_alpha", "train.sample_alpha", None),
        (train, "energy_rule_node", "rules.energy_rule_node", None),
        (train, "monotonic_rule_node", "rules.monotonic_rule_node", None),
        (train, "perturb_batch", "rules.perturb_batch", None),
        (evaluate, "perturb_batch", "rules.perturb_batch", None),
        (evaluate, "verification_ratio", "rules.verification_ratio", None),
        (cli, "alpha_sweep", "evaluate.alpha_sweep", None),
        (evaluate, "predict_values", "evaluate.predict_values", None),
        (evaluate, "task_metric", "evaluate.task_metric", None),
        (cli, "sweep_to_csv", "evaluate.sweep_to_csv", None),
        (pendulum, "simulate_states", "pendulum.simulate_states", _rk4_steps),
        (cli, "load_checkpoint", "checkpoint.load", None),
        (checkpoint, "save_checkpoint", "checkpoint.save", None),
        (cli, "config_from_dict", "config.config_from_dict", None),
        (config, "config_from_dict", "config.config_from_dict", None),
        (data.Dataset, "subset", "data.subset", None),
    ]
    return table


class Tracer:
    """In-memory span recorder; parents always precede their children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.extra = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.extra.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, extra):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                tracer.extra[idx] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block, then restore."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name, extra in patch_table():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, extra))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=np.array([ids[n] for n in self.names], dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            extra=np.frombuffer(self.extra, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def summarize(self, op_root: str, setup_root: str) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        Times are means per call in microseconds. ``.calls`` counts and
        ``pendulum.rk4_steps`` are per top-level span named ``op_root`` (one
        timed operation), so they repeat exactly between runs that trace a
        different number of operations.
        """
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = [0] * n  # index of the top-level span each span belongs to
        in_step = [False] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
                in_step[i] = in_step[p] or self.names[p] == "train.train_step"
            else:
                root[i] = i

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_total: dict[str, float] = {}
        extra: dict[str, float] = {}
        # (top-level span name, span name) -> [calls, extra]
        by_root: dict[tuple[str, str], list[float]] = {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            self_total[name] = self_total.get(name, 0.0) + dur[i] - child[i]
            extra[name] = extra.get(name, 0.0) + self.extra[i]
            acc = by_root.setdefault((self.names[root[i]], name), [0, 0.0])
            acc[0] += 1
            acc[1] += self.extra[i]
        n_ops = calls.get(op_root, 0)
        if n_ops == 0:
            raise ValueError(f"no {op_root!r} span was traced")
        n_setups = calls.get(setup_root, 0)

        def per_op(name: str, field: int = 0) -> float:
            return by_root.get((op_root, name), [0, 0.0])[field] / n_ops

        def mean_us(name: str, of: dict[str, float] = total) -> float:
            return 1e6 * of.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        m: dict[str, float] = {}
        step_dur = [dur[i] for i in range(n) if self.names[i] == "train.train_step"]
        adam_in_step = sum(
            dur[i] for i in range(n) if in_step[i] and self.names[i] == "optim.adam_update"
        )
        m["optim.adam_update_us"] = mean_us("optim.adam_update")
        m["optim.adam_update.calls"] = per_op("optim.adam_update")
        m["optim.share_of_step"] = adam_in_step / sum(step_dur) if step_dur else 0.0

        matrix_in_step = sum(1 for i in range(n) if in_step[i] and self.names[i] == "autodiff.as_matrix")
        m["autodiff.as_matrix.calls"] = matrix_in_step / len(step_dur) if step_dur else 0.0
        m["autodiff.as_matrix_us"] = mean_us("autodiff.as_matrix")
        m["autodiff.nodes_per_tape"] = (
            extra["autodiff.backprop"] / calls["autodiff.backprop"] if calls.get("autodiff.backprop") else 0.0
        )
        for leaf in ("param", "constant"):
            m[f"autodiff.{leaf}.fwd_us"] = mean_us(f"autodiff.{leaf}")
        for op in TAPE_OPS:
            m[f"autodiff.{op}.fwd_us"] = mean_us(f"autodiff.{op}")
            m[f"autodiff.{op}.calls"] = per_op(f"autodiff.{op}")
        affine_s = total.get("autodiff.affine", 0.0)
        m["autodiff.affine.gflop_per_s_computed"] = (
            extra.get("autodiff.affine", 0.0) / affine_s / 1e9 if affine_s else 0.0
        )
        m["autodiff.backprop_us"] = mean_us("autodiff.backprop")
        m["autodiff.backprop.calls"] = per_op("autodiff.backprop")

        m["model.predict_us"] = mean_us("model.predict", self_total)
        for block in ("shared", "rule", "data", "decision"):
            m[f"model.block.{block}_us"] = mean_us(f"model.block.{block}")
        m["model.couple_us"] = mean_us("model.couple")
        rule_rows = per_op("model.block.rule", 1)
        m["model.encoder_reuse"] = per_op("model.block.decision", 1) / rule_rows if rule_rows else 0.0

        m["train.train_step_us"] = mean_us("train.train_step", self_total)
        if step_dur:
            p90 = statistics.quantiles(step_dur, n=10)[8] if len(step_dur) > 1 else step_dur[0]
            m["train.step_us_p50"] = 1e6 * statistics.median(step_dur)
            m["train.step_us_p90"] = 1e6 * p90
        else:
            m["train.step_us_p50"] = m["train.step_us_p90"] = 0.0
        epochs = extra.get("train.fit", 0.0)
        validation = total.get("train.evaluate_task_loss", 0.0) + total.get("train.evaluate_rule_loss", 0.0)
        m["train.validation_us"] = 1e6 * validation / epochs if epochs else 0.0
        m["train.compute_loss_scale_us"] = mean_us("train.compute_loss_scale")
        m["train.sample_alpha_us"] = mean_us("train.sample_alpha")

        for name in ("energy_rule_node", "monotonic_rule_node", "perturb_batch", "verification_ratio"):
            m[f"rules.{name}_us"] = mean_us(f"rules.{name}")
            m[f"rules.{name}.calls"] = per_op(f"rules.{name}")
        for name in ("alpha_sweep", "predict_values", "task_metric", "sweep_to_csv"):
            m[f"evaluate.{name}_us"] = mean_us(f"evaluate.{name}")

        rk4 = extra.get("pendulum.simulate_states", 0.0)
        m["pendulum.simulate_states_us"] = mean_us("pendulum.simulate_states")
        m["pendulum.rk4_steps"] = per_op("pendulum.simulate_states", 1)
        m["pendulum.setup_rk4_steps"] = (
            by_root.get((setup_root, "pendulum.simulate_states"), [0, 0.0])[1] / n_setups if n_setups else 0.0
        )
        m["pendulum.rk4_step_us"] = 1e6 * total.get("pendulum.simulate_states", 0.0) / rk4 if rk4 else 0.0

        m["checkpoint.load_us"] = mean_us("checkpoint.load")
        m["checkpoint.save_us"] = mean_us("checkpoint.save")
        m["config.config_from_dict_us"] = mean_us("config.config_from_dict")
        m["data.subset_us"] = mean_us("data.subset")
        m["trace.spans"] = float(n)
        return m
