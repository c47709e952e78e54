"""The benchmark's workloads and the measurement loop around them.

Every workload is one user session built from a single seed: a dataset, a
fixed-epoch ``fit`` and a ``rulemix sweep`` of the saved checkpoint, run
in-process through ``cli.main``. The workloads differ in which part runs
back to back for ``--seconds``; the other part runs a few times spread over
the same period (see README.md for why each workload exists):

* ``train-desk``: the acceptance suite's desk setup; ``fit`` back to back.
* ``train-perturb``: shifted-classification defaults, a perturbation rule
  and a sigmoid/BCE head; ``fit`` back to back.
* ``sweep-cli``: ``rulemix sweep --extended`` over a pendulum checkpoint
  trained during set-up; the sweep command back to back.

rulemix functions are looked up on their modules at call time
(``train.fit``, not a name imported here), so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rulemix.checkpoint as checkpoint
import rulemix.cli as cli
import rulemix.config as config
import rulemix.evaluate as evaluate
import rulemix.model as model
import rulemix.pendulum as pendulum
import rulemix.rules as rules
import rulemix.train as train
from rulemix.data import write_dataset_csv
from spans import Tracer

SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"
SECONDARY_ROOT = "bench.secondary"
MIN_SETUPS = 3  # set-up runs at least this often and for at least MIN_SETUP_SECONDS
MIN_SETUP_SECONDS = 1.0
MAX_SETUPS = 50
SECONDARY_REPEATS = 5  # sweeps on the train workloads, fits on sweep-cli
TRACED_PAIRS = 2  # minimum (untraced, traced) operation pairs in a traced run


def _pendulum_raw(seed: int, epochs: int) -> dict:
    """Desk-scale pendulum experiment: friction 0.3, 10k pairs, desk spec."""
    return {
        "task": "pendulum",
        "seed": seed,
        "data": {"n_pairs": 10_000, "n_trajectories": 10, "friction": 0.3, "noise_std": 0.01, "seed": seed},
        "model": {"shared_units": [64, 16], "encoder_units": [64, 64, 64], "decision_units": [64]},
        # patience one below the epoch count: early stopping cannot end a fit early
        "train": {"mode": "controlled", "lr": 5e-4, "batch_size": 32, "max_epochs": epochs, "patience": epochs - 1},
    }


def _desk_raw(seed: int) -> dict:
    return _pendulum_raw(seed, epochs=3)


def _perturb_raw(seed: int) -> dict:
    return {
        "task": "shifted-classification",
        "seed": seed,
        "data": {"seed": seed},
        "train": {"max_epochs": 2, "patience": 1},
    }


def _sweep_raw(seed: int) -> dict:
    raw = _pendulum_raw(seed, epochs=2)
    raw["sweep"] = {"step": 0.02}
    return raw


def _desk_dataset(cfg, seed: int, workdir: Path):
    """Desk split 0.3/0.1/0.6, which configs cannot express: sweeps read it as CSV."""
    dataset = pendulum.build_pendulum_dataset(
        cfg.pendulum_params(), n_pairs=10_000, n_trajectories=10, noise_std=0.01,
        seed=seed, split_fractions=(0.3, 0.1, 0.6),
    )
    write_dataset_csv(workdir / "desk.csv", dataset, list(pendulum.PENDULUM_CSV_COLUMNS))
    return dataset


def _config_dataset(cfg, seed: int, workdir: Path):
    return cfg.build_dataset()


@dataclass(frozen=True)
class Workload:
    name: str
    raw: Callable[[int], dict]
    dataset: Callable
    sweep_args: tuple[str, ...]
    sweep_records: int  # grid points x splits
    timed: str  # "fit" or "sweep"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-desk", _desk_raw, _desk_dataset,
            ("--data-csv", "{workdir}/desk.csv", "--splits", "test"), 21, "fit",
        ),
        Workload("train-perturb", _perturb_raw, _config_dataset, (), 21 * 2, "fit"),
        Workload("sweep-cli", _sweep_raw, _config_dataset, ("--extended",), 81 * 2, "sweep"),
    )
}


def params_sha256(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def _read_sweep(path: Path) -> list[tuple[float, float, float, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(a), float(m), float(v), s) for a, m, v, s in rows]


class Session:
    """One workload's state plus the tally of checked operations."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.checkpoint_path = workdir / "checkpoint.npz"
        self.sweep_path = workdir / "sweep.csv"
        self.attempted = 0
        self.failed = 0
        self.params_sha256: str | None = None
        self.sweep_sha256: str | None = None
        self.result = None
        self.fit_rows = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {self.workload.name}: {what}", file=sys.stderr)

    def setup(self) -> None:
        self.cfg = config.config_from_dict(self.workload.raw(self.seed))
        self.dataset = self.workload.dataset(self.cfg, self.seed, self.workdir)
        if self.workload.timed == "sweep":
            self.fit()
            self.save()

    def fit(self) -> float | None:
        """One fixed-epoch fit; returns its wall time, or None if it failed."""
        self.attempted += 1
        cfg, spec, rule = self.cfg.train_config(), self.cfg.model_spec(), self.cfg.rule()
        started = time.perf_counter()
        try:
            result = train.fit(spec, cfg, self.dataset, rule)
        except Exception:  # a failed operation is counted, and the run goes on
            self._fail(f"fit raised\n{traceback.format_exc()}")
            return None
        seconds = time.perf_counter() - started
        report = result.report
        values = [report.best_val] + [
            v for r in report.records for v in (r.train_task, r.train_rule, r.val_metric)
        ]
        digest = params_sha256(result.params)
        if self.params_sha256 is None:
            self.params_sha256 = digest
        if not all(math.isfinite(v) for v in values):
            self._fail("non-finite loss in the fit report")
        elif report.final_epoch != cfg.max_epochs:
            self._fail(f"fit stopped after {report.final_epoch} of {cfg.max_epochs} epochs")
        elif digest != self.params_sha256:
            self._fail("fit with identical inputs gave different parameters")
        self.result = result
        self.fit_rows = report.final_epoch * self.dataset.counts()["train"]
        return seconds

    def save(self) -> None:
        checkpoint.save_checkpoint(self.checkpoint_path, self.result, self.cfg.raw, self.seed)

    def sweep(self) -> float | None:
        """One ``rulemix sweep`` command; returns its wall time, or None if it failed."""
        self.attempted += 1
        argv = ["sweep", "--checkpoint", str(self.checkpoint_path), "--out", str(self.sweep_path)]
        argv += [a.format(workdir=self.workdir) for a in self.workload.sweep_args]
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a failed operation is counted, and the run goes on
            self._fail(f"rulemix {' '.join(argv)} raised\n{traceback.format_exc()}")
            return None
        seconds = time.perf_counter() - started
        if code != 0:
            self._fail(f"rulemix {' '.join(argv)} exited {code}")
            return None
        records = _read_sweep(self.sweep_path)
        digest = hashlib.sha256(self.sweep_path.read_bytes()).hexdigest()
        if self.sweep_sha256 is None:
            self.sweep_sha256 = digest
        if len(records) != self.workload.sweep_records:
            self._fail(f"sweep wrote {len(records)} records, expected {self.workload.sweep_records}")
        elif not all(0.0 <= v <= 1.0 for _, _, v, _ in records):
            self._fail("verification ratio outside [0, 1]")
        elif not all(math.isfinite(m) for _, m, _, _ in records):
            self._fail("non-finite task metric in the sweep")
        elif digest != self.sweep_sha256:
            self._fail("sweep with identical inputs wrote a different CSV")
        return seconds

    def check_rows(self) -> None:
        """Each sweep CSV row must equal a direct ``predict_values`` evaluation."""
        ck = checkpoint.load_checkpoint(self.checkpoint_path)
        rule = self.cfg.rule()
        perturb_seed = int(self.cfg.raw["sweep"]["perturb_seed"])
        splits: dict[str, tuple] = {}
        for alpha, metric, ver, split in _read_sweep(self.sweep_path):
            self.attempted += 1
            if split not in splits:
                x, y = self.dataset.subset(split)
                pert = None
                if isinstance(rule, rules.MonotonicRule):
                    pert = rules.perturb_batch(x, rule, np.random.default_rng(perturb_seed))
                splits[split] = (x, y, pert)
            x, y, pert = splits[split]
            y_hat = model.predict_values(ck.spec, ck.params, x, alpha)
            if pert is None:
                want_ver = rules.verification_ratio(rule, x, y_hat)
            else:
                y_hat_p = model.predict_values(ck.spec, ck.params, pert.x_p, alpha)
                want_ver = rules.verification_ratio(rule, x, y_hat, y_hat_p, pert.valid)
            want_metric = evaluate.task_metric(self.cfg.metric_kind, y_hat, y)
            if (metric, ver) != (want_metric, want_ver):
                self._fail(
                    f"sweep row {split} alpha={alpha}: ({metric!r}, {ver!r}) "
                    f"!= direct ({want_metric!r}, {want_ver!r})"
                )


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rulemix").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cores": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def _interleaved(primary, secondary, seconds: float, repeats: int) -> tuple[list[float], list[float]]:
    """Run ``primary`` back to back for ``seconds``, with ``repeats`` runs of
    ``secondary`` spread evenly over that time, so both sample the same
    machine conditions. Returns the timings of the operations that succeeded."""
    first: list[float] = []
    second: list[float] = []
    n_first = n_second = 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and n_first and n_second >= repeats:
            return first, second
        if n_first and n_second < repeats and (
            elapsed >= seconds or n_second < math.ceil(repeats * elapsed / seconds)
        ):
            t, into, n_second = secondary(), second, n_second + 1
        else:
            t, into, n_first = primary(), first, n_first + 1
        if t is not None:
            into.append(t)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload; returns metrics, check tallies and run details."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        session = Session(workload, seed, Path(tmp))
        if trace:
            metrics, info = _traced(session, seconds, out_dir)
        else:
            metrics, info = _untraced(session, seconds)
        session.check_rows()
    info.update(
        attempted=session.attempted,
        failed=session.failed,
        params_sha256=session.params_sha256,
        sweep_csv_sha256=session.sweep_sha256,
        train_best_val=session.result.report.best_val,
    )
    return {"metrics": metrics, "info": info}


def _untraced(session: Session, seconds: float):
    setup_s: list[float] = []
    while len(setup_s) < MIN_SETUPS or (sum(setup_s) < MIN_SETUP_SECONDS and len(setup_s) < MAX_SETUPS):
        started = time.perf_counter()
        session.setup()
        setup_s.append(time.perf_counter() - started)
    if session.workload.timed == "fit":
        session.fit()  # warm-up (the first fit in a process is about 20% slower)
        session.save()  # the sweeps read this checkpoint
        fit_s, sweep_s = _interleaved(session.fit, session.sweep, seconds, SECONDARY_REPEATS)
    else:
        sweep_s, fit_s = _interleaved(session.sweep, session.fit, seconds, SECONDARY_REPEATS)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "train_rows_per_s": statistics.median(session.fit_rows / t for t in fit_s),
        "sweep_s": statistics.median(sweep_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"samples": {"setup_s": len(setup_s), "train_rows_per_s": len(fit_s), "sweep_s": len(sweep_s)}}
    return metrics, info


def _traced(session: Session, seconds: float, out_dir: Path):
    timed = session.fit if session.workload.timed == "fit" else session.sweep
    tracer = Tracer()
    with tracer.installed(), tracer.span(SETUP_ROOT):
        session.setup()
    timed()  # warm-up
    plain: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    while len(traced) < TRACED_PAIRS or time.perf_counter() - started < seconds:
        plain.append(timed())
        with tracer.installed(), tracer.span(OP_ROOT):
            traced.append(timed())
    with tracer.installed(), tracer.span(SECONDARY_ROOT):
        if session.workload.timed == "fit":
            session.save()
            session.sweep()
        else:
            session.fit()
    path = out_dir / f"trace-{session.workload.name}-seed{session.seed}.npz"
    tracer.write(path)
    metrics = tracer.summarize(OP_ROOT, SETUP_ROOT)
    untraced_s = statistics.median(t for t in plain if t is not None)
    traced_s = statistics.median(t for t in traced if t is not None)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    info = {
        "trace_file": str(path),
        "trace_overhead_s": traced_s - untraced_s,
        "samples": {"untraced_ops": len(plain), "traced_ops": len(traced)},
    }
    return metrics, info
