"""rulemix benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans are
also written to ``perfbench/out/``. Human-readable lines (environment,
sample counts, hashes, every metric with its unit) come first; the last line
of standard output is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # single-core times, independent of the core count and of BLAS threading

END_TO_END = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics in the JSON result: counts, ratios, and the times that
# are non-zero on every workload. The traced run prints the rest as well.
PER_LAYER = [
    "optim.adam_update_us",
    "optim.adam_update.calls",
    "optim.share_of_step",
    "autodiff.as_matrix.calls",
    "autodiff.nodes_per_tape",
    "autodiff.param.fwd_us",
    "autodiff.constant.fwd_us",
    *(f"autodiff.{op}.fwd_us" for op in ("affine", "relu", "concat", "scale", "add", "divide", "mean_relu_diff")),
    *(
        f"autodiff.{op}.calls"
        for op in (
            "affine", "relu", "sigmoid", "concat", "scale", "add", "divide",
            "rowmap", "mean_relu_diff", "mse", "bce",
        )
    ),
    "autodiff.affine.gflop_per_s_computed",
    "autodiff.backprop_us",
    "autodiff.backprop.calls",
    "model.predict_us",
    "model.block.rule_us",
    "model.block.data_us",
    "model.block.decision_us",
    "model.couple_us",
    "model.encoder_reuse",
    "train.train_step_us",
    "train.step_us_p50",
    "train.step_us_p90",
    "train.validation_us",
    "train.compute_loss_scale_us",
    "train.sample_alpha_us",
    "rules.energy_rule_node.calls",
    "rules.monotonic_rule_node.calls",
    "rules.perturb_batch.calls",
    "rules.verification_ratio_us",
    "evaluate.alpha_sweep_us",
    "evaluate.predict_values_us",
    "evaluate.task_metric_us",
    "evaluate.sweep_to_csv_us",
    "pendulum.rk4_steps",
    "pendulum.setup_rk4_steps",
    "checkpoint.load_us",
    "checkpoint.save_us",
    "config.config_from_dict_us",
    "data.subset_us",
    "trace.overhead_pct",
]

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_us") or name.startswith("train.step_us_"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("gflop_per_s_computed"):
        return "GFLOP/s"
    if name.endswith(("share_of_step", "encoder_reuse")):
        return "ratio"
    return "count"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("train-desk", "train-perturb", "sweep-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "rulemix" / "__init__.py").is_file():
        print(f"error: rulemix sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import environment, run  # imports numpy: after the thread settings

    out = run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    metrics, info = out["metrics"], out["info"]
    attempted, failed = info["attempted"], info["failed"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(ROOT), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print(f"{'ops_attempted':40s} {attempted}")
    print(f"{'ops_failed_ratio':40s} {failed / attempted:.6g}")
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:.6g} {unit_of(name)}")

    wanted = list(END_TO_END) if not args.trace else PER_LAYER
    values = {name: metrics[name] for name in wanted}
    bad = [n for n, v in values.items() if not math.isfinite(v) or not NAME_RE.fullmatch(n)]
    if bad:
        print(f"error: unusable metrics {bad}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
