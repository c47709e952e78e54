"""Command-line entry point: data generation, training, sweeps, selection.

Every command is reproducible from its config file and seed alone; resolved
configs are dumped next to the outputs and checkpoints embed them, so a
sweep needs no arguments beyond the checkpoint to find its evaluation data.
Every command that writes lists its output paths, checks them once with
``check_paths``, does its work, and then writes through ``staged_writes``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import Arrays
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TASKS, ExperimentConfig, checked, config_from_dict, load_config, sweep_splits
from .data import Dataset, check_paths, staged_writes, swept_rows, write_dataset_csv, write_rows_cache, write_table
from .errors import CheckpointError, ConfigError, GenerationError, SimulationBlowup, TrainingAborted, WorkerDied
from .evaluate import EXTENDED_ALPHA_RANGE, alpha_grid, alpha_sweep, select_alpha, sweep_from_csv, sweep_to_csv
from .model import encode, forward_per_alpha
from .pendulum import PENDULUM_CSV_COLUMNS
from .train import fit

# reported in one line; ConfigError and the selection and ratio errors are ValueErrors
_HANDLED = (CheckpointError, GenerationError, SimulationBlowup, TrainingAborted, WorkerDied, ValueError, OSError)


def _dataset_columns(cfg: ExperimentConfig, dataset: Dataset) -> list[str]:
    if cfg.task == "pendulum":
        return list(PENDULUM_CSV_COLUMNS)
    return [f"x{i}" for i in range(dataset.x.shape[1])] + ["y", "split"]


def _load_experiment(args) -> ExperimentConfig:
    task, seed = getattr(args, "task", None), getattr(args, "seed", None)
    if args.config:
        cfg = load_config(args.config)
    elif task:
        cfg = config_from_dict({"task": task})
    else:
        raise ConfigError("provide --config or --task")
    if task and cfg.task != task:
        raise ConfigError(f"--task {task} conflicts with config task {cfg.task}")
    if seed is None:
        return cfg
    return config_from_dict({**cfg.raw, "seed": seed, "data": {**cfg.raw["data"], "seed": seed}})


def cmd_gen_data(args) -> int:
    cfg = _load_experiment(args)
    out = Path(args.out) if args.out else cfg.output_dir / "dataset.csv"
    check_paths({"--config": args.config}, [("--out", out)])
    dataset = cfg.build_dataset()
    with staged_writes() as stage:  # a failed write leaves no partial file
        write_dataset_csv(stage(out), dataset, _dataset_columns(cfg, dataset))
    counts = dataset.counts()
    print(f"wrote {out} rows={len(dataset)} train={counts['train']} val={counts['val']} test={counts['test']}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    out_dir = Path(args.out_dir) if args.out_dir else cfg.output_dir
    resolved, summary = out_dir / "resolved.yaml", out_dir / "summary.csv"
    seeds = range(cfg.seed, cfg.seed + args.seeds)
    files = {s: (out_dir / f"checkpoint_seed{s}.npz", out_dir / f"report_seed{s}.csv") for s in seeds}
    outputs = [resolved, *(path for pair in files.values() for path in pair), *([summary] if args.seeds > 1 else [])]
    check_paths({"--config": args.config}, [("--out-dir", path) for path in outputs])
    print(cfg.resolved_yaml(), end="")
    dataset = cfg.build_dataset()
    spec, rule = cfg.model_spec(), cfg.rule()
    best_vals, lines = [], []
    for seed, (ck_path, report_path) in files.items():
        result = fit(spec, replace(cfg.train_config(), seed=seed), dataset, rule)
        with staged_writes() as stage:  # a seed's files appear together, once its fit has ended
            if seed == cfg.seed:
                stage(resolved).write_text(cfg.resolved_yaml())
            with open(stage(ck_path), "wb") as fh:
                save_checkpoint(fh, result, cfg.raw, seed)
            result.report.to_csv(stage(report_path))
        report = result.report
        best_vals.append(report.best_val)
        lines.append(f"{seed},{report.best_val:.17g},{report.final_epoch},{report.wall_seconds:.3f}\n")
        print(
            f"seed={seed} best_val={report.best_val:.6g} "
            f"epochs={report.final_epoch} seconds={report.wall_seconds:.1f} -> {ck_path}"
        )
    if args.seeds > 1:
        with staged_writes() as stage:
            stage(summary).write_text("seed,best_val,final_epoch,wall_seconds\n" + "".join(lines))
        print(f"best_val mean={np.mean(best_vals):.6g} std={np.std(best_vals, ddof=1):.6g} over {args.seeds} seeds")
    return 0


def cmd_sweep(args) -> int:
    if not math.isfinite(args.embeddings_alpha):
        raise ConfigError(f"--embeddings-alpha must be finite, got {args.embeddings_alpha}")
    out = Path(args.out) if args.out else Path(args.checkpoint).with_suffix(".sweep.csv")
    inputs = {"--checkpoint": args.checkpoint, "--data-csv": args.data_csv}
    check_paths(inputs, [("--out", out), ("--embeddings-out", args.embeddings_out)])
    if missing := [Path(p) for p in (out, args.embeddings_out) if p and not Path(p).parent.is_dir()]:
        raise FileNotFoundError(f"{missing[0]}: output directory {missing[0].parent} does not exist")
    ck: Checkpoint = load_checkpoint(args.checkpoint)
    raw = ck.config
    data = raw.get("data", {}) if isinstance(raw, dict) else None
    if args.data_csv and isinstance(data, dict):
        # the given CSV replaces the one the checkpoint was trained from, which may have moved
        raw = {**raw, "data": {**data, "csv": args.data_csv}}
    try:
        cfg = config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (in the config stored in {args.checkpoint})") from exc
    s = cfg.sweep
    start, stop = EXTENDED_ALPHA_RANGE if args.extended else (s.start, s.stop)
    grid = alpha_grid(
        start if args.start is None else args.start,
        stop if args.stop is None else args.stop,
        s.step if args.step is None else args.step,
    )
    splits = s.splits if args.splits is None else sweep_splits(args.splits.split(","))
    rule = cfg.rule()
    if rule is None:
        raise ConfigError("sweep needs a rule for verification; config has rule.kind=none")
    # a --data-csv is other data on purpose: it is neither checked nor cached
    digests = None if args.data_csv else ck.data_sha256
    cache_dir = Path(args.checkpoint).parent
    rows, built = swept_rows(cfg.build_dataset, splits, digests, cache_dir)
    records = []
    for split in splits:
        x, y = rows[split]
        if x.shape[0] == 0:
            raise ConfigError(f"split {split!r} is empty in the evaluation dataset")
        records.extend(
            alpha_sweep(
                ck.spec, ck.params, x, y, rule, grid, cfg.metric_kind,
                split=split, perturb_seed=s.perturb_seed,
            )
        )
    if args.embeddings_out:  # computed before anything is written
        x, _ = rows[splits[-1]]
        encoded = encode(Arrays(), ck.spec, ck.params, x)
        fwd = next(forward_per_alpha(ck.spec, ck.params, encoded, [args.embeddings_alpha]))
        latents = {key: v for key, v in {"z": fwd.latent, "z_rule": fwd.z_rule, "z_data": fwd.z_data}.items()
                   if v is not None}
        names = [f"{key}{j}" for key, mat in latents.items() for j in range(mat.shape[1])]
    with staged_writes() as stage:  # either every output is written or none is
        sweep_to_csv(records, stage(out))
        if args.embeddings_out:
            write_table(stage(args.embeddings_out), names, list(latents.values()))
    print(f"wrote {out} records={len(records)} alphas={len(grid)} splits={','.join(splits)}")
    if args.embeddings_out:
        print(f"wrote {args.embeddings_out} rows={x.shape[0]}")
    if digests is not None and built:
        try:
            write_rows_cache(cache_dir, digests, rows, built)
        except OSError as exc:  # a missing cache only costs the next sweep a rebuild
            print(f"note: rows cache not written: {exc}", file=sys.stderr)
    return 0


def cmd_select(args) -> int:
    records = sweep_from_csv(args.sweep)
    pool = [r for r in records if r.split == args.split]
    if not pool:
        raise ConfigError(f"no sweep records for split {args.split!r}")
    selection = select_alpha(pool, min_verification=args.min_verification)
    payload = {
        "alpha": selection.alpha,
        "objective": selection.objective,
        "split": args.split,
        "task_metric": selection.task_metric,
        "verification": selection.verification,
    }
    others = {}
    for r in records:
        if r.split != args.split and r.alpha == selection.alpha:
            others[r.split] = {"task_metric": r.task_metric, "verification": r.verification}
    if others:
        payload["at_same_alpha"] = others
    print(json.dumps(payload, sort_keys=True))
    return 0


def _ablation_config(cfg: ExperimentConfig, what: str, value: str) -> ExperimentConfig:
    """``cfg`` with one ``ablate --values`` entry applied, converted and checked."""
    raw = json.loads(json.dumps(cfg.raw))  # deep copy
    if what == "coupling":
        raw["model"]["coupling"] = value
    elif what == "beta":
        raw["train"]["beta"] = checked("--values", float, value)
    else:  # lambda: the fixed-weight baseline
        raw["train"]["mode"] = "task_and_rule"
        raw["train"]["rule_weight"] = checked("--values", float, value)
        raw["model"]["coupling"] = "single"
    return config_from_dict(raw)


def cmd_ablate(args) -> int:
    cfg = _load_experiment(args)
    out_dir = Path(args.out_dir) if args.out_dir else cfg.output_dir / f"ablate_{args.what}"
    runs = []
    for value in args.values.split(","):
        tag = f"{args.what}_{value}".replace("/", "_")
        sub = _ablation_config(cfg, args.what, value)
        runs.append((value, sub, out_dir / f"checkpoint_{tag}.npz", out_dir / f"sweep_{tag}.csv"))
    summary = out_dir / "summary.csv"
    outputs = [*(path for run in runs for path in run[2:]), summary]
    check_paths({"--config": args.config}, [("--out-dir", path) for path in outputs])
    dataset = cfg.build_dataset()
    x, y = dataset.subset("test")
    lines = []
    for value, sub, ck_path, sweep_path in runs:
        result = fit(sub.model_spec(), sub.train_config(), dataset, sub.rule())
        records = alpha_sweep(
            sub.model_spec(), result.params, x, y, sub.rule(), sub.sweep.grid(),
            sub.metric_kind, split="test", perturb_seed=sub.sweep.perturb_seed,
        )
        with staged_writes() as stage:  # a value's checkpoint and sweep appear together
            with open(stage(ck_path), "wb") as fh:
                save_checkpoint(fh, result, sub.raw, sub.seed)
            sweep_to_csv(records, stage(sweep_path))
        best = select_alpha(records, sub.sweep.min_verification)
        report, ver = result.report, records[-1].verification
        lines.append(f"{value},{report.best_val:.17g},{best.alpha:g},{best.task_metric:.17g},{ver:.17g}\n")
        print(
            f"{args.what}={value} best_val={report.best_val:.6g} "
            f"best_alpha={best.alpha:g} test_metric={best.task_metric:.6g}"
        )
    header = f"{args.what},best_val,best_alpha,best_test_metric,verification_at_grid_end\n"
    with staged_writes() as stage:
        stage(summary).write_text(header + "".join(lines))
    print(f"wrote {summary}")
    return 0


def _arg(convert, ok, what: str):
    """An argparse type: ``convert(text)`` where ``ok`` holds for it, else the usage error "must be <what>"."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _arg(int, lambda v: v >= 1, "an integer >= 1")
_unit_fraction = _arg(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")  # NaN fails too
_path = _arg(str, bool, "a non-empty path")  # an empty path would fall back to a default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rulemix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset CSV from a config or task defaults")
    p.add_argument("--config", type=_path, help="experiment config YAML")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--seed", type=int, help="override experiment and data seeds")
    p.add_argument("--out", type=_path, help="output CSV path (default <output_dir>/dataset.csv)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a model per config; writes checkpoint + report CSV")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--seeds", type=_positive_int, default=1, help="number of seed replicates (seed, seed+1, ...)")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--out-dir", type=_path, help="override the config output_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="rule-strength sweep over a checkpoint; writes CSV")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--out", type=_path)
    p.add_argument("--splits", help="comma-separated splits (default from config)")
    p.add_argument(
        "--extended", action="store_true",
        help=f"use the extrapolation grid [{EXTENDED_ALPHA_RANGE[0]}, {EXTENDED_ALPHA_RANGE[1]}]",
    )
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--data-csv", type=_path, help="evaluate on a CSV instead of regenerating from the config")
    p.add_argument("--embeddings-out", type=_path, help="also export latent representations as CSV")
    p.add_argument("--embeddings-alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("select", help="pick the operating strength from a sweep CSV")
    p.add_argument("--sweep", type=_path, required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--min-verification", type=_unit_fraction, help="verification floor in [0, 1]")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("ablate", help="batch runs over beta / coupling / lambda grids")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--what", required=True, choices=("beta", "coupling", "lambda"))
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--out-dir", type=_path)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: staged writes are already undone
        print("error: interrupted", file=sys.stderr)
        return 130  # the shell's code for a process ended by SIGINT


if __name__ == "__main__":
    sys.exit(main())
