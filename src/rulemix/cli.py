"""Command-line entry point: data generation, training, sweeps, selection.

Every command is reproducible from its config file and seed alone; resolved
configs are dumped next to the outputs and checkpoints embed them, so a
sweep needs no arguments beyond the checkpoint to find its evaluation data.
A checkpoint also holds the sha256 of each split's rows as trained. A sweep
reads those rows from ``rows-<sha256>.npz`` beside the checkpoint when that
file re-hashes to the digest. Otherwise it rebuilds them from the config,
fails if they hash differently, and writes the file for the next sweep.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TASKS, ExperimentConfig, checked, config_from_dict, load_config, sweep_splits
from .data import Dataset, staged_writes, write_dataset_csv
from .errors import (
    CheckpointError,
    ConfigError,
    GenerationError,
    InfeasibleSelectionError,
    SimulationBlowup,
    TrainingAborted,
    UndefinedRatioError,
)
from .evaluate import EXTENDED_ALPHA_RANGE, alpha_grid, alpha_sweep, select_alpha, sweep_from_csv, sweep_to_csv
from .model import forward_per_alpha
from .pendulum import PENDULUM_CSV_COLUMNS
from .train import fit

_HANDLED = (
    CheckpointError,
    ConfigError,
    GenerationError,
    InfeasibleSelectionError,
    SimulationBlowup,
    TrainingAborted,
    UndefinedRatioError,
    ValueError,
    OSError,
)


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
    _check_paths({"--config": args.config, "--out": out}, outputs=("--out",))
    dataset = cfg.build_dataset()
    out.parent.mkdir(parents=True, exist_ok=True)
    with staged_writes() as stage:  # a failed write leaves no partial file
        write_dataset_csv(stage(out), dataset, _dataset_columns(cfg, dataset))
    counts = dataset.counts()
    print(f"wrote {out} rows={len(dataset)} train={counts['train']} val={counts['val']} test={counts['test']}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    out_dir = Path(args.out_dir) if args.out_dir else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved.yaml").write_text(cfg.resolved_yaml())
    print(cfg.resolved_yaml(), end="")
    dataset = cfg.build_dataset()
    spec = cfg.model_spec()
    rule = cfg.rule()
    rows = []
    for i in range(args.seeds):
        seed = cfg.seed + i
        train_cfg = cfg.train_config()
        train_cfg = type(train_cfg)(**{**train_cfg.__dict__, "seed": seed})
        result = fit(spec, train_cfg, dataset, rule)
        ck_path = out_dir / f"checkpoint_seed{seed}.npz"
        save_checkpoint(ck_path, result, cfg.raw, seed)
        result.report.to_csv(out_dir / f"report_seed{seed}.csv")
        rows.append((seed, result.report.best_val, result.report.final_epoch, result.report.wall_seconds))
        print(
            f"seed={seed} best_val={result.report.best_val:.6g} "
            f"epochs={result.report.final_epoch} seconds={result.report.wall_seconds:.1f} -> {ck_path}"
        )
    if args.seeds > 1:
        vals = np.array([r[1] for r in rows])
        with open(out_dir / "summary.csv", "w") as fh:
            fh.write("seed,best_val,final_epoch,wall_seconds\n")
            for seed, best, epochs, secs in rows:
                fh.write(f"{seed},{best:.17g},{epochs},{secs:.3f}\n")
        print(f"best_val mean={vals.mean():.6g} std={vals.std(ddof=1):.6g} over {args.seeds} seeds")
    return 0


def _check_paths(paths: dict[str, str | Path | None], outputs: tuple[str, ...]) -> None:
    """Before any work: every given path names its own file, and no output is a directory."""
    seen: dict[Path, str] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"{flag} {path} is the same file as {seen[resolved]}")
        seen[resolved] = flag
    for flag in outputs:
        if paths[flag] is not None and Path(paths[flag]).is_dir():
            raise ConfigError(f"{flag} {paths[flag]} is a directory")


def _check_sweep_paths(args, out: Path) -> None:
    """``_check_paths`` for a sweep, whose outputs must also be in existing directories."""
    outputs = {"--out": out, "--embeddings-out": args.embeddings_out}
    _check_paths({**outputs, "--checkpoint": args.checkpoint, "--data-csv": args.data_csv}, tuple(outputs))
    for path in outputs.values():
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"{path}: output directory {Path(path).parent} does not exist")


def _rows_cache(directory: Path, digest: str) -> Path:
    return directory / f"rows-{digest}.npz"


def _read_cached_rows(path: Path, split: str, digest: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The (x, y) cached at ``path`` if they re-hash to ``digest``; None for a missing or unusable file."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            x = np.asarray(archive["x"], dtype=np.float64)
            y = np.asarray(archive["y"], dtype=np.float64)
        rows = Dataset(x=x, y=y, split=np.full(x.shape[0], split, dtype=object))
    except (OSError, EOFError, KeyError, IndexError, TypeError, ValueError, zipfile.BadZipFile):
        return None
    return rows.subset(split) if rows.sha256(split) == digest else None


def _swept_rows(
    cfg: ExperimentConfig, splits: tuple[str, ...], digests: dict[str, str] | None, cache_dir: Path,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], tuple[str, ...]]:
    """Each swept split's (x, y), and the splits that were built rather than read from the cache.

    With ``digests``, a split is read from its cache file in ``cache_dir``
    when that re-hashes to the split's digest; a built split must hash to it.
    """
    rows = {}
    if digests is not None:
        for split in splits:
            cached = _read_cached_rows(_rows_cache(cache_dir, digests[split]), split, digests[split])
            if cached is not None:
                rows[split] = cached
    built = tuple(split for split in splits if split not in rows)
    if built:
        dataset = cfg.build_dataset(built)
        for split in built:
            if digests is not None and (digest := dataset.sha256(split)) != digests[split]:
                raise ConfigError(
                    f"split {split!r}: the rows rebuilt from the checkpoint's config have sha256 "
                    f"{digest[:12]}..., the model was trained beside {digests[split][:12]}...: "
                    "the data or the simulator changed since training"
                )
            rows[split] = dataset.subset(split)
    return rows, built


def _write_rows_cache(
    cache_dir: Path, digests: dict[str, str], rows: dict[str, tuple[np.ndarray, np.ndarray]], splits: tuple[str, ...],
) -> None:
    """Cache the rows of ``splits`` for the next sweep; a failed write is a note, since it only costs a rebuild."""
    try:
        with staged_writes() as stage:
            for split in splits:
                x, y = rows[split]
                with open(stage(_rows_cache(cache_dir, digests[split])), "wb") as fh:
                    np.savez(fh, x=x, y=y)
    except OSError as exc:
        print(f"note: rows cache not written: {exc}", file=sys.stderr)


def _write_embeddings(path: Path, names: list[str], stacked: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in stacked:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def cmd_sweep(args) -> int:
    if not math.isfinite(args.embeddings_alpha):
        raise ConfigError(f"--embeddings-alpha must be finite, got {args.embeddings_alpha}")
    out = Path(args.out) if args.out else Path(args.checkpoint).with_suffix(".sweep.csv")
    _check_sweep_paths(args, out)
    ck: Checkpoint = load_checkpoint(args.checkpoint)
    raw = ck.config
    data = raw.get("data", {}) if isinstance(raw, dict) else None
    if args.data_csv and isinstance(data, dict):
        # the given CSV replaces the one the checkpoint was trained from, which may have moved
        raw = {**raw, "data": {**data, "csv": args.data_csv}}
    cfg = config_from_dict(raw)
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
    rows, built = _swept_rows(cfg, splits, digests, cache_dir)
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
        tape, fwd = next(forward_per_alpha(ck.spec, ck.params, x, [args.embeddings_alpha]))
        nodes = {"z": fwd.latent, "z_rule": fwd.z_rule, "z_data": fwd.z_data}
        latents = {key: tape.value(node) for key, node in nodes.items() if node is not None}
        names = [f"{key}{j}" for key, mat in latents.items() for j in range(mat.shape[1])]
        stacked = np.concatenate(list(latents.values()), axis=1)
    with staged_writes() as stage:  # either every output is written or none is
        sweep_to_csv(records, stage(out))
        if args.embeddings_out:
            _write_embeddings(stage(args.embeddings_out), names, stacked)
    print(f"wrote {out} records={len(records)} alphas={len(grid)} splits={','.join(splits)}")
    if args.embeddings_out:
        print(f"wrote {args.embeddings_out} rows={stacked.shape[0]}")
    if digests is not None and built:
        _write_rows_cache(cache_dir, digests, rows, built)
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
    subs = [(value, _ablation_config(cfg, args.what, value)) for value in args.values.split(",")]
    out_dir = Path(args.out_dir) if args.out_dir else cfg.output_dir / f"ablate_{args.what}"
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = cfg.build_dataset()
    rows = []
    for value, sub in subs:
        result = fit(sub.model_spec(), sub.train_config(), dataset, sub.rule())
        tag = f"{args.what}_{value}".replace("/", "_")
        save_checkpoint(out_dir / f"checkpoint_{tag}.npz", result, sub.raw, sub.seed)
        x, y = dataset.subset("test")
        records = alpha_sweep(
            sub.model_spec(), result.params, x, y, sub.rule(), sub.sweep.grid(),
            sub.metric_kind, split="test", perturb_seed=sub.sweep.perturb_seed,
        )
        sweep_to_csv(records, out_dir / f"sweep_{tag}.csv")
        best = select_alpha(records, sub.sweep.min_verification)
        rows.append((value, result.report.best_val, best.alpha, best.task_metric, records[-1].verification))
        print(
            f"{args.what}={value} best_val={result.report.best_val:.6g} "
            f"best_alpha={best.alpha:g} test_metric={best.task_metric:.6g}"
        )
    with open(out_dir / "summary.csv", "w") as fh:
        fh.write(f"{args.what},best_val,best_alpha,best_test_metric,verification_at_grid_end\n")
        for value, best_val, alpha, metric, ver in rows:
            fh.write(f"{value},{best_val:.17g},{alpha:g},{metric:.17g},{ver:.17g}\n")
    print(f"wrote {out_dir / 'summary.csv'}")
    return 0


def _positive_int(text: str) -> int:
    """``--seeds``: an integer >= 1, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _unit_fraction(text: str) -> float:
    """``--min-verification``: a number in [0, 1], or a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return value


def _path(text: str) -> str:
    """A path option: any non-empty text, or a usage error (an empty path would fall back to a default)."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


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


if __name__ == "__main__":
    sys.exit(main())
