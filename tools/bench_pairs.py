"""Alternating parent/change benchmark pairs, written to one BENCH JSON file.

Runs ``perfbench/run.py`` (untraced) from two checkouts of the repository,
pair by pair: for each workload and seed, one run of each side, with the side
that runs first alternating from pair to pair so that drift in the machine's
speed falls on both sides alike. Nothing is measured here; every number is
read from the runner's result line.

Usage, from the repository root, with the parent commit checked out
elsewhere (e.g. ``git clone`` and ``git checkout <rev>``):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload sweep-cli --seeds 311-319,7919 --seconds 20 --out BENCH_x.json

``--workload`` and ``--seeds`` may be repeated in step, one seed list per
workload. The file holds each side's env line, every end-to-end metric of
every pair, each side's median and quartiles (``statistics.quantiles``,
inclusive method), how many pairs the change won, the median, minimum and
maximum of the per-pair ratio change / parent, a ``verdict`` (see ``verdict``),
and the parameter and sweep-CSV digests of each seed, with a flag saying
whether they agree.
Next to each side's env line it records ``git describe --always --dirty``
of that checkout, since the env line's ``git_sha`` is the checkout's HEAD
and reads the same on both sides when the change is an uncommitted tree.
It is read before the first pair runs, and is null for a checkout that is
not a git repository (e.g. a ``git archive`` export).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """``311-314,7919`` -> [311, 312, 313, 314, 7919]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced runner invocation; returns its env, info and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    info = next(json.loads(l[5:]) for l in lines if l.startswith("info "))
    result = json.loads(lines[-1])
    return {"env": env, "info": info, "result": result}


def git_describe(checkout: Path) -> str | None:
    """``git describe --always --dirty`` of the checkout: its commit, and whether its tree differs.

    None when git cannot describe it, as for a directory outside any git repository.
    """
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def ratios(parent: list[float], change: list[float]) -> dict:
    """Median, min and max of change / parent over the pairs; None where a parent value is 0.

    A pair shares the machine's state of the moment, so its ratio cancels
    drift that the medians of the two sides do not.
    """
    if 0 in parent:
        return {"median": None, "min": None, "max": None}
    per_pair = [b / a for a, b in zip(parent, change)]
    return {"median": statistics.median(per_pair), "min": min(per_pair), "max": max(per_pair)}


def change_wins(better: str, parent: float, change: float) -> bool:
    return change < parent if better == "lower" else change > parent


def verdict(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """What the pairs show of one metric, ``bound`` being the fraction of the parent's median it may worsen by.

    - "gain": the change wins at least nine tenths of the pairs, ties
      counting for neither, and its median is better than the parent's by
      more than the parent's interquartile range;
    - "regression": the change's median is worse than the parent's by more
      than the bound;
    - "unresolved": the parent's interquartile range is wider than the
      bound, and not every change run is better than every parent run;
    - "within bound" otherwise.
    """
    p, c = summary(parent), summary(change)
    gain = (p["median"] - c["median"]) if better == "lower" else (c["median"] - p["median"])
    wins = sum(change_wins(better, a, b) for a, b in zip(parent, change))
    if wins >= 0.9 * len(parent) and gain > p["iqr"]:
        return "gain"
    if -gain > bound * abs(p["median"]):
        return "regression"
    best_parent, worst_change = (min(parent), max(change)) if better == "lower" else (max(parent), min(change))
    every_run_better = change_wins(better, best_parent, worst_change)
    if p["iqr"] > bound * abs(p["median"]) and not every_run_better:
        return "unresolved"
    return "within bound"


def bench_workload(
    sides: dict[str, Path], end_to_end: dict[str, dict], workload: str, seeds: list[int], seconds: float, log,
) -> dict:
    """``end_to_end`` maps each end-to-end metric to its ``BENCHMARK.json`` record: "better" and "bound"."""
    described = {s: git_describe(sides[s]) for s in sides}  # before the pairs: the checkouts may change later
    pairs = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for side in order:
            runs[side] = run_once(sides[side], workload, seed, seconds)
            m = runs[side]["result"]["metrics"]
            log(f"{workload} seed={seed} {side}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in m.items()))
        pairs.append({"seed": seed, "first": order[0], **runs})
    metrics = {}
    for name, declared in end_to_end.items():
        direction = declared["better"]
        per_side = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs] for s in sides}
        metrics[name] = {
            "unit": pairs[0]["parent"]["result"]["metrics"][name]["unit"],
            "better": direction,
            "pairs": [
                {"seed": p["seed"], "first": p["first"], "parent": a, "change": b}
                for p, a, b in zip(pairs, per_side["parent"], per_side["change"])
            ],
            "parent": summary(per_side["parent"]),
            "change": summary(per_side["change"]),
            "change_wins": sum(change_wins(direction, a, b) for a, b in zip(per_side["parent"], per_side["change"])),
            "ratio": ratios(per_side["parent"], per_side["change"]),
            "verdict": verdict(direction, declared["bound"], per_side["parent"], per_side["change"]),
        }
    digests = []
    for p in pairs:
        row = {"seed": p["seed"]}
        for key in ("params_sha256", "sweep_csv_sha256"):
            row[key] = {s: p[s]["info"][key] for s in sides}
            row[f"{key}_equal"] = row[key]["parent"] == row[key]["change"]
        row["failed"] = {s: p[s]["result"]["failed"] for s in sides}
        digests.append(row)
    return {"seconds": seconds, "n_pairs": len(pairs), "metrics": metrics, "digests": digests,
            "env": {s: pairs[0][s]["env"] for s in sides}, "git_describe": described}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", action="append", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        p.error("give one --seeds list per --workload")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    log = lambda line: print(line, file=sys.stderr, flush=True)
    out = {"workloads": {}}
    for workload, seeds in zip(args.workload, args.seeds):
        out["workloads"][workload] = bench_workload(sides, end_to_end, workload, seeds, args.seconds, log)
        # written after each workload, so an interrupted run keeps what it measured
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
