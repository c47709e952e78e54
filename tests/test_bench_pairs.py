"""``tools/bench_pairs.py`` gives each metric the verdict its pairs support, on synthetic pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_bench_pairs()
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # median 1.00, IQR 0.015


def flip(values):
    """The same runs as a higher-is-better metric: the verdict must not depend on the direction."""
    return [2.0 - v for v in values]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (PARENT, [v - 0.05 for v in PARENT], "gain"),
        # nine of ten pairs won is enough; eight is not
        (PARENT, [v - 0.05 for v in PARENT[:9]] + [1.2], "gain"),
        (PARENT, [v - 0.05 for v in PARENT[:8]] + [1.2, 1.2], "within bound"),
        # every pair won, but by less than the parent's interquartile range
        (PARENT, [v - 0.01 for v in PARENT], "within bound"),
        (PARENT, [v + 0.1 for v in PARENT], "within bound"),
        (PARENT, [v + 0.3 for v in PARENT], "regression"),
        # the parent spreads wider than the bound (IQR 1.0 around a median of 1.0)
        ([0.5, 1.5] * 5, [0.6, 1.3] * 5, "unresolved"),
        # every change run beats every parent run, though by less than the parent's interquartile range
        ([0.5, 1.5] * 5, [0.4, 0.45] * 5, "within bound"),
        ([0.5, 1.5] * 5, [1.4, 1.6] * 5, "regression"),
    ],
)
@pytest.mark.parametrize("better", ["lower", "higher"])
def test_verdict(parent, change, verdict, better):
    if better == "higher":
        parent, change = flip(parent), flip(change)
    assert bench_pairs.verdict(better, 0.25, parent, change) == verdict


def stub_run(side: str, values: dict[str, float]) -> dict:
    """What ``run_once`` returns for one run of ``side`` whose metrics read ``values``."""
    return {"env": {"side": side}, "info": {"params_sha256": "p", "sweep_csv_sha256": "s"},
            "result": {"failed": 0, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}}


def test_each_metric_of_a_workload_carries_its_verdict(monkeypatch):
    """``bench_workload`` over stubbed runner lines: one metric gains, one regresses, one holds."""
    values = {
        "parent": {"sweep_s": PARENT, "peak_rss_mb": PARENT, "setup_s": PARENT},
        "change": {"sweep_s": [v - 0.05 for v in PARENT], "peak_rss_mb": [v + 0.2 for v in PARENT],
                   "setup_s": PARENT},
    }
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        value = {name: runs[calls[side]] for name, runs in values[side].items()}
        calls[side] += 1
        return stub_run(side, value)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "git_describe", lambda checkout: checkout.name)
    declared = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    end_to_end = {name: declared[name] for name in values["parent"]}
    out = bench_pairs.bench_workload({"parent": Path("parent"), "change": Path("change")}, end_to_end, "w",
                                     list(range(10)), 1.0, lambda line: None)
    verdicts = {name: metric["verdict"] for name, metric in out["metrics"].items()}
    assert verdicts == {"sweep_s": "gain", "peak_rss_mb": "regression", "setup_s": "within bound"}
    assert [p["first"] for p in out["metrics"]["sweep_s"]["pairs"]] == ["parent", "change"] * 5


def test_a_checkout_outside_git_is_described_as_null_before_the_first_pair(tmp_path, monkeypatch):
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in sides.values():
        checkout.mkdir()
    events = []
    describe = bench_pairs.git_describe

    def spied_describe(checkout):
        events.append(("describe", checkout.name))
        return describe(checkout)

    def run_once(checkout, workload, seed, seconds):
        events.append(("run", checkout.name))
        return stub_run(checkout.name, {"sweep_s": 1.0})

    monkeypatch.setattr(bench_pairs, "git_describe", spied_describe)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    declared = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = bench_pairs.bench_workload(sides, {"sweep_s": declared["sweep_s"]}, "w", [1, 2], 1.0, lambda line: None)
    assert out["git_describe"] == {"parent": None, "change": None}
    assert events[:2] == [("describe", "parent"), ("describe", "change")]
    assert [e for e, _ in events[2:]] == ["run"] * 4
    json.dumps(out)  # the record is written as it is
