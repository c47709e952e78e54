"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rulemix.evaluate  # noqa: E402
import rulemix.model  # noqa: E402
import rulemix.optim  # noqa: E402
import rulemix.train  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patch_table  # noqa: E402

ORIGINALS = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patch_table()]
EXACT = ("autodiff.as_matrix.calls", "autodiff.nodes_per_tape", "pendulum.rk4_steps", "model.encoder_reuse")


def _assert_restored() -> None:
    assert rulemix.train.adam_update is rulemix.optim.adam_update
    assert rulemix.train.predict is rulemix.model.predict
    assert rulemix.evaluate.predict_values is rulemix.model.predict_values
    for owner, attr, original in ORIGINALS:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still patched"


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_twice(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return [
        workloads.run(request.param, seed=3, seconds=0, trace=True, out_dir=out)["metrics"]
        for _ in range(2)
    ]


def test_traced_run_restores_every_patched_name(traced_twice):
    _assert_restored()


def test_tracer_restores_names_when_the_traced_code_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            assert rulemix.train.adam_update is not rulemix.optim.adam_update
            raise RuntimeError("boom")
    _assert_restored()


def test_exact_counts_repeat_between_traced_runs(traced_twice):
    first, second = traced_twice
    counts = [n for n in first if n in EXACT or n.endswith(".calls")]
    assert set(EXACT) <= set(counts)
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["model.encoder_reuse"] == 1.0


def test_metric_names_are_well_formed(traced_twice):
    names = set(traced_twice[0]) | set(bench.END_TO_END) | set(bench.PER_LAYER)
    bad = [n for n in names if not bench.NAME_RE.fullmatch(n)]
    assert not bad
    assert set(bench.PER_LAYER) <= set(traced_twice[0])


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == bench.PER_LAYER
    assert all(m["unit"] == bench.unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
