"""End-to-end command-line workflows on desk-size configs."""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimulatedTrajectories, assert_reaped, force_sweep_workers, force_workers
from rulemix.autodiff import Tape
from rulemix.checkpoint import load_checkpoint
from rulemix.cli import main
from rulemix.config import config_from_dict
from rulemix.data import Dataset
from rulemix.evaluate import sweep_from_csv
from rulemix.model import predict


def tiny_pendulum_config(tmp_path, **overrides):
    raw = {
        "task": "pendulum",
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        # friction high enough that 8 s trajectories decay to the near-rest
        # regime, keeping the initial rule loss positive even at desk size
        "data": {"n_pairs": 160, "n_trajectories": 2, "friction": 2.0, "seed": 0},
        "model": {
            "shared_units": [],
            "encoder_units": [8, 6],
            "decision_units": [8],
        },
        "train": {"max_epochs": 2, "patience": 1},
        "sweep": {"step": 0.5},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw[key] = {**raw.get(key, {}), **value}
        else:
            raw[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestGenData:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        cfg = tiny_pendulum_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_task_flag_alone_uses_defaults(self, tmp_path, capsys):
        out = tmp_path / "mono.csv"
        code = main(
            ["gen-data", "--task", "monotone-regression", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "x0,x1,x2,x3,x4,y,split"

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = tiny_pendulum_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(cfg), "--out", str(out1)])
        main(["gen-data", "--config", str(cfg), "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize(
        "config,out",
        [("config.yaml", "config.yaml"), ("config.yaml", "./config.yaml"), ("{tmp}/config.yaml", "../{tmp_name}/config.yaml")],
    )
    def test_out_naming_the_config_fails_before_the_build(
        self, tmp_path, capsys, monkeypatch, simulated, config, out
    ):
        path = tiny_pendulum_config(tmp_path)
        before = path.read_bytes()
        monkeypatch.chdir(tmp_path)
        names = dict(tmp=tmp_path, tmp_name=tmp_path.name)
        argv = ["gen-data", "--config", config.format(**names), "--out", out.format(**names)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: --out "), err
        assert err[0].endswith("is the same file as --config"), err
        assert simulated == [] and path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("flags", [["--out", "{tmp}/adir"], []], ids=["given", "default"])
    def test_out_naming_a_directory_fails_before_the_build(self, tmp_path, capsys, simulated, flags):
        cfg = tiny_pendulum_config(tmp_path, output_dir=str(tmp_path))
        adir = tmp_path / "adir"
        adir.mkdir()
        (tmp_path / "dataset.csv").mkdir()  # the default output of that config
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg), *[f.format(tmp=tmp_path) for f in flags]]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: --out ") and "is a directory" in err[0], err
        assert simulated == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "config.yaml", "dataset.csv"]
        assert list(adir.iterdir()) == [] and list((tmp_path / "dataset.csv").iterdir()) == []

    def test_failed_write_keeps_the_old_file_and_leaves_no_partial_one(self, tmp_path, capsys, monkeypatch):
        cfg = tiny_pendulum_config(tmp_path)
        out = tmp_path / "data.csv"
        out.write_text("earlier\n")

        def failing(path, dataset, columns):
            Path(path).write_text(",".join(columns[:3]))
            raise OSError("No space left on device")

        monkeypatch.setattr("rulemix.cli.write_dataset_csv", failing)
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: OSError: No space left on device"]
        assert out.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "data.csv"]


    def test_failed_build_creates_no_directory(self, tmp_path, capsys, monkeypatch):
        from rulemix.config import ExperimentConfig
        from rulemix.errors import SimulationBlowup

        def failing(self, splits=None):
            raise SimulationBlowup("state left the finite range")

        monkeypatch.setattr(ExperimentConfig, "build_dataset", failing)
        cfg = tiny_pendulum_config(tmp_path)
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "new" / "data.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: SimulationBlowup:"), err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    def test_blowup_in_a_worker_is_one_error_line_with_its_step(self, tmp_path, capsys, monkeypatch):
        import os

        import rulemix.pendulum
        from rulemix.errors import SimulationBlowup

        caller, real = os.getpid(), rulemix.pendulum.simulate_states

        def blowing_up_in_a_worker(*args, **kwargs):
            if os.getpid() != caller:
                raise SimulationBlowup(17)
            return real(*args, **kwargs)

        monkeypatch.setattr(rulemix.pendulum, "simulate_states", blowing_up_in_a_worker)
        force_workers(monkeypatch, 2)
        cfg = tiny_pendulum_config(tmp_path)
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: SimulationBlowup: non-finite state at integration step 17"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    def test_a_worker_that_dies_is_one_error_line_naming_it(self, tmp_path, capsys, monkeypatch, forks):
        import os

        import rulemix.pendulum

        caller, real = os.getpid(), rulemix.pendulum._trajectory

        def dying_in_a_worker(*args):
            if os.getpid() != caller:
                os._exit(3)  # ends the worker before it sends a result, as a kill would
            return real(*args)

        monkeypatch.setattr(rulemix.pendulum, "_trajectory", dying_in_a_worker)
        force_workers(monkeypatch, 2)
        cfg = tiny_pendulum_config(tmp_path)
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(forks) == 1
        assert err == [f"error: WorkerDied: worker process {forks[0]} ended without a result (exit status 3)"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]
        assert_reaped(forks)

    def test_an_interrupt_is_one_error_line_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def interrupted(path, dataset, columns):
            Path(path).write_text(",".join(columns[:3]))  # the staged file is half written
            raise KeyboardInterrupt

        monkeypatch.setattr("rulemix.cli.write_dataset_csv", interrupted)
        cfg = tiny_pendulum_config(tmp_path)
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 130
        assert capsys.readouterr().err.strip().splitlines() == ["error: interrupted"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]  # no target, no .tmp


class TestTrainSweepSelect:
    def test_each_output_is_staged_and_renamed_once(self, tmp_path, monkeypatch):
        import os

        renames = []
        real = os.replace

        def counting(src, dst):
            renames.append(Path(dst).name)
            real(src, dst)

        monkeypatch.setattr(os, "replace", counting)
        cfg = tiny_pendulum_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--seeds", "1"]) == 0
        assert renames == ["resolved.yaml", "checkpoint_seed0.npz", "report_seed0.csv"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(renames)

    def test_full_pipeline_emits_selection_summary(self, tmp_path, capsys):
        cfg = tiny_pendulum_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg)]) == 0
        ck = out_dir / "checkpoint_seed0.npz"
        assert ck.exists()
        assert (out_dir / "report_seed0.csv").exists()
        assert (out_dir / "resolved.yaml").exists()
        sweep_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(sweep_csv)]) == 0
        assert main(["select", "--sweep", str(sweep_csv), "--split", "val"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"alpha", "objective", "task_metric", "verification"} <= payload.keys()
        assert payload["at_same_alpha"]["test"]["task_metric"] > 0.0

    def test_resolved_config_echoes_defaults(self, tmp_path, capsys):
        cfg = tiny_pendulum_config(tmp_path)
        main(["train", "--config", str(cfg)])
        echoed = capsys.readouterr().out
        assert "beta: 0.1" in echoed and "lr: 0.001" in echoed

    def test_train_is_reproducible(self, tmp_path):
        cfg = tiny_pendulum_config(tmp_path)
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "r1")])
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "r2")])
        a = load_checkpoint(tmp_path / "r1" / "checkpoint_seed0.npz")
        b = load_checkpoint(tmp_path / "r2" / "checkpoint_seed0.npz")
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_seed_replicates_write_summary(self, tmp_path):
        cfg = tiny_pendulum_config(tmp_path)
        out_dir = tmp_path / "multi"
        assert main(["train", "--config", str(cfg), "--seeds", "2", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "checkpoint_seed0.npz").exists()
        assert (out_dir / "checkpoint_seed1.npz").exists()
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "seed,best_val,final_epoch,wall_seconds"
        assert len(lines) == 3

    def test_task_only_checkpoint_sweeps_identically_across_strengths(self, tmp_path):
        cfg = tiny_pendulum_config(
            tmp_path,
            model={"coupling": "single", "shared_units": [], "encoder_units": [8, 6], "decision_units": [8]},
            train={"mode": "task_only", "max_epochs": 2, "patience": 1},
            rule={"kind": "none"},
        )
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg)]) == 0
        sweep_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--checkpoint",
                str(out_dir / "checkpoint_seed0.npz"),
                "--out",
                str(sweep_csv),
            ]
        )
        assert code == 1  # rule.kind=none cannot verify anything

    def test_task_only_sweep_with_energy_rule_rows_identical(self, tmp_path):
        cfg = tiny_pendulum_config(
            tmp_path,
            model={"coupling": "single", "shared_units": [], "encoder_units": [8, 6], "decision_units": [8]},
            train={"mode": "task_only", "max_epochs": 2, "patience": 1},
        )
        out_dir = tmp_path / "out"
        main(["train", "--config", str(cfg)])
        sweep_csv = tmp_path / "sweep.csv"
        assert (
            main(["sweep", "--checkpoint", str(out_dir / "checkpoint_seed0.npz"), "--out", str(sweep_csv)])
            == 0
        )
        records = sweep_from_csv(sweep_csv)
        for split in ("val", "test"):
            rows = [(r.task_metric, r.verification) for r in records if r.split == split]
            assert len(set(rows)) == 1

    def test_embeddings_export(self, tmp_path):
        cfg = tiny_pendulum_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["train", "--config", str(cfg)])
        emb = tmp_path / "latents.csv"
        code = main(
            [
                "sweep",
                "--checkpoint",
                str(out_dir / "checkpoint_seed0.npz"),
                "--out",
                str(tmp_path / "sweep.csv"),
                "--embeddings-out",
                str(emb),
            ]
        )
        assert code == 0
        header = emb.read_text().splitlines()[0]
        assert header.startswith("z0,") and "z_rule0" in header


# text that no YAML loader reads as a number, bool or null, and that is no
# valid mode, rule kind, direction or threshold function (none has an 'o',
# and the numeric words nan/inf need letters outside the alphabet)
JUNK_TEXT = st.text(alphabet="bcdgxyz_", min_size=1, max_size=8)
NOT_A_NUMBER = st.one_of(
    st.none(),
    JUNK_TEXT,
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(JUNK_TEXT, st.integers(0, 9), max_size=1),
)
NOT_A_NAME = st.one_of(NOT_A_NUMBER, st.integers(-3, 3), st.floats(allow_nan=False))
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
NOT_STRENGTHS = st.one_of(
    st.none(),
    JUNK_TEXT,
    st.lists(JUNK_TEXT, max_size=2),
    st.dictionaries(JUNK_TEXT, st.integers(0, 9), max_size=1),
)
INVALID_FIELDS = st.one_of(
    st.tuples(st.just("train"), st.sampled_from(["lr", "batch_size", "rule_weight"]), NOT_A_NUMBER),
    st.tuples(st.just("train"), st.just("val_alphas"), NOT_STRENGTHS),
    # pendulum data; the default n_trajectories is 10
    st.tuples(st.just("data"), st.just("n_pairs"), st.one_of(NOT_A_NUMBER, st.integers(-3, 9))),
    st.tuples(st.just("data"), st.just("n_trajectories"), st.one_of(NOT_A_NUMBER, st.integers(-3, 0))),
    st.tuples(st.just("data"), st.just("theta0"), st.one_of(NOT_A_NUMBER, NON_FINITE)),
    st.tuples(
        st.just("data"),
        st.just("noise_std"),
        st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0, exclude_max=True), NON_FINITE),
    ),
    st.tuples(st.just("train"), st.just("mode"), NOT_A_NAME),
    st.tuples(st.just("rule"), st.just("kind"), NOT_A_NAME),
    st.tuples(st.just("rule"), st.just("direction"), NOT_A_NAME),
    st.tuples(st.just("rule"), st.just("fn"), NOT_A_NAME),
    st.tuples(
        st.just("rule"),
        st.just("bound"),
        st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), NON_FINITE),
    ),
)


class TestErrorsAndUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_config_is_single_line_error(self, capsys):
        assert main(["train", "--config", "/nonexistent.yaml"]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_invalid_field_is_single_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"task": "pendulum", "train": {"beta": -3}}))
        assert main(["train", "--config", str(path)]) == 1
        assert "beta" in capsys.readouterr().err

    def test_vacuous_rule_is_one_line_error(self, tmp_path, capsys):
        cfg = tiny_pendulum_config(tmp_path, rule={"kind": "threshold", "fn": "row_mean", "limit": 1e6})
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError:") and "already holds" in err[0]
        assert not (tmp_path / "out").exists()  # not even resolved.yaml, nor the directory

    def test_nan_pendulum_mass_fails_at_load(self, tmp_path, capsys):
        cfg = tiny_pendulum_config(tmp_path, data={"m1": math.nan})
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: data: m1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_negative_seed_flag_fails_at_load(self, tmp_path, capsys, command):
        cfg = tiny_pendulum_config(tmp_path)
        assert main([command, "--config", str(cfg), "--seed", "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ConfigError: seed: seed must be an integer >= 0, got -1"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_non_positive_seed_count_is_usage_error_before_any_write(self, tmp_path, seeds):
        cfg = tiny_pendulum_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(cfg), "--seeds", seeds])
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("floor", ["nan", "inf", "-0.1", "1.5"])
    def test_verification_floor_outside_unit_interval_is_usage_error(self, tmp_path, capsys, floor):
        path = tmp_path / "sweep.csv"
        path.write_text("alpha,task_metric,verification,split\n0.5,0.1,0.9,val\n")
        with pytest.raises(SystemExit) as info:
            main(["select", "--sweep", str(path), "--min-verification", floor])
        assert info.value.code == 2
        assert "--min-verification" in capsys.readouterr().err

    @pytest.mark.parametrize("row,column", [("nan,0.1,0.9", "alpha"), ("0,nan,0.9", "task_metric"),
                                            ("0,0.1,-inf", "verification"), ("0,inf,0.9", "task_metric")])
    def test_non_finite_sweep_cell_names_file_line_and_column(self, tmp_path, capsys, row, column):
        path = tmp_path / "sweep.csv"
        path.write_text(f"alpha,task_metric,verification,split\n0.5,0.1,0.9,val\n{row},val\n")
        assert main(["select", "--sweep", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ValueError: {path}:3:"), err
        assert f"column {column!r}" in err[0] and captured.out == ""

    def test_malformed_sweep_row_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("alpha,task_metric,verification,split\n0.5,0.1,0.9,val\n0.6,0.2\n")
        assert main(["select", "--sweep", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError:")
        assert f"{path}:3:" in err[0]

    @pytest.mark.parametrize(
        "content,reason",
        [(b"[" * 5000, "YAML parse error"), (b"\xfftask: pendulum\n", "'utf-8' codec can't decode byte 0xff")],
        ids=["deeply nested", "not utf-8"],
    )
    def test_unreadable_config_text_is_one_line_naming_the_file(self, tmp_path, capsys, content, reason):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ConfigError: {path}: {reason}"), err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "content,where,problem",
        [
            (b"task: [pendulum\n", "line 2, column 1", "expected ',' or ']', but got '<stream end>'"),
            (b"task: pendulum\nseed: 0\x00\n", "line 2, column 8", "unacceptable character #x0000"),
        ],
        ids=["truncated", "nul byte"],
    )
    def test_yaml_syntax_error_is_one_line_naming_file_line_and_column(self, tmp_path, capsys, content, where, problem):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ConfigError: {path}: YAML parse error at {where}: {problem}"), err
        assert list(tmp_path.iterdir()) == [path]

    def test_sweep_csv_that_is_not_utf8_is_one_line_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"\xffalpha,task_metric,verification,split\n")
        assert main(["select", "--sweep", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ValueError: {path}: 'utf-8' codec can't decode"), err

    @pytest.mark.parametrize(
        "task,override,block",
        [
            ("monotone-regression", {"data": {"n": None}}, "data"),
            ("monotone-regression", {"data": {"d": None}}, "data"),
            ("monotone-regression", {"data": {"csv": 5}}, "data"),
            ("pendulum", {"output_dir": None}, "output_dir"),
            ("pendulum", {"train": {"batch_size": math.inf}}, "train"),
            ("pendulum", {"sweep": {"perturb_seed": None}}, "sweep"),
            ("pendulum", {"sweep": {"splits": "test"}}, "sweep"),
            ("pendulum", {"sweep": {"splits": ["bogus"]}}, "sweep"),
            ("pendulum", {"train": {"beta": math.nan}}, "train"),
            ("shifted-classification", {"data": {"eval_only": "no"}}, "data"),
            ("pendulum", {"seed": None}, "seed"),
            ("pendulum", {"data": {"friction": math.nan}}, "data"),
            ("pendulum", {"model": {"encoder_units": [0]}}, "model"),
            ("pendulum", {"model": {"shared_units": [-3]}}, "model"),
            ("pendulum", {"train": {"batch_size": 2.7}}, "train"),
            ("pendulum", {"seed": -1}, "seed"),
            ("pendulum", {"data": {"seed": -1}}, "data"),
            ("shifted-classification", {"data": {"seed": -1}}, "data"),
            ("pendulum", {"sweep": {"perturb_seed": -1}}, "sweep"),
        ],
    )
    def test_hostile_config_value_is_one_line_before_any_work(self, tmp_path, capsys, task, override, block):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"task": task, "output_dir": str(tmp_path / "out"), **override}))
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ConfigError: {block}: "), err
        assert not out.exists() and not (tmp_path / "out").exists()

    @settings(max_examples=50, deadline=None)
    @given(case=INVALID_FIELDS)
    def test_invalid_config_field_is_one_line_error(self, case):
        section, field, value = case
        raw = {
            "task": "monotone-regression",
            "data": {"n": 200},
            "train": {"max_epochs": 2, "patience": 1},
        }
        if section == "data":
            raw.update(task="pendulum", data={})
        if field == "fn":
            raw["rule"] = {"kind": "threshold"}
        raw.setdefault(section, {})[field] = value
        with tempfile.TemporaryDirectory() as tmp:
            raw["output_dir"] = str(Path(tmp) / "out")
            path = Path(tmp) / "config.yaml"
            path.write_text(yaml.safe_dump(raw))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(["train", "--config", str(path)])
                except SystemExit as exc:
                    code = exc.code
        lines = err.getvalue().strip().splitlines()
        assert code == 1, (case, code)
        assert len(lines) == 1 and lines[0].startswith("error: ConfigError:"), (case, lines)


def with_stored_config(ck, path, edit):
    """A copy of checkpoint ``ck`` at ``path`` whose stored config is ``edit(stored config)``."""
    with np.load(ck, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["config_json"] = np.array(json.dumps(edit(json.loads(str(arrays["config_json"][()])))))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny pendulum checkpoint plus its dataset CSV, shared by the sweep tests."""
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = tiny_pendulum_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 0
    return tmp_path / "out" / "checkpoint_seed0.npz", tmp_path / "data.csv"


class TestSweepInputs:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "0"],
            ["--step", "-0.1"],
            ["--start", "1", "--stop", "0"],
            ["--stop", "inf"],
            ["--extended", "--step", "nan"],
        ],
    )
    def test_bad_grid_is_one_line_config_error(self, trained, tmp_path, capsys, flags):
        ck, _ = trained
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError:")
        assert not out.exists()

    def test_extended_grid_spans_the_fixed_bounds(self, trained, tmp_path):
        ck, _ = trained
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(out), "--extended", "--step", "0.4"]) == 0
        alphas = [r.alpha for r in sweep_from_csv(out) if r.split == "val"]
        assert alphas == [-0.2, 0.2, 0.6, 1.0, 1.4]

    def test_unknown_split_label_in_data_csv_is_one_line_error(self, trained, tmp_path, capsys):
        ck, data = trained
        lines = data.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",vall"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"), "--data-csv", str(bad)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ValueError: {bad}: unknown split labels ['vall']"), err

    @pytest.mark.parametrize("text,error", [("", "no data rows"), ("x\n", "no data rows"), (None, ":3: expected 9 columns")])
    def test_empty_or_ragged_data_csv_is_one_line_error(self, trained, tmp_path, capsys, text, error):
        ck, data = trained
        if text is None:  # the second data row loses its split label
            lines = data.read_text().splitlines()
            text = "\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        capsys.readouterr()
        code = main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"), "--data-csv", str(bad)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ValueError: {bad}") and error in err[0]
        assert not (tmp_path / "s.csv").exists()

    def test_data_csv_that_is_not_utf8_is_one_line_naming_the_file(self, trained, tmp_path, capsys):
        ck, data = trained
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff" + data.read_bytes())
        capsys.readouterr()
        code = main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"), "--data-csv", str(bad)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ValueError: {bad}: 'utf-8' codec can't decode"), err
        assert not (tmp_path / "s.csv").exists()

    def test_data_csv_stands_in_for_a_moved_training_csv(self, trained, tmp_path):
        ck, data = trained
        moved = tmp_path / "moved.npz"
        with_stored_config(ck, moved, lambda c: {**c, "data": {**c["data"], "csv": "gone.csv"}})
        outs = [tmp_path / "trained.csv", tmp_path / "moved.csv"]
        for path, out in zip((ck, moved), outs):
            assert main(["sweep", "--checkpoint", str(path), "--out", str(out), "--data-csv", str(data)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_non_finite_data_csv_cell_names_file_line_and_column(self, trained, tmp_path, capsys):
        ck, data = trained
        lines = data.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(",") :]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"), "--data-csv", str(bad)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: ValueError: {bad}:3: non-finite value 'nan' in column 'theta1'"]
        assert not (tmp_path / "s.csv").exists()

    def test_checkpoint_storing_the_accuracy_metric_is_one_line_error(self, trained, tmp_path, capsys):
        # accuracy is higher-is-better; selection minimises, so only error_rate is offered
        ck, _ = trained
        old = with_stored_config(ck, tmp_path / "old.npz", lambda c: {**c, "metric": "accuracy"})
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(old), "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: metric: unknown metric 'accuracy'")
        assert "'error_rate'" in err[0] and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "stored",
        [
            [1],
            "pendulum",
            {"task": "pendulum", "data": 5},
            {"task": "pendulum", "data": {"csv": "gone.csv", "n_pairs": None}},
            {"task": "pendulum", "data": {"csv": "gone.csv", "bogus": 1}},
        ],
    )
    def test_hostile_stored_config_with_data_csv_is_one_line_error(self, trained, tmp_path, capsys, stored):
        ck, data = trained
        bad = with_stored_config(ck, tmp_path / "bad.npz", lambda c: stored)
        capsys.readouterr()
        code = main(["sweep", "--checkpoint", str(bad), "--out", str(tmp_path / "s.csv"), "--data-csv", str(data)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError:"), err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("defect", ["missing rule.1.w", "nan in decision.0.w"])
    def test_invalid_checkpoint_parameters_are_one_line_error(self, trained, tmp_path, capsys, defect):
        ck, _ = trained
        with np.load(ck, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        if defect.startswith("missing"):
            del arrays["param:rule.1.w"]
        else:
            arrays["param:decision.0.w"] = arrays["param:decision.0.w"].copy()
            arrays["param:decision.0.w"][0, 0] = np.nan
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: CheckpointError:")
        assert defect.split()[-1] in err[0]
        assert not out.exists()

    def test_checkpoint_without_a_zip_header_draws_no_advice_to_unpickle_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"\xff\x93NUMPY")
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: CheckpointError: {bad}: not a checkpoint (no zip archive header)"]
        assert not out.exists()


def test_classification_data_csv_with_a_target_outside_0_1_is_one_line_error(tmp_path, capsys):
    raw = {"task": "shifted-classification", "output_dir": str(tmp_path / "out"),
           "data": {"n_usual": 30, "n_unusual": 30}, "model": {"encoder_units": [4, 2]},
           "train": {"max_epochs": 2, "patience": 1}}
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    data = tmp_path / "data.csv"
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    cells = lines[3].split(",")
    lines[3] = ",".join(cells[:-2] + ["3", cells[-1]])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    ck, out = tmp_path / "out" / "checkpoint_seed0.npz", tmp_path / "s.csv"
    assert main(["sweep", "--checkpoint", str(ck), "--out", str(out), "--data-csv", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: ConfigError: {bad}:4: classification target 3.0 is outside [0, 1]"]
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_ten(tmp_path_factory):
    """A checkpoint over 10 trajectories of 80 pairs, split 0.6/0.1/0.3, plus its dataset CSV.

    Trajectories 1-6 feed only the train split, 7 the val split, 8-10 the test split.
    """
    tmp_path = tmp_path_factory.mktemp("trained_ten")
    cfg = tiny_pendulum_config(tmp_path, data={"n_pairs": 800, "n_trajectories": 10})
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 0
    return tmp_path / "out" / "checkpoint_seed0.npz", tmp_path / "data.csv"


@pytest.fixture
def ten(trained_ten, tmp_path_factory):
    """``trained_ten`` with the checkpoint copied into a directory of its own.

    A sweep writes its rows cache beside the checkpoint, so a copy keeps one
    case's cache from turning the next case's rebuild into a cache hit.
    """
    ck, data = trained_ten
    own = tmp_path_factory.mktemp("ten") / ck.name
    shutil.copyfile(ck, own)
    return own, data


@pytest.fixture
def simulated(monkeypatch, tmp_path_factory):
    """Records the step count of every trajectory the pendulum build simulates, in any process."""
    return SimulatedTrajectories(tmp_path_factory.mktemp("simulated") / "log").install(monkeypatch)


class TestSweepRebuild:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "splits,trajectories",
        [(None, [6, 7, 8, 9]), ("test", [7, 8, 9]), ("val", [6]), ("test,train", [0, 1, 2, 3, 4, 5, 7, 8, 9])],
    )
    def test_simulates_only_the_swept_trajectories(
        self, ten, tmp_path, monkeypatch, simulated, splits, trajectories, workers
    ):
        ck, data = ten
        force_workers(monkeypatch, workers)
        flags = [] if splits is None else ["--splits", splits]
        rebuilt, from_csv = tmp_path / "rebuilt.csv", tmp_path / "from_csv.csv"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(rebuilt), *flags]) == 0
        # whole trajectories of 80 pairs, 20 RK4 steps each
        assert simulated == [80 * 20] * len(trajectories) and simulated.trajectories() == trajectories
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(from_csv), "--data-csv", str(data), *flags]) == 0
        assert len(simulated) == len(trajectories)
        assert rebuilt.read_bytes() == from_csv.read_bytes()

    @pytest.mark.parametrize(
        "flags,error",
        [
            (["--splits", ""], "error: ConfigError:"),
            (["--splits", "test,test"], "error: ConfigError:"),
            (["--splits", "val,"], "error: ConfigError:"),
            (["--splits", "val,tset"], "error: ConfigError: splits: unknown split 'tset'"),
            (["--embeddings-alpha", "nan"], "error: ConfigError: --embeddings-alpha"),
            (["--embeddings-alpha", "inf", "--embeddings-out", "{tmp}/emb.csv"], "error: ConfigError: --embeddings-alpha"),
            (["--step", "1e-12"], "error: ConfigError: alpha grid would have 1e+12 points"),
        ],
    )
    def test_bad_arguments_fail_before_the_build(self, ten, tmp_path, capsys, simulated, flags, error):
        ck, _ = ten
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(error), err
        assert simulated == [] and not out.exists() and not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize(
        "out,emb", [("sweep.csv", "nodir/emb.csv"), ("nodir/sweep.csv", None), ("nodir/sweep.csv", "emb.csv")]
    )
    def test_missing_output_directory_fails_before_the_build_and_writes_nothing(
        self, ten, tmp_path, capsys, simulated, out, emb
    ):
        ck, _ = ten
        flags = ["--out", str(tmp_path / out)] + ([] if emb is None else ["--embeddings-out", str(tmp_path / emb)])
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: FileNotFoundError:") and "nodir" in err[0], err
        assert simulated == [] and list(tmp_path.iterdir()) == []


def rows_caches(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("rows-"))


def without_digests(ck, path):
    """A copy of checkpoint ``ck`` at ``path`` as written before it stored row digests."""
    with np.load(ck, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files if k != "data_sha256_json"}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


class TestSweepRowsCache:
    """A sweep reads the rows its checkpoint was trained beside from a digest-named cache."""

    def test_second_sweep_simulates_nothing_and_writes_the_same_bytes(self, ten, tmp_path, simulated):
        ck, _ = ten
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(first)]) == 0
        assert simulated == [80 * 20] * 4
        digests = load_checkpoint(ck).data_sha256
        assert rows_caches(ck.parent) == sorted(f"rows-{digests[s]}.npz" for s in ("val", "test"))
        simulated.clear()
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(second)]) == 0
        assert simulated == []
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_or_edited_cache_is_rebuilt_and_rewritten(self, ten, tmp_path, simulated):
        ck, _ = ten
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(first)]) == 0
        digests = load_checkpoint(ck).data_sha256
        val, test = (ck.parent / f"rows-{digests[s]}.npz" for s in ("val", "test"))
        val.write_bytes(val.read_bytes()[: val.stat().st_size // 2])
        with np.load(test) as archive:
            x, y = archive["x"].copy(), archive["y"]
        x[0, 0] += 1e-9
        with open(test, "wb") as fh:
            np.savez(fh, x=x, y=y)
        simulated.clear()
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(second)]) == 0
        assert simulated == [80 * 20] * 4
        assert first.read_bytes() == second.read_bytes()
        for split, path in (("val", val), ("test", test)):
            with np.load(path) as archive:
                rows = Dataset(x=archive["x"], y=archive["y"], split=np.full(len(archive["x"]), split, dtype=object))
            assert rows.sha256(split) == digests[split]
        assert rows_caches(ck.parent) == sorted([val.name, test.name])

    def test_edited_training_csv_is_one_mismatch_line_and_writes_nothing(self, tmp_path, capsys):
        base = tiny_pendulum_config(tmp_path)
        data = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(base), "--out", str(data)]) == 0
        cfg = tiny_pendulum_config(tmp_path, data={"csv": str(data)})
        assert main(["train", "--config", str(cfg)]) == 0
        ck = tmp_path / "out" / "checkpoint_seed0.npz"
        lines = data.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.endswith(",val"))
        lines[i] = "0.125" + lines[i][lines[i].index(",") :]
        data.write_text("\n".join(lines) + "\n")
        stored = load_checkpoint(ck)
        rebuilt = config_from_dict(stored.config).build_dataset().sha256("val")
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: split 'val'"), err
        assert rebuilt[:12] in err[0] and stored.data_sha256["val"][:12] in err[0]
        assert not out.exists() and rows_caches(ck.parent) == []

    def test_checkpoint_without_digests_sweeps_identically_and_caches_nothing(self, ten, tmp_path, simulated):
        ck, _ = ten
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        legacy = without_digests(ck, legacy_dir / "checkpoint.npz")
        assert load_checkpoint(legacy).data_sha256 is None
        outs = [tmp_path / "new.csv", tmp_path / "old.csv", tmp_path / "old_again.csv"]
        for path, out in zip((ck, legacy, legacy), outs):
            assert main(["sweep", "--checkpoint", str(path), "--out", str(out)]) == 0
        assert simulated == [80 * 20] * 12  # the legacy checkpoint rebuilds on every sweep
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert rows_caches(legacy_dir) == []

    def test_data_csv_is_neither_checked_nor_cached(self, ten, tmp_path):
        ck, data = ten
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"), "--data-csv", str(data)]) == 0
        assert rows_caches(ck.parent) == []

    def test_seed_replicates_share_one_cache_file_per_split(self, tmp_path, simulated):
        cfg = tiny_pendulum_config(tmp_path, data={"n_pairs": 800, "n_trajectories": 10})
        out_dir = tmp_path / "multi"
        assert main(["train", "--config", str(cfg), "--seeds", "2", "--out-dir", str(out_dir)]) == 0
        cks = [load_checkpoint(out_dir / f"checkpoint_seed{seed}.npz") for seed in (0, 1)]
        assert cks[0].data_sha256 == cks[1].data_sha256
        simulated.clear()
        for seed in (0, 1):
            ck = out_dir / f"checkpoint_seed{seed}.npz"
            assert main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / f"s{seed}.csv")]) == 0
        assert simulated == [80 * 20] * 4  # only the first seed's sweep builds
        assert rows_caches(out_dir) == sorted(f"rows-{cks[0].data_sha256[s]}.npz" for s in ("val", "test"))

    def test_failed_cache_write_is_a_note_and_the_sweep_succeeds(self, ten, tmp_path, capsys):
        ck, _ = ten
        blocker = ck.parent / f"rows-{load_checkpoint(ck).data_sha256['val']}.npz"
        blocker.mkdir()  # neither readable nor replaceable as a file
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(out)]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("note: rows cache not written:"), err
        assert out.exists() and sorted(p.name for p in ck.parent.iterdir()) == sorted([ck.name, blocker.name])


class TestSweepInWorkers:
    """``rulemix sweep`` with the strengths decoded in forked shares: the bytes and errors of one process."""

    def test_csv_bytes_equal_those_of_one_process(self, trained, tmp_path, monkeypatch, forks):
        ck, data = trained
        written = {}
        for workers in (1, 2):
            force_sweep_workers(monkeypatch, workers)
            out = tmp_path / f"sweep{workers}.csv"
            flags = ["--data-csv", str(data), "--extended", "--step", "0.02"]
            assert main(["sweep", "--checkpoint", str(ck), "--out", str(out), *flags]) == 0
            written[workers] = out.read_bytes()
        assert len(forks) == 2  # one worker for each of the val and test splits
        assert written[2] == written[1] and len(sweep_from_csv(tmp_path / "sweep2.csv")) == 2 * 81
        assert_reaped(forks)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_guard_no_pair_crosses_is_one_error_line(self, trained, tmp_path, capsys, monkeypatch, forks, workers):
        ck, data = trained
        # pendulum inputs stay far below 100, so no perturbation crosses the guard
        rule = {"kind": "monotonic", "feature": 0, "direction": "decrease", "guard": 100.0}
        guarded = with_stored_config(ck, tmp_path / "guarded.npz", lambda raw: {**raw, "rule": rule})
        force_sweep_workers(monkeypatch, workers)
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(guarded), "--out", str(out), "--data-csv", str(data)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: UndefinedRatioError: no valid perturbation pairs to verify"]
        assert not out.exists() and len(forks) == workers - 1
        assert_reaped(forks)


class TestSweepOutputs:
    """An output path that names an input, another output or a directory fails before any work."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--out", "{ck}"],
            ["--out", "{ck_dir}/../{ck_dir_name}/{ck_name}"],
            ["--out", "{tmp}/s.csv", "--embeddings-out", "{tmp}/s.csv"],
            ["--out", "{tmp}/s.csv", "--embeddings-out", "{ck}"],
            ["--out", "{data}", "--data-csv", "{data}"],
            ["--out", "{tmp}/s.csv", "--embeddings-out", "{data}", "--data-csv", "{data}"],
            ["--out", "{tmp}/adir"],
            ["--out", "{tmp}/s.csv", "--embeddings-out", "{tmp}/adir"],
        ],
    )
    def test_clashing_or_directory_output_is_one_line_before_the_load(
        self, ten, tmp_path, capsys, monkeypatch, simulated, flags
    ):
        ck, data = ten
        data = shutil.copyfile(data, tmp_path / "data.csv")
        (tmp_path / "adir").mkdir()
        before = {p: p.read_bytes() for p in (ck, data)}
        loaded = []
        monkeypatch.setattr("rulemix.cli.load_checkpoint", lambda path: loaded.append(path))
        names = dict(ck=ck, ck_dir=ck.parent, ck_dir_name=ck.parent.name, ck_name=ck.name, data=data, tmp=tmp_path)
        flags = [f.format(**names) for f in flags]
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: --"), err
        assert ("is a directory" in err[0]) == any(f.endswith("adir") for f in flags)
        assert loaded == [] and simulated == []
        assert {p: p.read_bytes() for p in (ck, data)} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "data.csv"]
        assert list((tmp_path / "adir").iterdir()) == [] and sorted(ck.parent.iterdir()) == [ck]

    def test_failed_embeddings_write_leaves_no_file(self, ten, tmp_path, capsys, monkeypatch):
        ck, _ = ten

        def failing(path, header, blocks, labels=None):
            raise OSError("no space left on device")

        monkeypatch.setattr("rulemix.cli.write_table", failing)  # only the embeddings export calls it
        flags = ["--out", str(tmp_path / "s.csv"), "--embeddings-out", str(tmp_path / "e.csv")]
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == ["error: OSError: no space left on device"]
        assert "wrote" not in captured.out
        assert list(tmp_path.iterdir()) == [] and sorted(ck.parent.iterdir()) == [ck]


class TestLegacyMode:
    def test_checkpoint_storing_the_old_mode_sweeps_identically(self, tmp_path):
        raw = {
            "task": "monotone-regression",
            "output_dir": str(tmp_path / "out"),
            "data": {"n": 200},
            "model": {"encoder_units": [8, 6], "decision_units": [8]},
            "train": {"max_epochs": 2, "patience": 1},
            "sweep": {"step": 0.25},
        }
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["train", "--config", str(cfg)]) == 0
        ck = tmp_path / "out" / "checkpoint_seed0.npz"
        assert load_checkpoint(ck).config["train"]["mode"] == "controlled"
        legacy = with_stored_config(
            ck, tmp_path / "legacy.npz", lambda c: {**c, "train": {**c["train"], "mode": "controlled_perturb"}}
        )
        assert load_checkpoint(legacy).config["train"]["mode"] == "controlled_perturb"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "new.csv")]) == 0
        assert main(["sweep", "--checkpoint", str(legacy), "--out", str(tmp_path / "old.csv")]) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


class TestEmbeddingsExport:
    @pytest.mark.parametrize("coupling", ["scaled_concat", "input_concat_alpha", "single"])
    def test_exported_latents_equal_those_of_a_predict_tape(self, tmp_path, coupling):
        cfg = tiny_pendulum_config(tmp_path, model={"coupling": coupling})
        assert main(["train", "--config", str(cfg)]) == 0
        ck_path = tmp_path / "out" / "checkpoint_seed0.npz"
        emb = tmp_path / "latents.csv"
        flags = ["--embeddings-out", str(emb), "--embeddings-alpha", "0.3"]
        assert main(["sweep", "--checkpoint", str(ck_path), "--out", str(tmp_path / "sweep.csv"), *flags]) == 0
        ck = load_checkpoint(ck_path)
        x, _ = config_from_dict(ck.config).build_dataset().subset("test")
        tape = Tape()
        fwd = predict(tape, ck.spec, ck.params, x, 0.3)
        nodes = {"z": fwd.latent}
        if fwd.z_rule is not None:
            nodes.update(z_rule=fwd.z_rule, z_data=fwd.z_data)
        assert (fwd.z_rule is None) == (coupling != "scaled_concat")
        header, *rows = emb.read_text().splitlines()
        assert header.split(",") == [f"{k}{j}" for k, n in nodes.items() for j in range(tape.value(n).shape[1])]
        want = np.concatenate([tape.value(n) for n in nodes.values()], axis=1)
        got = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert got.tobytes() == want.tobytes()


class TestAblate:
    def test_coupling_ablation_writes_summary(self, tmp_path):
        cfg = tiny_pendulum_config(tmp_path, sweep={"step": 0.5})
        out_dir = tmp_path / "ablate"
        code = main(
            [
                "ablate",
                "--config",
                str(cfg),
                "--what",
                "coupling",
                "--values",
                "concat,add",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        # every strength ties under these strength-invariant couplings; the first, alpha = 0, is chosen
        assert (out_dir / "summary.csv").read_text() == (
            "coupling,best_val,best_alpha,best_test_metric,verification_at_grid_end\n"
            "concat,1.066416919931767,0,0.30518924723639412,0.52083333333333337\n"
            "add,1.1227842129271357,0,0.36767279960076299,0.25\n"
        )
        assert (out_dir / "sweep_coupling_concat.csv").exists()

    def test_unreachable_verification_floor_is_one_line_error_without_summary(self, tmp_path, capsys):
        cfg = tiny_pendulum_config(tmp_path, sweep={"step": 0.5, "min_verification": 0.9})
        out_dir = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--what", "coupling", "--values", "concat", "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: InfeasibleSelectionError: no sweep point reaches"), err
        assert not (out_dir / "summary.csv").exists()

    @pytest.mark.parametrize(
        "what,values",
        [("beta", ""), ("beta", "0.1,zz"), ("coupling", "concat,bogus"), ("lambda", "0.5,nan")],
    )
    def test_bad_value_fails_before_the_build_and_the_first_fit(self, tmp_path, capsys, simulated, what, values):
        cfg = tiny_pendulum_config(tmp_path)
        out_dir = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--what", what, "--values", values, "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError:"), err
        assert simulated == [] and not out_dir.exists()


# the output walk: every output path of every writing command, made in turn to clash before any work
OUTPUT_WALK = {
    # name: (argv, the flag naming the outputs, the outputs, relative to the case's directory)
    "gen-data": (["gen-data", "--config", "{config}", "--out", "{tmp}/out/data.csv"], "--out", ["out/data.csv"]),
    "train": (
        ["train", "--config", "{config}", "--out-dir", "{tmp}/out"],
        "--out-dir",
        ["out/resolved.yaml", "out/checkpoint_seed0.npz", "out/report_seed0.csv"],
    ),
    "train-2-seeds": (
        ["train", "--config", "{config}", "--seeds", "2", "--out-dir", "{tmp}/out"],
        "--out-dir",
        ["out/resolved.yaml", "out/checkpoint_seed0.npz", "out/report_seed0.csv",
         "out/checkpoint_seed1.npz", "out/report_seed1.csv", "out/summary.csv"],
    ),
    "sweep": (
        ["sweep", "--checkpoint", "{checkpoint}", "--out", "{tmp}/out/s.csv", "--embeddings-out", "{tmp}/out/e.csv"],
        None,  # each output has a flag of its own
        ["out/s.csv", "out/e.csv"],
    ),
    "ablate": (
        ["ablate", "--config", "{config}", "--what", "beta", "--values", "0.1,1.0", "--out-dir", "{tmp}/out"],
        "--out-dir",
        ["out/checkpoint_beta_0.1.npz", "out/sweep_beta_0.1.csv",
         "out/checkpoint_beta_1.0.npz", "out/sweep_beta_1.0.csv", "out/summary.csv"],
    ),
}
SWEEP_FLAGS = {"out/s.csv": "--out", "out/e.csv": "--embeddings-out"}


def output_walk_cases():
    for name, (_, _, outputs) in OUTPUT_WALK.items():
        for output in outputs:
            yield name, output, "directory"
            yield name, output, "input"
            if name == "sweep":
                yield name, output, "missing directory"
    yield "ablate", "out/checkpoint_beta_0.1.npz", "duplicate value"


def listing(root):
    """Every path under ``root`` with its bytes, or None for a directory."""
    return sorted((str(p.relative_to(root)), None if p.is_dir() else p.read_bytes()) for p in root.rglob("*"))


@pytest.fixture
def fits(monkeypatch):
    """The seed of every ``fit`` a command starts."""
    import rulemix.cli

    real = rulemix.cli.fit
    calls = []

    def counting(spec, cfg, *args, **kwargs):
        calls.append(cfg.seed)
        return real(spec, cfg, *args, **kwargs)

    monkeypatch.setattr(rulemix.cli, "fit", counting)
    return calls


class TestOutputWalk:
    """Every writing command checks all of its outputs once, before the build and the first fit."""

    @pytest.mark.parametrize("name,output,clash", list(output_walk_cases()))
    def test_clashing_output_is_one_line_before_any_work_and_writes_nothing(
        self, trained, tmp_path, capsys, simulated, fits, name, output, clash
    ):
        argv, flag, _ = OUTPUT_WALK[name]
        flag = flag or SWEEP_FLAGS[output]
        config = tiny_pendulum_config(tmp_path)
        checkpoint = tmp_path / "checkpoint.npz"
        shutil.copyfile(trained[0], checkpoint)
        target = tmp_path / output
        if clash == "directory":
            target.mkdir(parents=True)
        elif clash == "input":  # the command's input file sits at the output path
            target.parent.mkdir()
            shutil.move(checkpoint if name == "sweep" else config, target)
            checkpoint, config = (target, config) if name == "sweep" else (checkpoint, target)
        elif clash == "missing directory":  # the other output's directory exists
            (tmp_path / "out").mkdir()
            argv = [a.replace(output, f"nodir/{Path(output).name}") for a in argv]
            target = tmp_path / "nodir" / Path(output).name
        else:  # duplicate value: a second 0.1 names the first one's files
            argv = [a.replace("0.1,1.0", "0.1,0.1") for a in argv]
        before = listing(tmp_path)
        argv = [a.format(tmp=tmp_path, config=config, checkpoint=checkpoint) for a in argv]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert "Traceback" not in err and len(lines) == 1, lines
        expected = {
            "directory": f"error: ConfigError: {flag} {target} is a directory",
            "input": f"error: ConfigError: {flag} {target} is the same file as {argv[1]}",
            "missing directory": f"error: FileNotFoundError: {target}: output directory {target.parent} does not exist",
            "duplicate value": f"error: ConfigError: {flag} {target} is the same file as {flag}",
        }[clash]
        assert lines == [expected]
        assert fits == [] and simulated == []
        assert listing(tmp_path) == before

    def test_failed_second_seed_keeps_the_first_seeds_files_whole(self, tmp_path, capsys, monkeypatch):
        from rulemix.errors import TrainingAborted

        cfg = tiny_pendulum_config(tmp_path)
        single = tmp_path / "single"
        assert main(["train", "--config", str(cfg), "--out-dir", str(single)]) == 0
        import rulemix.cli

        real = rulemix.cli.fit

        def second_fails(spec, train_cfg, *args, **kwargs):
            if train_cfg.seed == 1:
                raise TrainingAborted("non-finite loss at epoch 1")
            return real(spec, train_cfg, *args, **kwargs)

        monkeypatch.setattr(rulemix.cli, "fit", second_fails)
        out_dir = tmp_path / "multi"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--seeds", "2", "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: TrainingAborted: non-finite loss at epoch 1"]
        kept = ["checkpoint_seed0.npz", "report_seed0.csv", "resolved.yaml"]
        assert sorted(p.name for p in out_dir.iterdir()) == kept
        for name in kept:
            assert (out_dir / name).read_bytes() == (single / name).read_bytes(), name


# the hostile-argument walk: each command's number and path options, one bad value at a time
HOSTILE_NUMBERS = ("", "nan", "inf", "-inf", "-1", "x")
WALK_BASE = {
    "gen-data": ["gen-data", "--config", "{config}"],
    "train": ["train", "--config", "{config}"],
    "sweep": ["sweep", "--checkpoint", "{checkpoint}", "--out", "s.csv"],
    "select": ["select", "--sweep", "{sweep}"],
    "ablate": ["ablate", "--config", "{config}", "--what", "beta", "--values", "0.1"],
}
# the exit code for each of HOSTILE_NUMBERS; None where the value is valid
NUMBER_CODES = {
    ("gen-data", "--seed"): (2, 2, 2, 2, 1, 2),
    ("train", "--seed"): (2, 2, 2, 2, 1, 2),
    ("train", "--seeds"): (2, 2, 2, 2, 2, 2),
    ("sweep", "--start"): (2, 1, 1, 1, None, 2),  # a negative start extrapolates
    ("sweep", "--stop"): (2, 1, 1, 1, 1, 2),
    ("sweep", "--step"): (2, 1, 1, 1, 1, 2),
    ("sweep", "--embeddings-alpha"): (2, 1, 1, 1, None, 2),
    ("select", "--min-verification"): (2, 2, 2, 2, 2, 2),
    ("ablate", "--values"): (1, 1, 1, 1, 1, 1),
}
PATH_OPTIONS = {
    "gen-data": ("--config", "--out"),
    "train": ("--config", "--out-dir"),
    "sweep": ("--checkpoint", "--out", "--data-csv", "--embeddings-out"),
    "select": ("--sweep",),
    "ablate": ("--config", "--out-dir"),
}
INPUT_PATHS = ("--config", "--checkpoint", "--data-csv", "--sweep")


def walk_cases():
    for (command, flag), codes in NUMBER_CODES.items():
        for value, code in zip(HOSTILE_NUMBERS, codes):
            if code is not None:
                yield command, flag, value, code
    for command, flags in PATH_OPTIONS.items():
        for flag in flags:
            yield command, flag, "", 2  # an empty path would fall back to a default
            if flag in INPUT_PATHS:
                yield command, flag, "missing", 1
    yield from [("gen-data", "--task", "", 2), ("sweep", "--splits", "", 1), ("select", "--split", "", 1)]


@pytest.fixture(scope="module")
def walk_inputs(trained, tmp_path_factory):
    """What the walk's commands read, kept outside the directory each case runs in."""
    ck, _ = trained
    root = tmp_path_factory.mktemp("walk")
    sweep = root / "sweep.csv"
    sweep.write_text("alpha,task_metric,verification,split\n0.5,0.1,0.9,val\n")
    # a relative output_dir: a default output path lands in the directory the case runs in
    return {"config": tiny_pendulum_config(root, output_dir="out"), "checkpoint": ck, "sweep": sweep}


@pytest.mark.parametrize(
    "command,flag,value,code", list(walk_cases()), ids=lambda v: repr(v) if isinstance(v, str) else str(v)
)
def test_hostile_argument_fails_cleanly_and_writes_nothing(
    walk_inputs, tmp_path, monkeypatch, capsys, command, flag, value, code
):
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(**walk_inputs) for arg in WALK_BASE[command]] + [f"{flag}={value}"]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    if code == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert f"argument {flag}" in err, err
    assert list(tmp_path.iterdir()) == []


# the hostile-file walk: each file reader, through the command that reads it, given a valid file spoiled one way
HOSTILE_FILE_COMMANDS = {
    "config": ["train", "--config", "{file}", "--out-dir", "out"],
    "data-csv": ["sweep", "--checkpoint", "{checkpoint}", "--data-csv", "{file}", "--out", "s.csv"],
    "sweep": ["select", "--sweep", "{file}"],
    "checkpoint": ["sweep", "--checkpoint", "{file}", "--out", "s.csv"],
}
FLIPPED_AT = (0.0, 0.3, 0.6, 0.95)  # fractions of the file's length


def flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


def first_cell(data: bytes, cell: bytes) -> bytes:
    """``data`` with the first cell of its first data row replaced by ``cell``."""
    header, row, rest = data.split(b"\n", 2)
    return b"\n".join([header, cell + row[row.index(b",") :], rest])


def with_field(data: bytes, name: str, value) -> bytes:
    """The checkpoint ``data`` with its array ``name`` replaced by ``value``."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays[name] = np.asarray(value)
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


# array-level spoilings of a checkpoint: fields of the wrong dtype or rank, and a config that is no mapping
CHECKPOINT_FIELDS = (
    ("epoch", 1.5), ("version", "1"), ("config_json", "[1,2]"), ("seed", [0, 1]), ("scale_rule0", [1.0, 2.0]),
)


def spoilings(reader: str):
    """(name, spoil) for each way the walk spoils a valid file of ``reader``; ``spoil`` maps its bytes."""
    yield "empty", lambda data: b""
    for percent in (10, 50, 90):
        yield f"truncated at {percent}%", lambda data, percent=percent: data[: len(data) * percent // 100]
    for at in FLIPPED_AT:
        yield f"byte at {at:.0%} flipped", lambda data, at=at: flipped(data, int(len(data) * at))
    yield "leading 0xff", lambda data: b"\xff" + data
    yield "nul in the middle", lambda data: data[: len(data) // 2] + b"\0" + data[len(data) // 2 :]
    if reader in ("data-csv", "sweep"):
        for cell in (b"1" * 200_000, b"nan", b"1e999"):
            yield f"cell {cell[:8].decode()}", lambda data, cell=cell: first_cell(data, cell)
    if reader == "config":
        yield "5,000 nested [", lambda data: b"[" * 5000
    if reader == "checkpoint":
        for name, value in CHECKPOINT_FIELDS:
            yield f"{name} {value!r}", lambda data, name=name, value=value: with_field(data, name, value)


@pytest.fixture(scope="module")
def valid_files(trained, tmp_path_factory):
    """A valid file for each reader of the walk, and the checkpoint that ``--data-csv`` sweeps."""
    ck, data = trained
    root = tmp_path_factory.mktemp("valid")
    assert main(["sweep", "--checkpoint", str(ck), "--out", str(root / "sweep.csv")]) == 0
    config = tiny_pendulum_config(root, output_dir="out")
    files = {"config": config, "data-csv": data, "sweep": root / "sweep.csv", "checkpoint": ck}
    return {reader: path.read_bytes() for reader, path in files.items()}, ck


@pytest.mark.parametrize(
    "reader,spoiling",
    [(reader, name) for reader in HOSTILE_FILE_COMMANDS for name, _ in spoilings(reader)],
)
def test_hostile_file_exits_0_or_names_itself_in_one_line_and_writes_nothing(
    valid_files, tmp_path, monkeypatch, capsys, reader, spoiling
):
    files, checkpoint = valid_files
    spoil = dict(spoilings(reader))[spoiling]
    path = tmp_path / "in" / f"hostile.{'yaml' if reader == 'config' else 'npz' if reader == 'checkpoint' else 'csv'}"
    path.parent.mkdir()
    path.write_bytes(spoil(files[reader]))
    monkeypatch.chdir(tmp_path)
    before = listing(tmp_path)
    argv = [arg.format(file=path, checkpoint=checkpoint) for arg in HOSTILE_FILE_COMMANDS[reader]]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        lines = err.strip().splitlines()
        assert code == 1 and len(lines) == 1, lines
        assert lines[0].startswith("error: ") and str(path) in lines[0], lines
        assert listing(tmp_path) == before
