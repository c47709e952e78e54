"""End-to-end command-line workflows on desk-size configs."""

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
import threading
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.data
from helpers import SimulatedTrajectories, assert_joined, assert_reaped, force_sweep_workers, force_workers
from rulemix.autodiff import Tape
from rulemix.checkpoint import load_checkpoint
from rulemix.cli import main
from rulemix.config import config_from_dict
from rulemix.data import Dataset
from rulemix.evaluate import sweep_from_csv
from rulemix.model import COUPLINGS, couple, encoders, init_params

# sha256 of the latents CSV that ``test_exported_latents_keep_their_bytes`` exports, by coupling and
# --embeddings-alpha; recorded while the export still read the latents from the decode of one strength
EMBEDDINGS_SHA256 = {
    ("scaled_concat", "0.3"): "14ea9764050ed82240fb6814a24b21c26728a4deff67c3835f168070861ca27c",
    ("scaled_concat", "-0.2"): "0f9b107258f3d2773770243f89db7acc6bd4531fe4ab25019c6f5d70eef6ae46",
    ("concat", "0.3"): "bba5ce1826a8cd0e025854dd48aa30895e590185d785777c301195386f0b5e26",
    ("concat", "-0.2"): "bba5ce1826a8cd0e025854dd48aa30895e590185d785777c301195386f0b5e26",
    ("add", "0.3"): "6e890778b7e8b555a237d1b6584e02616688af1a6ac72ad2a4ab513056641e85",
    ("add", "-0.2"): "6e890778b7e8b555a237d1b6584e02616688af1a6ac72ad2a4ab513056641e85",
    ("input_concat_alpha", "0.3"): "5f6a17061b80646290a6f9f9eb379e9674519b0fca34abeab937aab4fed16f52",
    ("input_concat_alpha", "-0.2"): "69984d4804b91d297bb497be8f981ed67e5b8025b774c824ebbff740afe0e007",
    ("single", "0.3"): "2c36848908686c54a6c495df4f2c19733758fa0d5243c33cbdfade30940a75e5",
    ("single", "-0.2"): "2c36848908686c54a6c495df4f2c19733758fa0d5243c33cbdfade30940a75e5",
}


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

    def test_main_handles_sigterm_while_it_runs_in_the_main_thread_and_then_puts_the_old_handler_back(
        self, tmp_path, monkeypatch
    ):
        import signal
        import threading

        during, codes = [], []  # the SIGTERM handler in force while a command writes; the exit codes

        def writing(path, dataset, columns):
            during.append(signal.getsignal(signal.SIGTERM))

        def gen_data(out):
            codes.append(main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / out)]))

        def own(signum, frame):
            pass

        monkeypatch.setattr("rulemix.cli.write_dataset_csv", writing)
        cfg = tiny_pendulum_config(tmp_path)
        previous = signal.signal(signal.SIGTERM, own)
        try:
            gen_data("a.csv")
            assert signal.getsignal(signal.SIGTERM) is own
            thread = threading.Thread(target=gen_data, args=("b.csv",))  # only the main thread may set a handler
            thread.start()
            thread.join()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert codes == [0, 0]
        assert during[0] is not own and during[1] is own


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


def table_memos(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("table-"))


def memo_name(csv_path):
    return f"table-{hashlib.sha256(Path(csv_path).read_bytes()).hexdigest()}.npz"


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

    def test_data_csv_is_not_checked_and_is_memoized_by_its_bytes(self, ten, tmp_path):
        ck, data = ten
        # rows other than those the model was trained beside
        other = with_line_edited(data, tmp_path / "other.csv", lambda line: "0.125" + line[line.index(",") :])
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"), "--data-csv", str(other)]) == 0
        assert rows_caches(ck.parent) == [] and table_memos(ck.parent) == [memo_name(other)]

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
        assert len(err) == 1 and err[0].startswith("note: sweep cache not written:"), err
        assert out.exists() and sorted(p.name for p in ck.parent.iterdir()) == sorted([ck.name, blocker.name])


@pytest.fixture
def parses(monkeypatch):
    """Records the path of every table a sweep parses rather than reads from its memo."""
    parsed, real = [], rulemix.data._parse_table
    monkeypatch.setattr(rulemix.data, "_parse_table", lambda path, data: parsed.append(Path(path)) or real(path, data))
    return parsed


def first_val_line(csv_path) -> int:
    return next(i for i, line in enumerate(Path(csv_path).read_text().splitlines(), start=1) if line.endswith(",val"))


def with_line_edited(src, dst, edit):
    """A copy of the CSV ``src`` at ``dst`` whose first val line is ``edit(line)``."""
    lines = Path(src).read_text().splitlines()
    i = first_val_line(src) - 1
    lines[i] = edit(lines[i])
    dst.write_text("\n".join(lines) + "\n")
    return dst


class TestSweepTableMemo:
    """A ``--data-csv`` sweep memoizes the CSV's table beside the checkpoint, keyed by the CSV's bytes."""

    def sweep(self, ck, data, out, *flags):
        return main(["sweep", "--checkpoint", str(ck), "--out", str(out), "--data-csv", str(data), *flags])

    def test_second_sweep_parses_nothing_and_writes_the_same_bytes(self, ten, tmp_path, parses):
        ck, data = ten
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert self.sweep(ck, data, first) == 0
        assert parses == [data] and table_memos(ck.parent) == [memo_name(data)]
        parses.clear()
        assert self.sweep(ck, data, second) == 0
        assert parses == [] and first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda line: line.rsplit(",", 1)[0], ":{line}: expected 9 columns, got 8"),
            (lambda line: "nan" + line[line.index(",") :], ":{line}: non-finite value 'nan' in column 'theta1'"),
        ],
        ids=["ragged", "non-finite"],
    )
    def test_a_csv_that_fails_to_parse_is_never_memoized(self, ten, tmp_path, capsys, parses, edit, error):
        ck, data = ten
        bad = with_line_edited(data, tmp_path / "bad.csv", edit)
        errs = []
        for _ in range(2):
            capsys.readouterr()
            assert self.sweep(ck, bad, tmp_path / "s.csv") == 1
            errs.append(capsys.readouterr().err.strip().splitlines())
        assert errs[0] == errs[1] == [f"error: ValueError: {bad}{error.format(line=first_val_line(data))}"]
        assert parses == [bad, bad] and table_memos(ck.parent) == [] and not (tmp_path / "s.csv").exists()

    def test_an_edited_csv_misses_the_memo(self, ten, tmp_path, parses):
        ck, data = ten
        copy = shutil.copyfile(data, tmp_path / "data.csv")
        assert self.sweep(ck, copy, tmp_path / "before.csv") == 0
        with_line_edited(data, copy, lambda line: "0.125" + line[line.index(",") :])
        parses.clear()
        assert self.sweep(ck, copy, tmp_path / "after.csv") == 0
        assert parses == [copy] and table_memos(ck.parent) == [memo_name(copy)]  # the earlier memo was removed
        fresh = tmp_path / "fresh" / ck.name
        fresh.parent.mkdir()
        shutil.copyfile(ck, fresh)
        assert self.sweep(fresh, copy, tmp_path / "fresh.csv") == 0  # a parse with no memo beside it
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert (tmp_path / "after.csv").read_bytes() != (tmp_path / "before.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "edited"])
    def test_a_truncated_or_edited_memo_falls_back_to_a_parse(self, ten, tmp_path, parses, damage):
        ck, data = ten
        first, second, third = (tmp_path / f"{name}.csv" for name in ("first", "second", "third"))
        assert self.sweep(ck, data, first) == 0
        memo = ck.parent / memo_name(data)
        if damage == "truncated":
            memo.write_bytes(memo.read_bytes()[: memo.stat().st_size // 2])
        else:
            with np.load(memo) as archive:
                arrays = {key: archive[key].copy() for key in archive.files}
            arrays["numbers"][0, 0] += 1e-9
            with open(memo, "wb") as fh:
                np.savez(fh, **arrays)
        parses.clear()
        assert self.sweep(ck, data, second) == 0
        assert parses == [data] and first.read_bytes() == second.read_bytes()
        parses.clear()
        assert self.sweep(ck, data, third) == 0  # the memo was rewritten
        assert parses == [] and first.read_bytes() == third.read_bytes()

    def test_a_memo_path_that_is_a_directory_is_a_note_and_the_sweep_succeeds(self, ten, tmp_path, capsys):
        ck, data = ten
        blocker = ck.parent / memo_name(data)
        blocker.mkdir()  # neither readable nor replaceable as a file
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert self.sweep(ck, data, out) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("note: sweep cache not written:"), err
        assert out.exists() and sorted(p.name for p in ck.parent.iterdir()) == sorted([ck.name, blocker.name])

    def test_a_failed_removal_of_the_earlier_memo_is_the_one_note(self, ten, tmp_path, capsys, monkeypatch):
        ck, data = ten
        copy = shutil.copyfile(data, tmp_path / "data.csv")
        assert self.sweep(ck, copy, tmp_path / "before.csv") == 0
        earlier = ck.parent / memo_name(copy)
        with_line_edited(data, copy, lambda line: "0.125" + line[line.index(",") :])
        real_unlink = Path.unlink

        def unlink(path, missing_ok=False):
            if path == earlier:
                raise PermissionError(f"[Errno 1] Operation not permitted: '{path}'")
            real_unlink(path, missing_ok)

        monkeypatch.setattr(Path, "unlink", unlink)
        capsys.readouterr()
        assert self.sweep(ck, copy, tmp_path / "after.csv") == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"note: sweep cache not written: [Errno 1] Operation not permitted: '{earlier}'"]
        assert table_memos(ck.parent) == sorted([earlier.name, memo_name(copy)])

    @pytest.mark.parametrize("failure", ["unknown label", "empty split", "no pair crosses the guard"])
    def test_a_sweep_that_fails_after_the_parse_leaves_no_memo(self, ten, tmp_path, capsys, parses, failure):
        ck, data = ten
        flags, bad = [], tmp_path / "bad.csv"
        if failure == "unknown label":
            with_line_edited(data, bad, lambda line: line.rsplit(",", 1)[0] + ",vall")
        elif failure == "empty split":
            bad.write_text("".join(line for line in data.read_text().splitlines(True) if not line.endswith(",val\n")))
            flags = ["--splits", "val"]
        else:  # pendulum inputs stay far below 100, so no perturbation crosses the guard
            shutil.copyfile(data, bad)
            rule = {"kind": "monotonic", "feature": 0, "direction": "decrease", "guard": 100.0}
            ck = with_stored_config(ck, ck.parent / "guarded.npz", lambda raw: {**raw, "rule": rule})
        capsys.readouterr()
        assert self.sweep(ck, bad, tmp_path / "s.csv", *flags) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert parses == [bad] and table_memos(ck.parent) == [] and not (tmp_path / "s.csv").exists()


class TestSweepInWorkers:
    """``rulemix sweep`` encoding and decoding on threads: the bytes and errors of one thread."""

    def test_csv_bytes_equal_those_of_one_thread(self, trained, tmp_path, monkeypatch, threads):
        ck, data = trained
        written = {}
        baseline = threading.active_count()
        for workers in (1, 2, 3):
            force_sweep_workers(monkeypatch, workers)
            out = tmp_path / f"sweep{workers}.csv"
            flags = ["--data-csv", str(data), "--extended", "--step", "0.02"]
            assert main(["sweep", "--checkpoint", str(ck), "--out", str(out), *flags]) == 0
            written[workers] = out.read_bytes()
        # per split, the two passages on two threads, then the strengths on all of them
        assert len(threads) == 2 * (1 + 1) + 2 * (1 + 2)
        assert_joined(threads, baseline)
        assert written[3] == written[2] == written[1] and len(sweep_from_csv(tmp_path / "sweep2.csv")) == 2 * 81

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_guard_no_pair_crosses_is_one_error_line(self, trained, tmp_path, capsys, monkeypatch, threads, workers):
        ck, data = trained
        # pendulum inputs stay far below 100, so no perturbation crosses the guard
        rule = {"kind": "monotonic", "feature": 0, "direction": "decrease", "guard": 100.0}
        guarded = with_stored_config(ck, tmp_path / "guarded.npz", lambda raw: {**raw, "rule": rule})
        force_sweep_workers(monkeypatch, workers)
        out = tmp_path / "sweep.csv"
        baseline = threading.active_count()
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(guarded), "--out", str(out), "--data-csv", str(data)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: UndefinedRatioError: no valid perturbation pairs to verify"]
        assert not out.exists() and len(threads) == 2 * (workers - 1)  # the first split's encoding and decode
        assert_joined(threads, baseline)


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

    @pytest.mark.parametrize("data,state", [("nofile.csv", "does not exist"), ("adir", "is a directory")])
    def test_missing_or_directory_data_csv_is_one_line_naming_the_flag_before_the_load(
        self, ten, tmp_path, capsys, monkeypatch, data, state
    ):
        ck, _ = ten
        (tmp_path / "adir").mkdir()
        loaded = []
        monkeypatch.setattr("rulemix.cli.load_checkpoint", lambda path: loaded.append(path))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "--checkpoint", str(ck), "--out", "s.csv", "--data-csv", data]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: ConfigError: --data-csv {data} {state}"]
        assert loaded == [] and sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

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
    @pytest.mark.parametrize("coupling", COUPLINGS)
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
        encoded = encoders(tape, ck.spec, ck.params, x)
        nodes = {"z": couple(tape, ck.spec, ck.params, encoded, 0.3)}
        if coupling in ("scaled_concat", "concat", "add"):  # two passages: their latents follow
            nodes.update(z_rule=encoded[0], z_data=encoded[1])
        header, *rows = emb.read_text().splitlines()
        assert header.split(",") == [f"{k}{j}" for k, n in nodes.items() for j in range(tape.value(n).shape[1])]
        want = np.concatenate([tape.value(n) for n in nodes.values()], axis=1)
        got = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", ["0.3", "-0.2"])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_exported_latents_keep_their_bytes(self, trained, tmp_path, coupling, alpha):
        # the trained checkpoint laid out for ``coupling``, with parameters drawn from a fixed seed, so the
        # pin does not move when training rounds differently
        ck = tmp_path / "init.npz"
        with np.load(trained[0], allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files if not k.startswith("param:")}
        spec = replace(load_checkpoint(trained[0]).spec, coupling=coupling)
        config = json.loads(str(arrays["config_json"]))
        config["model"]["coupling"] = coupling
        arrays["model_json"] = np.array(json.dumps(asdict(spec), sort_keys=True))
        arrays["config_json"] = np.array(json.dumps(config, sort_keys=True))
        arrays.update({f"param:{k}": v for k, v in init_params(spec, np.random.default_rng(11)).items()})
        with open(ck, "wb") as fh:
            np.savez(fh, **arrays)
        emb = tmp_path / "latents.csv"
        argv = ["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "sweep.csv"),
                "--embeddings-out", str(emb), "--embeddings-alpha", alpha]
        assert main(argv) == 0
        assert hashlib.sha256(emb.read_bytes()).hexdigest() == EMBEDDINGS_SHA256[coupling, alpha]


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


# ----------------------------------------------------------------------
# hostile regimes: each exits 1 with one line naming the cause, or exits 0
# with parameters that moved; none trains in silence
# ----------------------------------------------------------------------


def write_regression_csv(path, x, y) -> None:
    """A monotone-regression data CSV: 60% train, 20% val, 20% test rows, in order."""
    n = len(y)
    split = ["train"] * (n * 6 // 10) + ["val"] * (n * 2 // 10)
    split += ["test"] * (n - len(split))
    lines = [",".join(f"x{i}" for i in range(x.shape[1])) + ",y,split"]
    lines += [",".join(repr(float(v)) for v in (*row, t)) + f",{s}" for row, t, s in zip(x, y, split)]
    path.write_text("\n".join(lines) + "\n")


def regime_data(tmp_path) -> dict[str, dict]:
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1, 1, (150, 5)), rng.uniform(-1, 1, 150)
    write_regression_csv(tmp_path / "constant_target.csv", x, np.full(150, 0.5))
    flat = x.copy()
    flat[:, 0] = 1.0  # the rule's feature: every nudge moves it, but it never varies
    write_regression_csv(tmp_path / "flat_feature.csv", flat, y)
    return {
        "constant target": {"data": {"csv": str(tmp_path / "constant_target.csv")}},
        "zero-variance rule feature": {"data": {"csv": str(tmp_path / "flat_feature.csv")}},
        "batch_size above the train rows": {"data": {"n": 120}, "train": {"batch_size": 1000}},
        "beta 1e-300": {"data": {"n": 120}, "train": {"beta": 1e-300}},
        "beta 1e300": {"data": {"n": 120}, "train": {"beta": 1e300}},
    }


# (exit code, the parameters left at their initial values, params_sha256 of the checkpoint), recorded while
# every batch of a fit recorded its own tape; the digests re-recorded when the strength came to enter the
# first decision layer after its two products. At beta 1e-300 every strength is 0 or 1, and at 1 the
# hinge's gradient reaches the rule encoder from a row and its copy with opposite signs: their bias
# terms cancel exactly, so the rule biases never move while its weights do.
REGIME_OUTCOMES = {
    "constant target": (0, [], "6f8f47c899539c3a412ed2333f84c5d40b7642ac865055e4331efe671884c04c"),
    "zero-variance rule feature": (0, [], "ac3913351511b86ad869981a3868513054a6fceeb275b58c287585bdd9e146aa"),
    "batch_size above the train rows": (0, [], "0d07d97c07d77a038532d21d24734c93bcf2a3d782274b5302f9052c60817cf6"),
    "beta 1e-300": (0, ["rule.0.b", "rule.1.b"], "aa09561ba600839826cebdd33e8d7cb5ee0b8f00cccf77c70e21670cd276ac12"),
    "beta 1e300": (0, [], "7b9d9b41f6545471cd97aa60344b31e9f3cc56fc54cb0d46cc13f129e3f0c9f8"),
}


def test_each_hostile_regime_trains_with_moved_parameters_or_names_its_cause(tmp_path, capsys):
    from rulemix.model import init_params

    cases = regime_data(tmp_path)
    assert cases.keys() == REGIME_OUTCOMES.keys()
    for name, over in cases.items():
        raw = {"task": "monotone-regression", "model": {"encoder_units": [8, 4], "decision_units": [8]},
               **over, "train": {"max_epochs": 2, "patience": 1, **over.get("train", {})}}
        cfg, out = tmp_path / f"{name}.yaml", tmp_path / name
        cfg.write_text(yaml.safe_dump(raw))
        capsys.readouterr()
        code = main(["train", "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        want_code, still, digest = REGIME_OUTCOMES[name]
        assert code == want_code, (name, err)
        if code:
            assert len(err) == 1 and err[0].startswith("error: "), (name, err)
            continue
        assert err == [], name
        ck = load_checkpoint(out / "checkpoint_seed0.npz")
        initial = init_params(ck.spec, np.random.default_rng(0))
        assert [k for k in initial if np.array_equal(initial[k], ck.params[k])] == still, name
        assert len(still) < len(initial), name
        assert params_digest(ck.params) == digest, name


def params_digest(params: dict[str, np.ndarray]) -> str:
    """The benchmark's parameter digest: each name, then its float64 bytes, in name order."""
    import hashlib

    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Ctrl-C in a terminal: SIGINT reaches every process of the foreground group,
# the forked build workers included; kill and timeout send SIGTERM to the
# command alone
# ----------------------------------------------------------------------

FORKED_BUILD_SCRIPT = """
import os, sys, time
import rulemix.pendulum
import rulemix.data
from rulemix.cli import main

rulemix.pendulum.FORK_MIN_STEPS = 0  # two build workers, as helpers.force_workers makes them
rulemix.pendulum.worker_count = lambda n_tasks: min(n_tasks, 2)
real_fork, marker = os.fork, sys.argv[1]
# a slow at-fork hook in the child (the interpreter runs its own there) holds open the window in which
# an interrupt reaches a child that has not yet started its share
os.register_at_fork(after_in_child=lambda: time.sleep(0.3))


def fork():
    pid = real_fork()
    if pid:
        with open(marker, "w") as fh:  # a child exists
            fh.write(str(pid))
    return pid


os.fork = fork
sys.exit(main(sys.argv[2:]))
"""


def group_members(pgid: int) -> dict[int, str]:
    """The state (``R``, ``S``, ``Z`` for a zombie, ...) of each process in group ``pgid``, read from /proc."""
    found = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                state, _, pgrp = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:3]
            except OSError:  # ended while being read
                continue
            if int(pgrp) == pgid:
                found[int(entry.name)] = state
    return found


def signal_a_forked_build(tmp_path, send) -> tuple[int, int, str]:
    """Run a ``gen-data`` build of two processes in a session of its own and ``send(proc)`` once it forked.

    Returns the build's pid (its session's process group), exit code and stderr, as soon as the build's
    own process has ended: its stderr goes to a file, so a worker that outlives it holds up nothing.
    """
    import os
    import signal
    import subprocess
    import sys
    import time

    cfg = tiny_pendulum_config(tmp_path, data={"n_pairs": 100_000, "n_trajectories": 2})  # seconds per share
    out, marker, stderr = tmp_path / "data.csv", tmp_path / "forked", tmp_path / "stderr"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with open(stderr, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", FORKED_BUILD_SCRIPT, str(marker), "gen-data", "--config", str(cfg),
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert marker.exists(), "the build forked no worker"
        send(proc)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.pid, proc.returncode, stderr.read_text()


needs_fork_and_proc = pytest.mark.skipif(
    not hasattr(__import__("os"), "fork") or not Path("/proc/self/stat").exists(), reason="needs fork and /proc")


@needs_fork_and_proc
def test_sigint_to_the_process_group_of_a_forked_build_is_one_line_and_leaves_nothing(tmp_path):
    import os
    import signal
    import time

    pid, code, err = signal_a_forked_build(tmp_path, lambda proc: os.killpg(proc.pid, signal.SIGINT))
    assert code == 130, err
    assert err.splitlines() == ["error: interrupted"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "forked", "stderr"]  # no output, no .tmp
    # no member runs on; an orphaned zombie may linger until init reaps it
    assert [state for state in group_members(pid).values() if state != "Z"] == []
    deadline = time.monotonic() + 10
    while group_members(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert group_members(pid) == {}


@needs_fork_and_proc
def test_sigterm_to_a_forked_build_takes_the_ctrl_c_path_and_leaves_no_worker(tmp_path):
    import signal
    import time

    pid, code, err = signal_a_forked_build(tmp_path, lambda proc: proc.send_signal(signal.SIGTERM))
    assert code == 143, err
    assert err.splitlines() == ["error: terminated"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "forked", "stderr"]  # no output, no .tmp
    time.sleep(0.2)
    assert group_members(pid) == {}  # the worker was killed and reaped before the command ended


THREADED_SWEEP_SCRIPT = """
import sys, threading, time
import rulemix.evaluate
import rulemix.model
from rulemix.cli import main

# two threads for every phase, as helpers.force_sweep_workers makes them
rulemix.evaluate.ENCODE_THREAD_MIN_MACS = rulemix.evaluate.DECODE_THREAD_MIN_MACS = 0
rulemix.evaluate.worker_count = lambda n_tasks, blas=False: min(n_tasks, 2)
real, marker = rulemix.model._strength, sys.argv[1]


def slow(alpha):  # 81 strengths of 0.05 s on two threads: a decode of 2 s that a signal lands in
    if threading.current_thread() is not threading.main_thread():
        open(marker, "w").close()  # a worker thread is decoding
    time.sleep(0.05)
    return real(alpha)


rulemix.model._strength = slow
sys.exit(main(sys.argv[2:]))
"""


def signal_a_threaded_sweep(trained, tmp_path, send) -> tuple[int, str, float]:
    """Run ``rulemix sweep`` over 81 strengths on two threads and ``send(proc)`` once a worker thread decodes.

    Returns the exit code, stderr, and the seconds from the signal to the command's end.
    """
    import os
    import signal
    import subprocess
    import sys
    import time

    ck, data = trained
    marker, stderr, out = tmp_path / "decoding", tmp_path / "stderr", tmp_path / "sweep.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
    with open(stderr, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", THREADED_SWEEP_SCRIPT, str(marker), "sweep", "--checkpoint", str(ck),
             "--data-csv", str(data), "--extended", "--step", "0.02", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert marker.exists(), "no worker thread decoded"
        sent = time.monotonic()
        send(proc)
        proc.wait(timeout=60)
        took = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, stderr.read_text(), took


@pytest.mark.parametrize("how,code,line", [("SIGTERM", 143, "error: terminated"),
                                           ("SIGINT", 130, "error: interrupted")])
def test_a_signal_during_a_threaded_decode_is_one_line_and_writes_nothing(trained, tmp_path, how, code, line):
    import os
    import signal

    if how == "SIGTERM":  # as kill and timeout send it, to the command alone
        send = lambda proc: proc.send_signal(signal.SIGTERM)  # noqa: E731
    else:  # as Ctrl-C sends it, to the foreground process group
        send = lambda proc: os.killpg(proc.pid, signal.SIGINT)  # noqa: E731
    got, err, took = signal_a_threaded_sweep(trained, tmp_path, send)
    assert got == code, err
    assert err.splitlines() == [line]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["decoding", "stderr"]  # no output, no staged temporary
    assert took < 1.5  # each thread stopped at its next strength: the rest of the 2 s decode did not run
