"""End-to-end command-line workflows on desk-size configs."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rulemix.checkpoint import load_checkpoint
from rulemix.cli import main
from rulemix.evaluate import sweep_from_csv


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


class TestTrainSweepSelect:
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
INVALID_FIELDS = st.one_of(
    st.tuples(st.just("train"), st.just("mode"), NOT_A_NAME),
    st.tuples(st.just("rule"), st.just("kind"), NOT_A_NAME),
    st.tuples(st.just("rule"), st.just("direction"), NOT_A_NAME),
    st.tuples(st.just("rule"), st.just("fn"), NOT_A_NAME),
    st.tuples(
        st.just("rule"),
        st.just("bound"),
        st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), st.sampled_from([math.inf, -math.inf, math.nan])),
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
        assert not (tmp_path / "out" / "checkpoint_seed0.npz").exists()

    @settings(max_examples=50, deadline=None)
    @given(case=INVALID_FIELDS)
    def test_invalid_mode_or_rule_field_is_one_line_error(self, case):
        section, field, value = case
        raw = {
            "task": "monotone-regression",
            "data": {"n": 200},
            "train": {"max_epochs": 2, "patience": 1},
        }
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
        assert code in (1, 2), (case, code)
        assert len(lines) == 1 and lines[0].startswith("error:"), (case, lines)


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
        assert len(err) == 1 and err[0].startswith("error: ValueError:") and "vall" in err[0]

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
        with np.load(ck, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        stored = json.loads(str(arrays["config_json"][()]))
        assert stored["train"]["mode"] == "controlled"
        stored["train"]["mode"] = "controlled_perturb"
        arrays["config_json"] = np.array(json.dumps(stored, sort_keys=True))
        legacy = tmp_path / "legacy.npz"
        with open(legacy, "wb") as fh:
            np.savez(fh, **arrays)
        assert load_checkpoint(legacy).config["train"]["mode"] == "controlled_perturb"
        assert main(["sweep", "--checkpoint", str(ck), "--out", str(tmp_path / "new.csv")]) == 0
        assert main(["sweep", "--checkpoint", str(legacy), "--out", str(tmp_path / "old.csv")]) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


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
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("coupling,")
        assert len(lines) == 3
        assert (out_dir / "sweep_coupling_concat.csv").exists()
