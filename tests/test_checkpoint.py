"""Checkpoint persistence and dataset CSV round-trips."""

import json
import re

import numpy as np
import pytest

import rulemix.checkpoint
from helpers import tiny_model
from rulemix.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from rulemix.config import config_from_dict
from rulemix.data import SPLITS, Dataset, assign_splits, read_dataset_csv, write_dataset_csv
from rulemix.errors import CheckpointError, UnsupportedVersionError
from rulemix.model import predict_values
from rulemix.pendulum import PENDULUM_CSV_COLUMNS, PendulumParams, build_pendulum_dataset
from rulemix.rules import EnergyDampingRule
from rulemix.train import FitResult, LossScale, TrainConfig, TrainReport, fit


def make_fit_result(seed=0):
    rng = np.random.default_rng(seed)
    spec, params = tiny_model(rng)
    report = TrainReport(final_epoch=5, best_epoch=4, best_val=0.25, rho=2.0)
    digests = {split: f"{seed:064x}" for split in SPLITS}
    scale = LossScale(rule0=1.0, task0=0.5)
    return FitResult(spec=spec, params=params, scale=scale, report=report, data_sha256=digests)


class TestCheckpoint:
    def test_round_trip_preserves_predictions_bit_exactly(self, tmp_path):
        result = make_fit_result()
        cfg = config_from_dict({"task": "pendulum"})
        path = tmp_path / "model.npz"
        save_checkpoint(path, result, cfg.raw, seed=7)
        loaded = load_checkpoint(path)
        probe = np.random.default_rng(1).uniform(-1, 1, (10, 4))
        before = predict_values(result.spec, result.params, probe, 0.37)
        after = predict_values(loaded.spec, loaded.params, probe, 0.37)
        assert np.array_equal(before, after)
        assert loaded.seed == 7
        assert loaded.epoch == 4  # the best epoch, whose parameters the file holds, not the final 5
        assert loaded.scale.ratio == 2.0
        assert loaded.config["task"] == "pendulum"

    def test_all_parameters_round_trip_bit_exactly(self, tmp_path):
        result = make_fit_result(1)
        path = tmp_path / "model.npz"
        save_checkpoint(path, result, {"task": "pendulum"}, seed=0)
        loaded = load_checkpoint(path)
        assert loaded.params.keys() == result.params.keys()
        for k in result.params:
            assert np.array_equal(loaded.params[k], result.params[k])

    def test_truncated_file_is_corruption_error(self, tmp_path):
        result = make_fit_result(2)
        path = tmp_path / "model.npz"
        save_checkpoint(path, result, {"task": "pendulum"}, seed=0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_bump_is_unsupported_version_error(self, tmp_path):
        result = make_fit_result(3)
        path = tmp_path / "model.npz"
        save_checkpoint(path, result, {"task": "pendulum"}, seed=0)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["version"] = np.array(FORMAT_VERSION + 1, dtype=np.int64)
        np.savez(path, **arrays)
        with pytest.raises(UnsupportedVersionError, match="version"):
            load_checkpoint(path)

    def test_garbage_file_is_corruption_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_scale_round_trips_as_none(self, tmp_path):
        result = make_fit_result(4)
        result.scale = None
        path = tmp_path / "model.npz"
        save_checkpoint(path, result, {"task": "pendulum"}, seed=0)
        assert load_checkpoint(path).scale is None

    def test_path_without_suffix_is_written_as_given(self, tmp_path):
        result = make_fit_result(5)
        save_checkpoint(tmp_path / "ck", result, {"task": "pendulum"}, seed=0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
        loaded = load_checkpoint(tmp_path / "ck")
        for k in result.params:
            assert np.array_equal(loaded.params[k], result.params[k])

    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(6), {"task": "pendulum"}, seed=0)
        before = path.read_bytes()

        def write_half_then_fail(fh, **arrays):
            fh.write(before[: len(before) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(rulemix.checkpoint.np, "savez", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, make_fit_result(7), {"task": "pendulum"}, seed=1)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def rewrite_params(self, path, edit):
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_missing_parameter_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(8), {"task": "pendulum"}, seed=0)
        self.rewrite_params(path, lambda a: a.pop("param:rule.1.w"))
        with pytest.raises(CheckpointError, match=r"missing \['rule.1.w'\]"):
            load_checkpoint(path)

    def test_unexpected_parameter_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(8), {"task": "pendulum"}, seed=0)
        self.rewrite_params(path, lambda a: a.update({"param:rule.9.w": np.zeros((2, 2))}))
        with pytest.raises(CheckpointError, match="rule.9.w"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((8, 6)), np.zeros((4 * 8,)), np.zeros((1, 4, 8)), np.zeros((4, 8), dtype=np.int64)],
        ids=["shape", "1-d", "3-d", "int"],
    )
    def test_wrong_parameter_layout_is_checkpoint_error(self, tmp_path, bad):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(9), {"task": "pendulum"}, seed=0)
        self.rewrite_params(path, lambda a: a.update({"param:rule.0.w": bad}))
        with pytest.raises(CheckpointError, match="rule.0.w"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_checkpoint_error(self, tmp_path, value):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(10), {"task": "pendulum"}, seed=0)

        def poison(arrays):
            arrays["param:decision.0.w"] = arrays["param:decision.0.w"].copy()
            arrays["param:decision.0.w"][1, 2] = value

        self.rewrite_params(path, poison)
        with pytest.raises(CheckpointError, match="decision.0.w: non-finite"):
            load_checkpoint(path)


    def test_layer_width_below_one_is_checkpoint_error(self, tmp_path):
        # a zero-width latent whose stored arrays all match it, so only the width check can object
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(11), {"task": "pendulum"}, seed=0)

        def zero_latent(arrays):
            spec = json.loads(str(arrays["model_json"][()]))
            arrays["model_json"] = np.array(json.dumps({**spec, "encoder_units": [8, 0]}))
            for block in ("rule", "data"):
                arrays[f"param:{block}.1.w"], arrays[f"param:{block}.1.b"] = np.zeros((8, 0)), np.zeros((1, 0))
            arrays["param:decision.0.w"] = np.zeros((0, 8))

        self.rewrite_params(path, zero_latent)
        with pytest.raises(CheckpointError, match="encoder_units"):
            load_checkpoint(path)

    def test_stored_layout_json(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(12), {"task": "pendulum"}, seed=0)
        with np.load(path, allow_pickle=False) as archive:
            assert str(archive["model_json"][()]) == (
                '{"coupling": "scaled_concat", "decision_units": [8], "encoder_units": [8, 6], '
                '"input_dim": 4, "output_dim": 4, "shared_units": [], "task": "regression"}'
            )

    @pytest.mark.parametrize(
        "key,value",
        [
            ("model_json", {"shared_units": ["a"]}),
            ("model_json", {"shared_units": 3}),
            ("model_json", {"input_dim": None}),
            ("model_json", {"input_dim": float("inf")}),
            ("model_json", [4, 4]),
            ("scale_rule0", [1.0, 2.0]),
            ("seed", [0, 1]),
            ("version", [1, 1]),
        ],
    )
    def test_hostile_stored_field_is_checkpoint_error(self, tmp_path, key, value):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(13), {"task": "pendulum"}, seed=0)

        def edit(arrays):
            if key == "model_json":  # a mapping edits the stored layout, anything else replaces it
                layout = json.loads(str(arrays[key][()]))
                arrays[key] = np.array(json.dumps({**layout, **value} if isinstance(value, dict) else value))
            else:
                arrays[key] = np.array(value)

        self.rewrite_params(path, edit)
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["bad.npz", "array.npy"])
    def test_file_without_a_zip_header_is_refused_unread(self, tmp_path, name, monkeypatch):
        # np.load would unpickle, or advise unpickling, a file whose magic it does not know
        path = tmp_path / name
        if name.endswith(".npy"):
            np.save(path, np.arange(3.0))
        else:
            path.write_bytes(b"\xff\x93NUMPY")
        monkeypatch.setattr(np, "load", lambda *a, **k: pytest.fail("np.load reached"))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: not a checkpoint \\(no zip archive header\\)$"):
            load_checkpoint(path)

    def test_empty_file_is_checkpoint_error_naming_it(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: corrupt or unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config_json", "model_json", "data_sha256_json"])
    def test_deeply_nested_json_field_is_checkpoint_error_naming_the_file(self, tmp_path, key):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(17), {"task": "pendulum"}, seed=0)
        self.rewrite_params(path, lambda arrays: arrays.update({key: np.array("[" * 100_000)}))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: corrupt or unreadable"):
            load_checkpoint(path)

    def test_layout_without_task_names_the_missing_field(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(18), {"task": "pendulum"}, seed=0)

        def drop_task(arrays):
            layout = json.loads(str(arrays["model_json"][()]))
            del layout["task"]
            arrays["model_json"] = np.array(json.dumps(layout))

        self.rewrite_params(path, drop_task)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*missing field 'task'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field,stored",
        [
            ("epoch", np.array(1.5)),
            ("epoch", np.array(True)),
            ("version", np.array("1")),
            ("version", np.array([FORMAT_VERSION])),
            ("seed", np.array([0, 1])),
            ("scale_rule0", np.array([1.0, 2.0])),
            ("scale_task0", np.array(1)),
            ("model_json", np.array(["{}"])),
            ("config_json", np.array(7)),
        ],
        ids=lambda v: v if isinstance(v, str) else f"{v.dtype}{list(v.shape)}",
    )
    def test_field_of_the_wrong_dtype_or_rank_is_refused_naming_it(self, tmp_path, field, stored):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(19), {"task": "pendulum"}, seed=0)
        self.rewrite_params(path, lambda arrays: arrays.update({field: stored}))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: corrupt or unreadable checkpoint: field {field} must hold one "):
            load_checkpoint(path)

    @pytest.mark.parametrize("stored", ["[1, 2]", "null", '"text"', "7"])
    def test_layout_that_is_not_an_object_is_refused_naming_it(self, tmp_path, stored):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(20), {"task": "pendulum"}, seed=0)
        self.rewrite_params(path, lambda arrays: arrays.update({"model_json": np.array(stored)}))
        with pytest.raises(
            CheckpointError,
            match=f"^{re.escape(str(path))}: corrupt or unreadable checkpoint: field model_json must hold a JSON object",
        ):
            load_checkpoint(path)


class TestRowDigests:
    def test_load_returns_the_digests_fit_recorded(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.15, 0.15, (60, 4))
        ds = Dataset(x=x, y=x.copy(), split=assign_splits(60, (0.6, 0.2, 0.2)))
        spec, _ = tiny_model(np.random.default_rng(1))
        result = fit(spec, TrainConfig(max_epochs=2, patience=1), ds, EnergyDampingRule(PendulumParams()))
        assert result.data_sha256 == {split: ds.sha256(split) for split in SPLITS}
        path = tmp_path / "model.npz"
        save_checkpoint(path, result, {"task": "pendulum"}, seed=0)
        assert load_checkpoint(path).data_sha256 == result.data_sha256

    def test_file_without_digests_loads_with_none(self, tmp_path):
        path = tmp_path / "model.npz"
        result = make_fit_result(14)
        save_checkpoint(path, result, {"task": "pendulum"}, seed=0)
        assert load_checkpoint(path).data_sha256 == result.data_sha256
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files if k != "data_sha256_json"}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        loaded = load_checkpoint(path)
        assert loaded.data_sha256 is None and loaded.params.keys() == result.params.keys()

    @pytest.mark.parametrize(
        "stored",
        [
            "[1]",
            '{"train": "x"}',
            json.dumps({s: "a" * 64 for s in ("train", "val")}),
            json.dumps({s: "a" * 64 for s in ("train", "val", "test", "extra")}),
            json.dumps({s: "A" * 64 for s in SPLITS}),
            json.dumps({s: 7 for s in SPLITS}),
        ],
        ids=["list", "short", "missing split", "extra split", "upper case", "not text"],
    )
    def test_malformed_digest_field_is_checkpoint_error(self, tmp_path, stored):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(15), {"task": "pendulum"}, seed=0)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["data_sha256_json"] = np.array(stored)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match="malformed data_sha256 field"):
            load_checkpoint(path)

    def test_non_json_digest_field_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, make_fit_result(16), {"task": "pendulum"}, seed=0)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["data_sha256_json"] = np.array("{not json")
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            load_checkpoint(path)


class TestDatasetCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = build_pendulum_dataset(n_pairs=60, n_trajectories=2, seed=5)
        path = tmp_path / "pendulum.csv"
        write_dataset_csv(path, ds, PENDULUM_CSV_COLUMNS)
        loaded = read_dataset_csv(path, n_targets=4)
        assert np.array_equal(loaded.x, ds.x)
        assert np.array_equal(loaded.y, ds.y)
        assert list(loaded.split) == list(ds.split)

    def test_header_row_present(self, tmp_path):
        ds = build_pendulum_dataset(n_pairs=10, n_trajectories=1, seed=0)
        path = tmp_path / "pendulum.csv"
        write_dataset_csv(path, ds, PENDULUM_CSV_COLUMNS)
        assert path.read_text().splitlines()[0] == ",".join(PENDULUM_CSV_COLUMNS)

    @pytest.mark.parametrize("text", ["a,b,c\n", ""], ids=["header only", "empty file"])
    def test_empty_csv_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{path}: no data rows"):
            read_dataset_csv(path, n_targets=1)

    @pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,3.0,train"], ids=["short", "long"])
    def test_wrong_column_count_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_text(f"x0,y,split\n1.0,2.0,train\n{row}\n")
        with pytest.raises(ValueError, match=f"^{path}:3: expected 3 columns, got {row.count(',') + 1}"):
            read_dataset_csv(path, n_targets=1)

    @pytest.mark.parametrize("row", ["abc,2.0,train", "1.0,,train"], ids=["x", "y"])
    def test_non_numeric_cell_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_text(f"x0,y,split\n1.0,2.0,train\n{row}\n")
        with pytest.raises(ValueError, match=f"^{path}:3: could not convert string to float"):
            read_dataset_csv(path, n_targets=1)
