"""Config loading, defaults, validation, and resolved-dump idempotence."""

import pytest

from rulemix.config import config_from_dict, default_config, load_config
from rulemix.evaluate import alpha_grid
from rulemix.errors import ConfigError
from rulemix.rules import EnergyDampingRule, MonotonicRule, ThresholdRule
from rulemix.train import fit


class TestDefaults:
    def test_empty_pendulum_config_resolves_all_defaults(self):
        cfg = config_from_dict({"task": "pendulum"})
        dump = cfg.resolved_yaml()
        for needle in ("beta: 0.1", "lr: 0.001", "batch_size: 32", "patience: 10", "n_pairs: 30000"):
            assert needle in dump, needle
        assert cfg.train_config().beta == 0.1
        assert isinstance(cfg.rule(), EnergyDampingRule)

    def test_monotone_regression_defaults(self):
        cfg = config_from_dict({"task": "monotone-regression"})
        rule = cfg.rule()
        assert isinstance(rule, MonotonicRule)
        assert rule.direction == "decrease" and rule.bound == 0.1
        assert cfg.train_config().mode == "controlled"
        assert cfg.model_spec().input_dim == 5

    def test_shifted_classification_defaults(self):
        cfg = config_from_dict({"task": "shifted-classification"})
        rule = cfg.rule()
        assert isinstance(rule, MonotonicRule) and rule.direction == "increase"
        assert default_config("shifted-classification")["train"]["mode"] == "controlled"
        spec = cfg.model_spec()
        assert spec.task == "classification"
        assert spec.encoder_units == (100, 16)
        assert spec.decision_units == ()

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            default_config("double-pendulum")


class TestValidation:
    def test_negative_beta_names_the_field(self):
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict({"task": "pendulum", "train": {"beta": -1.0}})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="train.momentum"):
            config_from_dict({"task": "pendulum", "train": {"momentum": 0.9}})

    def test_missing_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            config_from_dict({"seed": 1})

    def test_bad_coupling_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            config_from_dict({"task": "pendulum", "model": {"coupling": "multiply"}})

    def test_missing_csv_rejected(self):
        with pytest.raises(ConfigError, match="data.csv"):
            config_from_dict({"task": "pendulum", "data": {"csv": "/nonexistent/file.csv"}})

    def test_rule_kind_switch_pulls_matching_defaults(self):
        cfg = config_from_dict({"task": "pendulum", "rule": {"kind": "threshold", "limit": 2.0}})
        rule = cfg.rule()
        assert isinstance(rule, ThresholdRule)
        assert rule.limit == 2.0 and rule.fn == "row_mean"

    def test_unknown_threshold_function_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"task": "pendulum", "rule": {"kind": "threshold", "fn": "bogus"}})

    @pytest.mark.parametrize("sweep", [{"step": 0.0}, {"start": 1.0, "stop": 0.0}, {"step": None}])
    def test_bad_sweep_grid_rejected(self, sweep):
        with pytest.raises(ConfigError, match="sweep"):
            config_from_dict({"task": "pendulum", "sweep": sweep})

    def test_rule_none_supported(self):
        cfg = config_from_dict(
            {"task": "pendulum", "rule": {"kind": "none"}, "train": {"mode": "task_only"}}
        )
        assert cfg.rule() is None


class TestRoundTrip:
    def test_dump_load_dump_is_idempotent(self, tmp_path):
        import yaml

        first = config_from_dict(
            {"task": "pendulum", "seed": 3, "train": {"beta": 0.25}, "data": {"n_pairs": 500}}
        )
        dump1 = first.resolved_yaml()
        path = tmp_path / "resolved.yaml"
        path.write_text(dump1)
        second = load_config(path)
        dump2 = second.resolved_yaml()
        assert dump1 == dump2
        third = config_from_dict(yaml.safe_load(dump2))
        assert third.resolved_yaml() == dump2

    def test_load_reports_parse_errors(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("task: [unclosed")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)


class TestDatasetConstruction:
    def test_pendulum_dataset_from_config(self):
        cfg = config_from_dict(
            {"task": "pendulum", "data": {"n_pairs": 200, "n_trajectories": 2, "seed": 1}}
        )
        ds = cfg.build_dataset()
        assert len(ds) == 200 and ds.x.shape[1] == 4

    def test_sweep_grid_from_config(self):
        cfg = config_from_dict({"task": "pendulum", "sweep": {"start": 0.0, "stop": 0.2, "step": 0.1}})
        s = cfg.raw["sweep"]
        assert alpha_grid(s["start"], s["stop"], s["step"]) == [0.0, 0.1, 0.2]

    def test_shifted_classification_eval_only(self):
        cfg = config_from_dict(
            {
                "task": "shifted-classification",
                "data": {"n_usual": 80, "n_unusual": 20, "eval_only": True},
            }
        )
        ds = cfg.build_dataset()
        assert ds.counts()["test"] == 100


class TestLegacyMode:
    def test_old_controlled_perturb_mode_trains_like_controlled(self):
        def raw(**train):
            return {
                "task": "monotone-regression",
                "data": {"n": 200},
                "model": {"encoder_units": [8, 6], "decision_units": [8]},
                "train": {"max_epochs": 2, "patience": 1, **train},
            }

        legacy = config_from_dict(raw(mode="controlled_perturb"))
        current = config_from_dict(raw(mode="controlled"))
        assert legacy.train_config().mode == "controlled"
        assert legacy.resolved_yaml() == current.resolved_yaml()
        results = [
            fit(cfg.model_spec(), cfg.train_config(), cfg.build_dataset(), cfg.rule())
            for cfg in (legacy, current)
        ]
        assert list(results[0].params) == list(results[1].params)
        for name, value in results[0].params.items():
            assert value.tobytes() == results[1].params[name].tobytes(), name
