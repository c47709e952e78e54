"""Config loading, defaults, validation, and resolved-dump idempotence."""

import hashlib
import inspect
import math

import pytest

from rulemix.config import TASKS, config_from_dict, default_config, load_config
from rulemix.data import write_dataset_csv
from rulemix.errors import ConfigError
from rulemix.rules import EnergyDampingRule, MonotonicRule, ThresholdRule
from rulemix.train import fit

# the task whose data or rule block has the field; other fields are the pendulum's
FIELD_TASK = {
    "noise": "monotone-regression",
    "guard": "monotone-regression",
    "threshold": "shifted-classification",
    "eval_only": "shifted-classification",
    "bound": "monotone-regression",
}
# the rule kind whose block has the field; other rule fields are the task's own rule's
FIELD_RULE = {"limit": "threshold"}
HOSTILE_VALUES = (None, [1], "zz", math.nan, math.inf, -math.inf, 0, -1, 2.5, True)


def cannot_hold(default, value) -> bool:
    """Whether a leaf whose default is ``default`` must reject ``value``: a
    bool outside a bool field, or a fraction in an int field."""
    if value is True:
        return not isinstance(default, bool)
    return value == 2.5 and type(default) is int


def leaf_paths(tree: dict, prefix: tuple = ()):
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from leaf_paths(value, prefix + (key,))
        elif prefix or key != "task":
            yield prefix + (key,), value


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

    def test_a_config_build_reads_no_signature(self, monkeypatch):
        # defaults are read at import and each class's field types on its first build, not on every build
        raws = [{"task": task, "rule": {"kind": kind}} for task in TASKS for kind in ("monotonic", "threshold")]
        for raw in raws:
            config_from_dict(raw)

        def no_signature(*args, **kwargs):
            raise AssertionError("inspect.signature called")

        monkeypatch.setattr(inspect, "signature", no_signature)
        for raw in raws + [{"task": task} for task in TASKS]:
            config_from_dict(raw)

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            default_config("double-pendulum")

    @pytest.mark.parametrize(
        "task,digest",
        [
            ("pendulum", "768b41b45b734617e924a258b4bd405d5a9fb9a7f822f07af090558e62a1c47a"),
            ("monotone-regression", "e267f80dc706874cb5c8ad7c5043e0342dac2c3797f77438f6c9c09c0fefc421"),
            ("shifted-classification", "6f4ffd6e793a0139f05fcdab03e1e2693db25a86f5fb0cf561c24b97c5fecf91"),
        ],
    )
    def test_resolved_defaults_are_pinned(self, task, digest):
        # the defaults are read from the classes; a changed class default shows here
        dump = config_from_dict({"task": task}).resolved_yaml()
        assert hashlib.sha256(dump.encode()).hexdigest() == digest


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

    def test_classification_csv_with_targets_outside_0_1_rejected(self, tmp_path):
        # bce against a target of 3.0 is no cross-entropy: such a file once trained and swept in silence
        data = {"n_usual": 30, "n_unusual": 30}
        ds = config_from_dict({"task": "shifted-classification", "data": data}).build_dataset()
        ds.y[2, 0], ds.y[5, 0] = 3.0, -2.0
        path = tmp_path / "shifted.csv"
        write_dataset_csv(path, ds, [f"x{i}" for i in range(ds.x.shape[1])] + ["y", "split"])
        cfg = config_from_dict({"task": "shifted-classification", "data": {**data, "csv": str(path)}})
        with pytest.raises(ConfigError, match=f"^{path}:4: classification target 3.0 is outside \\[0, 1\\]$"):
            cfg.build_dataset()
        ds.y[2, 0], ds.y[5, 0] = 0.0, 1.0  # both ends are targets
        write_dataset_csv(path, ds, [f"x{i}" for i in range(ds.x.shape[1])] + ["y", "split"])
        assert cfg.build_dataset().y.tolist() == ds.y.tolist()

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

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("train", "lr", None),
            ("train", "batch_size", [1]),
            ("train", "val_alphas", None),
            ("train", "val_alphas", []),
            ("train", "val_alphas", [2.0]),  # loaded, then stopped on a strength training never draws
            ("train", "val_alphas", [0.0, -0.5]),
            ("train", "rule_weight", {}),
            ("data", "n_pairs", None),
            ("data", "theta0", None),
            ("data", "noise_std", [1]),
            ("data", "m1", None),
            ("data", "n_trajectories", 0),
            ("data", "n_pairs", 9),
            ("data", "theta0", math.inf),
            ("data", "noise_std", -1.0),
            ("data", "noise_std", math.nan),
            ("data", "m1", math.nan),
            ("data", "g", math.inf),
            ("data", "friction", math.nan),
            ("model", "encoder_units", None),
            ("train", "beta", math.nan),
            ("train", "lr", math.nan),
            ("train", "rule_weight", math.nan),
            ("data", "noise", math.nan),
            ("data", "threshold", math.nan),
            ("rule", "guard", math.nan),
            ("data", "eval_only", "no"),
            ("model", "encoder_units", [0]),
            ("model", "shared_units", [-3]),
            ("model", "decision_units", [64, 0]),
            ("train", "patience", 2.5),
            ("model", "encoder_units", [64, "x"]),
            ("data", "m1", "heavy"),
            ("data", "friction", "x"),
            ("data", "seed", "x"),
            ("sweep", "perturb_seed", [0]),
            ("rule", "bound", "x"),
            ("rule", "limit", math.nan),
            ("rule", "limit", math.inf),
            ("rule", "limit", -math.inf),
        ],
    )
    def test_bad_train_model_or_pendulum_data_field_fails_at_load(self, section, field, value):
        task = FIELD_TASK.get(field, "pendulum")
        # a value that fails to convert reads "<field>: ...", one outside the bounds its class checks "<field> must";
        # a non-finite number converts, so the class that owns the bound rejects it
        non_finite = isinstance(value, float) and not math.isfinite(value)
        block = {"kind": FIELD_RULE[field]} if field in FIELD_RULE else {}
        with pytest.raises(ConfigError, match=f"^{section}: {field}" + (" must " if non_finite else "(: | must )")):
            config_from_dict({"task": task, section: {**block, field: value}})

    @pytest.mark.parametrize("task", TASKS)
    def test_every_leaf_loads_or_fails_with_config_error_on_hostile_values(self, task):
        other = []
        for path, default in leaf_paths(default_config(task)):
            for value in HOSTILE_VALUES:
                raw = {"task": task}
                block = raw
                for key in path[:-1]:
                    block = block.setdefault(key, {})
                block[path[-1]] = value
                try:
                    config_from_dict(raw)
                except ConfigError:
                    pass
                except Exception as exc:  # collected, so that one run lists every such leaf
                    other.append((".".join(path), value, f"{type(exc).__name__}: {exc}"))
                else:
                    if cannot_hold(default, value):
                        other.append((".".join(path), value, "loaded"))
        assert not other

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize(
        "override,message",
        [
            ({"seed": -1}, "^seed: seed must be an integer >= 0"),
            ({"data": {"seed": -1}}, "^data: seed must be an integer >= 0"),
            ({"sweep": {"perturb_seed": -1}}, "^sweep: perturb_seed must be an integer >= 0"),
        ],
    )
    def test_negative_seed_fails_at_load_naming_the_field(self, task, override, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"task": task, **override})

    def test_accuracy_metric_is_gone_and_the_error_names_error_rate(self):
        # every metric is lower-is-better, so selection minimises all of them
        with pytest.raises(ConfigError, match=r"^metric: unknown metric 'accuracy', expected one of .*'error_rate'"):
            config_from_dict({"task": "shifted-classification", "metric": "accuracy"})
        assert config_from_dict({"task": "shifted-classification", "metric": "error_rate"}).metric_kind == "error_rate"

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

    def test_pendulum_dataset_of_some_splits(self):
        cfg = config_from_dict(
            {"task": "pendulum", "data": {"n_pairs": 200, "n_trajectories": 4, "seed": 1}}
        )
        full, part = cfg.build_dataset(), cfg.build_dataset(("val", "test"))
        assert part.counts() == {**full.counts(), "train": 0}
        for split in ("val", "test"):
            assert part.subset(split)[0].tobytes() == full.subset(split)[0].tobytes()

    def test_sweep_grid_from_config(self):
        cfg = config_from_dict({"task": "pendulum", "sweep": {"start": 0.0, "stop": 0.2, "step": 0.1}})
        assert cfg.sweep.grid() == [0.0, 0.1, 0.2]

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
