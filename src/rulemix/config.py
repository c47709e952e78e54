"""Experiment configuration: YAML loading, defaults, validation, resolution.

A config file only needs ``task``; every omitted field is filled from the
per-task defaults below and the fully resolved mapping is what the rest of
the system consumes (and what gets dumped next to results, so every run is
reproducible from its resolved config plus the seed).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import yaml

from .data import Dataset, read_dataset_csv
from .errors import ConfigError
from .evaluate import alpha_grid
from .model import ModelSpec
from .pendulum import PendulumParams, build_pendulum_dataset
from .rules import EnergyDampingRule, MonotonicRule, RuleSpec, ThresholdRule
from .tabular import CorrGroupSpec, ShiftMixSpec, synth_monotone_regression, synth_shifted_classification
from .train import TrainConfig

TASKS = ("pendulum", "monotone-regression", "shifted-classification")

_COMMON = {
    "seed": 0,
    "output_dir": "runs/experiment",
    "train": {
        "mode": "controlled",
        "beta": 0.1,
        "lr": 0.001,
        "batch_size": 32,
        "max_epochs": 1000,
        "patience": 10,
        "rule_weight": 1.0,
        "rho_policy": "fixed",
        "val_alphas": [0.0, 0.5, 1.0],
    },
    "sweep": {
        "start": 0.0,
        "stop": 1.0,
        "step": 0.05,
        "splits": ["val", "test"],
        "min_verification": None,
        "perturb_seed": 0,
    },
}

_TASK_DEFAULTS = {
    "pendulum": {
        "data": {
            "csv": None,
            "n_pairs": 30000,
            "n_trajectories": 10,
            "theta0": 2.0,
            "noise_std": 0.01,
            "m1": 2.0,
            "m2": 1.0,
            "l1": 1.0,
            "l2": 1.0,
            "g": 9.81,
            "friction": 0.05,
            "seed": 0,
        },
        "model": {
            "coupling": "scaled_concat",
            "shared_units": [64, 16],
            "encoder_units": [64, 64, 64],
            "decision_units": [64],
        },
        "rule": {"kind": "energy"},
        "metric": "mae",
    },
    "monotone-regression": {
        "data": {
            "csv": None,
            "n": 2000,
            "d": 5,
            "feature": 0,
            "target_corr": -0.2,
            "noise": 0.5,
            "seed": 0,
        },
        "model": {
            "coupling": "scaled_concat",
            "shared_units": [],
            "encoder_units": [64, 64, 16],
            "decision_units": [64],
        },
        "rule": {"kind": "monotonic", "feature": 0, "direction": "decrease", "guard": None, "bound": 0.1},
        "metric": "mae",
    },
    "shifted-classification": {
        "data": {
            "csv": None,
            "n_usual": 6007,
            "n_unusual": 14018,
            "threshold": 1.3,
            "feature": 0,
            "d": 6,
            "seed": 0,
            "eval_only": False,
        },
        "model": {
            "coupling": "scaled_concat",
            "shared_units": [],
            "encoder_units": [100, 16],
            "decision_units": [],
        },
        "rule": {"kind": "monotonic", "feature": 0, "direction": "increase", "guard": None, "bound": 0.1},
        "metric": "cross_entropy",
    },
}

_THRESHOLD_RULE_DEFAULTS = {"kind": "threshold", "fn": "row_mean", "limit": 0.0}
_MONOTONIC_RULE_DEFAULTS = {"kind": "monotonic", "feature": 0, "direction": "decrease", "guard": None, "bound": 0.1}


def default_config(task: str) -> dict:
    if task not in TASKS:
        raise ConfigError(f"task: unknown task {task!r}, expected one of {TASKS}")
    cfg = copy.deepcopy(_COMMON)
    cfg.update(copy.deepcopy(_TASK_DEFAULTS[task]))
    cfg["task"] = task
    return cfg


def _merge(defaults: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"{where}: unknown field")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected a mapping")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def _rule_defaults_for(kind: str, task: str) -> dict:
    if kind == "energy":
        return {"kind": "energy"}
    if kind == "threshold":
        return copy.deepcopy(_THRESHOLD_RULE_DEFAULTS)
    if kind == "monotonic":
        base = copy.deepcopy(_MONOTONIC_RULE_DEFAULTS)
        task_rule = _TASK_DEFAULTS[task]["rule"]
        if task_rule.get("kind") == "monotonic":
            base.update(task_rule)
        return base
    if kind == "none":
        return {"kind": "none"}
    raise ConfigError(f"rule.kind: unknown rule kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Fully resolved configuration for one experiment."""

    raw: dict

    @property
    def task(self) -> str:
        return self.raw["task"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def output_dir(self) -> Path:
        return Path(self.raw["output_dir"])

    @property
    def metric_kind(self) -> str:
        return self.raw["metric"]

    def resolved_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True, default_flow_style=None)

    # ------------------------------------------------------------------

    def io_dims(self) -> tuple[int, int]:
        if self.task == "pendulum":
            return 4, 4
        return int(self.raw["data"]["d"]), 1

    def model_spec(self) -> ModelSpec:
        input_dim, output_dim = self.io_dims()
        m = self.raw["model"]
        try:
            return ModelSpec(
                input_dim=input_dim,
                output_dim=output_dim,
                task="classification" if self.task == "shifted-classification" else "regression",
                coupling=m["coupling"],
                shared_units=tuple(int(u) for u in m["shared_units"]),
                encoder_units=tuple(int(u) for u in m["encoder_units"]),
                decision_units=tuple(int(u) for u in m["decision_units"]),
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc

    def train_config(self) -> TrainConfig:
        t = self.raw["train"]
        return TrainConfig(
            mode=t["mode"],
            beta=float(t["beta"]),
            lr=float(t["lr"]),
            batch_size=int(t["batch_size"]),
            max_epochs=int(t["max_epochs"]),
            patience=int(t["patience"]),
            seed=self.seed,
            rule_weight=float(t["rule_weight"]),
            rho_policy=t["rho_policy"],
            val_alphas=tuple(float(a) for a in t["val_alphas"]),
        )

    def pendulum_params(self) -> PendulumParams:
        d = self.raw["data"]
        try:
            return PendulumParams(
                m1=float(d["m1"]), m2=float(d["m2"]), l1=float(d["l1"]),
                l2=float(d["l2"]), g=float(d["g"]), b=float(d["friction"]),
            )
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from exc

    def rule(self) -> RuleSpec | None:
        r = self.raw["rule"]
        kind = r["kind"]
        if kind == "none":
            return None
        if kind == "energy":
            if self.task != "pendulum":
                raise ConfigError("rule.kind: energy rule needs pendulum state data")
            return EnergyDampingRule(self.pendulum_params())
        try:
            if kind == "threshold":
                return ThresholdRule(fn=r["fn"], limit=float(r["limit"]))
            return MonotonicRule(
                feature=int(r["feature"]),
                direction=r["direction"],
                guard=None if r["guard"] is None else float(r["guard"]),
                bound=float(r["bound"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"rule: {exc}") from exc

    def build_dataset(self) -> Dataset:
        d = self.raw["data"]
        if d.get("csv"):
            path = Path(d["csv"])
            if not path.exists():
                raise ConfigError(f"data.csv: file not found: {path}")
            return read_dataset_csv(path, n_targets=self.io_dims()[1])
        if self.task == "pendulum":
            return build_pendulum_dataset(
                params=self.pendulum_params(),
                n_pairs=int(d["n_pairs"]),
                n_trajectories=int(d["n_trajectories"]),
                theta0=float(d["theta0"]),
                noise_std=float(d["noise_std"]),
                seed=int(d["seed"]),
            )
        if self.task == "monotone-regression":
            try:
                spec = CorrGroupSpec(
                    n=int(d["n"]), d=int(d["d"]), feature=int(d["feature"]),
                    target_corr=float(d["target_corr"]), noise=float(d["noise"]),
                    seed=int(d["seed"]),
                )
            except ValueError as exc:
                raise ConfigError(f"data: {exc}") from exc
            return synth_monotone_regression(spec)
        try:
            spec = ShiftMixSpec(
                n_usual=int(d["n_usual"]), n_unusual=int(d["n_unusual"]),
                threshold=float(d["threshold"]), feature=int(d["feature"]), d=int(d["d"]),
            )
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from exc
        fractions = (0.0, 0.0, 1.0) if d["eval_only"] else (0.7, 0.1, 0.2)
        return synth_shifted_classification(spec, seed=int(d["seed"]), split_fractions=fractions)


def _validate(cfg: ExperimentConfig) -> None:
    """Run every derived-object constructor so bad fields fail at load time."""
    t = cfg.raw["train"]
    if t["beta"] is None or not isinstance(t["beta"], (int, float)) or t["beta"] <= 0:
        raise ConfigError(f"train.beta: must be a positive number, got {t['beta']!r}")
    if cfg.raw["metric"] not in ("mae", "cross_entropy", "accuracy"):
        raise ConfigError(f"metric: unknown metric {cfg.raw['metric']!r}")
    cfg.train_config()
    cfg.model_spec()
    cfg.rule()
    s = cfg.raw["sweep"]
    try:
        alpha_grid(s["start"], s["stop"], s["step"])
    except ConfigError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    csv = cfg.raw["data"].get("csv")
    if csv and not Path(csv).exists():
        raise ConfigError(f"data.csv: file not found: {csv}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    task = raw.get("task")
    if task is None:
        raise ConfigError("task: required field")
    defaults = default_config(task)
    overrides = {k: v for k, v in raw.items() if k != "task"}
    rule_override = overrides.get("rule") or {}
    if "kind" in rule_override and rule_override["kind"] != defaults["rule"]["kind"]:
        defaults["rule"] = _rule_defaults_for(rule_override["kind"], task)
    cfg = ExperimentConfig(_merge(defaults, {**overrides, "task": task}, ""))
    # the one legacy mode, kept so that older configs and checkpoints load
    if cfg.raw["train"]["mode"] == "controlled_perturb":
        cfg.raw["train"]["mode"] = "controlled"
    _validate(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_dict(raw)
