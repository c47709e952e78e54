"""Experiment configuration: YAML loading, defaults, conversion and checks.

A config file only needs ``task``; every omitted field is filled from the
defaults below, read from the classes the blocks build. The merged mapping
is dumped next to results, so every run is reproducible from its resolved
config plus the seed; each of its blocks is converted and checked once,
when ``ExperimentConfig`` is built.
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .data import SPLITS, Dataset, read_dataset_csv, read_table
from .errors import ConfigError
from .evaluate import METRICS, alpha_grid
from .model import ModelSpec
from .pendulum import PendulumParams, build_pendulum_dataset, check_dataset_args
from .rules import EnergyDampingRule, MonotonicRule, RuleSpec, ThresholdRule
from .tabular import CorrGroupSpec, ShiftMixSpec, synth_monotone_regression, synth_shifted_classification
from .train import TrainConfig


def _defaults(fn, *given: str) -> dict:
    """The parameter defaults of ``fn``, a function or a dataclass, as config values; ``given`` left out."""
    return {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty and name not in given
    }


# every default below is read from the class or function its block builds;
# the literals are the values no signature holds
_COMMON = {
    "seed": 0,
    "output_dir": "runs/experiment",
    "train": _defaults(TrainConfig, "seed"),
    "sweep": {**_defaults(alpha_grid), "splits": ["val", "test"], "min_verification": None, "perturb_seed": 0},
}
_MODEL = _defaults(ModelSpec, "input_dim", "output_dim", "task")

_TASK_DEFAULTS = {
    "pendulum": {
        "data": {  # a config names PendulumParams.b "friction"
            "csv": None, **_defaults(build_pendulum_dataset, "params", "split_fractions", "splits"),
            **_defaults(PendulumParams, "b"), "friction": PendulumParams.b,
        },
        "model": {**_MODEL, "shared_units": [64, 16]},
        "rule": {"kind": "energy"},
        "metric": "mae",
    },
    "monotone-regression": {
        "data": {"csv": None, **_defaults(CorrGroupSpec)},
        "model": {**_MODEL, "encoder_units": [64, 64, 16]},
        "rule": {"kind": "monotonic", "feature": 0, "direction": "decrease", **_defaults(MonotonicRule)},
        "metric": "mae",
    },
    "shifted-classification": {
        "data": {
            "csv": None, "n_usual": 6007, "n_unusual": 14018, "eval_only": False,
            **_defaults(ShiftMixSpec), **_defaults(synth_shifted_classification, "split_fractions"),
        },
        "model": {**_MODEL, "encoder_units": [100, 16], "decision_units": []},
        "rule": {"kind": "monotonic", "feature": 0, "direction": "increase", **_defaults(MonotonicRule)},
        "metric": "cross_entropy",
    },
}
TASKS = tuple(_TASK_DEFAULTS)

# each rule kind a config can name: its class, built by ``_rule``, and the
# defaults a config starts from when it switches ``rule.kind`` to it
_RULES = {
    "energy": (EnergyDampingRule, {"kind": "energy"}),
    "threshold": (ThresholdRule, {"kind": "threshold", **_defaults(ThresholdRule)}),
    "monotonic": (MonotonicRule, _TASK_DEFAULTS["monotone-regression"]["rule"]),
    "none": (None, {"kind": "none"}),
}


def default_config(task: str) -> dict:
    if task not in TASKS:
        raise ConfigError(f"task: unknown task {task!r}, expected one of {TASKS}")
    return copy.deepcopy({**_COMMON, **_TASK_DEFAULTS[task], "task": task})


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


def checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value that fails to convert or check is ``ConfigError("<where>: ...")``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _convert(hint, value):
    """A config value as the field type ``hint``; the class then checks its bounds."""
    if hint in (int, float):
        converted = hint(value)
        # a bool is an int to Python but never a number in a config; int(2.7) would drop the fraction
        if isinstance(value, bool) or (hint is int and converted != value):
            raise ValueError(f"expected {'an integer' if hint is int else 'a number'}, got {value!r}")
        return converted
    if hint == float | None:
        return None if value is None else _convert(float, value)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_convert(get_args(hint)[0], v) for v in value)
    return value  # a name, which the class checks against its choices


@cache
def _param_types(fn) -> tuple[tuple[str, object], ...]:
    """Each parameter of ``fn``, a function or a dataclass, with its annotated type; resolved once."""
    hints = get_type_hints(fn)
    return tuple((name, hints[name]) for name in inspect.signature(fn).parameters)


def build_from(fn, block: dict, **given):
    """``fn`` called with every parameter not ``given`` read from ``block``, converted to its annotated type."""
    params = [(name, hint) for name, hint in _param_types(fn) if name not in given]
    missing = [name for name, _ in params if name not in block]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return fn(**{name: checked(name, _convert, hint, block[name]) for name, hint in params}, **given)


def _seed(value) -> int:
    """A seed for numpy's generators, which take integers >= 0 only."""
    try:
        seed = _convert(int, value)
    except (TypeError, ValueError, OverflowError):
        seed = -1
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {value!r}")
    return seed


def sweep_splits(splits) -> tuple[str, ...]:
    """The splits a sweep evaluates: one or more names from ``SPLITS``, each once."""
    if not splits:
        raise ConfigError("splits: need one or more split names")
    for split in splits:
        if split not in SPLITS:
            raise ConfigError(f"splits: unknown split {split!r}, expected names from {SPLITS}")
    if len(set(splits)) != len(splits):
        raise ConfigError(f"splits: each split may be swept once, got {list(splits)}")
    return tuple(splits)


@dataclass(frozen=True)
class SweepConfig:
    """The ``sweep`` block: strength grid bounds, swept splits, perturbation seed."""

    start: float
    stop: float
    step: float
    splits: tuple[str, ...]
    min_verification: float | None
    perturb_seed: int

    def __post_init__(self) -> None:
        self.grid()
        sweep_splits(self.splits)
        if self.min_verification is not None and not 0 <= self.min_verification <= 1:  # NaN fails too
            raise ValueError(f"min_verification must be a number in [0, 1], got {self.min_verification!r}")
        if self.perturb_seed < 0:
            raise ValueError(f"perturb_seed must be an integer >= 0, got {self.perturb_seed!r}")

    def grid(self) -> list[float]:
        return alpha_grid(self.start, self.stop, self.step)


def _dataset_args(task: str, d: dict) -> dict:
    """Keyword arguments of the task's dataset builder, from the ``data`` block."""
    seed = _seed(d["seed"])
    if task == "pendulum":
        args = {name: checked(name, _convert, hint, d[name]) for name, hint in _param_types(check_dataset_args)}
        check_dataset_args(**args)
        params = build_from(PendulumParams, d, b=checked("friction", _convert, float, d["friction"]))
        return {**args, "seed": seed, "params": params}
    if task == "monotone-regression":
        return {"spec": build_from(CorrGroupSpec, d, seed=seed)}
    if not isinstance(d["eval_only"], bool):
        raise ValueError(f"eval_only must be true or false, got {d['eval_only']!r}")
    args = {"spec": build_from(ShiftMixSpec, d), "seed": seed}
    if d["eval_only"]:
        args["split_fractions"] = (0.0, 0.0, 1.0)
    return args


def _rule(r: dict, task: str, dataset_args: dict, input_dim: int) -> RuleSpec | None:
    cls = _RULES[r["kind"]][0]
    if cls is None:
        return None
    if cls is EnergyDampingRule:
        if task != "pendulum":
            raise ValueError("energy rule needs pendulum state data")
        return EnergyDampingRule(dataset_args["params"])
    rule = build_from(cls, r)
    if cls.needs_perturbation and rule.feature >= input_dim:
        raise ValueError(f"feature {rule.feature} out of range for {input_dim} input columns")
    return rule


class ExperimentConfig:
    """One experiment's configuration, every block converted and checked when built.

    The classes that own the bounds (``TrainConfig``, ``ModelSpec``,
    ``PendulumParams``, the tabular specs, the rule classes, ``SweepConfig``)
    check the values; any failure is a ``ConfigError`` naming the block.
    ``raw`` is the merged mapping, stored in checkpoints; the accessors
    return what was built from it.
    """

    def __init__(self, raw: dict) -> None:
        self.raw = raw
        self.task: str = raw["task"]
        self.seed: int = checked("seed", _seed, raw["seed"])
        self.output_dir: Path = checked("output_dir", Path, raw["output_dir"])
        if raw["metric"] not in METRICS:
            raise ConfigError(f"metric: unknown metric {raw['metric']!r}, expected one of {METRICS}")
        self.metric_kind: str = raw["metric"]
        self._train = checked("train", build_from, TrainConfig, raw["train"], seed=self.seed)
        self._dataset_args = checked("data", _dataset_args, self.task, raw["data"])
        csv = raw["data"]["csv"]
        self._csv: Path | None = checked("data", Path, csv) if csv else None
        if self._csv is not None and not self._csv.exists():
            raise ConfigError(f"data.csv: file not found: {self._csv}")
        pendulum = self.task == "pendulum"
        self._spec = checked(
            "model", build_from, ModelSpec, raw["model"],
            input_dim=4 if pendulum else self._dataset_args["spec"].d,
            output_dim=4 if pendulum else 1,
            task="classification" if self.task == "shifted-classification" else "regression",
        )
        self._rule = checked("rule", _rule, raw["rule"], self.task, self._dataset_args, self._spec.input_dim)
        self.sweep: SweepConfig = checked("sweep", build_from, SweepConfig, raw["sweep"])

    def resolved_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True, default_flow_style=None)

    def train_config(self) -> TrainConfig:
        return self._train

    def model_spec(self) -> ModelSpec:
        return self._spec

    def rule(self) -> RuleSpec | None:
        return self._rule

    def pendulum_params(self) -> PendulumParams:
        return self._dataset_args["params"]

    def build_dataset(self, splits: tuple[str, ...] = SPLITS, read: Callable = read_table) -> Dataset:
        """The experiment's dataset; every row of ``splits`` is present.

        Rows of other splits may be absent: the pendulum build skips the
        trajectories that feed only those. CSV input and the tabular tasks
        are built whole; ``read`` reads a CSV's table (a ``--data-csv``
        sweep passes its ``SweepCache.read_table``). A CSV for a
        classification model must hold targets in [0, 1], which the
        cross-entropy loss and metric read as probabilities; the first one
        outside is a ConfigError naming the file and line.
        """
        if self._csv is not None:
            dataset = read_dataset_csv(self._csv, n_targets=self._spec.output_dim, read=read)
            if self._spec.task == "classification":
                outside = np.argwhere((dataset.y < 0.0) | (dataset.y > 1.0))  # the reader refused NaN already
                if outside.size:
                    row, col = outside[0]
                    raise ConfigError(f"{self._csv}:{row + 2}: classification target "
                                      f"{float(dataset.y[row, col])} is outside [0, 1]")
            return dataset
        if self.task == "pendulum":
            return build_pendulum_dataset(**self._dataset_args, splits=splits)
        if self.task == "monotone-regression":
            return synth_monotone_regression(**self._dataset_args)
        return synth_shifted_classification(**self._dataset_args)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    task = raw.get("task")
    if task is None:
        raise ConfigError("task: required field")
    defaults = default_config(task)
    rule = raw.get("rule")
    if isinstance(rule, dict) and "kind" in rule and rule["kind"] != defaults["rule"]["kind"]:
        if not isinstance(rule["kind"], str) or rule["kind"] not in _RULES:
            raise ConfigError(f"rule.kind: unknown rule kind {rule['kind']!r}, expected one of {sorted(_RULES)}")
        defaults["rule"] = copy.deepcopy(_RULES[rule["kind"]][1])
    merged = _merge(defaults, raw, "")
    # the one legacy mode, kept so that older configs and checkpoints load
    if merged["train"]["mode"] == "controlled_perturb":
        merged["train"]["mode"] = "controlled"
    return ExperimentConfig(merged)


def _where_and_problem(text: str, exc: yaml.YAMLError) -> str:
    """`` at line L, column C: <problem>`` for what the YAML parser rejected, in one line."""
    if isinstance(exc, yaml.reader.ReaderError):  # a character YAML does not allow: an offset, no mark
        before = text[: exc.position]
        line, column, problem = before.count("\n"), len(before) - before.rfind("\n") - 1, str(exc).splitlines()[0]
    elif (mark := getattr(exc, "problem_mark", None)) is not None:
        line, column, problem = mark.line, mark.column, exc.problem
    else:
        return ": " + " ".join(str(exc).split())
    return f" at line {line + 1}, column {column + 1}: {problem}"


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error{_where_and_problem(text, exc)}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    try:
        return config_from_dict(raw)
    except ConfigError as exc:  # the message names the field; this names the file
        raise ConfigError(f"{exc} (in {path})") from exc
