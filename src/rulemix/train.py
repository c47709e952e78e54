"""Training loops: the blended rule/task objective, its baselines, and early stopping.

``MODES`` holds one ``Mode`` record per training mode; ``fit`` and ``train_step`` read it, never the name:

    mode           alpha per batch   rule term              total                           stops on
    controlled     Beta(beta, beta)  pairs drawn per batch  alpha * rule + (1 - alpha) * R  task loss, mean over val_alphas
    task_only      0                 reported, no pairs     task                            task loss at alpha 0
    task_and_rule  0                 pairs drawn per batch  task + rule_weight * rule       task loss at alpha 0
    rule_only      1                 pairs drawn per batch  rule                            rule loss at 1, pairs drawn once

R, written ((1 - alpha) * rule0) * (task / task0), rescales the task loss by
the ratio of the initial losses (``LossScale``), so neither objective wins
through units alone. A rule that needs perturbation runs each batch's
perturbed copy through the same parameters and compares the paired outputs;
``task_only`` draws no pairs, so such a rule's ``train_rule`` is NaN there.

Only the training step records the model on a gradient tape
(``model.predict``, in ``_Step``). ``train_step`` records it once for each
batch size in the map of steps its caller keeps, and every later batch of
that size refills the tape's inputs and replays it: ``fit`` keeps one map,
so its full batches and its short last batch each record once per fit.
Gradients land in the flat vector Adam steps from. Passes that take no
gradient (the loss scale, validation) run ``encode`` and ``decode`` over
plain arrays (``model.forward_per_alpha``), and their losses go on a small
tape whose leaves are the model's outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import SPLITS, Dataset, write_table
from .errors import ConfigError, TrainingAborted
from .model import ModelSpec, encode, forward_per_alpha, init_params, predict
from .optim import AdamState, adam_update
from .autodiff import Arrays, Coefficient, Tape, as_matrix
from .rules import PerturbedBatch, RuleSpec, perturb_batch, rule_inputs
from .rules import energy_rule_node, monotonic_rule_node  # noqa: F401  (perfbench traces train.<name>)


@dataclass(frozen=True)
class Mode:
    """What one training mode does; ``MODES`` holds one per name."""

    alpha: float | None  # every batch's strength; None draws one per batch with sample_alpha
    rule_term: bool  # the total has a rule term: a rule is required, and a perturbing one draws pairs per batch
    scaled: bool  # fit computes a LossScale, which the total reads
    stops_on: str  # "task" or "rule": validation's loss, averaged over val_alphas if alpha is None, else at alpha
    total: Callable[..., int]  # (tape, task, rule, alpha, scale, rule_weight) -> the node a step minimizes


MODES = {
    "controlled": Mode(None, True, True, "task", lambda tape, task, rule, alpha, scale, weight: tape.add(
        tape.scale(rule, alpha), tape.scale(tape.divide(task, scale.task0), (1.0 - alpha) * scale.rule0))),
    "task_only": Mode(0.0, False, False, "task", lambda tape, task, rule, alpha, scale, weight: task),
    "task_and_rule": Mode(0.0, True, False, "task",
                          lambda tape, task, rule, alpha, scale, weight: tape.add(task, tape.scale(rule, weight))),
    "rule_only": Mode(1.0, True, False, "rule", lambda tape, task, rule, alpha, scale, weight: rule),
}
RHO_POLICIES = ("fixed", "per_epoch")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "controlled"
    beta: float = 0.1
    lr: float = 0.001
    batch_size: int = 32
    max_epochs: int = 1000
    patience: int = 10
    seed: int = 0
    rule_weight: float = 1.0  # fixed coefficient for task_and_rule
    rho_policy: str = "fixed"
    val_alphas: tuple[float, ...] = (0.0, 0.5, 1.0)

    def __post_init__(self) -> None:
        # written so that NaN fails: every comparison with NaN is false
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if not 0 < self.beta < np.inf:
            raise ConfigError(f"beta must be positive and finite, got {self.beta!r}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 1 <= self.patience < self.max_epochs:  # patience 0 would stop after the first epoch, always
            raise ConfigError(f"patience must be >= 1 and smaller than max_epochs, got {self.patience!r}")
        if not 0 <= self.rule_weight < np.inf:
            raise ConfigError(f"rule_weight must be >= 0 and finite, got {self.rule_weight!r}")
        if self.rho_policy not in RHO_POLICIES:
            raise ConfigError(f"unknown rho policy {self.rho_policy!r}")
        if not (self.val_alphas and all(0.0 <= a <= 1.0 for a in self.val_alphas)):  # training draws in [0, 1]
            raise ConfigError(f"val_alphas must hold at least one strength, each in [0, 1], got {self.val_alphas!r}")


def sample_alpha(beta: float, rng: np.random.Generator) -> float:
    """One Beta(beta, beta) draw built from two Gamma(beta, 1) draws.

    The ratio g1 / (g1 + g2) is independent of the sum, so retrying when
    both draws underflow to 0 keeps the distribution. At tiny beta nearly
    every draw can underflow; after 100 tries the result is 0 or 1 by a fair
    draw, which is where Beta(beta, beta) puts its mass as beta -> 0.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    for _ in range(100):
        g1 = rng.gamma(beta, 1.0)
        g2 = rng.gamma(beta, 1.0)
        if g1 + g2 > 0.0:
            return float(g1 / (g1 + g2))
    return float(rng.integers(2))


@dataclass(frozen=True)
class LossScale:
    """Initial loss pair defining the task-objective rescale.

    The ``controlled`` total applies the rescale as (task / task0) * rule0,
    which is algebraically ratio * task but exact (not just close) at task == task0.
    """

    rule0: float
    task0: float

    @property
    def ratio(self) -> float:
        return self.rule0 / self.task0


def _task_loss_node(tape: Tape, spec: ModelSpec, y_hat: int, y: np.ndarray | int) -> int:
    target = y if isinstance(y, int) else tape.constant(y, "target")
    if spec.task == "classification":
        return tape.bce(y_hat, target)
    return tape.mse(y_hat, target)


def _task_loss(spec: ModelSpec, y_hat: np.ndarray, y: np.ndarray) -> float:
    tape = Tape()
    return tape.scalar(_task_loss_node(tape, spec, tape.leaf(y_hat), y))


def _output(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray, alpha: float) -> np.ndarray:
    """The model's output at one strength, from the inference path."""
    return next(forward_per_alpha(spec, params, encode(Arrays(), spec, params, x), (alpha,)))


def _mode(name: str, rule: RuleSpec | None, has_scale: bool = True) -> Mode:
    """``MODES[name]``, once a rule and a loss scale are there if it needs them (``fit`` computes its own scale)."""
    if name not in MODES:
        raise ConfigError(f"unknown training mode {name!r}")
    mode = MODES[name]
    if mode.rule_term and rule is None:
        raise ConfigError(f"mode {name!r} requires a rule")
    if mode.scaled and not has_scale:
        raise ConfigError(f"mode {name!r} requires a LossScale")
    return mode


def _fixed_perturbation(x: np.ndarray, rule: RuleSpec, rng: np.random.Generator,
                        split: str) -> PerturbedBatch | None:
    """A perturbation set of ``split``'s rows, fixed for passes that take no gradient; None if the rule needs none."""
    if not rule.needs_perturbation:
        return None
    pert = perturb_batch(x, rule, rng)
    if not pert.valid.any():
        raise ConfigError(
            f"the {split} split has 0 valid perturbation pairs of {pert.valid.size}: no nudge of feature "
            f"{rule.feature} exercises the rule (guard {rule.guard}), so the rule is never checked"
        )
    return pert


def _rule_loss_on_outputs(tape: Tape, spec: ModelSpec, params: dict[str, np.ndarray], rule: RuleSpec,
                          x: np.ndarray, y_hat: int, alpha: float, pert: PerturbedBatch | None) -> int:
    """The rule's loss node over the output leaf ``y_hat``, for a pass that takes no gradient.

    A perturbing rule's copy ``pert.x_p`` runs on the inference path too and
    enters ``tape`` as a leaf, so ``tape`` records the loss and nothing of the model.
    """
    if not rule.needs_perturbation:
        return rule.loss_node(tape, x, y_hat)
    if pert is None:
        raise ValueError("this rule needs a perturbation set")
    return rule.loss_node(tape, x, y_hat, tape.leaf(_output(spec, params, pert.x_p, alpha)), pert.valid)


@dataclass(frozen=True)
class StepResult:
    alpha: float
    task_loss: float
    rule_loss: float
    total_loss: float


class _Step:
    """One training step on a tape, over arrays that every batch of its size refills.

    A step over ``rows`` rows of the split ``x``, ``y`` owns arrays that
    ``run`` fills for each batch (``np.take``): its rows of the inputs, of
    the targets and of ``inputs``, what the rule reads of the whole split
    (``rules.rule_inputs``); the perturbed copy and its ``valid`` weights;
    and the strength and loss scale, as ``Coefficient`` inputs. The first run records the step through ``predict``, the rule's
    ``loss_node``, the task loss and the mode's total; every later run
    replays the recorded kernels into the same arrays. A rule that is not
    ``replayable`` may compute on the batch outside the tape, so its step
    records afresh on every run.
    """

    def __init__(self, spec: ModelSpec, rule: RuleSpec | None, mode: Mode, rule_weight: float, adam: AdamState,
                 x: np.ndarray, y: np.ndarray, inputs, rows: int, given: tuple) -> None:
        self.spec, self.rule, self.mode, self.rule_weight, self.adam = spec, rule, mode, rule_weight, adam
        self.split = (x, y, inputs)
        self.given = given  # the x and y objects the caller passed, before as_matrix
        self.x, self.y = np.empty((rows, x.shape[1])), np.empty((rows, y.shape[1]))
        # a prepared quantity holds one row of ``values`` per input row
        self.inputs = self.x if inputs is x else replace(inputs, values=np.empty((rows, *inputs.values.shape[1:])))
        self.replays = rule is None or getattr(rule, "replayable", False)
        self.pairs = rule is not None and rule.needs_perturbation and mode.rule_term  # a perturbation per batch
        self.x_p = np.empty_like(self.x) if self.pairs else None
        self.valid = np.empty((rows, 1)) if self.pairs else None
        self.alpha = Coefficient()
        self.scale = LossScale(rule0=Coefficient(), task0=Coefficient())
        self.tape: Tape | None = None
        self.task_node = self.rule_node = self.total_node = None  # node ids, once recorded

    def run(self, rows: np.ndarray | list[int], alpha: float, scale: LossScale | None,
            rng: np.random.Generator | None) -> StepResult:
        x, y, inputs = self.split
        np.take(x, rows, axis=0, out=self.x)
        np.take(y, rows, axis=0, out=self.y)
        if inputs is not x:
            np.take(inputs.values, rows, axis=0, out=self.inputs.values)
        self.alpha.value = alpha
        if scale is not None:
            self.scale.rule0.value, self.scale.task0.value = scale.rule0, scale.task0
        if self.tape is None or not self.replays:
            self.record(rng)
        else:
            if self.pairs:
                self._perturb(rng)
            self.tape.replay()
        tape = self.tape
        result = StepResult(
            alpha=alpha,
            task_loss=tape.scalar(self.task_node),
            rule_loss=tape.scalar(self.rule_node) if self.rule_node is not None else float("nan"),
            total_loss=tape.scalar(self.total_node),
        )
        if not np.isfinite(result.total_loss):
            raise TrainingAborted(
                f"non-finite loss (task={result.task_loss}, rule={result.rule_loss}, "
                f"alpha={alpha}, batch_rows={self.x.shape[0]})"
            )
        tape.backprop(self.total_node, self.adam.grads)
        adam_update(self.adam)
        return result

    def _perturb(self, rng: np.random.Generator | None) -> None:
        if rng is None:
            raise ValueError("this rule needs an rng for the perturbation draw")
        pert = perturb_batch(self.x, self.rule, rng)
        np.copyto(self.x_p, pert.x_p)
        np.copyto(self.valid, pert.valid.reshape(-1, 1))

    def record(self, rng: np.random.Generator | None) -> None:
        spec, rule, params = self.spec, self.rule, self.adam.params
        tape = self.tape = Tape()
        out = predict(tape, spec, params, tape.leaf(self.x), self.alpha)
        if rule is not None and not rule.needs_perturbation:  # on the tape in every mode, for the report
            self.rule_node = rule.loss_node(tape, self.inputs, out)
        elif self.pairs:
            self._perturb(rng)
            out_p = predict(tape, spec, params, tape.leaf(self.x_p), self.alpha)
            self.rule_node = rule.loss_node(tape, self.inputs, out, out_p, self.valid)
        self.task_node = _task_loss_node(tape, spec, out, tape.leaf(self.y))
        self.total_node = self.mode.total(tape, self.task_node, self.rule_node, self.alpha, self.scale,
                                          self.rule_weight)


def train_step(
    spec: ModelSpec,
    adam: AdamState,
    x: np.ndarray,
    y: np.ndarray,
    rule: RuleSpec | None,
    mode: str,
    alpha: float,
    scale: LossScale | None,
    rule_weight: float = 1.0,
    rng: np.random.Generator | None = None,
    steps: dict[int, _Step] | None = None,
    rows: np.ndarray | list[int] | None = None,
) -> StepResult:
    """One minibatch update of ``adam.params``, in place, as ``MODES[mode]`` says; returns the loss components.

    The batch is the ``rows`` of ``x`` and ``y`` (indices; None for every
    row, and a 1-D ``x`` is one row), copied into arrays of the step's own.
    ``steps`` maps a batch size to the step recorded for it; a caller that
    keeps one map for a split passes the same arguments with it on every
    call, and each size then records once and replays after. A size the
    map lacks, or a call with no map, checks the arguments and builds the
    step over ``x`` and ``y``. A size the map holds refuses an ``x`` or
    ``y`` other than the objects its step was built from, and a boolean
    ``rows``: checks on identity and dtype, whatever the batch size.
    """
    steps = {} if steps is None else steps
    rows = None if rows is None else np.asarray(rows)  # what np.take converts a list to
    if rows is not None and rows.dtype == bool:
        raise ValueError("rows must be row indices, not a boolean mask")
    step = steps.get((np.shape(x)[0] if np.ndim(x) > 1 else 1) if rows is None else len(rows))
    if step is None:
        record = _mode(mode, rule, scale is not None)
        given = x, y
        x, y = as_matrix(x, "input"), as_matrix(y, "target")  # a 1-D x is one row
        rows = np.arange(x.shape[0]) if rows is None else rows
        if len(rows) == 0:
            raise ValueError("empty batch: rows selects no row")
        step = steps[len(rows)] = _Step(spec, rule, record, rule_weight, adam, x, y, rule_inputs(rule, x),
                                        len(rows), given)
    elif x is not step.given[0] or y is not step.given[1]:
        raise ValueError("steps holds a step recorded over another x and y: keep one map per split")
    return step.run(np.arange(step.x.shape[0]) if rows is None else rows, alpha, scale, rng)


def evaluate_task_loss(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    alphas: tuple[float, ...],
) -> list[float]:
    """Task loss at each strength; the input is encoded once, then decoded per strength."""
    passes = forward_per_alpha(spec, params, encode(Arrays(), spec, params, x), alphas)
    return [_task_loss(spec, out, y) for out in passes]


def evaluate_rule_loss(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    rule: RuleSpec,
    alpha: float,
    pert: PerturbedBatch | None = None,
) -> float:
    """Mean rule loss at a fixed strength; perturbing rules need a fixed pert set."""
    tape = Tape()
    y_hat = tape.leaf(_output(spec, params, x, alpha))
    return tape.scalar(_rule_loss_on_outputs(tape, spec, params, rule, x, y_hat, alpha, pert))


def compute_loss_scale(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    rule: RuleSpec,
    rng: np.random.Generator,
) -> LossScale:
    """Initial rule/task loss ratio on a fixed sample, before optimization.

    Both losses are read from one forward pass at the midpoint strength,
    and a perturbing rule's from one more of the perturbed copy, each on
    the inference path. A zero initial task loss is degenerate and
    rejected, and so is a perturbation set with no valid pair. A zero rule
    loss gives ratio 0, which would switch the task term off; ``fit``
    decides what to do with it.
    """
    alpha = 0.5
    out = _output(spec, params, x, alpha)
    pert = _fixed_perturbation(x, rule, rng, "train")
    tape = Tape()
    y_hat = tape.leaf(out)
    rule0 = tape.scalar(_rule_loss_on_outputs(tape, spec, params, rule, x, y_hat, alpha, pert))
    task0 = tape.scalar(_task_loss_node(tape, spec, y_hat, y))
    if task0 == 0.0:
        raise ConfigError("initial task loss is zero; the task is degenerate")
    return LossScale(rule0=rule0, task0=task0)


@dataclass
class EpochRecord:
    epoch: int
    train_task: float
    train_rule: float
    val_metric: float
    alpha_mean: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    final_epoch: int = 0
    best_epoch: int = 0
    best_val: float = float("inf")
    rho: float | None = None
    wall_seconds: float = 0.0

    def to_csv(self, path) -> None:
        columns = ["epoch", "train_task", "train_rule", "val_metric", "alpha_mean"]
        rows = [(r.epoch, r.train_task, r.train_rule, r.val_metric, r.alpha_mean) for r in self.records]
        write_table(path, columns, [np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))])


@dataclass
class FitResult:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    scale: LossScale | None
    report: TrainReport
    data_sha256: dict[str, str]  # split -> Dataset.sha256 of the rows fit was given


def _validation_metric(spec: ModelSpec, params: dict[str, np.ndarray], x_val: np.ndarray, y_val: np.ndarray,
                       mode: Mode, val_alphas: tuple[float, ...], rule: RuleSpec | None,
                       val_pert: PerturbedBatch | None) -> float:
    """The mean of the loss ``mode`` stops on, over its strengths; the mean of one value is that value."""
    alphas = val_alphas if mode.alpha is None else (mode.alpha,)
    if mode.stops_on == "rule":
        return float(np.mean([evaluate_rule_loss(spec, params, x_val, rule, a, val_pert) for a in alphas]))
    return float(np.mean(evaluate_task_loss(spec, params, x_val, y_val, alphas)))


def fit(
    spec: ModelSpec,
    cfg: TrainConfig,
    dataset: Dataset,
    rule: RuleSpec | None = None,
) -> FitResult:
    """Epoch loop with per-batch strength draws and best-validation restore.

    An epoch that leaves every parameter bit-equal to its value at the
    epoch's start raises ``TrainingAborted`` naming the epoch: such a fit
    would return its initial parameters with no message.
    """
    mode = _mode(cfg.mode, rule)
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    x_tr, y_tr = (np.asarray(a, dtype=np.float64) for a in dataset.subset("train"))  # steps copy rows into float64
    x_val, y_val = dataset.subset("val")
    if x_tr.shape[0] == 0 or x_val.shape[0] == 0:
        raise ConfigError("dataset needs non-empty train and val splits")

    scale = compute_loss_scale(spec, params, x_tr, y_tr, rule, rng) if mode.scaled else None
    if scale is not None and scale.rule0 == 0.0:
        raise ConfigError("initial rule loss is zero: the rule already holds on the training "
                          "sample, so the rescaled task term would be 0")
    val_pert = _fixed_perturbation(x_val, rule, rng, "val") if mode.stops_on == "rule" else None

    adam = AdamState.for_params(params, lr=cfg.lr)
    params = adam.params  # trained in place from here on
    report = TrainReport(rho=scale.ratio if scale is not None else None)
    best_params = {k: v.copy() for k, v in params.items()}
    best_scale = scale
    epochs_since_best = 0
    n = x_tr.shape[0]
    steps: dict[int, _Step] = {}  # each batch size's recorded step, which every later batch of that size replays

    epoch_start = np.empty_like(adam.theta)
    for epoch in range(1, cfg.max_epochs + 1):
        np.copyto(epoch_start, adam.theta)
        order = rng.permutation(n)
        task_losses, rule_losses, alphas = [], [], []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            alpha = sample_alpha(cfg.beta, rng) if mode.alpha is None else mode.alpha
            try:
                result = train_step(
                    spec, adam, x_tr, y_tr, rule, cfg.mode, alpha, scale, cfg.rule_weight, rng, steps, idx,
                )
            except TrainingAborted as exc:
                raise TrainingAborted(f"epoch {epoch}, batch at row {start}: {exc}") from exc
            task_losses.append(result.task_loss)
            rule_losses.append(result.rule_loss)
            alphas.append(alpha)
        if np.array_equal(adam.theta, epoch_start):
            raise TrainingAborted(
                f"epoch {epoch} left every parameter bit-equal to its value at the epoch's start: "
                f"lr {cfg.lr:g} is too small to move them, or every gradient was zero"
            )

        val_metric = _validation_metric(spec, params, x_val, y_val, mode, cfg.val_alphas, rule, val_pert)
        report.records.append(
            EpochRecord(
                epoch=epoch,
                train_task=float(np.mean(task_losses)),
                train_rule=float(np.mean(rule_losses)),
                val_metric=val_metric,
                alpha_mean=float(np.mean(alphas)),
            )
        )
        if val_metric < report.best_val:
            report.best_val = val_metric
            report.best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            best_scale = scale
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        report.final_epoch = epoch
        if epochs_since_best >= cfg.patience or epoch == cfg.max_epochs:
            break
        if scale is not None and cfg.rho_policy == "per_epoch":
            rescale = compute_loss_scale(spec, params, x_tr, y_tr, rule, rng)
            if rescale.rule0 != 0.0:  # a satisfied rule would zero the task term
                scale = rescale
                report.rho = scale.ratio

    data_sha256 = {split: dataset.sha256(split) for split in SPLITS}
    report.wall_seconds = time.perf_counter() - started
    return FitResult(spec=spec, params=best_params, scale=best_scale, report=report, data_sha256=data_sha256)
