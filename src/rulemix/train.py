"""Training loops: blended rule/task objective, baselines, and early stopping.

The central mode, ``controlled``, draws a fresh rule strength per minibatch
from Beta(beta, beta) and optimizes

    total = alpha * rule_loss + ratio * (1 - alpha) * task_loss,

where ``ratio`` rescales the task objective by the ratio of the two initial
losses so neither objective dominates purely through units. For a rule that
needs perturbation, each batch additionally runs the perturbed inputs
through the identical parameters and the rule loss compares the paired
outputs. Baselines: ``task_only`` (alpha pinned to 0, task loss only),
``rule_only`` (alpha pinned to 1, rule loss only), and ``task_and_rule``
(fixed-weight sum, single-passage model).

Only ``train_step`` records the model on a gradient tape, through
``model.predict``. Every pass that takes no gradient (the loss-scale pass,
and validation's task and rule losses) runs on the inference path,
``model.forward_per_alpha``: the same ``encode`` and ``decode`` over plain
arrays, with no tape, keeping only the live layer of each block. The losses
then go on a small tape whose leaves are the model's outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import SPLITS, Dataset, write_table
from .errors import ConfigError, TrainingAborted
from .model import ModelSpec, encode, forward_per_alpha, init_params, predict
from .optim import AdamState, adam_update
from .autodiff import Arrays, Tape
from .rules import PerturbedBatch, RuleSpec, perturb_batch
from .rules import energy_rule_node, monotonic_rule_node  # noqa: F401  (perfbench traces train.<name>)

MODES = ("controlled", "task_only", "task_and_rule", "rule_only")
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
        if not (self.val_alphas and np.isfinite(self.val_alphas).all()):
            raise ConfigError(f"val_alphas must hold at least one strength, all finite, got {self.val_alphas!r}")


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

    ``train_step`` applies the rescale as (task / task0) * rule0, which is
    algebraically ratio * task but exact (not just close) at task == task0.
    """

    rule0: float
    task0: float

    @property
    def ratio(self) -> float:
        return self.rule0 / self.task0


def _task_loss_node(tape: Tape, spec: ModelSpec, y_hat: int, y: np.ndarray) -> int:
    target = tape.constant(y, "target")
    if spec.task == "classification":
        return tape.bce(y_hat, target)
    return tape.mse(y_hat, target)


def _task_loss(spec: ModelSpec, y_hat: np.ndarray, y: np.ndarray) -> float:
    tape = Tape()
    return tape.scalar(_task_loss_node(tape, spec, tape.leaf(y_hat), y))


def _output(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray, alpha: float) -> np.ndarray:
    """The model's output at one strength, from the inference path."""
    return next(forward_per_alpha(spec, params, encode(Arrays(), spec, params, x), (alpha,))).output


def _require_valid_pairs(rule: RuleSpec, pert: PerturbedBatch, split: str) -> None:
    """A perturbation set with no valid pair leaves the rule unchecked: its loss is 0 whatever the model does."""
    if not pert.valid.any():
        raise ConfigError(
            f"the {split} split has 0 valid perturbation pairs of {pert.valid.size}: no nudge of feature "
            f"{rule.feature} exercises the rule (guard {rule.guard}), so the rule is never checked"
        )


def _rule_loss_on_outputs(
    tape: Tape,
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    rule: RuleSpec,
    x: np.ndarray,
    y_hat: int,
    alpha: float,
    pert: PerturbedBatch | None,
) -> int:
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
) -> StepResult:
    """One minibatch update of ``adam.params``, in place; returns the loss components."""
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    params = adam.params
    tape = Tape()
    fwd = predict(tape, spec, params, x, alpha)
    rule_node = None
    if rule is not None and (mode != "task_only" or not rule.needs_perturbation):
        if not rule.needs_perturbation:
            rule_node = rule.loss_node(tape, x, fwd.output)
        elif rng is None:
            raise ValueError("this rule needs an rng for the perturbation draw")
        else:
            pert = perturb_batch(x, rule, rng)
            fwd_p = predict(tape, spec, params, pert.x_p, alpha)
            rule_node = rule.loss_node(tape, x, fwd.output, fwd_p.output, pert.valid)

    task_node = _task_loss_node(tape, spec, fwd.output, y)
    if mode == "controlled":
        if scale is None:
            raise ValueError("controlled mode requires a LossScale")
        # the rescaled task term is (task / task0) * rule0: algebraically
        # ratio * task, but exact (not merely close) when task == task0
        total_node = tape.add(
            tape.scale(rule_node, alpha),
            tape.scale(tape.divide(task_node, scale.task0), (1.0 - alpha) * scale.rule0),
        )
    elif mode == "task_only":
        total_node = task_node
    elif mode == "rule_only":
        total_node = rule_node
    elif mode == "task_and_rule":
        total_node = tape.add(task_node, tape.scale(rule_node, rule_weight))
    else:
        raise ConfigError(f"unknown training mode {mode!r}")

    result = StepResult(
        alpha=alpha,
        task_loss=tape.scalar(task_node),
        rule_loss=tape.scalar(rule_node) if rule_node is not None else float("nan"),
        total_loss=tape.scalar(total_node),
    )
    if not np.isfinite(result.total_loss):
        raise TrainingAborted(
            f"non-finite loss (task={result.task_loss}, rule={result.rule_loss}, "
            f"alpha={alpha}, batch_rows={x.shape[0]})"
        )
    adam_update(adam, tape.backprop(total_node))
    return result


def evaluate_task_loss(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    alphas: tuple[float, ...],
) -> list[float]:
    """Task loss at each strength; the input is encoded once where the coupling allows."""
    passes = forward_per_alpha(spec, params, encode(Arrays(), spec, params, x), alphas)
    return [_task_loss(spec, out.output, y) for out in passes]


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
    pert = perturb_batch(x, rule, rng) if rule.needs_perturbation else None
    if pert is not None:
        _require_valid_pairs(rule, pert, "train")
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


def _validation_metric(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
    rule: RuleSpec | None,
    val_pert: PerturbedBatch | None,
) -> float:
    if cfg.mode == "controlled":
        return float(np.mean(evaluate_task_loss(spec, params, x_val, y_val, cfg.val_alphas)))
    if cfg.mode == "rule_only":
        return evaluate_rule_loss(spec, params, x_val, rule, 1.0, val_pert)
    return evaluate_task_loss(spec, params, x_val, y_val, (0.0,))[0]


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
    if cfg.mode != "task_only" and rule is None:
        raise ConfigError(f"mode {cfg.mode!r} requires a rule")
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    x_tr, y_tr = dataset.subset("train")
    x_val, y_val = dataset.subset("val")
    if x_tr.shape[0] == 0 or x_val.shape[0] == 0:
        raise ConfigError("dataset needs non-empty train and val splits")

    scale = None
    if cfg.mode == "controlled":
        scale = compute_loss_scale(spec, params, x_tr, y_tr, rule, rng)
        if scale.rule0 == 0.0:
            raise ConfigError("initial rule loss is zero: the rule already holds on the training "
                              "sample, so the rescaled task term would be 0")
    val_pert = None
    if cfg.mode == "rule_only" and rule.needs_perturbation:
        val_pert = perturb_batch(x_val, rule, rng)
        _require_valid_pairs(rule, val_pert, "val")

    adam = AdamState.for_params(params, lr=cfg.lr)
    params = adam.params  # trained in place from here on
    report = TrainReport(rho=scale.ratio if scale is not None else None)
    best_params = {k: v.copy() for k, v in params.items()}
    best_scale = scale
    epochs_since_best = 0
    n = x_tr.shape[0]

    epoch_start = np.empty_like(adam.theta)
    for epoch in range(1, cfg.max_epochs + 1):
        np.copyto(epoch_start, adam.theta)
        order = rng.permutation(n)
        task_losses, rule_losses, alphas = [], [], []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if cfg.mode == "controlled":
                alpha = sample_alpha(cfg.beta, rng)
            elif cfg.mode == "rule_only":
                alpha = 1.0
            else:
                alpha = 0.0
            try:
                step = train_step(
                    spec, adam, x_tr[idx], y_tr[idx], rule,
                    cfg.mode, alpha, scale, cfg.rule_weight, rng,
                )
            except TrainingAborted as exc:
                raise TrainingAborted(f"epoch {epoch}, batch at row {start}: {exc}") from exc
            task_losses.append(step.task_loss)
            rule_losses.append(step.rule_loss)
            alphas.append(alpha)
        if np.array_equal(adam.theta, epoch_start):
            raise TrainingAborted(
                f"epoch {epoch} left every parameter bit-equal to its value at the epoch's start: "
                f"lr {cfg.lr:g} is too small to move them, or every gradient was zero"
            )

        val_metric = _validation_metric(spec, params, x_val, y_val, cfg, rule, val_pert)
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
