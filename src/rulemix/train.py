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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, TrainingAborted
from .model import ModelSpec, Forward, forward_per_alpha, init_params, predict
from .optim import AdamState, adam_update
from .autodiff import Tape
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
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.patience >= self.max_epochs:
            raise ConfigError("patience must be smaller than max_epochs")
        if self.rule_weight < 0:
            raise ConfigError("rule_weight must be >= 0")
        if self.rho_policy not in RHO_POLICIES:
            raise ConfigError(f"unknown rho policy {self.rho_policy!r}")


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

    ``scaled_task`` applies the rescale as (task / task0) * rule0, which is
    algebraically ratio * task but exact (not just close) at task == task0.
    """

    rule0: float
    task0: float

    @property
    def ratio(self) -> float:
        return self.rule0 / self.task0

    def scaled_task(self, task_loss: float) -> float:
        return (task_loss / self.task0) * self.rule0


def _task_loss_node(tape: Tape, spec: ModelSpec, y_hat: int, y: np.ndarray) -> int:
    target = tape.constant(y, "target")
    if spec.task == "classification":
        return tape.bce(y_hat, target)
    return tape.mse(y_hat, target)


def _rule_loss_node(
    tape: Tape,
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    rule: RuleSpec,
    x: np.ndarray,
    fwd: Forward,
    alpha: float,
    pert: PerturbedBatch | None,
) -> int:
    """The rule's loss node; runs the perturbed inputs first if the rule needs them."""
    if not rule.needs_perturbation:
        return rule.loss_node(tape, x, fwd.output)
    if pert is None:
        raise ValueError("this rule needs a perturbation set")
    fwd_p = predict(tape, spec, params, pert.x_p, alpha)
    return rule.loss_node(tape, x, fwd.output, fwd_p.output, pert.valid)


@dataclass(frozen=True)
class StepResult:
    alpha: float
    task_loss: float
    rule_loss: float
    total_loss: float


def train_step(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    adam: AdamState,
    x: np.ndarray,
    y: np.ndarray,
    rule: RuleSpec | None,
    mode: str,
    alpha: float,
    scale: LossScale | None,
    rule_weight: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, np.ndarray], StepResult]:
    """One minibatch update; returns the new parameters and loss components."""
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    tape = Tape()
    fwd = predict(tape, spec, params, x, alpha)
    rule_node = pert = None
    if rule is not None and (mode != "task_only" or not rule.needs_perturbation):
        if rule.needs_perturbation:
            if rng is None:
                raise ValueError("this rule needs an rng for the perturbation draw")
            pert = perturb_batch(x, rule, rng)
        rule_node = _rule_loss_node(tape, spec, params, rule, x, fwd, alpha, pert)

    task_node = _task_loss_node(tape, spec, fwd.output, y)
    if mode == "controlled":
        if scale is None:
            raise ValueError("controlled mode requires a LossScale")
        # the rescaled task term is (task / task0) * rule0, matching
        # LossScale.scaled_task: algebraically ratio * task, but exact (not
        # merely close) when task == task0
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
    grads = tape.backprop(total_node)
    return adam_update(adam, params, grads), result


def evaluate_task_loss(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    alphas: tuple[float, ...],
) -> list[float]:
    """Task loss at each strength; the input is encoded once where the coupling allows."""
    return [
        tape.scalar(_task_loss_node(tape, spec, fwd.output, y))
        for tape, fwd in forward_per_alpha(spec, params, x, alphas)
    ]


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
    fwd = predict(tape, spec, params, x, alpha)
    return tape.scalar(_rule_loss_node(tape, spec, params, rule, x, fwd, alpha, pert))


def compute_loss_scale(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    rule: RuleSpec,
    rng: np.random.Generator,
    alpha: float = 0.5,
) -> LossScale:
    """Initial rule/task loss ratio on a fixed sample, before optimization.

    Both losses are read from one forward pass at the midpoint strength. A
    zero initial task loss is degenerate and rejected. A zero rule loss
    gives ratio 0, which would switch the task term off; ``fit`` decides
    what to do with it.
    """
    tape = Tape()
    fwd = predict(tape, spec, params, x, alpha)
    pert = perturb_batch(x, rule, rng) if rule.needs_perturbation else None
    rule0 = tape.scalar(_rule_loss_node(tape, spec, params, rule, x, fwd, alpha, pert))
    task0 = tape.scalar(_task_loss_node(tape, spec, fwd.output, y))
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
        with open(path, "w") as fh:
            fh.write("epoch,train_task,train_rule,val_metric,alpha_mean\n")
            for r in self.records:
                fh.write(
                    f"{r.epoch},{r.train_task:.17g},{r.train_rule:.17g},"
                    f"{r.val_metric:.17g},{r.alpha_mean:.17g}\n"
                )


@dataclass
class FitResult:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    scale: LossScale | None
    report: TrainReport


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
    """Epoch loop with per-batch strength draws and best-validation restore."""
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

    adam = AdamState.for_params(params, lr=cfg.lr)
    report = TrainReport(rho=scale.ratio if scale is not None else None)
    best_params = {k: v.copy() for k, v in params.items()}
    epochs_since_best = 0
    n = x_tr.shape[0]

    for epoch in range(1, cfg.max_epochs + 1):
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
                params, step = train_step(
                    spec, params, adam, x_tr[idx], y_tr[idx], rule,
                    cfg.mode, alpha, scale, cfg.rule_weight, rng,
                )
            except TrainingAborted as exc:
                raise TrainingAborted(f"epoch {epoch}, batch at row {start}: {exc}") from exc
            task_losses.append(step.task_loss)
            rule_losses.append(step.rule_loss)
            alphas.append(alpha)

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
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        report.final_epoch = epoch
        if epochs_since_best >= cfg.patience:
            break
        if scale is not None and cfg.rho_policy == "per_epoch":
            rescale = compute_loss_scale(spec, params, x_tr, y_tr, rule, rng)
            if rescale.rule0 != 0.0:  # a satisfied rule would zero the task term
                scale = rescale
                report.rho = scale.ratio

    report.wall_seconds = time.perf_counter() - started
    return FitResult(spec=spec, params=best_params, scale=scale, report=report)
