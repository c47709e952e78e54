"""Rule catalog: each rule class owns its check and its loss.

Three rule families are supported:

* threshold rules r(y_hat) <= limit with a differentiable r,
* the energy-damping rule for next-state prediction (predicted energy must
  not exceed the input state's energy),
* perturbation-based monotonicity rules for a single feature, where a rule
  that is not differentiable in the inputs is expressed by nudging one
  feature upward and penalizing the wrong-direction output change.

Training, sweeps and verification read a rule only through the ``RuleSpec``
protocol, so a new rule is one class plus its ``config.rule()`` entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np

from .autodiff import Tape
from .errors import UndefinedRatioError
from .pendulum import PendulumParams, energy, energy_gradient

DEFAULT_PERTURB_BOUND = 0.1


class RuleSpec(Protocol):
    """What training, sweeps and verification read of a rule.

    ``holds`` gives one bool per row. ``loss_node`` puts the batch loss on
    the tape: >= 0, and exactly 0 iff every row holds. A rule that
    ``needs_perturbation`` is checked on pairs: each row and its copy drawn
    by ``perturb_batch`` (which reads ``feature``, ``bound`` and ``guard``)
    run through the same model, both methods take the perturbed outputs
    ``y_hat_p``, and only the pairs flagged ``valid`` count.
    """

    needs_perturbation: ClassVar[bool]

    def holds(self, x, y_hat, y_hat_p=None) -> np.ndarray: ...

    def loss_node(self, tape: Tape, x, y_hat: int, y_hat_p: int | None = None, valid=None) -> int: ...


@dataclass(frozen=True)
class ThresholdRule:
    """r(y_hat) <= limit for a registered row function r."""

    fn: str
    limit: float
    needs_perturbation: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not isinstance(self.fn, str) or self.fn not in THRESHOLD_FUNCTIONS:
            raise ValueError(f"unknown threshold function {self.fn!r}, expected one of {sorted(THRESHOLD_FUNCTIONS)}")

    def holds(self, x, y_hat, y_hat_p=None) -> np.ndarray:
        fn, _ = THRESHOLD_FUNCTIONS[self.fn]
        return fn(y_hat) <= self.limit

    def loss_node(self, tape, x, y_hat, y_hat_p=None, valid=None) -> int:
        return threshold_rule_node(tape, self, y_hat)


@dataclass(frozen=True)
class EnergyDampingRule:
    """Predicted next-state energy must not exceed the current state's."""

    params: PendulumParams
    needs_perturbation: ClassVar[bool] = False

    def holds(self, x, y_hat, y_hat_p=None) -> np.ndarray:
        return energy(y_hat, self.params) <= energy(np.asarray(x), self.params)

    def loss_node(self, tape, x, y_hat, y_hat_p=None, valid=None) -> int:
        return energy_rule_node(tape, self, x, y_hat)


@dataclass(frozen=True)
class MonotonicRule:
    """Output must move with (increase) or against (decrease) feature k.

    ``guard`` restricts the rule to perturbations that cross the guard value
    from below; ``bound`` is the upper limit of the relative perturbation
    scale.
    """

    feature: int
    direction: str  # "increase" | "decrease"
    guard: float | None = None
    bound: float = DEFAULT_PERTURB_BOUND
    needs_perturbation: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.direction not in ("increase", "decrease"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not 0 < self.bound < math.inf:
            raise ValueError(f"perturbation bound must be positive and finite, got {self.bound!r}")
        if self.feature < 0:
            raise ValueError("feature index must be non-negative")

    def holds(self, x, y_hat, y_hat_p=None) -> np.ndarray:
        if y_hat_p is None:
            raise ValueError("monotonicity rules need the perturbed outputs")
        y = np.asarray(y_hat, dtype=np.float64).reshape(-1)
        y_p = np.asarray(y_hat_p, dtype=np.float64).reshape(-1)
        if self.direction == "decrease":
            return y_p <= y
        return y_p >= y

    def loss_node(self, tape, x, y_hat, y_hat_p=None, valid=None) -> int:
        return monotonic_rule_node(tape, self, y_hat, y_hat_p, valid)


# registered r functions for threshold rules: value (n,d)->(n,), jacobian (n,d)->(n,d)
THRESHOLD_FUNCTIONS = {
    "row_mean": (
        lambda y: y.mean(axis=1),
        lambda y: np.full_like(y, 1.0 / y.shape[1]),
    ),
    "row_sumsq": (
        lambda y: (y * y).sum(axis=1),
        lambda y: 2.0 * y,
    ),
}


@dataclass(frozen=True)
class PerturbedBatch:
    """Original rows, rows with feature k nudged upward, and validity flags."""

    x: np.ndarray
    x_p: np.ndarray
    gamma: np.ndarray  # realized relative scales, one per row
    valid: np.ndarray  # rows where the perturbation exercises the rule


def perturb_batch(
    x: np.ndarray,
    rule: MonotonicRule,
    rng: np.random.Generator,
) -> PerturbedBatch:
    """Nudge feature k of every row upward by gamma*|x_k|, gamma ~ U[0, bound).

    A row is valid when the nudge actually moved the feature (gamma > 0 and
    x_k != 0) and, for guarded rules, when the move crosses the guard from
    below. Rows with x_k == 0 stay unperturbed and are marked invalid.
    """
    x = np.asarray(x, dtype=np.float64)
    k = rule.feature
    if k >= x.shape[1]:
        raise ValueError(f"feature {k} out of range for {x.shape[1]} columns")
    gamma = rng.uniform(0.0, rule.bound, size=x.shape[0])
    x_p = x.copy()
    x_p[:, k] = x[:, k] + gamma * np.abs(x[:, k])
    valid = (gamma > 0.0) & (x[:, k] != 0.0)
    if rule.guard is not None:
        valid &= (x[:, k] < rule.guard) & (x_p[:, k] > rule.guard)
    return PerturbedBatch(x=x, x_p=x_p, gamma=gamma, valid=valid)


def verification_ratio(
    rule: RuleSpec,
    inputs: np.ndarray,
    outputs: np.ndarray,
    perturbed_outputs: np.ndarray | None = None,
    valid: np.ndarray | None = None,
) -> float:
    """Fraction of evaluated rows where the rule holds.

    For rules that need perturbation only valid pairs enter the
    denominator; an empty evaluation set (or all-invalid pairs) raises.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.shape[0] == 0:
        raise UndefinedRatioError("verification ratio of an empty sample set")
    if not rule.needs_perturbation:
        return float(np.mean(rule.holds(inputs, outputs)))
    if perturbed_outputs is None or valid is None:
        raise ValueError("verification of this rule needs perturbed outputs and validity flags")
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise UndefinedRatioError("no valid perturbation pairs to verify")
    return float(np.mean(rule.holds(inputs, outputs, perturbed_outputs)[valid]))


# ----------------------------------------------------------------------
# tape-side loss builders (training path)
# ----------------------------------------------------------------------


def energy_rule_node(tape: Tape, rule: EnergyDampingRule, x: np.ndarray, y_hat: int) -> int:
    """Mean max(E(y_hat) - E(x), 0) as a differentiable tape node."""
    p = rule.params
    e_pred = tape.rowmap(y_hat, lambda s: energy(s, p), lambda s: energy_gradient(s, p))
    e_in = tape.constant(energy(np.asarray(x), p).reshape(-1, 1), "state_energy")
    return tape.mean_relu_diff(e_pred, e_in)


def monotonic_rule_node(
    tape: Tape,
    rule: MonotonicRule,
    y_hat: int,
    y_hat_p: int,
    valid: np.ndarray,
) -> int:
    """Batch-mean directed hinge between paired outputs, gated by validity."""
    weights = np.asarray(valid, dtype=np.float64).reshape(-1, 1)
    if rule.direction == "decrease":
        return tape.mean_relu_diff(y_hat_p, y_hat, weights)
    return tape.mean_relu_diff(y_hat, y_hat_p, weights)


def threshold_rule_node(tape: Tape, rule: ThresholdRule, y_hat: int) -> int:
    """Batch-mean hinge max(r(y_hat) - limit, 0) on the tape."""
    fn, jac = THRESHOLD_FUNCTIONS[rule.fn]
    r_node = tape.rowmap(y_hat, fn, jac)
    n = tape.value(r_node).shape[0]
    limit = tape.constant(np.full((n, 1), rule.limit), "limit")
    return tape.mean_relu_diff(r_node, limit)
