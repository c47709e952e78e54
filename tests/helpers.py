"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
import pytest

import rulemix.evaluate
import rulemix.pendulum
from rulemix.autodiff import Node, Tape
from rulemix.errors import TrainingAborted
from rulemix.evaluate import SweepRecord, task_metric
from rulemix.model import ModelSpec, encoders, init_params, mlp_forward, predict, predict_values
from rulemix.pendulum import PendulumParams, energy
from rulemix.rules import PerturbedBatch, perturb_batch, verification_ratio


# ----------------------------------------------------------------------
# gradient oracles: a sum reduction for the tape and a central-difference
# check of any analytic gradient
# ----------------------------------------------------------------------

GRAD_CHECK_EPS = 1e-8


def tape_sum(tape: Tape, x: int) -> int:
    """Sum of every entry of node ``x`` as a 1x1 node; the gradient is all ones."""
    xv = tape.value(x)
    out = np.array([[xv.sum()]])

    def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
        return (np.full_like(xv, g[0, 0]),)

    return tape._append(Node(out, (x,), bwd))


def grad_check_fd(
    f: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    h: float = 1e-4,
) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    ``f`` maps a parameter dict to ``(scalar_loss, grads)`` and must be
    deterministic. Returns max over all parameter entries of
    ``|analytic - fd| / (|fd| + GRAD_CHECK_EPS)``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    _, analytic = f(params)
    worst = 0.0
    for name, base in params.items():
        grad = analytic[name]
        flat = base.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            work = {k: (v.copy() if k == name else v) for k, v in params.items()}
            wflat = work[name].reshape(-1)
            wflat[i] = orig + h
            up = f(work)[0]
            wflat[i] = orig - h
            down = f(work)[0]
            fd = (up - down) / (2.0 * h)
            err = abs(grad.reshape(-1)[i] - fd) / (abs(fd) + GRAD_CHECK_EPS)
            worst = max(worst, err)
    return worst


def tiny_model(
    rng: np.random.Generator,
    input_dim: int = 4,
    output_dim: int = 4,
    task: str = "regression",
    coupling: str = "scaled_concat",
    widths: tuple[int, ...] = (8, 6),
) -> tuple[ModelSpec, dict[str, np.ndarray]]:
    spec = ModelSpec(
        input_dim=input_dim,
        output_dim=output_dim,
        task=task,
        coupling=coupling,
        shared_units=(),
        encoder_units=widths,
        decision_units=(8,),
    )
    return spec, init_params(spec, rng)


def cartesian_energy(state, p: PendulumParams) -> float:
    """Energy re-derived through cartesian positions and velocities.

    Independent of the closed-form expression under test: build the mass
    positions from the angles, differentiate them analytically for the
    velocities, then sum m*v^2/2 and m*g*h with heights measured from the
    pivot.
    """
    t1, w1, t2, w2 = (float(v) for v in state)
    x1 = p.l1 * math.sin(t1)
    y1 = -p.l1 * math.cos(t1)
    x2 = x1 + p.l2 * math.sin(t2)
    y2 = y1 - p.l2 * math.cos(t2)
    vx1 = p.l1 * math.cos(t1) * w1
    vy1 = p.l1 * math.sin(t1) * w1
    vx2 = vx1 + p.l2 * math.cos(t2) * w2
    vy2 = vy1 + p.l2 * math.sin(t2) * w2
    kinetic = 0.5 * p.m1 * (vx1**2 + vy1**2) + 0.5 * p.m2 * (vx2**2 + vy2**2)
    potential = p.m1 * p.g * y1 + p.m2 * p.g * y2
    return kinetic + potential


def reference_eom(state, p: PendulumParams):
    """Equations of motion written out term by term, reading each constant
    from ``p`` at every use. The simulator must match this bit for bit, so
    every product keeps its left-to-right evaluation order."""
    t1, w1, t2, w2 = state
    d = t1 - t2
    cd = math.cos(d)
    sd = math.sin(d)
    f1 = -p.m2 * p.l1 * p.l2 * w2 * w2 * sd - (p.m1 + p.m2) * p.g * p.l1 * math.sin(t1) - p.b * w1
    f2 = p.m2 * p.l1 * p.l2 * w1 * w1 * sd - p.m2 * p.g * p.l2 * math.sin(t2) - p.b * w2
    det = p.m2 * p.l1 * p.l1 * p.l2 * p.l2 * (p.m1 + p.m2 * sd * sd)
    a1 = (f1 * p.m2 * p.l2 * p.l2 - f2 * p.m2 * p.l1 * p.l2 * cd) / det
    a2 = (f2 * (p.m1 + p.m2) * p.l1 * p.l1 - f1 * p.m2 * p.l1 * p.l2 * cd) / det
    return (w1, a1, w2, a2)


def reference_rk4_step(state, dt: float, p: PendulumParams):
    """Classic RK4 over 4-tuples, one generator expression per stage."""
    k1 = reference_eom(state, p)
    s2 = tuple(s + 0.5 * dt * k for s, k in zip(state, k1))
    k2 = reference_eom(s2, p)
    s3 = tuple(s + 0.5 * dt * k for s, k in zip(state, k2))
    k3 = reference_eom(s3, p)
    s4 = tuple(s + dt * k for s, k in zip(state, k3))
    k4 = reference_eom(s4, p)
    return tuple(
        s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def reference_states(step, s0, n_steps: int) -> np.ndarray:
    """(n_steps+1, 4) states from repeated calls of ``step(state)``."""
    state = tuple(float(v) for v in s0)
    out = [state]
    for _ in range(n_steps):
        state = step(state)
        out.append(state)
    return np.array(out)


def direct_sweep(spec, params, x, y, rule, alphas, metric_kind, split="test", perturb_seed=0):
    """Sweep records from one full ``predict_values`` pass per strength."""
    pert = None
    if rule.needs_perturbation:
        pert = perturb_batch(x, rule, np.random.default_rng(perturb_seed))
    records = []
    for alpha in alphas:
        y_hat = predict_values(spec, params, x, alpha)
        if pert is None:
            ver = verification_ratio(rule, x, y_hat)
        else:
            y_hat_p = predict_values(spec, params, pert.x_p, alpha)
            ver = verification_ratio(rule, x, y_hat, y_hat_p, pert.valid)
        records.append(SweepRecord(float(alpha), task_metric(metric_kind, y_hat, y), ver, split))
    return records


def concatenated_predict(tape: Tape, spec: ModelSpec, params: dict[str, np.ndarray], x, alpha: float) -> int:
    """Output node of a ``scaled_concat`` model whose first decision layer is one product over the blended latents.

    The latents are weighted and placed side by side (``scaled_concat``), then
    the whole decision block runs as one ``dense`` node: the same function as
    ``predict``, which computes each latent's product with its rows of the
    weight before the strength enters, rounded the other way.
    """
    z_rule, z_data = encoders(tape, spec, params, x)
    z = tape.scaled_concat(z_rule, alpha, z_data, 1.0 - alpha)
    return mlp_forward(tape, spec.decision_layers(), params, "decision", z)


def full_pass_task_losses(spec, params, x, y, alphas) -> list[float]:
    """Task loss at each strength from one full ``predict`` pass per strength."""
    losses = []
    for alpha in alphas:
        tape = Tape()
        out = predict(tape, spec, params, x, alpha)
        target = tape.constant(y, "target")
        node = tape.bce(out, target) if spec.task == "classification" else tape.mse(out, target)
        losses.append(tape.scalar(node))
    return losses


@dataclass
class ReferenceAdamState:
    """Per-array Adam state: one parameter, gradient and moment array per name."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    params: dict[str, np.ndarray] = field(default_factory=dict)
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    grads: dict[str, np.ndarray] = field(default_factory=dict)  # what ``Tape.backprop`` writes into

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 0.001) -> "ReferenceAdamState":
        state = cls(lr=lr)
        for name, value in params.items():
            state.params[name] = value.copy()
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
            state.grads[name] = np.zeros_like(value)
        return state

    @property
    def theta(self) -> np.ndarray:
        """Every parameter end to end, as ``AdamState.theta`` lays them out (a copy)."""
        return np.concatenate([p.ravel() for p in self.params.values()])


def reference_adam_update(state):
    """Adam as a loop over the parameter arrays, one array at a time, from ``state.grads``.

    Each new array is computed whole and then copied into its parameter's
    array, which a replayed tape reads. The flat-vector ``adam_update`` must
    equal this bit for bit.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    params = state.params
    for name, p in params.items():
        g = state.grads[name]
        if g.shape != p.shape:
            raise TrainingAborted(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise TrainingAborted(f"non-finite gradient for parameter {name} at step {t}")
        m = state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        p[...] = p - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def set_grads(state, grads: dict[str, np.ndarray]) -> None:
    """Write ``grads`` into the gradient arrays of an Adam state, as ``Tape.backprop`` does."""
    for name, g in grads.items():
        assert g.shape == state.grads[name].shape, name
        np.copyto(state.grads[name], g)


# ----------------------------------------------------------------------
# rule oracles: per-row violations and a one-row perturbation, written
# without the rule classes they check
# ----------------------------------------------------------------------


def threshold_rule_loss(r_value: float, limit: float) -> float:
    """Hinge penalty max(r - limit, 0)."""
    return max(float(r_value) - float(limit), 0.0)


def energy_rule_loss(x: np.ndarray, y_hat: np.ndarray, params: PendulumParams) -> np.ndarray:
    """Per-sample max(E(y_hat) - E(x), 0) for 4-column state batches."""
    x = np.asarray(x, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4 or y_hat.shape != x.shape:
        raise ValueError(f"expected matching (n, 4) state batches, got {x.shape} and {y_hat.shape}")
    return np.maximum(energy(y_hat, params) - energy(x, params), 0.0)


def monotonic_rule_loss(
    y_hat: np.ndarray,
    y_hat_p: np.ndarray,
    direction: str,
    valid: np.ndarray,
) -> np.ndarray:
    """Per-pair hinge on the wrong-direction output change; invalid pairs are 0.

    direction="decrease": output should fall when the feature rises, so the
    penalty is max(y_p - y, 0); "increase" penalizes max(y - y_p, 0).
    """
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    y_hat_p = np.asarray(y_hat_p, dtype=np.float64).reshape(-1)
    if y_hat.shape != y_hat_p.shape:
        raise ValueError("output batches must have matching shapes")
    if direction == "decrease":
        raw = np.maximum(y_hat_p - y_hat, 0.0)
    elif direction == "increase":
        raw = np.maximum(y_hat - y_hat_p, 0.0)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return np.where(np.asarray(valid, dtype=bool), raw, 0.0)


def perturb_input(
    x_row,
    feature: int,
    bound: float,
    rng: np.random.Generator,
    guard: float | None = None,
) -> PerturbedBatch:
    """One row nudged as ``perturb_batch`` documents, element by element.

    Draws the one U[0, bound) scale the batch version draws for a one-row
    batch, so both agree bit for bit on the same generator state.
    """
    x = [float(v) for v in x_row]
    gamma = float(rng.uniform(0.0, bound, size=1)[0])
    x_p = list(x)
    x_p[feature] = x[feature] + gamma * abs(x[feature])
    valid = gamma > 0.0 and x[feature] != 0.0
    if guard is not None:
        valid = valid and x[feature] < guard < x_p[feature]
    return PerturbedBatch(x_p=np.array([x_p]), valid=np.array([valid]))


def usual_mask(x: np.ndarray, y: np.ndarray, threshold: float, feature: int) -> np.ndarray:
    """Recompute usual/unusual membership from the data alone."""
    side = np.asarray(x)[:, feature] >= threshold
    labels = np.asarray(y).reshape(-1) >= 0.5
    return side == labels


def rule_loss(rule, x, y_hat, y_hat_p=None, valid=None) -> float:
    """Value of ``rule.loss_node`` with the outputs put on a fresh tape as leaves."""
    tape = Tape()
    node = tape.constant(np.reshape(y_hat, (len(y_hat), -1)))
    node_p = None if y_hat_p is None else tape.constant(np.reshape(y_hat_p, (len(y_hat_p), -1)))
    return tape.scalar(rule.loss_node(tape, x, node, node_p, valid))


@dataclass(frozen=True)
class MeanBelowFeatureRule:
    """A rule outside the package: the mean output stays at or below input feature k.

    Defined here to show that a new rule needs one class with the three
    protocol members and nothing in ``src/``.
    """

    feature: int
    needs_perturbation: ClassVar[bool] = False

    def holds(self, x, y_hat, y_hat_p=None) -> np.ndarray:
        return np.asarray(y_hat).mean(axis=1) <= np.asarray(x)[:, self.feature]

    def loss_node(self, tape, x, y_hat, y_hat_p=None, valid=None) -> int:
        mean = tape.rowmap(y_hat, lambda y: y.mean(axis=1), lambda y: np.full_like(y, 1.0 / y.shape[1]))
        limit = tape.constant(np.asarray(x)[:, [self.feature]], "feature_limit")
        return tape.mean_relu_diff(mean, limit)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rank_corr(a, b) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length 1-D sequences")
    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt(np.sum(ra * ra) * np.sum(rb * rb))
    if denom == 0.0:
        raise ValueError("constant input has no rank correlation")
    return float(np.sum(ra * rb) / denom)


# ----------------------------------------------------------------------
# pendulum builds and strength sweeps on a chosen number of processes, and
# a record of the trajectories they simulate that forked workers write to
# as well
# ----------------------------------------------------------------------


def assert_reaped(pids) -> None:
    """No child of this process is left running or unreaped: each of ``pids`` is gone."""
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def force_workers(monkeypatch, workers: int) -> None:
    """Make every pendulum build use ``workers`` processes, at most one per trajectory it simulates."""
    monkeypatch.setattr(rulemix.pendulum, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(rulemix.pendulum, "worker_count", lambda n_tasks: min(n_tasks, workers))


def force_sweep_workers(monkeypatch, workers: int) -> None:
    """Make every strength sweep decode in ``workers`` processes, at most one per strength."""
    monkeypatch.setattr(rulemix.evaluate, "FORK_MIN_MACS", 0)
    monkeypatch.setattr(rulemix.evaluate, "worker_count", lambda n_tasks, blas=False: max(1, min(n_tasks, workers)))


class SimulatedTrajectories:
    """Every trajectory a pendulum build simulates, whichever process simulates it.

    ``install`` wraps ``pendulum.simulate_states``; a forked worker inherits
    the wrapper and appends to the same file. The record compares equal to
    the list of RK4 step counts in trajectory order, and ``trajectories()``
    gives the indices of the trajectories simulated.
    """

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def install(self, monkeypatch) -> "SimulatedTrajectories":
        real = rulemix.pendulum.simulate_states

        def recording(s0, params, n_steps, *args, **kwargs):
            index = round((s0[0] - s0[2]) / 0.02)  # released at theta0 + 0.01 i and theta0 - 0.01 i
            with open(self.path, "a") as fh:
                fh.write(f"{index} {n_steps}\n")
            return real(s0, params, n_steps, *args, **kwargs)

        monkeypatch.setattr(rulemix.pendulum, "simulate_states", recording)
        return self

    def _calls(self) -> list[tuple[int, int]]:
        return sorted(tuple(map(int, line.split())) for line in self.path.read_text().splitlines())

    def trajectories(self) -> list[int]:
        return [index for index, _ in self._calls()]

    def clear(self) -> None:
        self.path.write_text("")

    def __eq__(self, other) -> bool:
        return [steps for _, steps in self._calls()] == other

    def __len__(self) -> int:
        return len(self._calls())

    def __repr__(self) -> str:
        return f"SimulatedTrajectories({self._calls()})"
