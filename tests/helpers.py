"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rulemix.autodiff import Tape
from rulemix.errors import TrainingAborted
from rulemix.evaluate import SweepRecord, task_metric
from rulemix.model import ModelSpec, init_params, predict, predict_values
from rulemix.pendulum import PendulumParams
from rulemix.rules import MonotonicRule, perturb_batch, verification_ratio


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
    if isinstance(rule, MonotonicRule):
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


def full_pass_task_losses(spec, params, x, y, alphas) -> list[float]:
    """Task loss at each strength from one full ``predict`` pass per strength."""
    losses = []
    for alpha in alphas:
        tape = Tape()
        out = predict(tape, spec, params, x, alpha).output
        target = tape.constant(y, "target")
        node = tape.bce(out, target) if spec.task == "classification" else tape.mse(out, target)
        losses.append(tape.scalar(node))
    return losses


@dataclass
class ReferenceAdamState:
    """Per-array Adam state: one moment array per parameter name."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 0.001) -> "ReferenceAdamState":
        state = cls(lr=lr)
        for name, value in params.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def reference_adam_update(state, params, grads):
    """Adam as a loop over the parameter arrays, one array at a time.

    The flat-vector ``adam_update`` must equal this bit for bit.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise TrainingAborted(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise TrainingAborted(f"non-finite gradient for parameter {name} at step {t}")
        m = state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        out[name] = p - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return out
