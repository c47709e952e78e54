"""Damped double-pendulum simulator, energy function, and dataset builder.

States are (theta1, omega1, theta2, omega2): angles in radians measured from
the downward vertical, angular velocities in rad/s. Potential energy is zero
at the pivot. Friction is a viscous torque -b*omega_i applied at each joint,
so dE/dt = -b*(omega1^2 + omega2^2) <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SPLITS, Dataset, assign_splits
from .errors import SimulationBlowup

SIM_HZ = 200
KEEP_HZ = 10
NOISE_STD = 0.01  # measurement noise, variance 1e-4


@dataclass(frozen=True)
class PendulumParams:
    """Masses (kg), arm lengths (m), gravity (m/s^2), joint friction (N*m*s).

    The default inner mass is heavier than the outer one; equal masses at the
    default release angle whip hard enough that fixed-step RK4 at 200 Hz
    cannot hold the documented energy-drift bound.
    """

    m1: float = 2.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    g: float = 9.81
    b: float = 0.05

    def __post_init__(self) -> None:
        # written so that NaN fails: every comparison with NaN is false
        for name in ("m1", "m2", "l1", "l2", "g"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not 0 <= self.b < math.inf:
            raise ValueError(f"friction must be non-negative and finite, got {self.b!r}")


DEFAULT_PARAMS = PendulumParams()


def energy(states, params: PendulumParams):
    """Total mechanical energy (J); vectorized over rows for 2-D input."""
    arr = np.asarray(states, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    t1, w1, t2, w2 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    p = params
    kinetic = 0.5 * p.m1 * p.l1**2 * w1**2 + 0.5 * p.m2 * (
        p.l1**2 * w1**2 + p.l2**2 * w2**2 + 2.0 * p.l1 * p.l2 * w1 * w2 * np.cos(t1 - t2)
    )
    potential = -(p.m1 + p.m2) * p.g * p.l1 * np.cos(t1) - p.m2 * p.g * p.l2 * np.cos(t2)
    total = kinetic + potential
    return float(total[0]) if single else total


def energy_gradient(states, params: PendulumParams) -> np.ndarray:
    """d(energy)/d(state) per row, shape (n, 4)."""
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    t1, w1, t2, w2 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    p = params
    cd = np.cos(t1 - t2)
    sd = np.sin(t1 - t2)
    grad = np.empty_like(arr)
    grad[:, 0] = -p.m2 * p.l1 * p.l2 * w1 * w2 * sd + (p.m1 + p.m2) * p.g * p.l1 * np.sin(t1)
    grad[:, 1] = (p.m1 + p.m2) * p.l1**2 * w1 + p.m2 * p.l1 * p.l2 * w2 * cd
    grad[:, 2] = p.m2 * p.l1 * p.l2 * w1 * w2 * sd + p.m2 * p.g * p.l2 * np.sin(t2)
    grad[:, 3] = p.m2 * p.l2**2 * w2 + p.m2 * p.l1 * p.l2 * w1 * cd
    return grad


def simulate_states(s0, params: PendulumParams, n_steps: int, dt: float, every: int = 1) -> np.ndarray:
    """Integrate n_steps of classic RK4 from s0 and return every ``every``-th state.

    ``every`` >= 1. The result holds states 0, every, 2*every, ... up to
    n_steps, so it has ``n_steps // every + 1`` rows and equals
    ``simulate_states(...)[::every]`` bit for bit. Every step is taken and
    checked: the first step whose state is non-finite, or whose stages take
    the sine of an infinite angle, raises ``SimulationBlowup`` with its index.

    The equations of motion are written out in each of the four stages. Only
    left-hand prefixes of products are precomputed, so every expression
    rounds exactly as if written term by term with the parameters inline.
    Stage k_i is (u_i, p_i, v_i, q_i): its angular velocities are the angle
    rates, p and q its angular accelerations.
    """
    m1, m2, l1, l2, g, b = params.m1, params.m2, params.l1, params.l2, params.g, params.b
    neg_m2_l1_l2 = -m2 * l1 * l2
    m2_l1_l2 = m2 * l1 * l2
    m12_g_l1 = (m1 + m2) * g * l1
    m2_g_l2 = m2 * g * l2
    m2_l1_l1_l2_l2 = m2 * l1 * l1 * l2 * l2
    m12 = m1 + m2
    half = 0.5 * dt
    sixth = dt / 6.0
    sin, cos, isfinite = math.sin, math.cos, math.isfinite
    t1, w1, t2, w2 = state = tuple(float(v) for v in s0)
    kept = [state]
    try:
        for i in range(1, n_steps + 1):
            # stage 1 at (t1, w1, t2, w2); f1 and f2 are the generalized forces,
            # viscous joint torques included, and det is bounded below by
            # m1*m2*(l1*l2)^2 > 0
            d = t1 - t2
            cd = cos(d)
            sd = sin(d)
            f1 = neg_m2_l1_l2 * w2 * w2 * sd - m12_g_l1 * sin(t1) - b * w1
            f2 = m2_l1_l2 * w1 * w1 * sd - m2_g_l2 * sin(t2) - b * w2
            det = m2_l1_l1_l2_l2 * (m1 + m2 * sd * sd)
            p1 = (f1 * m2 * l2 * l2 - f2 * m2 * l1 * l2 * cd) / det
            q1 = (f2 * m12 * l1 * l1 - f1 * m2 * l1 * l2 * cd) / det
            # stage 2 at (t1 + half*w1, u2, t2 + half*w2, v2)
            u2 = w1 + half * p1
            v2 = w2 + half * q1
            x1 = t1 + half * w1
            x2 = t2 + half * w2
            d = x1 - x2
            cd = cos(d)
            sd = sin(d)
            f1 = neg_m2_l1_l2 * v2 * v2 * sd - m12_g_l1 * sin(x1) - b * u2
            f2 = m2_l1_l2 * u2 * u2 * sd - m2_g_l2 * sin(x2) - b * v2
            det = m2_l1_l1_l2_l2 * (m1 + m2 * sd * sd)
            p2 = (f1 * m2 * l2 * l2 - f2 * m2 * l1 * l2 * cd) / det
            q2 = (f2 * m12 * l1 * l1 - f1 * m2 * l1 * l2 * cd) / det
            # stage 3 at (t1 + half*u2, u3, t2 + half*v2, v3)
            u3 = w1 + half * p2
            v3 = w2 + half * q2
            x1 = t1 + half * u2
            x2 = t2 + half * v2
            d = x1 - x2
            cd = cos(d)
            sd = sin(d)
            f1 = neg_m2_l1_l2 * v3 * v3 * sd - m12_g_l1 * sin(x1) - b * u3
            f2 = m2_l1_l2 * u3 * u3 * sd - m2_g_l2 * sin(x2) - b * v3
            det = m2_l1_l1_l2_l2 * (m1 + m2 * sd * sd)
            p3 = (f1 * m2 * l2 * l2 - f2 * m2 * l1 * l2 * cd) / det
            q3 = (f2 * m12 * l1 * l1 - f1 * m2 * l1 * l2 * cd) / det
            # stage 4 at (t1 + dt*u3, u4, t2 + dt*v3, v4)
            u4 = w1 + dt * p3
            v4 = w2 + dt * q3
            x1 = t1 + dt * u3
            x2 = t2 + dt * v3
            d = x1 - x2
            cd = cos(d)
            sd = sin(d)
            f1 = neg_m2_l1_l2 * v4 * v4 * sd - m12_g_l1 * sin(x1) - b * u4
            f2 = m2_l1_l2 * u4 * u4 * sd - m2_g_l2 * sin(x2) - b * v4
            det = m2_l1_l1_l2_l2 * (m1 + m2 * sd * sd)
            p4 = (f1 * m2 * l2 * l2 - f2 * m2 * l1 * l2 * cd) / det
            q4 = (f2 * m12 * l1 * l1 - f1 * m2 * l1 * l2 * cd) / det
            t1 = t1 + sixth * (w1 + 2.0 * u2 + 2.0 * u3 + u4)
            w1 = w1 + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            t2 = t2 + sixth * (w2 + 2.0 * v2 + 2.0 * v3 + v4)
            w2 = w2 + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            if not (isfinite(t1) and isfinite(w1) and isfinite(t2) and isfinite(w2)):
                raise SimulationBlowup(i)
            if not i % every:
                kept.append((t1, w1, t2, w2))
    except ValueError:  # math.sin or math.cos of an infinite stage angle
        raise SimulationBlowup(i) from None
    return np.array(kept, dtype=np.float64)


def rk4_simulate(
    s0,
    params: PendulumParams,
    n_keep: int,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate at SIM_HZ, retain every (SIM_HZ/KEEP_HZ)-th state, add noise.

    Returns (n_keep, 4) measured states; the first retained state is s0.
    Gaussian measurement noise is added to every retained component, so
    consecutive retained states share their noisy boundary value when turned
    into (x_t, x_{t+1}) pairs.
    """
    stride = SIM_HZ // KEEP_HZ
    kept = simulate_states(s0, params, (n_keep - 1) * stride, 1.0 / SIM_HZ, every=stride)
    if noise_std > 0:
        kept += rng.normal(0.0, noise_std, size=kept.shape)
    return kept


def check_dataset_args(n_pairs: int, n_trajectories: int, theta0: float, noise_std: float) -> None:
    """Raise ValueError unless ``build_pendulum_dataset`` can build from these."""
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
    if n_pairs < n_trajectories:
        raise ValueError(f"n_pairs must be >= n_trajectories to give at least one pair per trajectory, got {n_pairs}")
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")
    # a NaN or negative noise_std would fail the noise_std > 0 test and give clean data
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")


def build_pendulum_dataset(
    params: PendulumParams = DEFAULT_PARAMS,
    n_pairs: int = 30_000,
    n_trajectories: int = 10,
    theta0: float = 2.0,
    noise_std: float = NOISE_STD,
    seed: int = 0,
    split_fractions: tuple[float, float, float] = (0.6, 0.1, 0.3),
    splits: tuple[str, ...] = SPLITS,
) -> Dataset:
    """Consecutive-state pairs from several damped trajectories.

    Release states are seed-independent (theta0 +/- 0.01*i per trajectory, at
    rest), so changing the seed changes only the measurement noise. Pairs
    never straddle a trajectory boundary; splits are assigned in temporal
    order over the concatenated pair stream (60/10/30 gives the documented
    18,000/3,000/9,000 split at 30,000 pairs).

    Only the rows of ``splits`` are returned, in stream order. A trajectory
    with no pair in them is not simulated, but its noise is still drawn, so
    every returned row equals, byte for byte, the same row of the full build.

    Trajectories should be long enough to decay close to rest (the default,
    3,000 pairs each at the default friction, is): the low-energy tail is
    what an untrained network's outputs violate, and without it the damping
    rule starts out vacuously satisfied.
    """
    check_dataset_args(n_pairs, n_trajectories, theta0, noise_std)
    unknown = set(splits) - set(SPLITS)
    if unknown:
        raise ValueError(f"unknown splits {sorted(unknown)}, expected names from {SPLITS}")
    labels = assign_splits(n_pairs, split_fractions)
    wanted = np.isin(labels, list(splits))
    rng = np.random.default_rng(seed)
    base = n_pairs // n_trajectories
    counts = [base + (1 if i < n_pairs % n_trajectories else 0) for i in range(n_trajectories)]
    xs, ys = [np.empty((0, 4))], [np.empty((0, 4))]
    start = 0
    for i, count in enumerate(counts):
        rows = wanted[start : start + count]
        start += count
        if rows.any():
            s0 = (theta0 + 0.01 * i, 0.0, theta0 - 0.01 * i, 0.0)
            kept = rk4_simulate(s0, params, count + 1, noise_std, rng)
            xs.append(kept[:-1][rows])
            ys.append(kept[1:][rows])
        elif noise_std > 0:
            rng.normal(0.0, noise_std, size=(count + 1, 4))  # the draw rk4_simulate makes
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    return Dataset(x=x, y=y, split=labels[wanted])


PENDULUM_CSV_COLUMNS = [
    "theta1",
    "omega1",
    "theta2",
    "omega2",
    "next_theta1",
    "next_omega1",
    "next_theta2",
    "next_omega2",
    "split",
]
