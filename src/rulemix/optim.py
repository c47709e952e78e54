"""Adam optimizer that owns the parameters it trains, and their gradient, as flat vectors.

:meth:`AdamState.for_params` copies the initial parameters once into one
contiguous vector, ``theta``, and exposes them as named views, ``params``,
in the order the dict gave. The gradient lives the same way in
``work[0]``, with named views ``grads`` that ``Tape.backprop`` writes into.
``adam_update`` updates the moments and then ``theta`` in place with a few
whole-vector operations, so a step allocates no parameter array and every
view reads the new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingAborted

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """The parameters, their flat moment estimates and a step counter.

    ``params`` maps each name to a view into ``theta``, in layout order, and
    ``grads`` each name to a view of the same shape into ``work[0]``, where a
    step's gradient is written. ``work`` is two vectors that every step
    reuses, so a step allocates no float vector.
    """

    lr: float
    theta: np.ndarray
    params: dict[str, np.ndarray]
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray = field(repr=False)
    grads: dict[str, np.ndarray] = field(repr=False)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 0.001) -> "AdamState":
        theta = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
        size, work = theta.size, np.zeros((2, theta.size))
        return cls(lr=lr, theta=theta, params=_views(theta, params), m=np.zeros(size), v=np.zeros(size), work=work,
                   grads=_views(work[0], params))


def _views(flat: np.ndarray, shapes: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into ``flat`` with the names and shapes of ``shapes``, end to end in its order."""
    views, start = {}, 0
    for name, value in shapes.items():
        views[name] = flat[start : start + value.size].reshape(value.shape)
        start += value.size
    return views


def _first_non_finite(arrays: dict[str, np.ndarray]) -> str:
    return next(name for name, value in arrays.items() if not np.isfinite(value).all())


def adam_update(state: AdamState) -> None:
    """One bias-corrected Adam step on ``state.params``, in place, from the gradient in ``state.grads``.

    Every entry follows the per-array expressions
    ``m = beta1 * m + (1 - beta1) * g``, ``v = beta2 * v + (1 - beta2) * (g * g)``
    and ``p - lr * (m / c1) / (sqrt(v / c2) + eps)``; the in-place steps
    below evaluate the same operations in the same order, so the result
    equals a loop over the arrays bit for bit. The gradient is checked for
    finiteness once, and so are the parameters after the step, so a step
    that returns leaves every parameter finite. The gradient vector is used
    as scratch: it does not hold the gradient after the step.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    g = state.work[0]
    if not np.isfinite(g).all():
        raise TrainingAborted(f"non-finite gradient for parameter {_first_non_finite(state.grads)} at step {t}")
    m, v = state.m, state.v
    step = np.multiply(g, 1.0 - BETA1, out=state.work[1])
    m *= BETA1
    m += step
    g *= g
    g *= 1.0 - BETA2
    v *= BETA2
    v += g
    np.divide(m, c1, out=step)
    step *= state.lr
    denom = np.divide(v, c2, out=g)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    state.theta -= step
    if not np.isfinite(state.theta).all():
        raise TrainingAborted(f"non-finite parameter {_first_non_finite(state.params)} after step {t}")
