"""Adam optimizer over named parameter dicts, run on one flat vector.

A parameter dict maps names to 2-D arrays. ``adam_update`` lays the arrays
out end to end in the order :meth:`AdamState.for_params` recorded, updates
the whole vector with a few vector operations, and returns the new
parameters as views into one fresh contiguous vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingAborted


def param_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Named views into consecutive slices of ``flat``, in ``shapes`` order."""
    out: dict[str, np.ndarray] = {}
    start = 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        out[name] = flat[start:stop].reshape(shape)
        start = stop
    if start != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, the shapes need {start}")
    return out


@dataclass
class AdamState:
    """Flat first/second moment estimates, the layout and a step counter.

    ``shapes`` fixes the order of the parameters in the flat vectors.
    ``work`` is two scratch vectors that every step reuses, so a step
    allocates one fresh vector (the new parameters) and no temporaries.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    work: np.ndarray = field(default_factory=lambda: np.zeros((2, 0)), repr=False)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 0.001) -> "AdamState":
        shapes = {name: value.shape for name, value in params.items()}
        size = sum(value.size for value in params.values())
        return cls(lr=lr, shapes=shapes, m=np.zeros(size), v=np.zeros(size), work=np.empty((2, size)))


def _flatten(
    arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]], what: str, out: np.ndarray
) -> np.ndarray:
    """``arrays`` laid end to end in ``shapes`` order into ``out``, shapes checked."""
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise TrainingAborted(f"{what} shape {arrays[name].shape} != parameter shape {shape} for {name}")
    return np.concatenate([arrays[name] for name in shapes], axis=None, out=out)


def _first_non_finite(arrays: dict[str, np.ndarray]) -> str:
    return next(name for name, value in arrays.items() if not np.isfinite(value).all())


def adam_update(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam step; returns a fresh parameter dict.

    The inputs are not modified. Every entry follows the per-array
    expressions ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * (g * g)`` and
    ``p - lr * (m / c1) / (sqrt(v / c2) + eps)``; the in-place steps below
    evaluate the same operations in the same order, so the result equals a
    loop over the arrays bit for bit. The gradient is checked for
    finiteness once, and so are the new parameters, so every parameter that
    leaves a step is finite.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    shapes = state.shapes
    g = _flatten(grads, shapes, "gradient", out=state.work[0])
    if not np.isfinite(g).all():
        raise TrainingAborted(f"non-finite gradient for parameter {_first_non_finite(grads)} at step {t}")
    m, v = state.m, state.v
    step = np.multiply(g, 1.0 - state.beta1, out=state.work[1])
    m *= state.beta1
    m += step
    g *= g
    g *= 1.0 - state.beta2
    v *= state.beta2
    v += g
    np.divide(m, c1, out=step)
    step *= state.lr
    denom = np.divide(v, c2, out=g)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p = _flatten(params, shapes, "parameter", out=np.empty(m.size))  # the new parameters
    p -= step
    if not np.isfinite(p).all():
        raise TrainingAborted(f"non-finite parameter {_first_non_finite(param_views(p, shapes))} after step {t}")
    return param_views(p, shapes)
