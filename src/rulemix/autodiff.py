"""Dense 2-D matrices with reverse-mode automatic differentiation.

A :class:`Tape` records one forward computation as a flat list of nodes in
topological order (parents always precede children). ``backprop`` walks the
list once in reverse and returns a gradient for every named parameter,
including zeros for parameters that do not reach the loss. Only the
primitives needed for small MLPs and their training losses are provided;
everything is float64 and the tape is rebuilt for every minibatch.

A dense block (a stack of affine layers, each followed by its activation)
runs through one kernel, :func:`dense_forward`. On a tape the block is one
node, :meth:`Tape.dense`, whose values and gradients equal those of the
per-layer chain of ``affine``, ``relu`` and ``sigmoid`` nodes bit for bit.
:class:`Arrays` has the forward methods of ``Tape`` that the model calls,
over plain arrays and through the same kernels, so one model function runs
either recorded for a gradient or as bare inference.

No gradient is computed towards a node that no parameter reaches (a
constant, or a node computed from constants alone): a backward closure
returns None for it, and ``backprop`` skips it.

Conventions:
    * data flows as (rows=samples, cols=features) matrices,
    * ReLU'(0) = 0,
    * loss nodes are 1x1 matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError

PROB_CLAMP = 1e-12  # probabilities are clipped to [PROB_CLAMP, 1 - PROB_CLAMP] before a log


def as_matrix(value, name: str = "tensor") -> np.ndarray:
    """Validate external input as a finite 2-D float64 matrix."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries rejected")
    return arr


def _check_affine(label: str, xv: np.ndarray, wv: np.ndarray, bv: np.ndarray) -> None:
    if xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"{label}: input has {xv.shape[1]} columns, weight expects {wv.shape[0]}")
    if bv.shape != (1, wv.shape[1]):
        raise ShapeError(f"{label}: bias shape {bv.shape} != (1, {wv.shape[1]})")


def _relu(xv: np.ndarray, out: np.ndarray) -> None:
    # equals np.where(xv > 0, xv, 0.0) for every input, NaN and -0.0 included:
    # fmax drops NaN for 0, and adding +0.0 turns -0.0 into +0.0
    np.fmax(xv, 0.0, out=out)
    out += 0.0


def _sigmoid(xv: np.ndarray, out: np.ndarray) -> None:
    """Logistic function of ``xv`` into ``out``, which may be ``xv`` itself."""
    pos = xv >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
    e = np.exp(xv[~pos])
    out[~pos] = e / (1.0 + e)


def out_array(buffers: list[np.ndarray] | None, i: int, shape: tuple[int, int]) -> np.ndarray:
    """``buffers[i]`` if it has ``shape``, else a fresh array put in its place; the contents are undefined.

    ``buffers`` is a list the caller keeps between passes, or None for a fresh array every time.
    """
    if buffers is None:
        return np.empty(shape)
    if i == len(buffers):
        buffers.append(np.empty(shape))
    elif buffers[i].shape != shape:
        buffers[i] = np.empty(shape)
    return buffers[i]


def dense_forward(h: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray, str]], label: str = "dense",
                  buffers: list[np.ndarray] | None = None, keep: bool = False) -> np.ndarray | list[np.ndarray]:
    """A stack of dense layers: per layer ``h @ w + b``, then the activation (linear, relu or sigmoid).

    ``layers`` holds ``(weight, bias, activation)`` per layer; a layer that
    does not fit raises ShapeError naming ``{label}.{i}``. Layer ``i`` writes
    into ``out_array(buffers, i, ...)``. Returns every layer's output with
    ``keep``, else the last one, holding no earlier layer's output.
    """
    if not layers:
        raise ValueError(f"{label}: a dense block needs at least one layer")
    outs = []
    for i, (wv, bv, act) in enumerate(layers):
        _check_affine(f"{label}.{i}", h, wv, bv)
        if act not in ("linear", "relu", "sigmoid"):
            raise ValueError(f"unknown activation {act!r}")
        h = np.matmul(h, wv, out=out_array(buffers, i, (h.shape[0], wv.shape[1])))
        np.add(h, bv, out=h)
        if act == "relu":
            _relu(h, h)
        elif act == "sigmoid":
            _sigmoid(h, h)
        if keep:
            outs.append(h)
    return outs if keep else h


def scaled_concat(av: np.ndarray, ca: float, bv: np.ndarray, cb: float, buffers: list[np.ndarray] | None = None):
    """``av * ca`` and ``bv * cb`` side by side, written into ``out_array(buffers, 0, ...)``."""
    if av.shape[0] != bv.shape[0]:
        raise ShapeError(f"scaled_concat: row mismatch {av.shape} vs {bv.shape}")
    na = av.shape[1]
    out = out_array(buffers, 0, (av.shape[0], na + bv.shape[1]))
    np.multiply(av, ca, out=out[:, :na])
    np.multiply(bv, cb, out=out[:, na:])
    return out


@dataclass
class Node:
    value: np.ndarray
    parents: tuple[int, ...]
    # maps the gradient at this node to gradients for each parent (None where
    # no gradient is needed); None for leaves
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None
    # a parameter reaches this node; set for parameters, and by ``Tape._append`` from the parents
    wants_grad: bool = False


class Tape:
    """Computation record for one forward pass."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._params: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def scalar(self, nid: int) -> float:
        v = self.nodes[nid].value
        if v.shape != (1, 1):
            raise ShapeError(f"node {nid} is not scalar, shape {v.shape}")
        return float(v[0, 0])

    def _append(self, node: Node) -> int:
        for p in () if node.wants_grad else node.parents:  # cheaper per node than any() over a generator
            if self.nodes[p].wants_grad:
                node.wants_grad = True
                break
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _wants_grad(self, nid: int) -> bool:
        """False for a constant, and for a node that no parameter reaches."""
        return self.nodes[nid].wants_grad

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------

    def constant(self, value, name: str = "constant") -> int:
        return self.leaf(as_matrix(value, name))

    def leaf(self, value: np.ndarray) -> int:
        """A matrix already checked by ``as_matrix``, taken as it is."""
        return self._append(Node(value, (), None))

    def param(self, name: str, value: np.ndarray) -> int:
        """Register a named parameter leaf; re-registering returns the same node.

        The sharing rule is what lets two forward passes (e.g. an input and
        its perturbed copy) accumulate gradients into one parameter set.
        ``value`` is taken as it is: parameters are validated where they
        enter (``model.check_params``), not on every tape leaf.
        """
        if name in self._params:
            return self._params[name]
        nid = self._append(Node(value, (), None, wants_grad=True))
        self._params[name] = nid
        return nid

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def affine(self, x: int, w: int, b: int, label: str = "affine") -> int:
        xv, wv, bv = self.value(x), self.value(w), self.value(b)
        _check_affine(label, xv, wv, bv)
        out = np.matmul(xv, wv)
        np.add(out, bv, out=out)
        wants_x = self._wants_grad(x)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g @ wv.T if wants_x else None, xv.T @ g, g.sum(axis=0, keepdims=True)

        return self._append(Node(out, (x, w, b), bwd))

    def relu(self, x: int) -> int:
        xv = self.value(x)
        _relu(xv, out := np.empty(xv.shape))

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * (xv > 0.0),)  # ReLU'(0) = 0

        return self._append(Node(out, (x,), bwd))

    def sigmoid(self, x: int) -> int:
        xv = self.value(x)
        _sigmoid(xv, out := np.empty(xv.shape))

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * out * (1.0 - out),)

        return self._append(Node(out, (x,), bwd))

    def dense(self, x: int, layers: Sequence[tuple[int, int, str]], label: str = "dense") -> int:
        """``dense_forward`` over ``(weight node, bias node, activation)`` layers, as one node.

        Values and gradients equal those of ``affine`` (labelled
        ``{label}.{i}``) followed by the activation, layer by layer. Only the
        input and each layer's activated output are kept: the backward pass
        reads the ReLU mask and the sigmoid derivative from the latter.
        """
        xv = self.value(x)
        values = [(self.value(w), self.value(b), act) for w, b, act in layers]
        outs = dense_forward(xv, values, label, keep=True)
        parents = (x, *[nid for w, b, _ in layers for nid in (w, b)])
        wants_input = self._wants_grad(x)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            grads = []
            for i in range(len(outs) - 1, -1, -1):
                wv, _, act = values[i]
                out = outs[i]
                if act == "relu":
                    g = g * (out > 0.0)  # ReLU'(0) = 0; the same mask as the affine output's
                elif act == "sigmoid":
                    g = g * out * (1.0 - out)
                h = outs[i - 1] if i else xv
                grads += [g.sum(axis=0, keepdims=True), h.T @ g]
                g = g @ wv.T if i or wants_input else None
            grads.append(g)
            return tuple(reversed(grads))

        return self._append(Node(outs[-1], parents, bwd))

    def concat(self, a: int, b: int) -> int:
        # a product with 1.0 is exact, so values and gradients are those of a plain concatenation
        return self.scaled_concat(a, 1.0, b, 1.0)

    def scale(self, x: int, c: float) -> int:
        c = float(c)
        out = np.multiply(self.value(x), c)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * c,)

        return self._append(Node(out, (x,), bwd))

    def scaled_concat(self, a: int, ca: float, b: int, cb: float) -> int:
        """``concat(scale(a, ca), scale(b, cb))`` as one node, same values and gradients."""
        ca, cb = float(ca), float(cb)
        av = self.value(a)
        out = scaled_concat(av, ca, self.value(b), cb)
        na = av.shape[1]
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g[:, :na] * ca if wants_a else None, g[:, na:] * cb if wants_b else None

        return self._append(Node(out, (a, b), bwd))

    def add(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        if av.shape != bv.shape:
            raise ShapeError(f"add: shape mismatch {av.shape} vs {bv.shape}")
        out = np.add(av, bv)
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g if wants_a else None, g if wants_b else None

        return self._append(Node(out, (a, b), bwd))

    def divide(self, x: int, c: float) -> int:
        """Division by a scalar constant (not multiplication by 1/c, which
        would round differently; x/x must be exactly 1)."""
        c = float(c)
        if c == 0.0:
            raise ValueError("division by zero")
        out = np.divide(self.value(x), c)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g / c,)

        return self._append(Node(out, (x,), bwd))

    def rowmap(
        self,
        x: int,
        fn: Callable[[np.ndarray], np.ndarray],
        jac: Callable[[np.ndarray], np.ndarray],
    ) -> int:
        """Row-wise scalar function with a supplied analytic jacobian.

        ``fn`` maps (n, d) -> (n,) and ``jac`` maps (n, d) -> (n, d); used to
        put physics quantities (e.g. state energy) on the tape. The jacobian
        is evaluated, and its shape checked, in the backward pass, so a tape
        that is never backpropagated never computes it.
        """
        xv = self.value(x)
        out = np.asarray(fn(xv), dtype=np.float64).reshape(-1, 1)
        if out.shape[0] != xv.shape[0]:
            raise ShapeError("rowmap: fn must return one value per row")

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            jv = np.asarray(jac(xv), dtype=np.float64)
            if jv.shape != xv.shape:
                raise ShapeError(f"rowmap: jacobian shape {jv.shape} != {xv.shape}")
            return (g * jv,)

        return self._append(Node(out, (x,), bwd))

    # ------------------------------------------------------------------
    # reductions / losses (scalar outputs)
    # ------------------------------------------------------------------

    def mean_relu_diff(self, a: int, b: int, weights: np.ndarray | None = None) -> int:
        """(1/n) * sum_i w_i * max(a_i - b_i, 0) over single-column inputs.

        The optional 0/1 weight column gates invalid rows out of the sum while
        keeping the batch size as the denominator.
        """
        av, bv = self.value(a), self.value(b)
        if av.shape != bv.shape or av.shape[1] != 1:
            raise ShapeError(f"mean_relu_diff: need matching (n,1) inputs, got {av.shape} vs {bv.shape}")
        n = av.shape[0]
        w = np.ones((n, 1)) if weights is None else as_matrix(weights, "weights")
        if w.shape != (n, 1):
            raise ShapeError(f"mean_relu_diff: weights shape {w.shape} != ({n}, 1)")
        diff = av - bv
        active = (diff > 0.0) & (w != 0.0)
        out = np.array([[float(np.sum(w * np.maximum(diff, 0.0))) / n]])
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            d = g[0, 0] * w * active / n
            return d if wants_a else None, -d if wants_b else None

        return self._append(Node(out, (a, b), bwd))

    def mse(self, pred: int, target: int) -> int:
        pv, tv = self.value(pred), self.value(target)
        if pv.shape != tv.shape:
            raise ShapeError(f"mse: shape mismatch {pv.shape} vs {tv.shape}")
        diff = pv - tv
        out = np.array([[float(np.mean(diff * diff))]])
        inv = 2.0 / diff.size
        wants_target = self._wants_grad(target)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            d = g[0, 0] * inv * diff
            return d, -d if wants_target else None

        return self._append(Node(out, (pred, target), bwd))

    def bce(self, pred: int, target: int) -> int:
        """Mean binary cross-entropy of probabilities against 0/1 targets.

        Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; the
        gradient is zero where the clamp is active (the loss is flat there).
        """
        pv, tv = self.value(pred), self.value(target)
        if pv.shape != tv.shape:
            raise ShapeError(f"bce: shape mismatch {pv.shape} vs {tv.shape}")
        p = np.clip(pv, PROB_CLAMP, 1.0 - PROB_CLAMP)
        inside = (pv > PROB_CLAMP) & (pv < 1.0 - PROB_CLAMP)
        out = np.array([[float(np.mean(-(tv * np.log(p) + (1.0 - tv) * np.log1p(-p))))]])
        wants_target = self._wants_grad(target)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            dp = g[0, 0] * inside * (p - tv) / (p * (1.0 - p)) / pv.size
            dt = g[0, 0] * (np.log1p(-p) - np.log(p)) / pv.size if wants_target else None
            return dp, dt

        return self._append(Node(out, (pred, target), bwd))

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backprop(self, loss: int) -> dict[str, np.ndarray]:
        """Gradient of a scalar loss node with respect to every parameter.

        Parameters with no path to the loss get zero gradients.
        """
        lv = self.value(loss)
        if lv.shape != (1, 1):
            raise ShapeError(f"backprop: loss must be 1x1, got shape {lv.shape}")
        grads: list[np.ndarray | None] = [None] * (loss + 1)
        grads[loss] = np.ones((1, 1))
        for nid in range(loss, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if node.backward is None or not node.wants_grad:
                continue
            # never accumulate in place: a backward closure may hand the
            # same array to two parents, or a view of its incoming gradient
            for pid, pg in zip(node.parents, node.backward(g)):
                if pg is None:  # a constant parent: nothing reads its gradient
                    continue
                prev = grads[pid]
                grads[pid] = pg if prev is None else prev + pg
        out: dict[str, np.ndarray] = {}
        for name, nid in self._params.items():
            g = grads[nid] if nid <= loss else None
            out[name] = np.zeros_like(self.nodes[nid].value) if g is None else g
        return out


class Arrays:
    """The forward methods of ``Tape`` that the model calls, on plain arrays.

    Each method returns its array and records nothing; values equal the
    tape's bit for bit, as both run the same kernels. With ``buffers``, the
    k-th call that makes a matrix writes into ``buffers[k]`` (a list, added
    when missing; see ``out_array``), so a pass that repeats the calls of the
    pass before it writes into that pass's arrays. With no buffers every
    matrix is fresh, and a dense block keeps only the layer being computed.
    """

    def __init__(self, buffers: list[list[np.ndarray]] | None = None) -> None:
        self._buffers = buffers
        self._calls = 0

    def _next(self) -> list[np.ndarray] | None:
        if self._buffers is None:
            return None
        if self._calls == len(self._buffers):
            self._buffers.append([])
        self._calls += 1
        return self._buffers[self._calls - 1]

    def value(self, v: np.ndarray) -> np.ndarray:
        return v

    def param(self, name: str, value: np.ndarray) -> np.ndarray:
        return value

    def constant(self, value, name: str = "constant") -> np.ndarray:
        return as_matrix(value, name)

    def dense(self, x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray, str]],
              label: str = "dense") -> np.ndarray:
        return dense_forward(x, layers, label, self._next())

    def scaled_concat(self, a: np.ndarray, ca: float, b: np.ndarray, cb: float) -> np.ndarray:
        return scaled_concat(a, float(ca), b, float(cb), self._next())

    def concat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.scaled_concat(a, 1.0, b, 1.0)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape != b.shape:
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
        return np.add(a, b, out=out_array(self._next(), 0, a.shape))
