"""Dense 2-D matrices with reverse-mode automatic differentiation.

A :class:`Tape` records one forward computation as a flat list of nodes in
topological order (parents always precede children). ``backprop`` walks the
list once in reverse and returns a gradient for every named parameter,
including zeros for parameters that do not reach the loss. Only the
primitives needed for small MLPs and their training losses are provided;
everything is float64 and the tape is rebuilt for every minibatch.

A dense block (a stack of affine layers, each followed by its activation)
is one node, :meth:`Tape.dense`. It keeps the block's input and each layer's
activated output and nothing else: the backward pass reads the ReLU mask
and the sigmoid derivative from the activated outputs, so the affine
outputs are never stored. Its values and gradients equal those of the
per-layer chain of ``affine``, ``relu`` and ``sigmoid`` nodes bit for bit.

A tape built with ``reuse=previous`` writes each matrix a primitive computes
into the array that the same node of ``previous`` allocated (the same layer
of the same node, for a dense block), when the shapes match. Inference
passes that rebuild the same graph many times (one per rule strength) then
run in a handful of buffers instead of fresh arrays, and the previous tape's
values are overwritten.

No gradient is computed towards a constant (a leaf that is not a
parameter): a backward closure returns None for it, and ``backprop``
skips it.

Conventions:
    * data flows as (rows=samples, cols=features) matrices,
    * ReLU'(0) = 0,
    * loss nodes are 1x1 matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Hashable

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


@dataclass
class Node:
    value: np.ndarray
    parents: tuple[int, ...]
    # maps the gradient at this node to gradients for each parent (None where
    # no gradient is needed); None for leaves
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None


class Tape:
    """Computation record for one forward pass.

    With ``reuse``, primitives write their outputs into the arrays that
    ``reuse``'s primitives allocated for the same node index, so ``reuse``
    is invalid once this tape is built. Leaves (parameters, constants) are
    never handed on. No value of ``reuse`` may feed this tape.
    """

    def __init__(self, reuse: Tape | None = None) -> None:
        self.nodes: list[Node] = []
        self._params: dict[str, int] = {}
        # node index, or (node index, layer) in a dense block -> output
        # array a primitive of this tape allocated
        self._buffers: dict[Hashable, np.ndarray] = {}
        self._spare = reuse._buffers if reuse is not None else {}

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
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _buffer(self, shape: tuple[int, int], key: Hashable = None) -> np.ndarray:
        """Output array for the node about to be appended, or for ``key``.

        The reused tape's array for the same key (by default the node
        index) if the shape matches, else a fresh one. The contents are
        undefined.
        """
        key = len(self.nodes) if key is None else key
        buf = self._spare.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape)
        self._buffers[key] = buf
        return buf

    def _wants_grad(self, nid: int) -> bool:
        """False for a constant: a leaf that is not a parameter."""
        return self.nodes[nid].backward is not None or nid in self._params.values()

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
        nid = self._append(Node(value, (), None))
        self._params[name] = nid
        return nid

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def affine(self, x: int, w: int, b: int, label: str = "affine") -> int:
        xv, wv, bv = self.value(x), self.value(w), self.value(b)
        _check_affine(label, xv, wv, bv)
        out = np.matmul(xv, wv, out=self._buffer((xv.shape[0], wv.shape[1])))
        np.add(out, bv, out=out)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return g @ wv.T, xv.T @ g, g.sum(axis=0, keepdims=True)

        return self._append(Node(out, (x, w, b), bwd))

    def relu(self, x: int) -> int:
        xv = self.value(x)
        out = self._buffer(xv.shape)
        _relu(xv, out)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * (xv > 0.0),)  # ReLU'(0) = 0

        return self._append(Node(out, (x,), bwd))

    def sigmoid(self, x: int) -> int:
        xv = self.value(x)
        out = self._buffer(xv.shape)
        _sigmoid(xv, out)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * out * (1.0 - out),)

        return self._append(Node(out, (x,), bwd))

    def dense(self, x: int, layers: Sequence[tuple[int, int, str]], label: str = "dense") -> int:
        """A stack of dense layers as one node.

        ``layers`` holds ``(weight node, bias node, activation)`` per layer,
        the activation one of linear, relu, sigmoid. Values and gradients
        equal those of ``affine`` (labelled ``{label}.{i}``) followed by the
        activation, layer by layer. Only the input and each layer's
        activated output are kept; no gradient is computed towards a
        constant input.
        """
        if not layers:
            raise ValueError(f"{label}: a dense block needs at least one layer")
        nid = len(self.nodes)
        xv = h = self.value(x)
        weights, outs, parents = [], [], [x]
        for i, (w, b, act) in enumerate(layers):
            wv, bv = self.value(w), self.value(b)
            _check_affine(f"{label}.{i}", h, wv, bv)
            if act not in ("linear", "relu", "sigmoid"):
                raise ValueError(f"unknown activation {act!r}")
            h = np.matmul(h, wv, out=self._buffer((h.shape[0], wv.shape[1]), (nid, i)))
            np.add(h, bv, out=h)
            if act == "relu":
                _relu(h, h)
            elif act == "sigmoid":
                _sigmoid(h, h)
            weights.append((wv, act))
            outs.append(h)
            parents += [w, b]
        wants_input = self._wants_grad(x)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            grads = []
            for i in range(len(outs) - 1, -1, -1):
                wv, act = weights[i]
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

        return self._append(Node(outs[-1], tuple(parents), bwd))

    def concat(self, a: int, b: int) -> int:
        # a product with 1.0 is exact, so values and gradients are those of a plain concatenation
        return self.scaled_concat(a, 1.0, b, 1.0)

    def scale(self, x: int, c: float) -> int:
        c = float(c)
        xv = self.value(x)
        out = np.multiply(xv, c, out=self._buffer(xv.shape))

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * c,)

        return self._append(Node(out, (x,), bwd))

    def scaled_concat(self, a: int, ca: float, b: int, cb: float) -> int:
        """``concat(scale(a, ca), scale(b, cb))`` as one node, same values and gradients."""
        ca, cb = float(ca), float(cb)
        av, bv = self.value(a), self.value(b)
        if av.shape[0] != bv.shape[0]:
            raise ShapeError(f"scaled_concat: row mismatch {av.shape} vs {bv.shape}")
        na = av.shape[1]
        out = self._buffer((av.shape[0], na + bv.shape[1]))
        np.multiply(av, ca, out=out[:, :na])
        np.multiply(bv, cb, out=out[:, na:])
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g[:, :na] * ca if wants_a else None, g[:, na:] * cb if wants_b else None

        return self._append(Node(out, (a, b), bwd))

    def add(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        if av.shape != bv.shape:
            raise ShapeError(f"add: shape mismatch {av.shape} vs {bv.shape}")

        out = np.add(av, bv, out=self._buffer(av.shape))
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
        xv = self.value(x)
        out = np.divide(xv, c, out=self._buffer(xv.shape))

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
        that is never backpropagated never computes it. It reads the
        parent's value as it stands when ``backprop`` runs, which is the
        forward pass's value as long as no tape built with ``reuse=`` on
        this one has written into it; no training tape is reused.
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
            if node.backward is None:
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

