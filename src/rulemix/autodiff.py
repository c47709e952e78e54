"""Dense 2-D matrices with reverse-mode automatic differentiation.

A :class:`Tape` records one forward computation as a flat list of nodes in
topological order (parents always precede children). Each op allocates its
output arrays when it is recorded and keeps a forward kernel that writes
into them, so ``replay`` reruns the computation once the owners of the
leaves (a batch's rows, the parameters) have refilled them in place; a
:class:`Coefficient` is a scalar, such as the strength ``alpha``, that may
change between runs. ``backprop`` walks the list once in reverse and
writes a gradient for every named parameter into an array the caller owns
(in training, a view into the optimizer's flat gradient vector), zeros for
parameters that do not reach the loss. Only the primitives needed for small
MLPs and their training losses are provided; everything is float64.

A dense block (a stack of affine layers, each followed by its activation)
runs through one kernel, :func:`dense_forward`. On a tape the block is one
node, :meth:`Tape.dense`, whose values and gradients equal those of the
per-layer chain of ``affine``, ``relu`` and ``sigmoid`` nodes bit for bit.
Under the default coupling the strength scales the first decision layer's
two products rather than its input: :func:`paired_product` computes the
products once, and :func:`blend` weighs and sums them at each strength.
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
    """Logistic function of ``xv`` into ``out``, which may be ``xv`` itself.

    ``where(x >= 0, -x, x)`` is ``-|x|`` but leaves a NaN as it is, so one
    ``exp`` serves both signs: ``1 / (1 + e)`` where ``x >= 0`` and
    ``e / (1 + e)`` elsewhere, with no masked gathers or scatters.
    """
    pos = xv >= 0
    e = np.exp(np.where(pos, -xv, xv))
    np.divide(np.where(pos, 1.0, e), 1.0 + e, out=out)


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
                  buffers: list[np.ndarray] | None = None) -> np.ndarray:
    """A stack of dense layers: per layer ``h @ w + b``, then the activation (linear, relu or sigmoid).

    ``layers`` holds ``(weight, bias, activation)`` per layer; a layer that
    does not fit raises ShapeError naming ``{label}.{i}``. Layer ``i`` writes
    into ``out_array(buffers, i, ...)``, so ``buffers`` keeps every layer's
    output. Returns the last one; with no ``buffers``, no earlier layer's
    output is held.
    """
    if not layers:
        raise ValueError(f"{label}: a dense block needs at least one layer")
    for i, (wv, bv, act) in enumerate(layers):
        _check_affine(f"{label}.{i}", h, wv, bv)
        if act not in ("linear", "relu", "sigmoid"):
            raise ValueError(f"unknown activation {act!r}")
        h = _dense_layer(h, wv, bv, act, out_array(buffers, i, (h.shape[0], wv.shape[1])))
    return h


def _dense_layer(h: np.ndarray, wv: np.ndarray, bv: np.ndarray, act: str, out: np.ndarray) -> np.ndarray:
    """``h @ wv + bv``, then the activation, written into ``out``, which it returns; the caller checked the shapes."""
    np.matmul(h, wv, out=out)
    np.add(out, bv, out=out)
    return _activate(out, act)


def _activate(out: np.ndarray, act: str) -> np.ndarray:
    """The activation (linear, relu or sigmoid) of ``out``, in place; returns ``out``."""
    if act == "relu":
        _relu(out, out)
    elif act == "sigmoid":
        _sigmoid(out, out)
    return out


def _activation_grad(g: np.ndarray, out: np.ndarray, act: str) -> np.ndarray:
    """The gradient at an activation's input, from ``g`` at its output ``out``."""
    if act == "relu":
        return g * (out > 0.0)  # ReLU'(0) = 0; the same mask as the input's
    if act == "sigmoid":
        return g * out * (1.0 - out)
    return g


def paired_product(av: np.ndarray, bv: np.ndarray, wv: np.ndarray, buffers: list[np.ndarray] | None = None):
    """``av @ wv[:k]`` above ``bv @ wv[k:]``, ``k`` being ``av``'s width: a (2n, m) matrix.

    Each of two n-row inputs times its own rows of one weight: the two terms
    of the product ``concat(av, bv) @ wv``, stacked by rows so that each is
    contiguous. Written into ``out_array(buffers, 0, ...)``.
    """
    n, k = av.shape
    if bv.shape[0] != n or k + bv.shape[1] != wv.shape[0]:
        raise ShapeError(f"paired_product: inputs {av.shape} and {bv.shape} do not fit weight {wv.shape}")
    out = out_array(buffers, 0, (2 * n, wv.shape[1]))
    _paired_product(av, bv, wv[:k], wv[k:], out[:n], out[n:])
    return out


def _paired_product(av: np.ndarray, bv: np.ndarray, wa: np.ndarray, wb: np.ndarray, pa: np.ndarray,
                    pb: np.ndarray) -> None:
    """``av @ wa`` into ``pa`` and ``bv @ wb`` into ``pb``; the caller checked the shapes."""
    np.matmul(av, wa, out=pa)
    np.matmul(bv, wb, out=pb)


def blend(pv: np.ndarray, ca: float, cb: float, bv: np.ndarray, act: str, buffers: list[np.ndarray] | None = None):
    """The activation of ``pv[:n] * ca + pv[n:] * cb + bv``, ``pv`` having 2n rows and the bias ``bv``'s width.

    Applied to ``paired_product(a, b, w)`` it is the dense layer ``(w, bv)``
    over ``concat(a * ca, b * cb)``, rounded differently. Writes into
    ``out_array(buffers, 0, ...)``, with ``out_array(buffers, 1, ...)`` as scratch.
    """
    n = pv.shape[0] // 2
    if bv.shape != (1, pv.shape[1]) or pv.shape[0] != 2 * n:
        raise ShapeError(f"blend: products {pv.shape} do not fit bias {bv.shape}")
    if act not in ("linear", "relu", "sigmoid"):
        raise ValueError(f"unknown activation {act!r}")
    out, scratch = out_array(buffers, 0, (n, pv.shape[1])), out_array(buffers, 1, (n, pv.shape[1]))
    return _blend(pv[:n], pv[n:], ca, cb, bv, act, out, scratch)


def _blend(pa: np.ndarray, pb: np.ndarray, ca: float, cb: float, bv: np.ndarray, act: str, out: np.ndarray,
           scratch: np.ndarray) -> np.ndarray:
    """``pa * ca + pb * cb + bv``, then the activation, into ``out``, which it returns.

    The caller checked the shapes; ``scratch`` has ``out``'s shape.
    """
    np.multiply(pa, ca, out=out)
    np.multiply(pb, cb, out=scratch)
    np.add(out, scratch, out=out)
    np.add(out, bv, out=out)
    return _activate(out, act)


def scaled_concat(av: np.ndarray, ca: float, bv: np.ndarray, cb: float, buffers: list[np.ndarray] | None = None):
    """``av * ca`` and ``bv * cb`` side by side, written into ``out_array(buffers, 0, ...)``."""
    if av.shape[0] != bv.shape[0]:
        raise ShapeError(f"scaled_concat: row mismatch {av.shape} vs {bv.shape}")
    na = av.shape[1]
    out = out_array(buffers, 0, (av.shape[0], na + bv.shape[1]))
    np.multiply(av, ca, out=out[:, :na])
    np.multiply(bv, cb, out=out[:, na:])
    return out


class Coefficient:
    """A scalar that a recorded op reads again on every run of its kernel.

    ``Coefficient(value)`` is an input of a recorded step: set ``value``
    before a replay. ``number - c`` and ``c * other`` (a number or a
    coefficient) give a derived coefficient that evaluates the same Python
    expression, operand for operand, whenever it is read, so a replayed op
    reads bit for bit the number that recording the step again would
    compute. ``float()`` reads it.
    """

    __slots__ = ("value", "_fn")

    def __init__(self, value: float = 0.0, fn: Callable[[], float] | None = None) -> None:
        self.value = value
        self._fn = fn

    def __float__(self) -> float:
        return float(self.value) if self._fn is None else self._fn()

    def __rsub__(self, other) -> "Coefficient":
        return Coefficient(fn=lambda: float(other) - float(self))

    def __mul__(self, other) -> "Coefficient":
        return Coefficient(fn=lambda: float(self) * float(other))


@dataclass
class Node:
    value: np.ndarray
    parents: tuple[int, ...]
    # maps the gradient at this node to gradients for each parent (None where
    # no gradient is needed); None for leaves
    backward: Callable[..., tuple[np.ndarray | None, ...]] | None
    # a parameter reaches this node; set for parameters, and by ``Tape._append`` from the parents
    wants_grad: bool = False
    # recomputes ``value`` in place from the parents' values and coefficients; None for a leaf its owner writes
    forward: Callable[[], None] | None = None
    # ``backward`` takes a second argument: per parent, the array to write its gradient into, or None
    writes_grads: bool = False


class Tape:
    """Computation record for one forward pass, which can be replayed.

    Every op allocates its output arrays when it is recorded and keeps a
    forward kernel that writes into them: run once when recorded, and again
    by ``replay``.
    """

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

    def _record(self, out: np.ndarray, parents: tuple[int, ...], backward, forward: Callable[[], None]) -> int:
        """Run ``forward`` once, which writes ``out``, and append the node it computes."""
        forward()
        return self._append(Node(out, parents, backward, forward=forward))

    def _wants_grad(self, nid: int) -> bool:
        """False for a constant, and for a node that no parameter reaches."""
        return self.nodes[nid].wants_grad

    def replay(self) -> None:
        """Rerun every node's forward kernel in recording order, into the same arrays.

        Leaves are not written: their owners refill them in place (a batch's
        rows, the parameters that Adam steps in place), and every
        ``Coefficient`` is read anew, so each value equals what recording the
        same calls on the refilled leaves would compute.
        """
        for node in self.nodes:
            if node.forward is not None:
                node.forward()

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

    def column(self, rows: int, c) -> int:
        """A (rows, 1) constant column holding ``c``, a number or a ``Coefficient`` read on every run."""
        out = np.empty((rows, 1))
        return self._record(out, (), None, lambda: out.fill(float(c)))

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def affine(self, x: int, w: int, b: int, label: str = "affine") -> int:
        xv, wv, bv = self.value(x), self.value(w), self.value(b)
        _check_affine(label, xv, wv, bv)
        out = np.empty((xv.shape[0], wv.shape[1]))
        wants_x = self._wants_grad(x)

        def forward() -> None:
            np.matmul(xv, wv, out=out)
            np.add(out, bv, out=out)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g @ wv.T if wants_x else None, xv.T @ g, g.sum(axis=0, keepdims=True)

        return self._record(out, (x, w, b), bwd, forward)

    def relu(self, x: int) -> int:
        xv = self.value(x)
        out = np.empty(xv.shape)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * (xv > 0.0),)  # ReLU'(0) = 0

        return self._record(out, (x,), bwd, lambda: _relu(xv, out))

    def sigmoid(self, x: int) -> int:
        xv = self.value(x)
        out = np.empty(xv.shape)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * out * (1.0 - out),)

        return self._record(out, (x,), bwd, lambda: _sigmoid(xv, out))

    def dense(self, x: int, layers: Sequence[tuple[int, int, str]], label: str = "dense") -> int:
        """``dense_forward`` over ``(weight node, bias node, activation)`` layers, as one node.

        Values and gradients equal those of ``affine`` (labelled
        ``{label}.{i}``) followed by the activation, layer by layer. Only the
        input and each layer's activated output are kept: the backward pass
        reads the ReLU mask and the sigmoid derivative from the latter. The
        backward pass writes each weight and bias gradient straight into the
        array ``backprop`` hands it, if any.
        """
        xv = self.value(x)
        values = [(self.value(w), self.value(b), act) for w, b, act in layers]
        outs: list[np.ndarray] = []  # each layer's output, rewritten by a replay
        dense_forward(xv, values, label, outs)
        runs = [(h, wv, bv, act, out) for h, (wv, bv, act), out in zip([xv, *outs[:-1]], values, outs)]

        def forward() -> None:  # the layers dense_forward checked, without the checks
            for h, wv, bv, act, out in runs:
                _dense_layer(h, wv, bv, act, out)

        parents = (x, *[nid for w, b, _ in layers for nid in (w, b)])
        wants_input = self._wants_grad(x)

        def bwd(g: np.ndarray, into: Sequence[np.ndarray | None] | None = None) -> tuple[np.ndarray | None, ...]:
            grads = []
            for i in range(len(outs) - 1, -1, -1):
                wv, _, act = values[i]
                g = _activation_grad(g, outs[i], act)
                h = outs[i - 1] if i else xv
                w_into, b_into = (None, None) if into is None else (into[1 + 2 * i], into[2 + 2 * i])
                grads += [np.add.reduce(g, axis=0, keepdims=True, out=b_into), np.matmul(h.T, g, out=w_into)]
                g = g @ wv.T if i or wants_input else None
            grads.append(g)
            return tuple(reversed(grads))

        # a parameter used twice in one block would get both of its gradients written into one array
        writes_grads = len(set(parents)) == len(parents)
        return self._append(Node(outs[-1], parents, bwd, forward=forward, writes_grads=writes_grads))

    def concat(self, a: int, b: int) -> int:
        # a product with 1.0 is exact, so values and gradients are those of a plain concatenation
        return self.scaled_concat(a, 1.0, b, 1.0)

    def scale(self, x: int, c) -> int:
        """``x * c`` for a number or a ``Coefficient`` ``c``."""
        xv = self.value(x)
        out = np.empty(xv.shape)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g * float(c),)

        return self._record(out, (x,), bwd, lambda: np.multiply(xv, float(c), out=out))

    def scaled_concat(self, a: int, ca, b: int, cb) -> int:
        """``concat(scale(a, ca), scale(b, cb))`` as one node, same values and gradients."""
        av, bv = self.value(a), self.value(b)
        na = av.shape[1]
        buffers = [np.empty((av.shape[0], na + bv.shape[1]))]
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g[:, :na] * float(ca) if wants_a else None, g[:, na:] * float(cb) if wants_b else None

        return self._record(buffers[0], (a, b), bwd, lambda: scaled_concat(av, float(ca), bv, float(cb), buffers))

    def paired_product(self, a: int, b: int, w: int) -> int:
        """``paired_product`` of the values of ``a``, ``b`` and the weight ``w``, as one node.

        The backward pass writes the weight's gradient, one row half per
        input, straight into the array ``backprop`` hands it, if any.
        """
        av, bv, wv = self.value(a), self.value(b), self.value(w)
        out = paired_product(av, bv, wv)
        n, k = av.shape
        wa, wb, pa, pb = wv[:k], wv[k:], out[:n], out[n:]
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray, into: Sequence[np.ndarray | None] | None = None) -> tuple[np.ndarray | None, ...]:
            gw = np.empty(wv.shape) if into is None or into[2] is None else into[2]
            ga, gb = g[:n], g[n:]
            np.matmul(av.T, ga, out=gw[:k])
            np.matmul(bv.T, gb, out=gw[k:])
            return ga @ wa.T if wants_a else None, gb @ wb.T if wants_b else None, gw

        node = Node(out, (a, b, w), bwd, forward=lambda: _paired_product(av, bv, wa, wb, pa, pb),
                    writes_grads=len({a, b, w}) == 3)
        return self._append(node)

    def blend(self, p: int, ca, cb, bias: int, act: str) -> int:
        """``blend`` of the products ``p``, as one node; ``ca`` and ``cb`` are numbers or ``Coefficient`` objects.

        The backward pass sends ``ca`` and ``cb`` times the activation's
        input gradient to the two halves of ``p``, and writes the bias
        gradient straight into the array ``backprop`` hands it, if any.
        """
        pv, bv = self.value(p), self.value(bias)
        buffers: list[np.ndarray] = []
        out = blend(pv, float(ca), float(cb), bv, act, buffers)
        n = out.shape[0]
        pa, pb, scratch = pv[:n], pv[n:], buffers[1]
        wants_p = self._wants_grad(p)

        def bwd(g: np.ndarray, into: Sequence[np.ndarray | None] | None = None) -> tuple[np.ndarray | None, ...]:
            g = _activation_grad(g, out, act)
            gp = None
            if wants_p:
                gp = np.empty(pv.shape)
                np.multiply(g, float(ca), out=gp[:n])
                np.multiply(g, float(cb), out=gp[n:])
            return gp, np.add.reduce(g, axis=0, keepdims=True, out=None if into is None else into[1])

        node = Node(out, (p, bias), bwd, forward=lambda: _blend(pa, pb, float(ca), float(cb), bv, act, out, scratch),
                    writes_grads=p != bias)
        return self._append(node)

    def add(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        if av.shape != bv.shape:
            raise ShapeError(f"add: shape mismatch {av.shape} vs {bv.shape}")
        out = np.empty(av.shape)
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return g if wants_a else None, g if wants_b else None

        return self._record(out, (a, b), bwd, lambda: np.add(av, bv, out=out))

    def divide(self, x: int, c) -> int:
        """Division by a scalar constant or ``Coefficient`` (not multiplication
        by 1/c, which would round differently; x/x must be exactly 1)."""
        xv = self.value(x)
        out = np.empty(xv.shape)

        def forward() -> None:
            cv = float(c)
            if cv == 0.0:
                raise ValueError("division by zero")
            np.divide(xv, cv, out=out)

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            return (g / float(c),)

        return self._record(out, (x,), bwd, forward)

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
        out = np.empty((xv.shape[0], 1))

        def forward() -> None:
            v = np.asarray(fn(xv), dtype=np.float64).reshape(-1, 1)
            if v.shape[0] != xv.shape[0]:
                raise ShapeError("rowmap: fn must return one value per row")
            out[...] = v

        def bwd(g: np.ndarray) -> tuple[np.ndarray, ...]:
            jv = np.asarray(jac(xv), dtype=np.float64)
            if jv.shape != xv.shape:
                raise ShapeError(f"rowmap: jacobian shape {jv.shape} != {xv.shape}")
            return (g * jv,)

        return self._record(out, (x,), bwd, forward)

    # ------------------------------------------------------------------
    # reductions / losses (scalar outputs)
    # ------------------------------------------------------------------

    def mean_relu_diff(self, a: int, b: int, weights: np.ndarray | None = None) -> int:
        """(1/n) * sum_i w_i * max(a_i - b_i, 0) over single-column inputs.

        The optional 0/1 weight column gates invalid rows out of the sum while
        keeping the batch size as the denominator. A (n, 1) float64 weight
        array is read as it is on every run, so refilling it in place before a
        replay changes the gate.
        """
        av, bv = self.value(a), self.value(b)
        if av.shape != bv.shape or av.shape[1] != 1:
            raise ShapeError(f"mean_relu_diff: need matching (n,1) inputs, got {av.shape} vs {bv.shape}")
        n = av.shape[0]
        w = np.ones((n, 1)) if weights is None else as_matrix(weights, "weights")
        if w.shape != (n, 1):
            raise ShapeError(f"mean_relu_diff: weights shape {w.shape} != ({n}, 1)")
        diff, active, out = np.empty(av.shape), np.empty(av.shape, dtype=bool), np.empty((1, 1))
        wants_a, wants_b = self._wants_grad(a), self._wants_grad(b)

        def forward() -> None:
            np.subtract(av, bv, out=diff)
            np.logical_and(diff > 0.0, w != 0.0, out=active)
            out[0, 0] = float(np.sum(w * np.maximum(diff, 0.0))) / n

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            d = g[0, 0] * w * active / n
            return d if wants_a else None, -d if wants_b else None

        return self._record(out, (a, b), bwd, forward)

    def mse(self, pred: int, target: int) -> int:
        pv, tv = self.value(pred), self.value(target)
        if pv.shape != tv.shape:
            raise ShapeError(f"mse: shape mismatch {pv.shape} vs {tv.shape}")
        diff, out = np.empty(pv.shape), np.empty((1, 1))
        inv = 2.0 / diff.size
        wants_target = self._wants_grad(target)

        def forward() -> None:
            np.subtract(pv, tv, out=diff)
            out[0, 0] = float(np.mean(diff * diff))

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            d = g[0, 0] * inv * diff
            return d, -d if wants_target else None

        return self._record(out, (pred, target), bwd, forward)

    def bce(self, pred: int, target: int) -> int:
        """Mean binary cross-entropy of probabilities against 0/1 targets.

        Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; the
        gradient is zero where the clamp is active (the loss is flat there).
        """
        pv, tv = self.value(pred), self.value(target)
        if pv.shape != tv.shape:
            raise ShapeError(f"bce: shape mismatch {pv.shape} vs {tv.shape}")
        p, inside, out = np.empty(pv.shape), np.empty(pv.shape, dtype=bool), np.empty((1, 1))
        wants_target = self._wants_grad(target)

        def forward() -> None:
            np.clip(pv, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)
            np.logical_and(pv > PROB_CLAMP, pv < 1.0 - PROB_CLAMP, out=inside)
            out[0, 0] = float(np.mean(-(tv * np.log(p) + (1.0 - tv) * np.log1p(-p))))

        def bwd(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            dp = g[0, 0] * inside * (p - tv) / (p * (1.0 - p)) / pv.size
            dt = g[0, 0] * (np.log1p(-p) - np.log(p)) / pv.size if wants_target else None
            return dp, dt

        return self._record(out, (pred, target), bwd, forward)

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backprop(self, loss: int, into: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Gradient of a scalar loss node with respect to every parameter, written into ``into``.

        ``into`` maps every parameter name on the tape to an array of that
        parameter's shape (fresh ones when None); names that are not on the
        tape, and parameters with no path to the loss, get zeros. A
        parameter's first gradient is written into its array (straight from
        a dense block's kernels), and each later one added in place, which
        rounds as ``prev + pg``. Returns ``into``. A ``loss`` that is not a
        node id of the tape, and an ``into`` without an array of the right
        shape for a parameter before the loss, raise ShapeError naming it.
        """
        nodes = self.nodes
        if not 0 <= loss < len(nodes):
            raise ShapeError(f"backprop: loss {loss} is not a node of this tape of {len(nodes)} nodes")
        lv = nodes[loss].value
        if lv.shape != (1, 1):
            raise ShapeError(f"backprop: loss must be 1x1, got shape {lv.shape}")
        if into is None:
            into = {name: np.empty_like(nodes[nid].value) for name, nid in self._params.items()}
        dest: list[np.ndarray | None] = [None] * (loss + 1)  # the array a parameter's gradient lands in
        for name, nid in self._params.items():
            if nid <= loss:
                d = into.get(name)
                if not isinstance(d, np.ndarray) or d.shape != nodes[nid].value.shape:
                    got = "nothing" if d is None else f"shape {d.shape}" if isinstance(d, np.ndarray) else type(d)
                    raise ShapeError(f"backprop: into[{name!r}] must be an array of shape {nodes[nid].value.shape}, "
                                     f"got {got}")
                dest[nid] = d
        grads: list[np.ndarray | None] = [None] * (loss + 1)
        grads[loss] = np.ones((1, 1))
        for nid in range(loss, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = nodes[nid]
            if node.backward is None or not node.wants_grad:
                continue
            if node.writes_grads:
                pgs = node.backward(g, [dest[p] if grads[p] is None else None for p in node.parents])
            else:
                pgs = node.backward(g)
            # never accumulate in place into a node's own gradient: a backward closure may
            # hand the same array to two parents, or a view of its incoming gradient
            for pid, pg in zip(node.parents, pgs):
                if pg is None:  # a constant parent: nothing reads its gradient
                    continue
                prev, d = grads[pid], dest[pid]
                if d is None:
                    grads[pid] = pg if prev is None else prev + pg
                elif prev is None:
                    if pg is not d:
                        if pg.shape != d.shape:
                            name = next(k for k, v in self._params.items() if v == pid)
                            raise ShapeError(f"gradient shape {pg.shape} != parameter shape {d.shape} for {name}")
                        np.copyto(d, pg)
                    grads[pid] = d
                else:
                    np.add(d, pg, out=d)
        for name, arr in into.items():
            nid = self._params.get(name)
            if nid is None or nid > loss or grads[nid] is None:
                arr.fill(0.0)
        return into


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

    def column(self, rows: int, c) -> np.ndarray:
        return np.full((rows, 1), float(c))

    def dense(self, x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray, str]],
              label: str = "dense") -> np.ndarray:
        return dense_forward(x, layers, label, self._next())

    def scaled_concat(self, a: np.ndarray, ca: float, b: np.ndarray, cb: float) -> np.ndarray:
        return scaled_concat(a, float(ca), b, float(cb), self._next())

    def concat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.scaled_concat(a, 1.0, b, 1.0)

    def paired_product(self, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        return paired_product(a, b, w, self._next())

    def blend(self, p: np.ndarray, ca: float, cb: float, bias: np.ndarray, act: str) -> np.ndarray:
        return blend(p, float(ca), float(cb), bias, act, self._next())

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape != b.shape:
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
        return np.add(a, b, out=out_array(self._next(), 0, a.shape))
