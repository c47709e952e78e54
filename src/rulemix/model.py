"""Two-passage architecture: rule and data encoders blended by a strength knob.

The forward pass is shared layer -> (rule encoder, data encoder) ->
decision block. Under the default ``scaled_concat`` coupling the strength
``alpha`` weights the two latents, so alpha=0 routes exclusively through
the data passage and alpha=1 through the rule passage. As the first
decision layer is linear before its activation, it is computed as ``alpha *
(z_rule @ W_rule) + (1 - alpha) * (z_data @ W_data) + b``, with ``W_rule``
and ``W_data`` the two row halves of its weight: the products do not read
alpha, so ``encode`` computes them. Under the other couplings ``couple``
builds the latent the decision block reads: ``concat`` and ``add`` merge
the two latents, ``single`` builds one encoder and ignores alpha (the
baseline architecture), and ``input_concat_alpha`` feeds alpha as an extra
input feature to one width-matched encoder instead of using two passages.

The network is written once, in ``encode`` (every layer that does not read
alpha) and ``decode`` (the rest, ending at the output), against the forward
methods shared by ``autodiff.Tape`` and ``autodiff.Arrays``. ``predict``
runs both on a tape for training; over plain arrays, ``encode`` runs once
per input and ``forward_per_alpha`` runs ``decode`` on its latents once per
strength.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .autodiff import Arrays, Coefficient, Tape, as_matrix  # noqa: F401  (perfbench traces model.as_matrix)
from .errors import ShapeError

COUPLINGS = ("scaled_concat", "concat", "add", "input_concat_alpha", "single")
TASKS = ("regression", "classification")


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str = "linear"  # linear | relu | sigmoid


def dense_chain(fan_in: int, units: tuple[int, ...], final_activation: str = "linear") -> list[LayerSpec]:
    """Fully-connected stack with ReLU between layers, configurable last one."""
    layers = []
    current = fan_in
    for i, width in enumerate(units):
        act = "relu" if i < len(units) - 1 else final_activation
        layers.append(LayerSpec(current, width, act))
        current = width
    return layers


def chain_param_count(layers: Sequence[LayerSpec]) -> int:
    return sum(l.fan_in * l.fan_out + l.fan_out for l in layers)


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    output_dim: int
    task: str = "regression"
    coupling: str = "scaled_concat"
    shared_units: tuple[int, ...] = ()
    encoder_units: tuple[int, ...] = (64, 64, 64)
    decision_units: tuple[int, ...] = (64,)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if not self.encoder_units:
            raise ValueError("encoder_units must not be empty")
        for name in ("shared_units", "encoder_units", "decision_units"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name} must all be >= 1, got {list(getattr(self, name))}")

    @property
    def encoder_in(self) -> int:
        return self.shared_units[-1] if self.shared_units else self.input_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder_units[-1]

    def blocks(self) -> Mapping[str, tuple[LayerSpec, ...]]:
        """Layer specs per named block, in parameter-initialization order.

        Built once per spec (the spec is frozen) and returned read-only.
        """
        return self._blocks

    def decision_layers(self) -> tuple[LayerSpec, ...]:
        """The decision block alone, without building the encoder specs."""
        return self._decision_layers

    def param_shapes(self) -> Mapping[str, tuple[int, int]]:
        """Shape of every named parameter, in parameter-initialization order."""
        return self._param_shapes

    @cached_property
    def _blocks(self) -> Mapping[str, tuple[LayerSpec, ...]]:
        out: dict[str, tuple[LayerSpec, ...]] = {}
        if self.shared_units:
            out["shared"] = tuple(dense_chain(self.input_dim, self.shared_units))
        if self.coupling == "single":
            out["data"] = tuple(dense_chain(self.encoder_in, self.encoder_units))
        elif self.coupling == "input_concat_alpha":
            units = width_matched_units(self.encoder_in, self.encoder_units)
            out["encoder"] = tuple(dense_chain(self.encoder_in + 1, units))
        else:
            out["rule"] = tuple(dense_chain(self.encoder_in, self.encoder_units))
            out["data"] = tuple(dense_chain(self.encoder_in, self.encoder_units))
        out["decision"] = self._decision_layers
        return MappingProxyType(out)

    @cached_property
    def _decision_layers(self) -> tuple[LayerSpec, ...]:
        final = "sigmoid" if self.task == "classification" else "linear"
        fan_in = self.latent_dim if self.coupling in ("single", "add") else 2 * self.latent_dim
        return tuple(dense_chain(fan_in, self.decision_units + (self.output_dim,), final))

    @cached_property
    def _param_shapes(self) -> Mapping[str, tuple[int, int]]:
        shapes: dict[str, tuple[int, int]] = {}
        for block, layers in self._blocks.items():
            for i, layer in enumerate(layers):
                shapes[f"{block}.{i}.w"] = (layer.fan_in, layer.fan_out)
                shapes[f"{block}.{i}.b"] = (1, layer.fan_out)
        return MappingProxyType(shapes)


def width_matched_units(encoder_in: int, encoder_units: tuple[int, ...]) -> tuple[int, ...]:
    """Hidden widths for one alpha-fed encoder matching two encoders' size.

    The last width is pinned to twice the latent dim so the decision block is
    unchanged; hidden widths are scaled until the parameter count is within
    5% of the two-encoder total.
    """
    target = 2 * chain_param_count(dense_chain(encoder_in, encoder_units))
    out_width = 2 * encoder_units[-1]
    hidden = encoder_units[:-1]
    best: tuple[int, ...] | None = None
    best_gap = math.inf
    for step in range(50, 401):
        s = step / 100.0
        units = tuple(max(1, round(s * w)) for w in hidden) + (out_width,)
        count = chain_param_count(dense_chain(encoder_in + 1, units))
        gap = abs(count / target - 1.0)
        if gap < best_gap:
            best, best_gap = units, gap
    if best is None or best_gap > 0.05:
        raise ValueError(f"cannot match parameter count within 5% (best gap {best_gap:.3f})")
    return best


def init_params(spec: ModelSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform fan-in-scaled init, U(-1/sqrt(fan_in), 1/sqrt(fan_in)), in layout order."""
    params = {}
    for block, layers in spec.blocks().items():
        for i, layer in enumerate(layers):
            bound = 1.0 / math.sqrt(layer.fan_in)
            params[f"{block}.{i}.w"] = rng.uniform(-bound, bound, size=(layer.fan_in, layer.fan_out))
            params[f"{block}.{i}.b"] = rng.uniform(-bound, bound, size=(1, layer.fan_out))
    check_params(spec, params)
    return params


def check_params(spec: ModelSpec, params: dict[str, np.ndarray]) -> None:
    """Require exactly the spec's parameters, each a finite float64 matrix.

    Parameters are validated where they enter: here at init and at load,
    and by ``adam_update`` after each step, not on every tape leaf.
    """
    shapes = spec.param_shapes()
    if params.keys() != shapes.keys():
        missing = sorted(shapes.keys() - params.keys())
        extra = sorted(params.keys() - shapes.keys())
        raise ShapeError(f"parameters do not match the model: missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        value = params[name]
        if value.dtype != np.float64 or value.shape != shape:
            raise ShapeError(f"{name}: expected float64 of shape {shape}, got {value.dtype} of shape {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name}: non-finite entries rejected")


def mlp_forward(
    ops: Tape | Arrays,
    layers: Sequence[LayerSpec],
    params: dict[str, np.ndarray],
    block: str,
    x: int | np.ndarray,
    start: int = 0,
) -> int | np.ndarray:
    """Run one block, its layers numbered from ``start``, through ``ops.dense``.

    Raises ShapeError naming the failing layer.
    """
    dense = []
    for i, layer in enumerate(layers, start):
        w, b = f"{block}.{i}.w", f"{block}.{i}.b"
        dense.append((ops.param(w, params[w]), ops.param(b, params[b]), layer.activation))
    return ops.dense(x, dense, block)


def _strength(alpha: float | Coefficient) -> float | Coefficient:
    """``alpha`` as a float, or as it is if it is a ``Coefficient`` a recorded step refills; finite either way."""
    value = float(alpha)
    if not math.isfinite(value):
        raise ValueError("rule strength must be finite")
    return alpha if isinstance(alpha, Coefficient) else value


def encoders(ops: Tape | Arrays, spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray | int) -> tuple:
    """The shared block and the passages' encoders, as the spec lays them out.

    Returns (z_rule, z_data) for two passages, (z,) for ``single``, and the
    shared block's output (or the input), as (h,), for ``input_concat_alpha``,
    whose one encoder reads alpha.
    """
    blocks = spec.blocks()
    x = x if isinstance(x, int) else ops.constant(x, "input")
    if ops.value(x).shape[1] != spec.input_dim:
        raise ShapeError(f"input has {ops.value(x).shape[1]} columns, model expects {spec.input_dim}")
    h = mlp_forward(ops, blocks["shared"], params, "shared", x) if "shared" in blocks else x
    passages = [name for name in ("rule", "data") if name in blocks]
    return tuple(mlp_forward(ops, blocks[name], params, name, h) for name in passages) if passages else (h,)


def encode(ops: Tape | Arrays, spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray | int) -> tuple:
    """Every layer that does not read alpha: ``encoders``, and under ``scaled_concat`` the products after them.

    Returns what ``encoders`` returns, except under ``scaled_concat``:
    (products,), where ``products`` is ``paired_product(z_rule, z_data,
    decision.0.w)``, each latent times its own rows of the first decision
    layer's weight. That is all ``decode`` reads, so an encoding over
    ``Arrays`` holds the products, not the latents.
    """
    latents = encoders(ops, spec, params, x)
    if spec.coupling != "scaled_concat":
        return latents
    return (ops.paired_product(*latents, ops.param("decision.0.w", params["decision.0.w"])),)


def couple(ops: Tape | Arrays, spec: ModelSpec, params: dict[str, np.ndarray], latents: tuple,
           alpha: float | Coefficient) -> int | np.ndarray:
    """What the decision block reads, built from what ``encoders`` returned, under every coupling.

    The alpha-fed encoder under ``input_concat_alpha``, the one latent under
    ``single``, and the merge of the two latents otherwise. ``decode`` calls
    this under every coupling but ``scaled_concat``, whose first decision
    layer blends the latents' products instead.
    """
    if spec.coupling == "input_concat_alpha":
        (h,) = latents
        alpha_col = ops.column(ops.value(h).shape[0], alpha)
        return mlp_forward(ops, spec.blocks()["encoder"], params, "encoder", ops.concat(h, alpha_col))
    if spec.coupling == "single":
        (z,) = latents
        return z
    z_rule, z_data = latents
    zr, zd = ops.value(z_rule), ops.value(z_data)
    if zr.shape != zd.shape:
        raise ShapeError(f"couple: latent shapes differ, {zr.shape} vs {zd.shape}")
    if spec.coupling == "scaled_concat":
        return ops.scaled_concat(z_rule, alpha, z_data, 1.0 - alpha)
    if spec.coupling == "concat":
        return ops.concat(z_rule, z_data)
    return ops.add(z_rule, z_data)


def decode(ops: Tape | Arrays, spec: ModelSpec, params: dict[str, np.ndarray], latents: tuple,
           alpha: float | Coefficient) -> int | np.ndarray:
    """The layers after ``encode``, ending at the output: ``couple``, then the decision block.

    Under ``scaled_concat`` the strength enters after the products: the first
    decision layer is ``blend(products, alpha, 1 - alpha, decision.0.b)``,
    which equals that layer over ``couple``'s ``scaled_concat(z_rule, alpha,
    z_data, 1 - alpha)`` up to rounding, and costs a few passes over its
    output rather than a matrix product.

    On a tape, ``alpha`` may be a ``Coefficient``: every op that reads it
    reads it anew when the tape replays.
    """
    alpha = _strength(alpha)
    if spec.coupling != "scaled_concat":
        return mlp_forward(ops, spec.decision_layers(), params, "decision", couple(ops, spec, params, latents, alpha))
    (products,) = latents
    first, *rest = spec.decision_layers()
    bias = ops.param("decision.0.b", params["decision.0.b"])
    y = ops.blend(products, alpha, 1.0 - alpha, bias, first.activation)
    return mlp_forward(ops, rest, params, "decision", y, start=1) if rest else y


def predict(
    tape: Tape,
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray | int,
    alpha: float | Coefficient,
) -> int:
    """Full forward pass recorded on the tape; returns the output's node id."""
    return decode(tape, spec, params, encode(tape, spec, params, x), alpha)


def forward_per_alpha(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    latents: tuple,
    alphas: Iterable[float],
) -> Iterator[np.ndarray]:
    """The output at each strength in turn, with no tape.

    ``latents`` is what ``encode(Arrays(), spec, params, x)`` returned for
    an input ``x``, an encoding that kept only the layer being computed of
    each block; ``decode`` runs on it per strength. Both are ``predict``'s
    own functions, run over ``Arrays``, so the outputs equal those of
    ``predict`` bit for bit. Under ``scaled_concat`` the encoding holds the
    first decision layer's products, so a strength costs that layer's blend
    and the decision layers after it.

    Each strength writes into the arrays of the strength before it: read
    (or copy) a strength's output before advancing. The latents and the
    parameters are never written.
    """
    buffers: list[list[np.ndarray]] = []
    for alpha in alphas:
        yield decode(Arrays(buffers), spec, params, latents, alpha)


def predict_values(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Inference-only forward pass; the model is never mutated."""
    tape = Tape()
    return tape.value(predict(tape, spec, params, x, alpha))
