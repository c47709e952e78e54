"""Two-passage architecture: rule and data encoders blended by a strength knob.

The forward pass is shared-layer -> (rule encoder, data encoder) -> couple ->
decision block. Under the default ``scaled_concat`` coupling the latent
blocks are weighted by the rule strength ``alpha`` before concatenation, so
alpha=0 routes exclusively through the data passage and alpha=1 through the
rule passage. ``single`` builds one encoder and ignores alpha (the baseline
architecture); ``input_concat_alpha`` feeds alpha as an extra input feature
to one width-matched encoder instead of using two passages.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .autodiff import Tape, as_matrix, dense_forward, out_array, scaled_concat
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
    tape: Tape,
    layers: Sequence[LayerSpec],
    params: dict[str, np.ndarray],
    block: str,
    x: int,
) -> int:
    """Run one block on the tape as one node; raises ShapeError naming the failing layer."""
    dense = []
    for i, layer in enumerate(layers):
        w, b = f"{block}.{i}.w", f"{block}.{i}.b"
        dense.append((tape.param(w, params[w]), tape.param(b, params[b]), layer.activation))
    return tape.dense(x, dense, block)


def _block_values(
    layers: Sequence[LayerSpec],
    params: dict[str, np.ndarray],
    block: str,
    h: np.ndarray,
    buffers: dict[str, list[np.ndarray]] | None,
) -> np.ndarray:
    """``mlp_forward``'s arithmetic with no tape, through ``buffers[block]`` when given."""
    dense = [(params[f"{block}.{i}.w"], params[f"{block}.{i}.b"], layer.activation) for i, layer in enumerate(layers)]
    return dense_forward(h, dense, block, None if buffers is None else buffers.setdefault(block, []))


def _check_latents(z_rule: np.ndarray, z_data: np.ndarray) -> None:
    if z_rule.shape != z_data.shape:
        raise ShapeError(f"couple: latent shapes differ, {z_rule.shape} vs {z_data.shape}")


def couple(tape: Tape, z_rule: int, z_data: int, alpha: float, mode: str) -> int:
    """Merge the two latent blocks; only scaled_concat consumes alpha."""
    _check_latents(tape.value(z_rule), tape.value(z_data))
    if mode == "scaled_concat":
        return tape.scaled_concat(z_rule, alpha, z_data, 1.0 - alpha)
    if mode == "concat":
        return tape.concat(z_rule, z_data)
    if mode == "add":
        return tape.add(z_rule, z_data)
    raise ValueError(f"unknown coupling {mode!r}")


def _couple_values(z_rule: np.ndarray, z_data: np.ndarray, alpha: float, mode: str, buffers: list[np.ndarray]):
    """``couple``'s arithmetic with no tape, written into ``buffers[0]``."""
    _check_latents(z_rule, z_data)
    if mode == "scaled_concat":
        return scaled_concat(z_rule, alpha, z_data, 1.0 - alpha, buffers)
    if mode == "concat":
        return scaled_concat(z_rule, 1.0, z_data, 1.0, buffers)
    if mode == "add":
        return np.add(z_rule, z_data, out=out_array(buffers, 0, z_rule.shape))
    raise ValueError(f"unknown coupling {mode!r}")


@dataclass
class Forward:
    """Node ids of one recorded prediction pass."""

    output: int
    latent: int
    z_rule: int | None = None
    z_data: int | None = None


@dataclass
class Inference:
    """Arrays of one inference pass, the fields of ``Forward``."""

    output: np.ndarray
    latent: np.ndarray
    z_rule: np.ndarray | None = None
    z_data: np.ndarray | None = None


def _strength(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("rule strength must be finite")
    return alpha


def _check_input(spec: ModelSpec, x: np.ndarray) -> None:
    if x.shape[1] != spec.input_dim:
        raise ShapeError(f"input has {x.shape[1]} columns, model expects {spec.input_dim}")


def predict(
    tape: Tape,
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray | int,
    alpha: float,
) -> Forward:
    """Full forward pass recorded on the tape; returns output/latent node ids.

    Only the ``input_concat_alpha`` encoder and the ``scaled_concat``
    coupling read ``alpha``.
    """
    alpha = _strength(alpha)
    blocks = spec.blocks()
    x_id = x if isinstance(x, int) else tape.constant(x, "input")
    _check_input(spec, tape.value(x_id))
    h = mlp_forward(tape, blocks["shared"], params, "shared", x_id) if "shared" in blocks else x_id
    z_rule = z_data = None
    if spec.coupling == "single":
        z = mlp_forward(tape, blocks["data"], params, "data", h)
    elif spec.coupling == "input_concat_alpha":
        alpha_col = tape.constant(np.full((tape.value(h).shape[0], 1), alpha), "alpha")
        z = mlp_forward(tape, blocks["encoder"], params, "encoder", tape.concat(h, alpha_col))
    else:
        z_rule = mlp_forward(tape, blocks["rule"], params, "rule", h)
        z_data = mlp_forward(tape, blocks["data"], params, "data", h)
        z = couple(tape, z_rule, z_data, alpha, spec.coupling)
    y = mlp_forward(tape, spec.decision_layers(), params, "decision", z)
    return Forward(output=y, latent=z, z_rule=z_rule, z_data=z_data)


def _encode_values(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    alpha: float | None,
    buffers: dict[str, list[np.ndarray]] | None,
) -> tuple[np.ndarray, ...]:
    """``predict``'s shared block and encoders with no tape, on an input that ``as_matrix`` checked.

    Returns (z_rule, z_data), or (z,) for one passage.
    """
    blocks = spec.blocks()
    h = _block_values(blocks["shared"], params, "shared", x, buffers) if "shared" in blocks else x
    if spec.coupling == "single":
        return (_block_values(blocks["data"], params, "data", h, buffers),)
    if spec.coupling == "input_concat_alpha":
        alpha_col = np.full((h.shape[0], 1), _strength(alpha))
        h = scaled_concat(h, 1.0, alpha_col, 1.0, None if buffers is None else buffers.setdefault("alpha", []))
        return (_block_values(blocks["encoder"], params, "encoder", h, buffers),)
    return (
        _block_values(blocks["rule"], params, "rule", h, buffers),
        _block_values(blocks["data"], params, "data", h, buffers),
    )


def _decode_values(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    latents: tuple[np.ndarray, ...],
    alpha: float,
    buffers: dict[str, list[np.ndarray]],
) -> Inference:
    """``predict``'s coupling and decision block with no tape, over ``_encode_values``'s latents."""
    alpha = _strength(alpha)
    z_rule = z_data = None
    if len(latents) == 1:
        z = latents[0]
    else:
        z_rule, z_data = latents
        z = _couple_values(z_rule, z_data, alpha, spec.coupling, buffers.setdefault("couple", []))
    y = _block_values(spec.decision_layers(), params, "decision", z, buffers)
    return Inference(output=y, latent=z, z_rule=z_rule, z_data=z_data)


def forward_per_alpha(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    alphas: Iterable[float],
) -> Iterator[Inference]:
    """Inference passes at each strength in turn, with no tape.

    The encoding is computed once and only the decode step reruns per
    strength, except under ``input_concat_alpha``, whose encoder reads alpha.
    Every block runs through ``autodiff.dense_forward`` and the coupling
    through ``autodiff.scaled_concat``, as on ``predict``'s tape, so the
    outputs equal those of ``predict`` bit for bit. An encoding that runs
    once keeps only the layer being computed, and only the latents outlive it.

    Each strength writes into the arrays of the strength before it: read
    (or copy) a strength's arrays before advancing. The input and the
    parameters are never written.
    """
    x = as_matrix(x, "input")
    _check_input(spec, x)
    buffers: dict[str, list[np.ndarray]] = {}
    if spec.coupling == "input_concat_alpha":
        for alpha in alphas:
            yield _decode_values(spec, params, _encode_values(spec, params, x, alpha, buffers), alpha, buffers)
        return
    latents = _encode_values(spec, params, x, None, None)
    for alpha in alphas:
        yield _decode_values(spec, params, latents, alpha, buffers)


def predict_values(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Inference-only forward pass; the model is never mutated."""
    tape = Tape()
    return tape.value(predict(tape, spec, params, x, alpha).output)
