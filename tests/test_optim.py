"""Adam optimizer behavior."""

import numpy as np
import pytest

from helpers import ReferenceAdamState, reference_adam_update, set_grads
from rulemix.autodiff import Node, Tape
from rulemix.errors import ShapeError, TrainingAborted
from rulemix.model import ModelSpec, init_params
from rulemix.optim import AdamState, adam_update
from rulemix.train import train_step


def update(state, grads):
    """One Adam step from ``grads``, written where ``Tape.backprop`` writes them."""
    set_grads(state, grads)
    adam_update(state)


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"w": rng.uniform(-1, 1, (3, 2)), "b": rng.uniform(-1, 1, (1, 2))}


def test_zero_gradients_leave_params_unchanged():
    params = make_params()
    state = AdamState.for_params(params, lr=0.01)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    update(state, grads)
    for k in params:
        np.testing.assert_array_equal(state.params[k], params[k])
    assert state.step == 1


def test_first_step_magnitude_is_learning_rate():
    # with m_hat = g and v_hat = g^2 the first update is lr * g / (|g| + eps)
    params = {"w": np.array([[1.0, -2.0]])}
    state = AdamState.for_params(params, lr=0.001)
    grads = {"w": np.array([[0.3, -0.7]])}
    update(state, grads)
    step = params["w"] - state.params["w"]
    np.testing.assert_allclose(np.abs(step), 0.001, rtol=1e-6)
    np.testing.assert_array_equal(np.sign(step), np.sign(grads["w"]))


def test_identical_runs_are_bit_identical():
    def run():
        params = make_params(7)
        state = AdamState.for_params(params, lr=0.002)
        rng = np.random.default_rng(42)
        for _ in range(25):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            update(state, grads)
        return state.params

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_non_finite_gradient_aborts():
    params = make_params()
    state = AdamState.for_params(params)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["w"][0, 0] = np.nan
    with pytest.raises(TrainingAborted, match="non-finite gradient for parameter w at step 1"):
        update(state, grads)
    grads["w"][0, 0] = 0.0
    grads["b"][0, 1] = -np.inf
    with pytest.raises(TrainingAborted, match="non-finite gradient for parameter b at step 2"):
        update(state, grads)


def test_non_finite_parameter_after_step_aborts():
    params = make_params()
    params["b"] = params["b"].copy()
    params["b"][0, 0] = np.inf
    state = AdamState.for_params(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    with pytest.raises(TrainingAborted, match="non-finite parameter b after step 1"):
        update(state, grads)


def test_gradient_shape_mismatch_aborts():
    # gradients reach the state through backprop, which refuses one that does not fit its parameter
    params = make_params()
    state = AdamState.for_params(params)
    tape = Tape()
    w = tape.param("w", state.params["w"])
    tape.param("b", state.params["b"])
    loss = tape._append(Node(np.zeros((1, 1)), (w,), lambda g: (np.zeros((2, 3)),), wants_grad=True))
    with pytest.raises(ShapeError, match=r"^gradient shape \(2, 3\) != parameter shape \(3, 2\) for w$"):
        tape.backprop(loss, state.grads)
    assert state.step == 0


def test_equals_per_array_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    params = {
        "w": rng.uniform(-1, 1, (3, 2)),
        "b": rng.uniform(-1, 1, (1, 2)),
        "s": rng.uniform(-1, 1, (1, 1)),
    }
    flat_state = AdamState.for_params(params, lr=0.003)
    ref_state = ReferenceAdamState.for_params(params, lr=0.003)
    for _ in range(25):
        # gradients over many magnitudes, including exact zeros
        grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 4, v.shape) for k, v in params.items()}
        grads["s"][0, 0] = 0.0 if rng.random() < 0.3 else grads["s"][0, 0]
        update(flat_state, grads)
        set_grads(ref_state, grads)
        reference_adam_update(ref_state)
        flat, ref = flat_state.params, ref_state.params
        assert list(flat) == list(ref)
        for k in ref:
            assert flat[k].shape == ref[k].shape
            assert flat[k].tobytes() == ref[k].tobytes(), k
        assert flat_state.m.tobytes() == np.concatenate(list(ref_state.m.values()), axis=None).tobytes()
        assert flat_state.v.tobytes() == np.concatenate(list(ref_state.v.values()), axis=None).tobytes()
        assert flat_state.step == ref_state.step


def test_params_are_views_of_one_vector_that_steps_in_place():
    # the shapes and order of a model's parameters, from several blocks
    spec = ModelSpec(input_dim=4, output_dim=4, shared_units=(6,), encoder_units=(8, 6), decision_units=(8,))
    params = init_params(spec, np.random.default_rng(5))
    kept = {k: v.copy() for k, v in params.items()}
    x, y = np.random.default_rng(6).uniform(-1, 1, (2, 16, 4))
    state = AdamState.for_params(params)
    theta, views = state.theta, dict(state.params)
    assert theta.ndim == 1 and theta.flags.c_contiguous and theta.size == sum(v.size for v in params.values())
    for steps in (0, 2):
        if steps:
            train_step(spec, state, x, y, None, "task_only", 0.0, None)
            update(state, {k: np.full_like(v, 0.25) for k, v in params.items()})
        assert state.step == steps and state.theta is theta and list(state.params) == list(spec.param_shapes())
        offset = 0
        for name, shape in spec.param_shapes().items():
            view = state.params[name]
            assert view is views[name] and view.base is theta and view.shape == shape
            assert view.ctypes.data == theta[offset:].ctypes.data
            offset += view.size
            assert not np.shares_memory(params[name], theta)
            assert np.array_equal(params[name], kept[name])
    assert not np.array_equal(theta, np.concatenate(list(kept.values()), axis=None))


def test_step_counter_strictly_increases():
    params = make_params()
    state = AdamState.for_params(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    for expected in (1, 2, 3):
        update(state, grads)
        assert state.step == expected
