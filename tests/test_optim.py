"""Adam optimizer behavior."""

import numpy as np
import pytest

from helpers import ReferenceAdamState, reference_adam_update
from rulemix.errors import TrainingAborted
from rulemix.optim import AdamState, adam_update, param_views


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"w": rng.uniform(-1, 1, (3, 2)), "b": rng.uniform(-1, 1, (1, 2))}


def test_zero_gradients_leave_params_unchanged():
    params = make_params()
    state = AdamState.for_params(params, lr=0.01)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    updated = adam_update(state, params, grads)
    for k in params:
        np.testing.assert_array_equal(updated[k], params[k])
    assert state.step == 1


def test_first_step_magnitude_is_learning_rate():
    # with m_hat = g and v_hat = g^2 the first update is lr * g / (|g| + eps)
    params = {"w": np.array([[1.0, -2.0]])}
    state = AdamState.for_params(params, lr=0.001)
    grads = {"w": np.array([[0.3, -0.7]])}
    updated = adam_update(state, params, grads)
    step = params["w"] - updated["w"]
    np.testing.assert_allclose(np.abs(step), 0.001, rtol=1e-6)
    np.testing.assert_array_equal(np.sign(step), np.sign(grads["w"]))


def test_identical_runs_are_bit_identical():
    def run():
        params = make_params(7)
        state = AdamState.for_params(params, lr=0.002)
        rng = np.random.default_rng(42)
        for _ in range(25):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            params = adam_update(state, params, grads)
        return params

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_non_finite_gradient_aborts():
    params = make_params()
    state = AdamState.for_params(params)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["w"][0, 0] = np.nan
    with pytest.raises(TrainingAborted, match="non-finite gradient for parameter w at step 1"):
        adam_update(state, params, grads)
    grads["w"][0, 0] = 0.0
    grads["b"][0, 1] = -np.inf
    with pytest.raises(TrainingAborted, match="non-finite gradient for parameter b at step 2"):
        adam_update(state, params, grads)


def test_non_finite_parameter_after_step_aborts():
    params = make_params()
    params["b"] = params["b"].copy()
    params["b"][0, 0] = np.inf
    state = AdamState.for_params(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    with pytest.raises(TrainingAborted, match="non-finite parameter b after step 1"):
        adam_update(state, params, grads)


def test_gradient_shape_mismatch_aborts():
    params = make_params()
    state = AdamState.for_params(params)
    grads = {"w": np.zeros((2, 3)), "b": np.zeros((1, 2))}
    with pytest.raises(TrainingAborted, match="gradient shape"):
        adam_update(state, params, grads)


def test_equals_per_array_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    params = {
        "w": rng.uniform(-1, 1, (3, 2)),
        "b": rng.uniform(-1, 1, (1, 2)),
        "s": rng.uniform(-1, 1, (1, 1)),
    }
    flat_state = AdamState.for_params(params, lr=0.003)
    ref_state = ReferenceAdamState.for_params(params, lr=0.003)
    flat = ref = params
    for _ in range(25):
        # gradients over many magnitudes, including exact zeros
        grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 4, v.shape) for k, v in params.items()}
        grads["s"][0, 0] = 0.0 if rng.random() < 0.3 else grads["s"][0, 0]
        flat = adam_update(flat_state, flat, grads)
        ref = reference_adam_update(ref_state, ref, grads)
        assert list(flat) == list(ref)
        m = param_views(flat_state.m, flat_state.shapes)
        v = param_views(flat_state.v, flat_state.shapes)
        for k in ref:
            assert flat[k].shape == ref[k].shape
            assert flat[k].tobytes() == ref[k].tobytes(), k
            assert m[k].tobytes() == ref_state.m[k].tobytes()
            assert v[k].tobytes() == ref_state.v[k].tobytes()
        assert flat_state.step == ref_state.step


def test_inputs_are_not_modified_and_result_is_one_vector():
    params = make_params(5)
    grads = {k: np.full_like(v, 0.25) for k, v in params.items()}
    kept_params = {k: v.copy() for k, v in params.items()}
    kept_grads = {k: v.copy() for k, v in grads.items()}
    state = AdamState.for_params(params)
    updated = adam_update(state, params, grads)
    for k in params:
        assert np.array_equal(params[k], kept_params[k])
        assert np.array_equal(grads[k], kept_grads[k])
        assert not np.shares_memory(updated[k], params[k])
    base = updated["w"].base
    assert base is not None and base.ndim == 1 and base.size == 8
    assert all(v.base is base for v in updated.values())


def test_step_counter_strictly_increases():
    params = make_params()
    state = AdamState.for_params(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    for expected in (1, 2, 3):
        adam_update(state, params, grads)
        assert state.step == expected
