"""Two-passage architecture: coupling semantics, gating, and variants."""

import numpy as np
import pytest

from helpers import concatenated_predict, tiny_model
from rulemix.autodiff import Tape
from rulemix.errors import ShapeError
from rulemix.model import (
    ModelSpec,
    chain_param_count,
    check_params,
    couple,
    dense_chain,
    encoders,
    init_params,
    mlp_forward,
    predict,
    predict_values,
    width_matched_units,
)


class TestCouple:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.zr = rng.uniform(-1, 1, (3, 4))
        self.zd = rng.uniform(-1, 1, (3, 4))

    def run_couple(self, alpha, coupling):
        spec = ModelSpec(input_dim=2, output_dim=1, coupling=coupling, encoder_units=(4,))
        tape = Tape()
        out = couple(tape, spec, {}, (tape.constant(self.zr), tape.constant(self.zd)), alpha)
        return tape.value(out)

    def test_alpha_zero_zeroes_rule_half(self):
        out = self.run_couple(0.0, "scaled_concat")
        np.testing.assert_array_equal(out[:, :4], np.zeros((3, 4)))
        np.testing.assert_array_equal(out[:, 4:], self.zd)

    def test_alpha_one_zeroes_data_half(self):
        out = self.run_couple(1.0, "scaled_concat")
        np.testing.assert_array_equal(out[:, :4], self.zr)
        np.testing.assert_array_equal(out[:, 4:], np.zeros((3, 4)))

    def test_alpha_half_scales_both_sides_symmetrically(self):
        self.zd = self.zr.copy()
        out = self.run_couple(0.5, "scaled_concat")
        np.testing.assert_allclose(out[:, :4], 0.5 * self.zr, rtol=1e-15)
        np.testing.assert_allclose(out[:, 4:], 0.5 * self.zr, rtol=1e-15)

    def test_concat_and_add_ignore_alpha(self):
        for coupling in ("concat", "add"):
            a = self.run_couple(0.1, coupling)
            b = self.run_couple(0.9, coupling)
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        spec = ModelSpec(input_dim=2, output_dim=1, coupling="add", encoder_units=(4,))
        tape = Tape()
        with pytest.raises(ShapeError):
            couple(tape, spec, {}, (tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 4)))), 0.5)

    def test_single_passes_its_latent_through_and_the_alpha_fed_encoder_reads_alpha_as_a_column(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec(input_dim=4, output_dim=1, coupling="single", encoder_units=(4,))
        tape = Tape()
        z = tape.constant(self.zr)
        assert couple(tape, spec, {}, (z,), 0.3) == z
        spec = ModelSpec(input_dim=4, output_dim=1, coupling="input_concat_alpha", encoder_units=(6, 4))
        params = init_params(spec, rng)
        tape = Tape()
        got = tape.value(couple(tape, spec, params, (tape.constant(self.zr),), 0.3))
        with_alpha = np.hstack([self.zr, np.full((3, 1), 0.3)])
        want = tape.value(mlp_forward(tape, spec.blocks()["encoder"], params, "encoder", tape.constant(with_alpha)))
        np.testing.assert_array_equal(got, want)


class TestPredict:
    def test_paper_scale_pendulum_config_shapes(self):
        spec = ModelSpec(
            input_dim=4,
            output_dim=4,
            shared_units=(64, 16),
            encoder_units=(64, 64, 64),
            decision_units=(64,),
        )
        params = init_params(spec, np.random.default_rng(0))
        out = predict_values(spec, params, np.random.default_rng(1).uniform(-1, 1, (7, 4)), 0.3)
        assert out.shape == (7, 4)

    def test_gating_zeroes_rule_gradients_at_alpha_zero(self):
        rng = np.random.default_rng(2)
        spec, params = tiny_model(rng)
        x = rng.uniform(-1, 1, (6, 4))
        y = rng.uniform(-1, 1, (6, 4))
        tape = Tape()
        out = predict(tape, spec, params, x, 0.0)
        grads = tape.backprop(tape.mse(out, tape.constant(y)))
        for name, g in grads.items():
            if name.startswith("rule."):
                assert np.all(g == 0.0), name
            elif name.startswith("data."):
                assert np.any(g != 0.0), name

    @pytest.mark.parametrize("shared_units, wanted", [((), False), ((5,), True)])
    def test_alpha_fed_encoder_takes_a_gradient_towards_its_input_only_through_a_shared_block(
        self, shared_units, wanted
    ):
        # the encoder reads concat(h, alpha column); with no shared block h is the input, so
        # no parameter reaches the concat and the encoder's backward computes nothing towards it
        rng = np.random.default_rng(4)
        spec = ModelSpec(input_dim=3, output_dim=2, coupling="input_concat_alpha", shared_units=shared_units,
                         encoder_units=(6, 4), decision_units=(5,))
        params = init_params(spec, rng)
        tape = Tape()
        z = couple(tape, spec, params, encoders(tape, spec, params, rng.uniform(-1, 1, (7, 3))), 0.3)
        encoder = tape.nodes[z]
        towards_input, *towards_params = encoder.backward(np.ones_like(tape.value(z)))
        assert (towards_input is not None) == wanted == tape.nodes[encoder.parents[0]].wants_grad
        assert len(towards_params) == 2 * len(spec.blocks()["encoder"])
        assert all(g is not None for g in towards_params)

    def test_gating_zeroes_data_gradients_at_alpha_one(self):
        rng = np.random.default_rng(3)
        spec, params = tiny_model(rng)
        x = rng.uniform(-1, 1, (6, 4))
        y = rng.uniform(-1, 1, (6, 4))
        tape = Tape()
        out = predict(tape, spec, params, x, 1.0)
        grads = tape.backprop(tape.mse(out, tape.constant(y)))
        for name, g in grads.items():
            if name.startswith("data."):
                assert np.all(g == 0.0), name
            elif name.startswith("rule."):
                assert np.any(g != 0.0), name

    def test_predictions_continuous_in_strength_on_extended_range(self):
        rng = np.random.default_rng(4)
        spec, params = tiny_model(rng)
        x = rng.uniform(-1, 1, (5, 4))
        grids = {
            0.05: np.arange(-0.2, 1.4001, 0.05),
            0.025: np.arange(-0.2, 1.4001, 0.025),
        }
        jumps = {}
        for step, grid in grids.items():
            outs = np.stack([predict_values(spec, params, x, a) for a in grid])
            jumps[step] = np.max(np.abs(np.diff(outs, axis=0)))
        assert jumps[0.05] < 1.0
        # halving the grid step roughly halves the largest adjacent jump
        assert jumps[0.025] < 0.75 * jumps[0.05]

    def test_concat_and_add_models_are_strength_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (5, 4))
        for mode in ("concat", "add"):
            spec, params = tiny_model(rng, coupling=mode)
            outs = [predict_values(spec, params, x, a) for a in (-0.2, 0.0, 0.5, 1.0, 1.4)]
            for other in outs[1:]:
                np.testing.assert_array_equal(outs[0], other)

    def test_single_path_ignores_strength(self):
        rng = np.random.default_rng(6)
        spec, params = tiny_model(rng, coupling="single")
        x = rng.uniform(-1, 1, (5, 4))
        np.testing.assert_array_equal(
            predict_values(spec, params, x, 0.0), predict_values(spec, params, x, 1.0)
        )

    def test_alpha_fed_encoder_responds_to_strength(self):
        rng = np.random.default_rng(7)
        spec, params = tiny_model(rng, coupling="input_concat_alpha")
        x = rng.uniform(-1, 1, (5, 4))
        a = predict_values(spec, params, x, 0.0)
        b = predict_values(spec, params, x, 1.0)
        assert np.any(a != b)

    def test_classification_outputs_probabilities(self):
        rng = np.random.default_rng(8)
        spec, params = tiny_model(rng, output_dim=1, task="classification")
        out = predict_values(spec, params, rng.uniform(-1, 1, (20, 4)), 0.5)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_non_finite_strength_rejected(self):
        rng = np.random.default_rng(9)
        spec, params = tiny_model(rng)
        with pytest.raises(ValueError, match="finite"):
            predict_values(spec, params, np.zeros((1, 4)), float("nan"))

    def test_input_dimension_check(self):
        rng = np.random.default_rng(10)
        spec, params = tiny_model(rng)
        with pytest.raises(ShapeError):
            predict_values(spec, params, np.zeros((2, 5)), 0.5)


class TestAlphaFedSizing:
    def test_parameter_parity_within_five_percent(self):
        for encoder_in, units in [(16, (64, 64, 64)), (5, (64, 64, 16)), (19, (100, 16)), (4, (8, 6))]:
            matched = width_matched_units(encoder_in, units)
            assert matched[-1] == 2 * units[-1]
            two = 2 * chain_param_count(dense_chain(encoder_in, units))
            one = chain_param_count(dense_chain(encoder_in + 1, matched))
            assert abs(one / two - 1.0) <= 0.05, (encoder_in, units, matched)


class TestInit:
    def test_same_seed_same_params(self):
        spec = ModelSpec(input_dim=4, output_dim=4)
        a = init_params(spec, np.random.default_rng(42))
        b = init_params(spec, np.random.default_rng(42))
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_bounds_scale_with_fan_in(self):
        spec = ModelSpec(input_dim=100, output_dim=2, encoder_units=(64,), decision_units=())
        params = init_params(spec, np.random.default_rng(0))
        assert np.max(np.abs(params["rule.0.w"])) <= 1.0 / 10.0

    def test_flat_init_draws_the_same_numbers_as_per_array_draws(self):
        spec = ModelSpec(input_dim=4, output_dim=4, shared_units=(6,), encoder_units=(8, 6), decision_units=(8,))
        params = init_params(spec, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for name, (fan_in, fan_out) in ((n, s) for n, s in spec.param_shapes().items() if n.endswith(".w")):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.array_equal(params[name], rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            bias = name[:-1] + "b"
            assert np.array_equal(params[bias], rng.uniform(-bound, bound, size=(1, fan_out)))


class TestSpecLayout:
    def test_blocks_are_built_once_and_read_only(self):
        spec = ModelSpec(input_dim=4, output_dim=4, coupling="input_concat_alpha", encoder_units=(8, 6))
        assert spec.blocks() is spec.blocks()
        assert spec.decision_layers() is spec.blocks()["decision"]
        with pytest.raises(TypeError):
            spec.blocks()["decision"] = ()
        assert spec == ModelSpec(input_dim=4, output_dim=4, coupling="input_concat_alpha", encoder_units=(8, 6))

    def test_check_params_accepts_init_and_rejects_bad_entries(self):
        spec = ModelSpec(input_dim=4, output_dim=4, encoder_units=(8, 6), decision_units=(8,))
        params = init_params(spec, np.random.default_rng(0))
        check_params(spec, params)
        with pytest.raises(ShapeError, match="missing"):
            check_params(spec, {k: v for k, v in params.items() if k != "rule.1.b"})
        with pytest.raises(ShapeError, match="rule.0.w"):
            check_params(spec, {**params, "rule.0.w": params["rule.0.w"].T})
        with pytest.raises(ShapeError, match="rule.0.w"):
            check_params(spec, {**params, "rule.0.w": params["rule.0.w"].astype(np.float32)})
        bad = params["data.1.b"].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="data.1.b: non-finite"):
            check_params(spec, {**params, "data.1.b": bad})


# scaled_concat models that the first decision layer's split must leave the same function
ORACLE_SPECS = {
    "no hidden decision layer, sigmoid output": ModelSpec(
        input_dim=3, output_dim=1, task="classification", encoder_units=(6, 4), decision_units=()),
    "one hidden decision layer": ModelSpec(
        input_dim=4, output_dim=4, shared_units=(5,), encoder_units=(8, 6), decision_units=(8,)),
    "two hidden decision layers": ModelSpec(
        input_dim=4, output_dim=2, encoder_units=(8, 6), decision_units=(7, 5)),
}


@pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.35, 1.0, 1.4])
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_outputs_and_gradients_match_the_concatenated_product_within_a_few_ulps(name, alpha):
    spec = ORACLE_SPECS[name]
    rng = np.random.default_rng(17)
    params = init_params(spec, rng)
    x = rng.uniform(-1, 1, (9, spec.input_dim))
    y = rng.uniform(0, 1, (9, spec.output_dim))
    runs = []
    for build in (lambda t: predict(t, spec, params, x, alpha),
                  lambda t: concatenated_predict(t, spec, params, x, alpha)):
        tape = Tape()
        out = build(tape)
        loss = tape.bce(out, tape.constant(y)) if spec.task == "classification" else tape.mse(out, tape.constant(y))
        runs.append((tape.value(out), tape.backprop(loss)))
    (got, got_grads), (want, want_grads) = runs
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(got, predict_values(spec, params, x, alpha))
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=1e-12, atol=1e-14, err_msg=name)
