"""Forward/backward correctness of the tape against finite differences."""

import numpy as np
import pytest

from helpers import grad_check_fd, tape_sum
from rulemix.autodiff import (
    BLEND_TILE, Arrays, Tape, _sigmoid, as_matrix, blend, dense_forward, paired_product, scaled_concat,
)
from rulemix.errors import ShapeError
from rulemix.model import LayerSpec, mlp_forward
from rulemix.pendulum import DEFAULT_PARAMS, energy, energy_gradient

RNG = lambda seed: np.random.default_rng(seed)
FD_TOL = 1e-4
FD_H = 1e-4


def fd_check_primitive(build, params, h=FD_H):
    """build(tape, param_ids) -> scalar loss node; returns max FD mismatch."""

    def f(p):
        tape = Tape()
        ids = {name: tape.param(name, value) for name, value in p.items()}
        loss = build(tape, ids)
        return tape.scalar(loss), tape.backprop(loss)

    return grad_check_fd(f, params, h=h)


class TestForward:
    def test_zero_weights_give_zero_output(self):
        tape = Tape()
        x = tape.constant(RNG(0).uniform(-1, 1, (3, 5)))
        params = {"blk.0.w": np.zeros((5, 4)), "blk.0.b": np.zeros((1, 4))}
        out = mlp_forward(tape, [LayerSpec(5, 4, "relu")], params, "blk", x)
        assert np.all(tape.value(out) == 0.0)

    def test_identity_layer_passes_input_through(self):
        tape = Tape()
        xv = RNG(1).uniform(-1, 1, (4, 3))
        x = tape.constant(xv)
        params = {"blk.0.w": np.eye(3), "blk.0.b": np.zeros((1, 3))}
        out = mlp_forward(tape, [LayerSpec(3, 3, "linear")], params, "blk", x)
        np.testing.assert_array_equal(tape.value(out), xv)

    def test_two_layer_chain_matches_manual_computation(self):
        rng = RNG(2)
        xv = rng.uniform(-1, 1, (1, 4))
        w1, b1 = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (1, 6))
        w2, b2 = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (1, 2))
        tape = Tape()
        params = {"m.0.w": w1, "m.0.b": b1, "m.1.w": w2, "m.1.b": b2}
        out = mlp_forward(
            tape,
            [LayerSpec(4, 6, "relu"), LayerSpec(6, 2, "linear")],
            params,
            "m",
            tape.constant(xv),
        )
        expected = np.maximum(xv @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_allclose(tape.value(out), expected, rtol=1e-15)

    def test_shape_mismatch_names_the_layer(self):
        tape = Tape()
        x = tape.constant(np.ones((2, 3)))
        params = {"enc.0.w": np.zeros((5, 4)), "enc.0.b": np.zeros((1, 4))}
        with pytest.raises(ShapeError, match="enc.0"):
            mlp_forward(tape, [LayerSpec(5, 4, "relu")], params, "enc", x)

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[np.inf, 0.0]]))

    def test_forward_is_deterministic(self):
        rng = RNG(3)
        xv = rng.uniform(-1, 1, (6, 4))
        w = rng.uniform(-1, 1, (4, 4))

        def run():
            tape = Tape()
            out = tape.relu(tape.affine(tape.constant(xv), tape.param("w", w), tape.param("b", np.zeros((1, 4)))))
            loss = tape_sum(tape, out)
            return tape.value(out).copy(), tape.backprop(loss)["w"]

        out1, g1 = run()
        out2, g2 = run()
        assert np.array_equal(out1, out2) and np.array_equal(g1, g2)


class TestBackprop:
    def test_sum_loss_gives_unit_gradients(self):
        tape = Tape()
        w = tape.param("w", RNG(4).uniform(-1, 1, (3, 2)))
        grads = tape.backprop(tape_sum(tape, w))
        np.testing.assert_array_equal(grads["w"], np.ones((3, 2)))

    def test_mse_gradient_matches_analytic_formula(self):
        # loss = mean((xW - y)^2) over a single row: dL/dW = 2 x^T (xW - y) / m
        rng = RNG(5)
        xv = rng.uniform(-1, 1, (1, 3))
        wv = rng.uniform(-1, 1, (3, 2))
        yv = rng.uniform(-1, 1, (1, 2))
        tape = Tape()
        pred = tape.affine(tape.constant(xv), tape.param("w", wv), tape.param("b", np.zeros((1, 2))))
        grads = tape.backprop(tape.mse(pred, tape.constant(yv)))
        expected = 2.0 * xv.T @ (xv @ wv - yv) / yv.size
        np.testing.assert_allclose(grads["w"], expected, rtol=1e-14)

    def test_unreachable_parameter_gets_zero_gradient(self):
        tape = Tape()
        w = tape.param("w", np.ones((2, 2)))
        tape.param("orphan", np.ones((3, 3)))
        grads = tape.backprop(tape_sum(tape, w))
        np.testing.assert_array_equal(grads["orphan"], np.zeros((3, 3)))

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        w = tape.param("w", np.ones((2, 2)))
        with pytest.raises(ShapeError, match="1x1"):
            tape.backprop(w)

    def test_relu_gradient_at_zero_is_zero(self):
        tape = Tape()
        w = tape.param("w", np.array([[0.0, -1.0, 1.0]]))
        grads = tape.backprop(tape_sum(tape, tape.relu(w)))
        np.testing.assert_array_equal(grads["w"], np.array([[0.0, 0.0, 1.0]]))

    def test_shared_parameter_accumulates_from_both_passes(self):
        # two forward chains reusing one weight: gradient is the sum
        xv = np.array([[1.0, 2.0]])
        wv = np.array([[0.5], [0.25]])
        tape = Tape()
        w = tape.param("w", wv)
        b = tape.param("b", np.zeros((1, 1)))
        out1 = tape.affine(tape.constant(xv), w, b)
        out2 = tape.affine(tape.constant(2.0 * xv), w, b)
        grads = tape.backprop(tape.add(out1, out2))
        np.testing.assert_allclose(grads["w"], xv.T + 2.0 * xv.T, rtol=1e-15)

    @pytest.mark.parametrize(
        "loss,b,error",
        [
            (None, None, "into['b'] must be an array of shape (1, 2), got nothing"),
            (None, np.empty((2, 1)), "into['b'] must be an array of shape (1, 2), got shape (2, 1)"),
            (None, [[0.0, 0.0]], "into['b'] must be an array of shape (1, 2), got <class 'list'>"),
            (-1, np.empty((1, 2)), "loss -1 is not a node of this tape of 6 nodes"),
            (99, np.empty((1, 2)), "loss 99 is not a node of this tape of 6 nodes"),
        ],
    )
    def test_a_bad_loss_or_into_is_one_shape_error_naming_it(self, loss, b, error):
        tape = Tape()
        x = tape.leaf(np.ones((4, 3)))
        node = tape.dense(x, [(tape.param("w", np.ones((3, 2))), tape.param("b", np.zeros((1, 2))), "relu")], "blk")
        total = tape.mse(node, tape.constant(np.zeros((4, 2))))
        into = {"w": np.full((3, 2), 7.0)} | ({} if b is None else {"b": b})
        with pytest.raises(ShapeError) as info:
            tape.backprop(total if loss is None else loss, into=into)
        assert str(info.value) == f"backprop: {error}"
        assert (into["w"] == 7.0).all()  # refused before any gradient is written


class TestPrimitiveGradients:
    """Every primitive agrees with central differences at h=1e-4."""

    def test_affine(self):
        rng = RNG(10)
        params = {"w": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, (1, 4))}
        xv = rng.uniform(-1, 1, (5, 3))
        err = fd_check_primitive(
            lambda t, ids: tape_sum(t, t.affine(t.constant(xv), ids["w"], ids["b"])), params
        )
        assert err < FD_TOL

    def test_relu(self):
        params = {"w": RNG(11).uniform(-1, 1, (4, 4))}
        err = fd_check_primitive(lambda t, ids: tape_sum(t, t.relu(ids["w"])), params)
        assert err < FD_TOL

    def test_sigmoid(self):
        params = {"w": RNG(12).uniform(-1, 1, (4, 4))}
        err = fd_check_primitive(lambda t, ids: tape_sum(t, t.sigmoid(ids["w"])), params)
        assert err < FD_TOL

    def test_concat_scale_add(self):
        rng = RNG(13)
        params = {"a": rng.uniform(-1, 1, (3, 2)), "b": rng.uniform(-1, 1, (3, 2))}

        def build(t, ids):
            both = t.concat(t.scale(ids["a"], 0.3), t.scale(ids["b"], 0.7))
            return tape_sum(t, t.add(both, both))

        assert fd_check_primitive(build, params) < FD_TOL

    def test_divide(self):
        params = {"a": RNG(18).uniform(-1, 1, (3, 2))}
        err = fd_check_primitive(lambda t, ids: tape_sum(t, t.divide(ids["a"], 0.37)), params)
        assert err < FD_TOL
        tape = Tape()
        x = tape.constant(np.array([[0.37]]))
        assert tape.value(tape.divide(x, 0.37))[0, 0] == 1.0  # x/x exact
        with pytest.raises(ValueError):
            tape.divide(x, 0.0)

    def test_mean_relu_diff(self):
        rng = RNG(14)
        params = {"a": rng.uniform(-1, 1, (6, 1)), "b": rng.uniform(-1, 1, (6, 1))}
        weights = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
        err = fd_check_primitive(
            lambda t, ids: t.mean_relu_diff(ids["a"], ids["b"], weights), params
        )
        assert err < FD_TOL

    def test_mse(self):
        rng = RNG(15)
        params = {"p": rng.uniform(-1, 1, (4, 3))}
        yv = rng.uniform(-1, 1, (4, 3))
        err = fd_check_primitive(lambda t, ids: t.mse(ids["p"], t.constant(yv)), params)
        assert err < FD_TOL

    def test_bce(self):
        rng = RNG(16)
        params = {"logit": rng.uniform(-1, 1, (5, 1))}
        yv = (rng.uniform(0, 1, (5, 1)) > 0.5).astype(float)
        err = fd_check_primitive(
            lambda t, ids: t.bce(t.sigmoid(ids["logit"]), t.constant(yv)), params
        )
        assert err < FD_TOL

    def test_rowmap_state_energy(self):
        params = {"s": RNG(17).uniform(-1, 1, (4, 4))}
        p = DEFAULT_PARAMS
        err = fd_check_primitive(
            lambda t, ids: tape_sum(
                t,
                t.rowmap(ids["s"], lambda s: energy(s, p), lambda s: energy_gradient(s, p))
            ),
            params,
        )
        assert err < FD_TOL


class TestRowmapJacobian:
    """The jacobian is evaluated, and its shape checked, when the node is backpropagated."""

    def test_a_tape_never_backpropagated_never_evaluates_it(self):
        calls = []
        tape = Tape()
        x = tape.param("x", np.ones((3, 2)))
        tape.rowmap(x, lambda v: v.sum(axis=1), lambda v: calls.append(v) or np.ones_like(v))
        assert calls == []
        tape.backprop(tape.mean_relu_diff(len(tape) - 1, tape.constant(np.zeros((3, 1)))))
        assert len(calls) == 1 and calls[0] is tape.value(x)

    def test_a_wrong_shape_is_refused_in_the_backward_pass(self):
        tape = Tape()
        x = tape.param("x", np.ones((3, 2)))
        r = tape.rowmap(x, lambda v: v.sum(axis=1), lambda v: np.ones((3, 1)))
        loss = tape.mean_relu_diff(r, tape.constant(np.zeros((3, 1))))
        with pytest.raises(ShapeError, match=r"rowmap: jacobian shape \(3, 1\) != \(3, 2\)"):
            tape.backprop(loss)


class TestOutputBuffers:
    """``dense_forward`` and ``scaled_concat`` write into the buffers a caller
    passes again, with the values of fresh arrays, and never into their inputs."""

    SPECIAL = np.array(
        [[np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf],
         [5e-324, -5e-324, 1e-310, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny],
         [1.5, -1.5, 1e300, -1e300, 0.1, -0.1]]
    )
    # x @ [[1.0]] + [[-0.0]] is x for every x, -0.0 and NaN included
    IDENTITY = [(np.ones((1, 1)), np.full((1, 1), -0.0), "relu")]

    def test_relu_equals_where_byte_for_byte(self):
        column = self.SPECIAL.reshape(-1, 1)
        want = np.where(column > 0, column, 0.0)
        buffers = []
        fresh = dense_forward(column.copy(), self.IDENTITY, "blk", buffers)
        # the second pass writes into the first's output, which now holds -0.0 and NaN
        buffers[0][...] = np.where(column > 0, -0.0, np.nan)
        reused = dense_forward(column, self.IDENTITY, "blk", buffers)
        assert reused is fresh is buffers[0]
        assert reused.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 7), (5, 17)])
    def test_relu_of_negative_zero_is_positive_zero(self, shape):
        # vectorized and scalar paths of a max may keep the sign of -0.0
        tape = Tape()
        out = tape.value(tape.relu(tape.leaf(np.full(shape, -0.0))))
        assert out.tobytes() == np.zeros(shape).tobytes()

    def test_inputs_are_never_handed_on(self):
        x, w, b = np.ones((2, 3)), np.full((3, 3), 5.0), np.full((1, 3), 7.0)
        dense, concat = [], []
        h = dense_forward(x, [(w, b, "linear"), (w, b, "relu")], "blk", dense)
        out = scaled_concat(h, 2.0, x, 3.0, concat)
        assert dense[-1] is h and concat == [out]
        assert not any(np.shares_memory(v, leaf) for v in (*dense, *concat) for leaf in (x, w, b))
        assert (x == 1.0).all() and (w == 5.0).all() and (b == 7.0).all()

    def build_chain(self, x, w, b, buffers):
        h = dense_forward(x, [(w, b, "relu"), (np.eye(4), np.zeros((1, 4)), "sigmoid")], "blk", buffers["blk"])
        return scaled_concat(h, 0.3, h, 0.7, buffers["concat"])

    def test_kernels_write_into_the_previous_arrays_and_never_into_leaves(self):
        rng = RNG(30)
        x, w, b = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (1, 4))
        leaves = [v.copy() for v in (x, w, b)]
        buffers = {"blk": [], "concat": []}
        out_first = self.build_chain(x, w, b, buffers)
        want = out_first.copy()
        kept = {key: list(bufs) for key, bufs in buffers.items()}
        for buf in (*kept["blk"], *kept["concat"]):
            buf[...] = np.nan  # the second pass must overwrite every entry
        out = self.build_chain(x, w, b, buffers)
        assert out is out_first
        for key, bufs in buffers.items():
            assert len(bufs) == len(kept[key]) and all(a is k for a, k in zip(bufs, kept[key])), key
            assert not any(np.shares_memory(buf, v) for buf in bufs for v in (x, w, b)), key
        assert out.tobytes() == want.tobytes()
        for value, before in zip((x, w, b), leaves):
            assert value.tobytes() == before.tobytes()

    def test_shape_mismatch_gets_a_fresh_array(self):
        layer = [(np.full((3, 2), 2.0), np.zeros((1, 2)), "linear")]
        buffers = []
        a = dense_forward(np.ones((2, 3)), layer, "blk", buffers)
        b = dense_forward(np.ones((4, 3)), layer, "blk", buffers)
        assert not np.shares_memory(a, b) and buffers == [b]
        np.testing.assert_array_equal(b, np.full((4, 2), 6.0))
        c = scaled_concat(np.ones((4, 1)), 2.0, np.ones((4, 2)), 3.0, buffers)
        assert not np.shares_memory(b, c) and buffers == [c]
        np.testing.assert_array_equal(c, [[2.0, 3.0, 3.0]] * 4)

    def test_scaled_concat_matches_the_scale_scale_concat_chain_bit_for_bit(self):
        rng = RNG(31)
        a, c = rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (6, 2))
        w = rng.uniform(-1, 1, (5, 2))
        target = rng.uniform(-1, 1, (6, 2))
        results = []
        for fused in (False, True):
            tape = Tape()
            ia, ic, iw = tape.param("a", a), tape.param("c", c), tape.param("w", w)
            if fused:
                z = tape.scaled_concat(ia, 0.35, ic, 1.0 - 0.35)
            else:
                z = tape.concat(tape.scale(ia, 0.35), tape.scale(ic, 1.0 - 0.35))
            pred = tape.affine(tape.relu(z), iw, tape.constant(np.zeros((1, 2))))
            loss = tape.mse(pred, tape.constant(target))
            results.append((tape.value(z).tobytes(), tape.scalar(loss), tape.backprop(loss)))
        (z0, l0, g0), (z1, l1, g1) = results
        assert z0 == z1 and l0 == l1
        for name in g0:
            assert g0[name].tobytes() == g1[name].tobytes(), name

    def test_scaled_concat_row_mismatch_rejected(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="scaled_concat"):
            tape.scaled_concat(tape.constant(np.ones((2, 3))), 0.5, tape.constant(np.ones((3, 3))), 0.5)


class TestPairedProductBlend:
    """``blend`` of a ``paired_product``: a dense layer whose input is two latents weighted by two strengths."""

    @staticmethod
    def inputs(seed, rows=5, k=3, m=4):
        rng = RNG(seed)
        return {"z_rule": rng.uniform(-1, 1, (rows, k)), "z_data": rng.uniform(-1, 1, (rows, k)),
                "w": rng.uniform(-1, 1, (2 * k, m)), "b": rng.uniform(-1, 1, (1, m))}

    @staticmethod
    def build(tape, ids, alpha, act):
        products = tape.paired_product(ids["z_rule"], ids["z_data"], ids["w"])
        return tape.blend(products, alpha, 1.0 - alpha, ids["b"], act)

    @pytest.mark.parametrize("alpha", [-0.2, 0.3, 1.4])
    @pytest.mark.parametrize("act", ["linear", "relu", "sigmoid"])
    def test_gradients_agree_with_central_differences(self, act, alpha):
        # both row halves of the weight, the bias and both latents are parameters here
        params = self.inputs(50)
        target = RNG(51).uniform(-1, 1, (5, 4))
        err = fd_check_primitive(lambda t, ids: t.mse(self.build(t, ids, alpha, act), t.constant(target)), params)
        assert err < FD_TOL
        tape = Tape()
        ids = {name: tape.param(name, value) for name, value in params.items()}
        grads = tape.backprop(tape.mse(self.build(tape, ids, alpha, act), tape.constant(target)))
        assert all(np.any(g != 0.0) for g in (grads["w"][:3], grads["w"][3:], *grads.values())), act

    @pytest.mark.parametrize("act", ["linear", "relu", "sigmoid"])
    def test_equals_the_layer_over_the_scaled_concat_within_a_few_ulps(self, act):
        p = self.inputs(52)
        want = dense_forward(scaled_concat(p["z_rule"], 0.35, p["z_data"], 1.0 - 0.35), [(p["w"], p["b"], act)])
        got = blend(paired_product(p["z_rule"], p["z_data"], p["w"]), 0.35, 1.0 - 0.35, p["b"], act)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("width", [1, 3, 64])
    @pytest.mark.parametrize("act", ["linear", "relu", "sigmoid"])
    def test_each_row_tile_is_the_elementwise_formula_bit_for_bit(self, width, act):
        rows = 3 * (BLEND_TILE // width) + 5  # three whole tiles and part of a fourth
        rng = RNG(57)
        pa, pb = rng.normal(0, 3, (rows, width)), rng.normal(0, 3, (rows, width))
        bias = rng.normal(0, 1, (1, width))
        want = pa * 0.35 + pb * (1.0 - 0.35)  # each product rounded, then their sum
        want += bias
        if act == "relu":
            want = np.where(want > 0, want, 0.0)
        elif act == "sigmoid":
            _sigmoid(want, want)
        assert blend((pa, pb), 0.35, 1.0 - 0.35, bias, act).tobytes() == want.tobytes()

    def test_arrays_equal_the_tape_and_write_into_the_previous_arrays(self):
        p = self.inputs(53)
        tape = Tape()
        node = self.build(tape, {name: tape.param(name, value) for name, value in p.items()}, 0.6, "relu")
        buffers = []
        outs = []
        for _ in range(2):
            ops = Arrays(buffers)
            outs.append(ops.blend(ops.paired_product(p["z_rule"], p["z_data"], p["w"]), 0.6, 1.0 - 0.6, p["b"], "relu"))
        assert outs[0] is outs[1]
        assert outs[1].tobytes() == tape.value(node).tobytes()

    def test_two_passes_sharing_the_weight_accumulate_into_views_of_one_flat_vector(self):
        # the first gradient to reach the weight and bias is written into the arrays handed in, the second added
        p = self.inputs(54)
        target = RNG(55).uniform(-1, 1, (5, 4))
        grads = []
        for split in (True, False):
            flat = np.full(p["w"].size + p["b"].size, 7.0)
            into = {"w": flat[:p["w"].size].reshape(p["w"].shape), "b": flat[p["w"].size:].reshape(p["b"].shape)}
            tape = Tape()
            w, b = tape.param("w", p["w"]), tape.param("b", p["b"])
            outs = []
            for first, second in (("z_rule", "z_data"), ("z_data", "z_rule")):
                za, zb = tape.leaf(p[first]), tape.leaf(p[second])
                if split:
                    outs.append(self.build(tape, {"z_rule": za, "z_data": zb, "w": w, "b": b}, 0.4, "sigmoid"))
                else:
                    outs.append(tape.dense(tape.scaled_concat(za, 0.4, zb, 1.0 - 0.4), [(w, b, "sigmoid")]))
            assert tape.backprop(tape.mse(tape.add(*outs), tape.constant(target)), into) is into
            grads.append(flat)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12, atol=1e-14)

    def test_shapes_that_do_not_fit_are_refused(self):
        p = self.inputs(56)
        with pytest.raises(ShapeError, match="paired_product"):
            paired_product(p["z_rule"], p["z_data"][:, :2], p["w"])
        with pytest.raises(ShapeError, match="paired_product"):
            paired_product(p["z_rule"], p["z_data"][:4], p["w"])
        products = paired_product(p["z_rule"], p["z_data"], p["w"])
        with pytest.raises(ShapeError, match="blend"):
            blend(products, 0.5, 0.5, p["b"][:, :3], "relu")
        with pytest.raises(ValueError, match="unknown activation"):
            blend(products, 0.5, 0.5, p["b"], "tanh")


class TestGradCheckHarness:
    def test_quadratic_is_nearly_exact(self):
        w0 = RNG(20).uniform(-1, 1, (3, 3))

        def f(p):
            tape = Tape()
            w = tape.param("w", p["w"])
            loss = tape.mse(w, tape.constant(np.zeros((3, 3))))
            return tape.scalar(loss), tape.backprop(loss)

        assert grad_check_fd(f, {"w": w0}, h=1e-5) < 1e-6

    def test_random_mlp_with_mse(self):
        rng = RNG(21)
        xv = rng.uniform(-1, 1, (4, 3))
        yv = rng.uniform(-1, 1, (4, 2))
        params = {
            "m.0.w": rng.uniform(-1, 1, (3, 8)),
            "m.0.b": rng.uniform(-1, 1, (1, 8)),
            "m.1.w": rng.uniform(-1, 1, (8, 2)),
            "m.1.b": rng.uniform(-1, 1, (1, 2)),
        }

        def f(p):
            tape = Tape()
            out = mlp_forward(
                tape, [LayerSpec(3, 8, "relu"), LayerSpec(8, 2, "linear")], p, "m",
                tape.constant(xv),
            )
            loss = tape.mse(out, tape.constant(yv))
            return tape.scalar(loss), tape.backprop(loss)

        assert grad_check_fd(f, params, h=FD_H) < FD_TOL

    def test_constant_function_reports_zero_error(self):
        def f(p):
            return 1.5, {"w": np.zeros((2, 2))}

        assert grad_check_fd(f, {"w": np.ones((2, 2))}) == 0.0

    def test_rejects_non_positive_h(self):
        with pytest.raises(ValueError):
            grad_check_fd(lambda p: (0.0, {}), {}, h=0.0)


def chain(tape, x, layers, label):
    """The per-layer oracle of ``Tape.dense``: ``affine`` then the activation node."""
    for i, (w, b, act) in enumerate(layers):
        x = tape.affine(x, w, b, label=f"{label}.{i}")
        if act == "relu":
            x = tape.relu(x)
        elif act == "sigmoid":
            x = tape.sigmoid(x)
    return x


STACKS = [
    ("linear",),
    ("linear", "linear"),
    ("relu", "relu", "linear"),
    ("relu", "sigmoid"),
    ("sigmoid", "relu", "sigmoid"),
]


class TestDenseBlock:
    """One ``dense`` node equals the ``affine`` -> activation chain bit for bit."""

    # NaN, -0.0 and +-40 in the input; through an identity first layer a NaN fills its row,
    # and +-40 reach the activation as they are
    SPECIAL = np.array(
        [[np.nan, 0.3, -0.2], [-0.0, 40.0, -40.0], [0.0, -0.7, 1.1], [2.5, -0.0, 0.0]]
    )

    @staticmethod
    def params_for(acts, fan_in, rng, identity_first=False):
        widths = [fan_in] + [int(rng.integers(2, 6)) for _ in acts]
        if identity_first:
            widths[1] = fan_in
        params = {}
        for i, act in enumerate(acts):
            params[f"blk.{i}.w"] = rng.uniform(-1, 1, (widths[i], widths[i + 1]))
            params[f"blk.{i}.b"] = rng.uniform(-1, 1, (1, widths[i + 1]))
        if identity_first:
            params["blk.0.w"], params["blk.0.b"] = np.eye(fan_in), np.zeros((1, fan_in))
        return params

    @staticmethod
    def run(fused, acts, params, inputs, input_is_param, target_seed=0):
        """Each input through the block on one tape, then an mse of the sum; (values, loss, grads)."""
        tape = Tape()
        outs = []
        for k, xv in enumerate(inputs):
            x = tape.param(f"x{k}", xv) if input_is_param else tape.leaf(xv)
            layers = [
                (tape.param(f"blk.{i}.w", params[f"blk.{i}.w"]), tape.param(f"blk.{i}.b", params[f"blk.{i}.b"]), act)
                for i, act in enumerate(acts)
            ]
            outs.append(tape.dense(x, layers, "blk") if fused else chain(tape, x, layers, "blk"))
        total = outs[0]
        for out in outs[1:]:
            total = tape.add(total, out)
        target = RNG(target_seed).uniform(-1, 1, tape.value(total).shape)
        loss = tape.mse(total, tape.constant(target))
        return [tape.value(o).tobytes() for o in outs], tape.value(loss).tobytes(), tape.backprop(loss)

    def assert_same(self, acts, params, inputs, input_is_param):
        (v0, l0, g0), (v1, l1, g1) = (self.run(f, acts, params, inputs, input_is_param) for f in (False, True))
        assert v0 == v1 and l0 == l1
        assert g0.keys() == g1.keys()
        for name in g0:
            assert g0[name].tobytes() == g1[name].tobytes(), name

    @pytest.mark.parametrize("acts", STACKS)
    @pytest.mark.parametrize("input_is_param", [False, True])
    def test_values_and_gradients_equal_the_chain(self, acts, input_is_param):
        rng = RNG(40)
        params = self.params_for(acts, 3, rng)
        self.assert_same(acts, params, [rng.uniform(-2, 2, (7, 3))], input_is_param)

    @pytest.mark.parametrize("acts", STACKS)
    @pytest.mark.parametrize("input_is_param", [False, True])
    def test_nan_negative_zero_and_saturated_inputs(self, acts, input_is_param):
        params = self.params_for(acts, 3, RNG(41), identity_first=True)
        self.assert_same(acts, params, [self.SPECIAL], input_is_param)

    def test_sigmoid_sees_nan_and_saturated_values(self):
        tape = Tape()
        x = tape.leaf(self.SPECIAL)
        layer = [(tape.param("w", np.eye(3)), tape.param("b", np.zeros((1, 3))), "sigmoid")]
        fused = tape.value(tape.dense(x, layer))
        assert fused.tobytes() == tape.value(chain(tape, x, layer, "dense")).tobytes()
        assert np.isnan(fused[0]).all() and fused[1, 0] == 0.5 and fused[1, 1] == 1.0 and 0.0 < fused[1, 2] < 1e-17

    @pytest.mark.parametrize("acts", STACKS)
    def test_block_shared_by_passes_accumulates_as_the_chain(self, acts):
        # an input and two perturbed copies through one parameter set
        rng = RNG(42)
        params = self.params_for(acts, 4, rng)
        x = rng.uniform(-1, 1, (6, 4))
        inputs = [x, x + rng.normal(0, 0.1, x.shape), x + rng.normal(0, 0.1, x.shape)]
        self.assert_same(acts, params, inputs, input_is_param=False)
        self.assert_same(acts, params, inputs, input_is_param=True)

    def test_block_feeding_two_blocks_accumulates_as_the_chain(self):
        # the shared block's output reaches the loss through the rule and the data blocks
        rng = RNG(43)
        params = {"x": rng.uniform(-1, 1, (6, 3))}
        for blk, (fan_in, fan_out) in {"s": (3, 5), "r": (5, 4), "d": (5, 4)}.items():
            params[f"{blk}.w"] = rng.uniform(-1, 1, (fan_in, fan_out))
            params[f"{blk}.b"] = rng.uniform(-1, 1, (1, fan_out))
        results = []
        for fused in (False, True):
            tape = Tape()

            def block(x, blk):
                layers = [(tape.param(f"{blk}.w", params[f"{blk}.w"]), tape.param(f"{blk}.b", params[f"{blk}.b"]), "relu")]
                return tape.dense(x, layers, blk) if fused else chain(tape, x, layers, blk)

            h = block(tape.param("x", params["x"]), "s")
            z = tape.scaled_concat(block(h, "r"), 0.3, block(h, "d"), 0.7)
            loss = tape.mse(z, tape.constant(np.ones((6, 8))))
            results.append((tape.value(loss).tobytes(), tape.backprop(loss)))
        (l0, g0), (l1, g1) = results
        assert l0 == l1 and g0.keys() == g1.keys() == params.keys()
        for name in g0:
            assert g0[name].tobytes() == g1[name].tobytes(), name

    def test_kernel_buffers_are_overwritten_and_never_alias_leaves(self):
        rng = RNG(44)
        acts = ("relu", "sigmoid", "linear")
        params = self.params_for(acts, 3, rng)
        x = rng.uniform(-1, 1, (5, 3))
        leaves = [x, *params.values()]
        before = [v.copy() for v in leaves]
        layers = [(params[f"blk.{i}.w"], params[f"blk.{i}.b"], act) for i, act in enumerate(acts)]
        tape = Tape()
        want = tape.value(tape.dense(tape.leaf(x), [(tape.param(f"blk.{i}.w", w), tape.param(f"blk.{i}.b", b), act)
                                                    for i, (w, b, act) in enumerate(layers)], "blk"))
        buffers = []
        first = dense_forward(x, layers, "blk", buffers)
        kept = list(buffers)
        assert len(kept) == 3 and first is kept[2]
        for buf in kept:
            buf[...] = np.nan  # the next pass must overwrite every entry
        assert dense_forward(x, layers, "blk", buffers) is kept[2]
        assert all(buf is k for buf, k in zip(buffers, kept))
        for buf in buffers:
            assert not any(np.shares_memory(buf, v) for v in leaves)
        assert kept[2].tobytes() == want.tobytes()
        kept_all = []
        dense_forward(x, layers, "blk", kept_all)
        assert [v.tobytes() for v in kept_all] == [v.tobytes() for v in buffers]
        for value, old in zip(leaves, before):
            assert value.tobytes() == old.tobytes()

    def test_width_mismatch_names_the_layer(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 3)))
        w0, b0 = tape.param("w0", np.ones((3, 4))), tape.param("b0", np.ones((1, 4)))
        w1, b1 = tape.param("w1", np.ones((5, 2))), tape.param("b1", np.ones((1, 2)))
        with pytest.raises(ShapeError, match=r"^enc\.1: input has 4 columns, weight expects 5$"):
            tape.dense(x, [(w0, b0, "relu"), (w1, b1, "linear")], "enc")
        with pytest.raises(ShapeError, match=r"^enc\.0: bias shape \(1, 2\) != \(1, 4\)"):
            tape.dense(x, [(w0, b1, "relu")], "enc")

    def test_unknown_activation_and_empty_block_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 3)))
        w, b = tape.param("w", np.ones((3, 4))), tape.param("b", np.ones((1, 4)))
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            tape.dense(x, [(w, b, "tanh")], "enc")
        with pytest.raises(ValueError, match="at least one layer"):
            tape.dense(x, [], "enc")


class TestNoGradientTowardsConstants:
    """A leaf that is not a parameter gets no gradient computed; parameters and inner nodes do."""

    @pytest.mark.parametrize("loss", ["mse", "bce"])
    def test_loss_target(self, loss):
        tape = Tape()
        pred = tape.param("p", np.array([[0.2], [0.7]]))
        for target, wanted in ((tape.constant(np.array([[0.0], [1.0]])), False),
                               (tape.param("t", np.array([[0.0], [1.0]])), True),
                               (tape.scale(tape.param("u", np.array([[0.0], [1.0]])), 1.0), True)):
            dp, dt = tape.nodes[getattr(tape, loss)(pred, target)].backward(np.ones((1, 1)))
            assert dp is not None and (dt is not None) == wanted

    def test_dense_input(self):
        tape = Tape()
        w, b = tape.param("w", np.ones((3, 2))), tape.param("b", np.zeros((1, 2)))
        for x, wanted in ((tape.leaf(np.ones((4, 3))), False),
                          (tape.param("x", np.ones((4, 3))), True),
                          (tape.scale(tape.param("y", np.ones((4, 3))), 2.0), True),
                          (tape.scale(tape.leaf(np.ones((4, 3))), 2.0), False)):  # no parameter reaches it
            node = tape.dense(x, [(w, b, "relu")], "blk")
            gx, gw, gb = tape.nodes[node].backward(np.ones((4, 2)))
            assert (gx is not None) == wanted and gw.shape == (3, 2) and gb.shape == (1, 2)

    @pytest.mark.parametrize("op", ["scaled_concat", "add", "mean_relu_diff"])
    def test_two_parent_ops(self, op):
        # energy_rule_node's state energy, threshold_rule_node's limit and
        # input_concat_alpha's alpha column are constant parents of these three
        tape = Tape()
        build = {
            "scaled_concat": lambda a, b: tape.scaled_concat(a, 0.25, b, 0.75),
            "add": tape.add,
            "mean_relu_diff": tape.mean_relu_diff,
        }[op]
        value = np.array([[0.5], [-1.0], [2.0]])
        kinds = {
            "constant": lambda: tape.constant(value),
            "param": lambda: tape.param(f"p{len(tape)}", value),
            "inner": lambda: tape.scale(tape.param(f"q{len(tape)}", value), 1.0),
        }
        for a_kind, make_a in kinds.items():
            for b_kind, make_b in kinds.items():
                node = build(make_a(), make_b())
                ga, gb = tape.nodes[node].backward(np.ones_like(tape.value(node)))
                assert (ga is None, gb is None) == (a_kind == "constant", b_kind == "constant"), (a_kind, b_kind)

    def test_backprop_calls_no_backward_of_a_node_that_no_parameter_reaches(self):
        tape = Tape()
        inner = tape.sigmoid(tape.scale(tape.leaf(np.full((2, 3), 0.5)), 2.0))  # constants alone
        total = tape.add(inner, tape.param("p", np.ones((2, 3))))

        def unreachable(g):
            raise AssertionError("backward of a node that no parameter reaches")

        for nid in range(inner + 1):
            assert not tape.nodes[nid].wants_grad
            tape.nodes[nid].backward = tape.nodes[nid].backward and unreachable
        assert tape.nodes[total].wants_grad
        grads = tape.backprop(tape.mse(total, tape.constant(np.zeros((2, 3)))))
        assert grads.keys() == {"p"} and np.isfinite(grads["p"]).all()

    def test_backprop_skips_the_missing_gradients(self):
        tape = Tape()
        x = tape.leaf(np.ones((4, 3)))
        node = tape.dense(x, [(tape.param("w", np.ones((3, 1))), tape.param("b", np.zeros((1, 1))), "sigmoid")], "blk")
        grads = tape.backprop(tape.bce(node, tape.constant(np.ones((4, 1)))))
        assert grads.keys() == {"w", "b"} and np.isfinite(grads["w"]).all()


def masked_sigmoid(xv: np.ndarray) -> np.ndarray:
    """The logistic function as written before it was mask-free: a gather and a scatter per sign."""
    out = np.empty_like(xv)
    pos = xv >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
    e = np.exp(xv[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestMaskFreeSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 745.0, -745.0, 1e-300, -1e-300]

    def values(self) -> np.ndarray:
        rng = RNG(50)
        random = rng.normal(0.0, 1.0, 100_000) * 10.0 ** rng.integers(-3, 4, 100_000)
        return np.concatenate([self.SPECIAL, random]).reshape(-1, 1)

    def test_bits_equal_the_masked_implementation_nan_included(self):
        xv = self.values()
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_sigmoid(xv)
            got = np.empty_like(xv)
            _sigmoid(xv, got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(got[4:6]).all() and np.signbit(got[5, 0]) == np.signbit(xv[5, 0])

    def test_writes_over_its_input(self):
        xv = self.values()
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_sigmoid(xv)
            _sigmoid(xv, xv)
        assert np.array_equal(xv.view(np.int64), want.view(np.int64))
