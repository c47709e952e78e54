"""Forward/backward correctness of the tape against finite differences."""

import numpy as np
import pytest

from helpers import grad_check_fd, tape_sum
from rulemix.autodiff import Tape, as_matrix
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


class TestOutputBuffers:
    """Primitives of a tape built with ``reuse`` write into the arrays the
    reused tape's primitives allocated, with the values of fresh arrays."""

    SPECIAL = np.array(
        [[np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf],
         [5e-324, -5e-324, 1e-310, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny],
         [1.5, -1.5, 1e300, -1e300, 0.1, -0.1]]
    )

    def test_relu_equals_where_byte_for_byte(self):
        want = np.where(self.SPECIAL > 0, self.SPECIAL, 0.0)
        first = Tape()
        fresh = first.value(first.relu(first.leaf(self.SPECIAL.copy())))
        # the second tape writes into the first's output, which holds -0.0 and NaN
        first.value(1)[...] = np.where(self.SPECIAL > 0, -0.0, np.nan)
        second = Tape(reuse=first)
        reused = second.value(second.relu(second.leaf(self.SPECIAL)))
        assert np.shares_memory(reused, fresh)
        assert reused.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 7), (5, 17)])
    def test_relu_of_negative_zero_is_positive_zero(self, shape):
        # vectorized and scalar paths of a max may keep the sign of -0.0
        tape = Tape()
        out = tape.value(tape.relu(tape.leaf(np.full(shape, -0.0))))
        assert out.tobytes() == np.zeros(shape).tobytes()

    def test_leaf_arrays_are_never_handed_on(self):
        a, b, c = np.ones((2, 3)), np.full((2, 3), 5.0), np.full((2, 3), 7.0)
        first = Tape()
        first.leaf(a)
        first.constant(b)
        first.param("c", c)
        second = Tape(reuse=first)
        ia = second.leaf(a)
        out = second.value(second.scale(second.scale(ia, 2.0), 3.0))
        assert not any(np.shares_memory(out, v) for v in (a, b, c))
        assert (b == 5.0).all() and (c == 7.0).all()

    def build_chain(self, tape, x, w, b):
        h = tape.relu(tape.affine(tape.leaf(x), tape.param("w", w), tape.param("b", b)))
        s = tape.sigmoid(tape.scaled_concat(h, 0.3, tape.scale(h, 2.0), 0.7))
        return tape.divide(tape.add(tape.concat(s, s), tape.concat(s, s)), 3.0)

    def test_primitives_write_into_the_reused_tape_and_never_into_leaves(self):
        rng = RNG(30)
        x, w, b = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (1, 4))
        leaves = [v.copy() for v in (x, w, b)]
        first = Tape()
        out_first = first.value(self.build_chain(first, x, w, b)).copy()
        outputs = [first.value(i) for i in range(len(first))]
        second = Tape(reuse=first)
        out = self.build_chain(second, x, w, b)
        for nid, node in enumerate(second.nodes):
            if node.backward is None:
                assert any(node.value is v for v in (x, w, b)), nid
            else:
                assert node.value is outputs[nid], nid
                assert not any(np.shares_memory(node.value, v) for v in (x, w, b)), nid
        assert second.value(out).tobytes() == out_first.tobytes()
        for value, before in zip((x, w, b), leaves):
            assert value.tobytes() == before.tobytes()

    def test_shape_mismatch_gets_a_fresh_array(self):
        first = Tape()
        a = first.value(first.scale(first.constant(np.ones((2, 3))), 2.0))
        second = Tape(reuse=first)
        b = second.value(second.scale(second.constant(np.ones((4, 3))), 2.0))
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(b, np.full((4, 3), 2.0))

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
