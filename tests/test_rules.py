"""Rule checks and losses, perturbation machinery, and verification accounting.

Each rule class is compared with the per-row oracles in ``helpers``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MeanBelowFeatureRule,
    direct_sweep,
    energy_rule_loss,
    monotonic_rule_loss,
    perturb_input,
    rule_loss,
    threshold_rule_loss,
    tiny_model,
)
from rulemix.autodiff import Tape
from rulemix.data import Dataset, assign_splits
from rulemix.errors import UndefinedRatioError
from rulemix.evaluate import alpha_grid, alpha_sweep
from rulemix.pendulum import DEFAULT_PARAMS, energy
from rulemix.rules import (
    EnergyDampingRule,
    MonotonicRule,
    ThresholdRule,
    perturb_batch,
    verification_ratio,
)
from rulemix.train import TrainConfig, fit

ENERGY_RULE = EnergyDampingRule(DEFAULT_PARAMS)


def threshold_case(r: float, limit: float) -> float:
    """Threshold rule on one single-column row whose row mean is r."""
    rule = ThresholdRule(fn="row_mean", limit=limit)
    y_hat = np.array([[r]])
    loss = rule_loss(rule, None, y_hat)
    assert loss == threshold_rule_loss(r, limit)
    assert rule.holds(None, y_hat)[0] == (threshold_rule_loss(r, limit) == 0.0)
    return loss


class TestThresholdLoss:
    def test_at_limit_is_zero(self):
        assert threshold_case(2.0, 2.0) == 0.0

    def test_satisfied_is_zero(self):
        assert threshold_case(1.0, 2.0) == 0.0

    def test_violation_is_linear(self):
        assert threshold_case(2.3, 2.0) == pytest.approx(0.3)


class TestEnergyLoss:
    def test_identical_states_give_zero(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, (8, 4))
        np.testing.assert_array_equal(energy_rule_loss(x, x, DEFAULT_PARAMS), np.zeros(8))
        assert rule_loss(ENERGY_RULE, x, x) == 0.0
        assert ENERGY_RULE.holds(x, x).all()

    def test_predicting_rest_from_swinging_is_zero(self):
        x = np.array([[1.5, 2.0, -1.0, 1.0]])
        y_hat = np.zeros((1, 4))  # rest is the energy minimum
        assert energy_rule_loss(x, y_hat, DEFAULT_PARAMS)[0] == 0.0
        assert rule_loss(ENERGY_RULE, x, y_hat) == 0.0
        assert ENERGY_RULE.holds(x, y_hat)[0]

    def test_doubling_velocities_costs_the_kinetic_energy_increase(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.5, 1.5, (16, 4))
        y_hat = x.copy()
        y_hat[:, 1] *= 2.0
        y_hat[:, 3] *= 2.0
        # expected violation from the energy oracle directly
        expected = energy(y_hat, DEFAULT_PARAMS) - energy(x, DEFAULT_PARAMS)
        assert np.all(expected >= 0.0)  # scaling velocities only adds kinetic energy
        per_row = energy_rule_loss(x, y_hat, DEFAULT_PARAMS)
        np.testing.assert_allclose(per_row, expected, rtol=1e-12)
        assert rule_loss(ENERGY_RULE, x, y_hat) == pytest.approx(per_row.mean(), rel=1e-12)
        np.testing.assert_array_equal(ENERGY_RULE.holds(x, y_hat), per_row == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rule_loss(ENERGY_RULE, np.zeros((3, 4)), np.zeros((4, 4)))


def perturb_row(x_row, feature, bound, seed, guard=None):
    """``perturb_batch`` on one row; it must equal the element-wise oracle."""
    rule = MonotonicRule(feature=feature, direction="increase", guard=guard, bound=bound)
    got = perturb_batch(np.array([x_row], dtype=np.float64), rule, np.random.default_rng(seed))
    want = perturb_input(x_row, feature, bound, np.random.default_rng(seed), guard=guard)
    for name in ("x_p", "valid"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    return got


class TestPerturbation:
    def test_perturbed_value_within_documented_bound(self):
        pair = perturb_row([10.0, 3.0], feature=0, bound=0.1, seed=2)
        assert 10.0 <= pair.x_p[0, 0] < 11.0

    def test_zero_feature_is_degenerate_and_invalid(self):
        pair = perturb_row([0.0, 5.0], feature=0, bound=0.1, seed=3)
        np.testing.assert_array_equal(pair.x_p, [[0.0, 5.0]])
        assert not pair.valid[0]

    def test_guard_requires_crossing(self):
        # a small nudge from 100 cannot cross a guard at 129.5
        pair = perturb_row([100.0], feature=0, bound=0.1, seed=4, guard=129.5)
        assert not pair.valid[0]
        # starting just below the guard, an upward nudge that crosses is valid
        crossed = False
        for seed in range(20):
            pair = perturb_row([129.0], feature=0, bound=0.1, seed=seed, guard=129.5)
            if pair.x_p[0, 0] > 129.5:
                assert pair.valid[0]
                crossed = True
        assert crossed

    def test_already_above_guard_is_invalid(self):
        pair = perturb_row([130.0], feature=0, bound=0.1, seed=5, guard=129.5)
        assert not pair.valid[0]

    def test_negative_feature_still_moves_upward(self):
        pair = perturb_row([-4.0], feature=0, bound=0.1, seed=6)
        assert -4.0 <= pair.x_p[0, 0] < -3.6
        gamma = np.random.default_rng(6).uniform(0.0, 0.1, size=1)[0]  # the scale perturb_batch drew
        assert pair.x_p[0, 0] - -4.0 == pytest.approx(gamma * 4.0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(0, 3),
        bound=st.floats(0.01, 0.5),
    )
    def test_only_feature_k_changes_and_magnitude_respects_bound(self, seed, k, bound):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, (7, 4))
        rule = MonotonicRule(feature=k, direction="decrease", bound=bound)
        batch = perturb_batch(x, rule, rng)
        others = [j for j in range(4) if j != k]
        np.testing.assert_array_equal(batch.x_p[:, others], x[:, others])
        delta = batch.x_p[:, k] - x[:, k]
        assert np.all(delta >= 0.0)
        assert np.all(np.abs(delta) <= bound * np.abs(x[:, k]))

    @pytest.mark.parametrize("bound", [0.0, -0.1, float("inf"), float("nan")])
    def test_bound_must_be_positive_and_finite(self, bound):
        with pytest.raises(ValueError, match="bound"):
            MonotonicRule(feature=0, direction="increase", bound=bound)


def monotonic_case(y, y_p, direction, valid) -> float:
    """Monotonic rule on paired outputs, checked against the per-pair oracle."""
    rule = MonotonicRule(feature=0, direction=direction)
    y, y_p, valid = np.asarray(y, float), np.asarray(y_p, float), np.asarray(valid, bool)
    per_pair = monotonic_rule_loss(y, y_p, direction, valid)
    loss = rule_loss(rule, None, y, y_p, valid)
    assert loss == pytest.approx(per_pair.mean(), rel=1e-12, abs=0.0)
    held = rule.holds(None, y, y_p)
    np.testing.assert_array_equal(held[valid], per_pair[valid] == 0.0)
    return loss


class TestMonotonicLoss:
    def test_satisfied_decrease_is_zero(self):
        assert monotonic_case([1.0], [0.5], "decrease", [True]) == 0.0

    def test_violation_equals_margin(self):
        assert monotonic_case([1.0], [1.2], "decrease", [True]) == pytest.approx(0.2)

    def test_invalid_pair_contributes_zero(self):
        assert monotonic_case([1.0], [9.9], "decrease", [False]) == 0.0

    def test_increase_direction_flips_the_hinge(self):
        assert monotonic_case([1.0], [0.4], "increase", [True]) == pytest.approx(0.6)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pure_function_of_inputs(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=6)
        y_p = rng.normal(size=6)
        valid = rng.uniform(size=6) > 0.3
        first = monotonic_case(y, y_p, "decrease", valid)
        second = monotonic_case(y.copy(), y_p.copy(), "decrease", valid.copy())
        assert first == second
        assert first >= 0.0


class TestVerificationRatio:
    def test_outputs_equal_inputs_verify_fully(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (10, 4))
        rule = EnergyDampingRule(DEFAULT_PARAMS)
        assert verification_ratio(rule, x, x) == 1.0

    def test_half_violations_give_half(self):
        rule = MonotonicRule(feature=0, direction="decrease")
        y = np.zeros(4)
        y_p = np.array([-1.0, -1.0, 1.0, 1.0])
        valid = np.ones(4, dtype=bool)
        assert verification_ratio(rule, None, y, y_p, valid) == 0.5

    def test_invalid_pairs_excluded_from_denominator(self):
        rule = MonotonicRule(feature=0, direction="decrease")
        y = np.zeros(4)
        y_p = np.array([-1.0, 1.0, 1.0, 1.0])
        valid = np.array([True, True, False, False])
        assert verification_ratio(rule, None, y, y_p, valid) == 0.5

    def test_empty_set_raises(self):
        rule = EnergyDampingRule(DEFAULT_PARAMS)
        with pytest.raises(UndefinedRatioError):
            verification_ratio(rule, np.zeros((0, 4)), np.zeros((0, 4)))

    def test_all_invalid_raises(self):
        rule = MonotonicRule(feature=0, direction="decrease")
        with pytest.raises(UndefinedRatioError):
            verification_ratio(rule, None, np.zeros(3), np.zeros(3), np.zeros(3, dtype=bool))

    def test_matches_brute_force_recount(self):
        # independent oracle: loop over samples and count satisfied ones
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, (50, 4))
        y_hat = x + rng.normal(0, 0.3, size=(50, 4))
        rule = EnergyDampingRule(DEFAULT_PARAMS)
        ratio = verification_ratio(rule, x, y_hat)
        satisfied = 0
        for i in range(50):
            if energy(y_hat[i], DEFAULT_PARAMS) <= energy(x[i], DEFAULT_PARAMS):
                satisfied += 1
        assert ratio == pytest.approx(satisfied / 50)
        assert 0.0 < ratio < 1.0  # the noisy case actually exercises both sides

    def test_threshold_rule_counts_row_function(self):
        rule = ThresholdRule(fn="row_mean", limit=0.5)
        outputs = np.array([[0.2, 0.4], [0.9, 0.9], [0.5, 0.5]])
        assert verification_ratio(rule, None, outputs) == pytest.approx(2 / 3)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_full_verification_iff_zero_mean_loss(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (12, 4))
        y_hat = x + rng.normal(0, 0.2, size=(12, 4))
        rule = EnergyDampingRule(DEFAULT_PARAMS)
        ratio = verification_ratio(rule, x, y_hat)
        assert (ratio == 1.0) == (rule_loss(rule, x, y_hat) == 0.0)


def family_case(family: str, seed: int, satisfied: bool):
    """(rule, x, y_hat, y_hat_p, valid) for one rule family.

    ``satisfied`` outputs hold by construction on every row; otherwise the
    outputs are noisy and violate the rule on some rows.
    """
    rng = np.random.default_rng(seed)
    n = 16
    if family == "threshold":
        rule = ThresholdRule(fn="row_sumsq", limit=1.0)
        y_hat = rng.uniform(-0.5, 0.5, (n, 2)) if satisfied else rng.normal(0.0, 1.0, (n, 2))
        return rule, None, y_hat, None, None
    if family == "energy":
        x = rng.uniform(-1.5, 1.5, (n, 4))
        y_hat = x.copy()
        if satisfied:
            y_hat[:, [1, 3]] *= 0.5  # slower, same angles: less kinetic, same potential energy
        else:
            y_hat += rng.normal(0.0, 0.5, (n, 4))
        return ENERGY_RULE, x, y_hat, None, None
    rule = MonotonicRule(feature=0, direction="decrease")
    y_hat = rng.normal(size=(n, 1))
    step = np.abs(rng.normal(size=(n, 1)))
    y_hat_p = y_hat - step if satisfied else y_hat + rng.normal(size=(n, 1))
    valid = rng.uniform(size=n) > 0.25
    valid[0] = True
    return rule, None, y_hat, y_hat_p, valid


FAMILIES = ("threshold", "energy", "monotonic")


class TestRuleProtocol:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("satisfied", [True, False])
    def test_ratio_is_mean_of_holds_and_loss_is_zero_iff_all_hold(self, family, satisfied):
        for seed in range(5):
            rule, x, y_hat, y_hat_p, valid = family_case(family, seed, satisfied)
            held = rule.holds(x, y_hat, y_hat_p)
            assert held.shape == (y_hat.shape[0],) and held.dtype == bool
            counted = held if valid is None else held[valid]
            assert verification_ratio(rule, x, y_hat, y_hat_p, valid) == np.mean(counted)
            loss = rule_loss(rule, x, y_hat, y_hat_p, valid)
            assert loss >= 0.0
            assert (loss == 0.0) == bool(counted.all())
            assert counted.all() == satisfied

    @pytest.mark.parametrize("family", FAMILIES)
    def test_loss_node_is_differentiable_on_the_tape(self, family):
        rule, x, y_hat, y_hat_p, valid = family_case(family, 0, satisfied=False)
        tape = Tape()
        node = tape.param("y_hat", y_hat)
        node_p = None if y_hat_p is None else tape.param("y_hat_p", y_hat_p)
        grads = tape.backprop(rule.loss_node(tape, x, node, node_p, valid))
        assert grads["y_hat"].shape == y_hat.shape
        assert np.any(grads["y_hat"] != 0.0)

    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf])
    def test_non_finite_limit_is_rejected(self, limit):
        # an infinite limit holds vacuously (or never), and a NaN one never holds
        with pytest.raises(ValueError, match="limit must be finite"):
            ThresholdRule(fn="row_mean", limit=limit)

    def test_perturbing_rule_needs_pairs_to_verify(self):
        rule = MonotonicRule(feature=0, direction="decrease")
        with pytest.raises(ValueError, match="perturbed outputs"):
            verification_ratio(rule, None, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="perturbed outputs"):
            rule.holds(None, np.zeros((3, 1)))

    def test_rule_defined_outside_the_package_trains_and_sweeps(self):
        rule = MeanBelowFeatureRule(feature=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.15, 0.15, (240, 4))
        ds = Dataset(x=x, y=x.copy(), split=assign_splits(240, (0.6, 0.2, 0.2)))
        spec, _ = tiny_model(rng)
        result = fit(spec, TrainConfig(mode="controlled", max_epochs=3, patience=2), ds, rule)
        assert result.scale.rule0 > 0.0
        assert all(np.isfinite(r.train_rule) for r in result.report.records)
        x_test, y_test = ds.subset("test")
        grid = alpha_grid(0.0, 1.0, 0.25)
        records = alpha_sweep(spec, result.params, x_test, y_test, rule, grid, "mae")
        assert records == direct_sweep(spec, result.params, x_test, y_test, rule, grid, "mae")
        assert [r.alpha for r in records] == grid
