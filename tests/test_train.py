"""Strength sampling, loss scaling, step semantics, and the fit loop."""

import math
import warnings

import numpy as np
import pytest

import rulemix.train
import rulemix.model
from helpers import ReferenceAdamState, full_pass_task_losses, reference_adam_update, tiny_model
from rulemix.data import Dataset, assign_splits
from rulemix.errors import ConfigError
from rulemix.model import ModelSpec
from rulemix.optim import AdamState
from rulemix.pendulum import DEFAULT_PARAMS
from rulemix.rules import EnergyDampingRule, MonotonicRule, ThresholdRule
from rulemix.tabular import CorrGroupSpec, synth_monotone_regression
from rulemix.train import (
    LossScale,
    TrainConfig,
    compute_loss_scale,
    evaluate_task_loss,
    fit,
    sample_alpha,
    train_step,
)

ENERGY_RULE = EnergyDampingRule(DEFAULT_PARAMS)


def beta_cdf_oracle(x0: float, a: float, b: float, n: int = 20001) -> float:
    """Regularized incomplete beta via quadrature.

    The endpoint singularity of the density is removed with x = t**(1/a);
    the remaining integrand is smooth on [0, x0**a] for x0 < 1.
    """
    t = np.linspace(0.0, x0**a, n)
    integral = np.trapezoid((1.0 - t ** (1.0 / a)) ** (b - 1.0), t) / a
    beta_fn = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return integral / beta_fn


def identity_dataset(n=240, seed=0):
    """Next-state equals current-state; easy to learn, energy rule holds at y.

    Inputs stay near the rest state so the untrained model's outputs (spread
    wider than the inputs) start out violating the damping rule, making the
    initial rule loss positive for any seed.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.15, 0.15, (n, 4))
    return Dataset(x=x, y=x.copy(), split=assign_splits(n, (0.6, 0.2, 0.2)))


class TestSampleAlpha:
    def test_symmetric_mean(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_alpha(0.1, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_tail_mass_matches_incomplete_beta_oracle(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_alpha(0.1, rng) for _ in range(100_000)])
        empirical = np.mean((draws < 0.05) | (draws > 0.95))
        expected = beta_cdf_oracle(0.05, 0.1, 0.1) + (1.0 - beta_cdf_oracle(0.95, 0.1, 0.1))
        assert abs(empirical - expected) < 0.02

    def test_beta_one_is_uniform(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_alpha(1.0, rng) for _ in range(20_000)])
        counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
        chi2 = float(np.sum((counts - 1000.0) ** 2 / 1000.0))
        assert chi2 < 43.82  # chi-square 0.999 quantile, 19 dof

    def test_draws_stay_in_unit_interval(self):
        rng = np.random.default_rng(3)
        draws = [sample_alpha(0.05, rng) for _ in range(1000)]
        assert all(0.0 <= a <= 1.0 for a in draws)

    def test_tiny_beta_puts_mass_at_the_ends_not_the_middle(self):
        # nearly every Gamma(1e-5) draw underflows to 0; when both draws of
        # every try underflow, the result must still land at 0 or 1
        rng = np.random.default_rng(11)
        draws = np.array([sample_alpha(1e-5, rng) for _ in range(4000)])
        assert not np.any(draws == 0.5)
        assert abs(np.mean(draws < 1e-3) - 0.5) < 0.05
        assert abs(np.mean(draws > 1.0 - 1e-3) - 0.5) < 0.05

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            sample_alpha(0.0, np.random.default_rng(0))


class TestLossScale:
    def test_ratio_by_definition(self):
        assert LossScale(rule0=2.0, task0=0.5).ratio == 4.0
        assert LossScale(rule0=1.0, task0=1.0).ratio == 1.0

    def test_scaled_task_exact_at_initial_value(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            scale = LossScale(rule0=rng.uniform(1e-6, 1e3), task0=rng.uniform(1e-6, 1e3))
            assert scale.scaled_task(scale.task0) == scale.rule0

    def test_computed_from_model_at_init(self):
        rng = np.random.default_rng(5)
        spec, params = tiny_model(rng)
        ds = identity_dataset()
        x, y = ds.subset("train")
        scale = compute_loss_scale(spec, params, x, y, ENERGY_RULE, np.random.default_rng(0))
        assert scale.task0 > 0.0 and scale.rule0 > 0.0
        assert scale.ratio == scale.rule0 / scale.task0

    def test_zero_task_loss_is_config_error(self):
        rng = np.random.default_rng(6)
        spec, params = tiny_model(rng)
        params = {k: np.zeros_like(v) for k, v in params.items()}  # output identically 0
        x = np.zeros((8, 4))
        with pytest.raises(ConfigError, match="task loss"):
            compute_loss_scale(spec, params, x, np.zeros((8, 4)), ENERGY_RULE, np.random.default_rng(0))

    def test_zero_rule_loss_gives_ratio_zero_without_warning(self):
        rng = np.random.default_rng(7)
        spec, params = tiny_model(rng)
        params = {k: np.zeros_like(v) for k, v in params.items()}
        x = np.zeros((8, 4))  # resting input: predicted rest state cannot raise energy
        y = np.ones((8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale = compute_loss_scale(spec, params, x, y, ENERGY_RULE, np.random.default_rng(0))
        assert scale.ratio == 0.0


class TestTrainStep:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        spec, params = tiny_model(rng)
        ds = identity_dataset(seed=seed)
        x, y = ds.subset("train")
        scale = compute_loss_scale(spec, params, x, y, ENERGY_RULE, np.random.default_rng(0))
        assert scale.rule0 > 0.0, "fixture assumption: rule violated at init"
        return spec, params, x[:32], y[:32], scale

    def test_alpha_zero_freezes_rule_encoder_and_scales_task(self):
        spec, params, x, y, scale = self.make()
        adam = AdamState.for_params(params)
        updated, step = train_step(spec, params, adam, x, y, ENERGY_RULE, "controlled", 0.0, scale)
        for name in params:
            if name.startswith("rule."):
                np.testing.assert_array_equal(updated[name], params[name])
            if name.startswith("data."):
                assert np.any(updated[name] != params[name])
        assert step.total_loss == pytest.approx(scale.ratio * step.task_loss, rel=1e-12)

    def test_alpha_one_uses_rule_loss_only(self):
        spec, params, x, y, scale = self.make(1)
        adam = AdamState.for_params(params)
        updated, step = train_step(spec, params, adam, x, y, ENERGY_RULE, "controlled", 1.0, scale)
        assert step.total_loss == step.rule_loss
        for name in params:
            if name.startswith("data."):
                np.testing.assert_array_equal(updated[name], params[name])

    def test_decomposition_identity_at_intermediate_alpha(self):
        spec, params, x, y, scale = self.make(2)
        adam = AdamState.for_params(params)
        for alpha in (0.1, 0.37, 0.5, 0.81):
            _, step = train_step(spec, params, adam, x, y, ENERGY_RULE, "controlled", alpha, scale)
            recomposed = alpha * step.rule_loss + scale.ratio * (1.0 - alpha) * step.task_loss
            assert abs(step.total_loss - recomposed) <= 1e-12 * abs(step.total_loss)

    def test_task_and_rule_with_zero_weight_equals_task_only(self):
        rng = np.random.default_rng(3)
        spec, params = tiny_model(rng, coupling="single")
        ds = identity_dataset(seed=3)
        x, y = ds.subset("train")
        updated_a, _ = train_step(
            spec, {k: v.copy() for k, v in params.items()}, AdamState.for_params(params),
            x[:32], y[:32], ENERGY_RULE, "task_and_rule", 0.0, None, rule_weight=0.0,
        )
        updated_b, _ = train_step(
            spec, {k: v.copy() for k, v in params.items()}, AdamState.for_params(params),
            x[:32], y[:32], None, "task_only", 0.0, None,
        )
        for name in updated_a:
            np.testing.assert_array_equal(updated_a[name], updated_b[name])

    def test_non_finite_loss_aborts_with_batch_diagnostics(self):
        spec, params, x, y, scale = self.make(4)
        params = {k: v * 1e200 for k, v in params.items()}  # overflow the forward pass
        adam = AdamState.for_params(params)
        from rulemix.errors import TrainingAborted

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingAborted, match="batch_rows"):
                train_step(spec, params, adam, x, y, ENERGY_RULE, "controlled", 0.5, scale)

    def test_monotonic_rule_trains_in_controlled_mode(self):
        # the perturbed pass follows from the rule; the old mode name is
        # accepted only where configs are read (see test_config)
        with pytest.raises(ConfigError, match="controlled_perturb"):
            TrainConfig(mode="controlled_perturb")
        rule = MonotonicRule(feature=0, direction="decrease")
        cfg = TrainConfig(mode="controlled", max_epochs=2, patience=1)
        ds = synth_monotone_regression(CorrGroupSpec(n=200, seed=0))
        spec, _ = tiny_model(np.random.default_rng(4), input_dim=5, output_dim=1)
        result = fit(spec, cfg, ds, rule)
        assert result.scale.rule0 > 0.0
        assert all(math.isfinite(r.train_rule) for r in result.report.records)


class TestFit:
    def quick_cfg(self, **kw):
        base = dict(mode="controlled", max_epochs=6, patience=3, seed=0, batch_size=32)
        base.update(kw)
        return TrainConfig(**base)

    def test_same_seed_gives_bit_identical_parameters(self):
        rng = np.random.default_rng(8)
        spec, _ = tiny_model(rng)
        ds = identity_dataset()
        a = fit(spec, self.quick_cfg(), ds, ENERGY_RULE)
        b = fit(spec, self.quick_cfg(), ds, ENERGY_RULE)
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        assert a.report.best_val == b.report.best_val

    def test_restored_parameters_reproduce_best_validation(self):
        rng = np.random.default_rng(9)
        spec, _ = tiny_model(rng)
        ds = identity_dataset()
        cfg = self.quick_cfg(max_epochs=10, patience=4)
        result = fit(spec, cfg, ds, ENERGY_RULE)
        x_val, y_val = ds.subset("val")
        revalidated = float(np.mean(evaluate_task_loss(spec, result.params, x_val, y_val, cfg.val_alphas)))
        assert revalidated == pytest.approx(result.report.best_val, rel=1e-12)
        assert result.report.best_val == min(r.val_metric for r in result.report.records)

    @pytest.mark.parametrize(
        "coupling,mode",
        [("scaled_concat", "controlled"), ("input_concat_alpha", "controlled"), ("single", "task_only")],
    )
    def test_validation_equals_full_pass_reference(self, coupling, mode, monkeypatch):
        spec = ModelSpec(
            input_dim=4, output_dim=4, coupling=coupling,
            shared_units=(6,), encoder_units=(8, 6), decision_units=(8,),
        )
        ds = identity_dataset()
        cfg = self.quick_cfg(mode=mode, max_epochs=4, patience=3)
        rule = None if mode == "task_only" else ENERGY_RULE
        got = fit(spec, cfg, ds, rule)
        monkeypatch.setattr(rulemix.train, "evaluate_task_loss", full_pass_task_losses)
        want = fit(spec, cfg, ds, rule)
        assert [r.val_metric for r in got.report.records] == [r.val_metric for r in want.report.records]
        assert got.report.best_val == want.report.best_val
        for k in want.params:
            assert np.array_equal(got.params[k], want.params[k])

    @pytest.mark.parametrize("coupling", ["scaled_concat", "input_concat_alpha"])
    def test_flat_adam_equals_per_array_reference(self, coupling, monkeypatch):
        spec = ModelSpec(
            input_dim=4, output_dim=4, coupling=coupling,
            shared_units=(6,), encoder_units=(8, 6), decision_units=(8,),
        )
        ds = identity_dataset()
        cfg = self.quick_cfg(max_epochs=4, patience=3)
        got = fit(spec, cfg, ds, ENERGY_RULE)
        monkeypatch.setattr(rulemix.train, "AdamState", ReferenceAdamState)
        monkeypatch.setattr(rulemix.train, "adam_update", reference_adam_update)
        want = fit(spec, cfg, ds, ENERGY_RULE)
        assert [r.val_metric for r in got.report.records] == [r.val_metric for r in want.report.records]
        assert got.report.best_val == want.report.best_val
        assert list(got.params) == list(want.params)
        for k in want.params:
            assert got.params[k].tobytes() == want.params[k].tobytes(), k

    def test_alpha_fed_layout_is_built_once_per_spec(self, monkeypatch):
        calls = []
        original = rulemix.model.width_matched_units

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rulemix.model, "width_matched_units", counting)
        spec = ModelSpec(
            input_dim=4, output_dim=4, coupling="input_concat_alpha",
            shared_units=(6,), encoder_units=(8, 6), decision_units=(8,),
        )
        rng = np.random.default_rng(0)
        params = rulemix.model.init_params(spec, rng)
        x, y = identity_dataset().subset("train")
        scale = compute_loss_scale(spec, params, x, y, ENERGY_RULE, rng)
        adam = AdamState.for_params(params)
        for alpha in (0.0, 0.3, 1.0):
            rulemix.model.predict_values(spec, params, x[:8], alpha)
            params, _ = train_step(spec, params, adam, x[:8], y[:8], ENERGY_RULE, "controlled", alpha, scale)
        assert len(calls) == 1

    def test_improving_validation_runs_to_max_epochs(self):
        rng = np.random.default_rng(10)
        spec, _ = tiny_model(rng)
        result = fit(spec, self.quick_cfg(mode="task_only", max_epochs=4, patience=2), identity_dataset())
        improving = all(
            result.report.records[i].val_metric < result.report.records[i - 1].val_metric
            for i in range(1, len(result.report.records))
        )
        assert improving, "setup assumption: easy task improves every epoch"
        assert result.report.final_epoch == 4

    def test_early_stopping_stops_before_max(self):
        rng = np.random.default_rng(11)
        spec, _ = tiny_model(rng)
        # high lr destabilizes improvement quickly on a tiny val split
        result = fit(
            spec,
            self.quick_cfg(mode="task_only", max_epochs=200, patience=2, lr=0.5),
            identity_dataset(n=120),
        )
        assert result.report.final_epoch < 200
        assert result.report.final_epoch >= result.report.best_epoch + 2

    def test_rho_policies_both_complete(self):
        rng = np.random.default_rng(12)
        spec, _ = tiny_model(rng)
        ds = identity_dataset()
        fixed = fit(spec, self.quick_cfg(rho_policy="fixed", max_epochs=3, patience=2), ds, ENERGY_RULE)
        adaptive = fit(spec, self.quick_cfg(rho_policy="per_epoch", max_epochs=3, patience=2), ds, ENERGY_RULE)
        assert fixed.report.rho == fixed.scale.ratio
        assert math.isfinite(adaptive.report.rho)

    def test_vacuous_rule_is_rejected_before_training(self):
        # a rule that already holds everywhere has loss 0, and rho = 0 would
        # scale the task term away: training would optimize nothing
        rng = np.random.default_rng(14)
        spec, _ = tiny_model(rng)
        with pytest.raises(ConfigError, match="already holds"):
            fit(spec, self.quick_cfg(), identity_dataset(), ThresholdRule(fn="row_mean", limit=1e6))

    def test_per_epoch_keeps_the_scale_when_the_rule_loss_reaches_zero(self, monkeypatch):
        rule = MonotonicRule(feature=0, direction="decrease")
        ds = synth_monotone_regression(CorrGroupSpec(n=200, seed=1))
        spec, _ = tiny_model(np.random.default_rng(15), input_dim=5, output_dim=1)
        cfg = self.quick_cfg(rho_policy="per_epoch", max_epochs=4, patience=3)
        want = fit(spec, cfg, ds, rule)
        real = rulemix.train.compute_loss_scale
        scales = []

        def satisfied_after_init(*args, **kwargs):
            scale = real(*args, **kwargs)  # draws its perturbation set as before
            scales.append(scale)
            return scale if len(scales) == 1 else LossScale(rule0=0.0, task0=scale.task0)

        monkeypatch.setattr(rulemix.train, "compute_loss_scale", satisfied_after_init)
        got = fit(spec, cfg, ds, rule)
        assert len(scales) == 1 + cfg.max_epochs  # at init and after each epoch
        assert got.scale == scales[0]
        assert got.report.rho == scales[0].ratio > 0.0
        # the recomputation still draws from the generator: same strengths as an unpatched fit
        assert [r.alpha_mean for r in got.report.records] == [r.alpha_mean for r in want.report.records]

    def test_report_csv_round_trip_columns(self, tmp_path):
        rng = np.random.default_rng(13)
        spec, _ = tiny_model(rng)
        result = fit(spec, self.quick_cfg(max_epochs=2, patience=1), identity_dataset(), ENERGY_RULE)
        path = tmp_path / "report.csv"
        result.report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_task,train_rule,val_metric,alpha_mean"
        assert len(lines) == 1 + result.report.final_epoch

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="nope")
        with pytest.raises(ConfigError):
            TrainConfig(beta=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=10, max_epochs=10)
