"""Strength sampling, loss scaling, step semantics, and the fit loop."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import rulemix.train
import rulemix.model
from helpers import ReferenceAdamState, full_pass_task_losses, reference_adam_update, tiny_model
from rulemix.autodiff import Arrays
from rulemix.config import config_from_dict
from rulemix.data import Dataset, assign_splits
from rulemix.errors import ConfigError, TrainingAborted
from rulemix.model import ModelSpec, encode, forward_per_alpha, init_params
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

    def test_rescaled_task_term_exact_at_initial_value(self):
        # the objective rescales as (task / task0) * rule0: at task == task0 the
        # task term is (1 - alpha) * rule0 exactly, where ratio * task is only close
        spec, params, x, y, _ = self.make(4)
        rng = np.random.default_rng(4)
        for _ in range(100):
            rule0, alpha = rng.uniform(1e-6, 1e3), rng.uniform(0.0, 1.0)
            # a step moves the parameters it trains, so each step starts from a fresh copy of params
            first = train_step(
                spec, AdamState.for_params(params), x, y, ENERGY_RULE, "controlled", alpha, LossScale(rule0, 1.0)
            )
            scale = LossScale(rule0=rule0, task0=first.task_loss)
            step = train_step(spec, AdamState.for_params(params), x, y, ENERGY_RULE, "controlled", alpha, scale)
            assert step.total_loss == step.rule_loss * alpha + (1.0 - alpha) * rule0

    def test_alpha_zero_freezes_rule_encoder_and_scales_task(self):
        spec, params, x, y, scale = self.make()
        adam = AdamState.for_params(params)
        step = train_step(spec, adam, x, y, ENERGY_RULE, "controlled", 0.0, scale)
        updated = adam.params
        for name in params:
            if name.startswith("rule."):
                np.testing.assert_array_equal(updated[name], params[name])
            if name.startswith("data."):
                assert np.any(updated[name] != params[name])
        assert step.total_loss == pytest.approx(scale.ratio * step.task_loss, rel=1e-12)

    def test_alpha_one_uses_rule_loss_only(self):
        spec, params, x, y, scale = self.make(1)
        adam = AdamState.for_params(params)
        step = train_step(spec, adam, x, y, ENERGY_RULE, "controlled", 1.0, scale)
        updated = adam.params
        assert step.total_loss == step.rule_loss
        for name in params:
            if name.startswith("data."):
                np.testing.assert_array_equal(updated[name], params[name])

    def test_decomposition_identity_at_intermediate_alpha(self):
        spec, params, x, y, scale = self.make(2)
        adam = AdamState.for_params(params)
        for alpha in (0.1, 0.37, 0.5, 0.81):
            step = train_step(spec, adam, x, y, ENERGY_RULE, "controlled", alpha, scale)
            recomposed = alpha * step.rule_loss + scale.ratio * (1.0 - alpha) * step.task_loss
            assert abs(step.total_loss - recomposed) <= 1e-12 * abs(step.total_loss)

    def test_task_and_rule_with_zero_weight_equals_task_only(self):
        rng = np.random.default_rng(3)
        spec, params = tiny_model(rng, coupling="single")
        ds = identity_dataset(seed=3)
        x, y = ds.subset("train")
        adam_a, adam_b = AdamState.for_params(params), AdamState.for_params(params)
        train_step(spec, adam_a, x[:32], y[:32], ENERGY_RULE, "task_and_rule", 0.0, None, rule_weight=0.0)
        train_step(spec, adam_b, x[:32], y[:32], None, "task_only", 0.0, None)
        for name in params:
            np.testing.assert_array_equal(adam_a.params[name], adam_b.params[name])

    @pytest.mark.parametrize(
        "mode, rule, scale, missing",
        [("controlled", None, LossScale(1.0, 1.0), "a rule"), ("controlled", ENERGY_RULE, None, "a LossScale"),
         ("task_and_rule", None, None, "a rule"), ("rule_only", None, None, "a rule")],
    )
    def test_a_mode_missing_what_it_needs_is_refused_before_the_step(self, mode, rule, scale, missing):
        spec, params, x, y, _ = self.make()
        adam = AdamState.for_params(params)
        before = adam.theta.copy()
        with pytest.raises(ConfigError, match=f"^mode '{mode}' requires {missing}$"):
            train_step(spec, adam, x, y, rule, mode, 0.5, scale)
        np.testing.assert_array_equal(adam.theta, before)
        if missing == "a rule":  # fit reads the same check
            with pytest.raises(ConfigError, match=f"^mode '{mode}' requires a rule$"):
                fit(spec, TrainConfig(mode=mode, max_epochs=2, patience=1), identity_dataset())

    def test_non_finite_loss_aborts_with_batch_diagnostics(self):
        spec, params, x, y, scale = self.make(4)
        params = {k: v * 1e200 for k, v in params.items()}  # overflow the forward pass
        adam = AdamState.for_params(params)
        from rulemix.errors import TrainingAborted

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingAborted, match="batch_rows"):
                train_step(spec, adam, x, y, ENERGY_RULE, "controlled", 0.5, scale)

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
            rulemix.model.predict_values(spec, adam.params, x[:8], alpha)
            train_step(spec, adam, x[:8], y[:8], ENERGY_RULE, "controlled", alpha, scale)
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

    @pytest.mark.parametrize("mode, split", [("controlled", "train"), ("rule_only", "val")])
    def test_a_rule_that_no_pair_exercises_is_refused_naming_the_cause(self, mode, split):
        # no row of feature 0 is nudged across a guard at 1e6: every pair is invalid, and the
        # rule loss is 0 whatever the model does
        guarded = config_from_dict({"task": "monotone-regression", "data": {"n": 300}, "rule": {"guard": 1e6},
                                    "model": {"encoder_units": [8, 4], "decision_units": [8]},
                                    "train": {"mode": mode, "max_epochs": 4, "patience": 2}})
        pattern = (rf"^the {split} split has 0 valid perturbation pairs of \d+: "
                   r"no nudge of feature 0 exercises the rule \(guard 1000000\.0\)")
        with pytest.raises(ConfigError, match=pattern):
            fit(guarded.model_spec(), guarded.train_config(), guarded.build_dataset(), guarded.rule())

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
        assert got.report.final_epoch == cfg.max_epochs
        assert len(scales) == cfg.max_epochs  # at init and after each epoch but the last
        assert got.scale == scales[0]
        assert got.report.rho == scales[0].ratio > 0.0
        # the recomputation still draws from the generator: same strengths as an unpatched fit
        assert [r.alpha_mean for r in got.report.records] == [r.alpha_mean for r in want.report.records]

    def test_per_epoch_stores_the_scale_of_the_best_epoch(self, monkeypatch):
        rule = MonotonicRule(feature=0, direction="decrease")
        ds = synth_monotone_regression(CorrGroupSpec(n=200, seed=1))
        spec, _ = tiny_model(np.random.default_rng(15), input_dim=5, output_dim=1)
        cfg = self.quick_cfg(rho_policy="per_epoch", max_epochs=4, patience=3)
        real = rulemix.train.compute_loss_scale
        scales = []

        def recording(*args, **kwargs):
            scales.append(real(*args, **kwargs))
            return scales[-1]

        val_metrics = iter([3.0, 1.0, 2.0, 2.5])  # best at epoch 2
        monkeypatch.setattr(rulemix.train, "compute_loss_scale", recording)
        monkeypatch.setattr(rulemix.train, "_validation_metric", lambda *args: next(val_metrics))
        got = fit(spec, cfg, ds, rule)
        assert (got.report.best_epoch, got.report.final_epoch) == (2, 4)
        assert len(scales) == cfg.max_epochs  # no pass after the final epoch
        # epoch 2 trained under the scale recomputed after epoch 1
        assert got.scale == scales[1] != scales[-1]

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
        with pytest.raises(ConfigError, match="patience must be >= 1"):
            TrainConfig(patience=0, max_epochs=5)  # loaded, then always trained exactly one epoch


def params_sha256(params: dict[str, np.ndarray]) -> str:
    """The benchmark's parameter digest: each name, then its float64 bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


# small 2-epoch fits, one per task; the digests were recorded before dense
# blocks became one tape node, and any change to the training arithmetic moves them
PINNED_FITS = {
    "pendulum": (  # energy rule, shared block fed by the input
        {"data": {"n_pairs": 400, "n_trajectories": 4, "friction": 2.0},
         "model": {"shared_units": [8], "encoder_units": [8, 8], "decision_units": [8]}},
        "193010140b28395395e416a229c03c6164646e1c032a9762653e081dca979ff3",
    ),
    "monotone-regression": (  # monotonic rule: the input and its perturbed copy share the parameters
        {"data": {"n": 300}, "model": {"encoder_units": [8, 4], "decision_units": [8]}},
        "31660bd97dede89ff73b1db097efdfbab3e690469f8d74d01e100289d9085e67",
    ),
    "shifted-classification": (  # monotonic rule, a sigmoid output and BCE
        {"data": {"n_usual": 150, "n_unusual": 150}, "model": {"encoder_units": [10, 4]}},
        "69abf45541983a845ec251f0e4f64ade481c0e34884549d482f6835dc6330a60",
    ),
}


# (rule0, task0) of the loss-scale pass that each pinned fit starts with,
# recorded while the pass still ran on a recorded gradient tape
PINNED_LOSS_SCALES = {
    "monotone-regression": ("0x1.1fd397c983bcfp-15", "0x1.09565c861c885p+1"),
    "pendulum": ("0x1.0bc8303d6506ep-3", "0x1.26dbf79ffc217p+0"),
    "shifted-classification": ("0x1.31c20c4b5343fp-10", "0x1.7647d113a76b1p-1"),
}


def pinned_config(task: str, **train):
    overrides, _ = PINNED_FITS[task]
    return config_from_dict({"task": task, **overrides, "train": {"max_epochs": 2, "patience": 1, **train}})


@pytest.mark.parametrize("task", sorted(PINNED_FITS))
def test_trained_parameters_are_bit_identical_to_the_pinned_digest(task):
    cfg = pinned_config(task)
    result = fit(cfg.model_spec(), cfg.train_config(), cfg.build_dataset(), cfg.rule())
    assert result.report.final_epoch == 2
    assert params_sha256(result.params) == PINNED_FITS[task][1]


def test_an_epoch_that_moves_no_parameter_stops_the_fit():
    cfg = pinned_config("monotone-regression", lr=1e-300, max_epochs=3)
    with pytest.raises(TrainingAborted, match="^epoch 1 left every parameter bit-equal .*lr 1e-300"):
        fit(cfg.model_spec(), cfg.train_config(), cfg.build_dataset(), cfg.rule())


@pytest.mark.parametrize("task", sorted(PINNED_LOSS_SCALES))
def test_loss_scale_is_bit_identical_to_the_pinned_pair(task):
    # drawn as fit draws it: the initial parameters, then the pass, from one generator
    cfg = pinned_config(task)
    spec, seed = cfg.model_spec(), cfg.train_config().seed
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x, y = cfg.build_dataset().subset("train")
    scale = compute_loss_scale(spec, params, x, y, cfg.rule(), rng)
    assert (scale.rule0.hex(), scale.task0.hex()) == PINNED_LOSS_SCALES[task]


def test_rule_only_fit_is_bit_identical_to_the_pinned_digest():
    # validation in rule_only mode reads the rule loss on a perturbed copy of val, drawn once
    cfg = pinned_config("monotone-regression", mode="rule_only")
    result = fit(cfg.model_spec(), cfg.train_config(), cfg.build_dataset(), cfg.rule())
    assert [r.val_metric.hex() for r in result.report.records] == ["0x1.02b40b0fe4e39p-15", "0x1.38cff7f1fb111p-16"]
    assert params_sha256(result.params) == "fd7014f36815fc1c89d76aaa9e06e35f67db57a70a31262161d65d73efd4e0ff"


# 2-epoch fits in the two baselines the pins above leave out, recorded while fit and train_step
# still branched on the mode's name: (task, train) -> (digest, train_rule hex, val_metric hex)
PINNED_MODE_FITS = {
    "task_only, monotone-regression": (  # a perturbing rule: no perturbation is drawn, train_rule is NaN
        ("monotone-regression", {"mode": "task_only"}),
        ("7399c9dc3e0669666eb30648023d781e972a4156be91a4ff9c8f28a00df41d74",
         ["nan", "nan"], ["0x1.10303ec821e8ep+1", "0x1.0f788e4cce237p+1"]),
    ),
    "task_only, pendulum": (  # the energy term is on the tape for the report, out of the total
        ("pendulum", {"mode": "task_only"}),
        ("f95b7cb6e71f0de216aa80ac741a821d90b76bef3c6f0e76bdc9a43cda2dec5f",
         ["0x1.8db3f51087eb8p-4", "0x1.5ee81834f9e70p-4"], ["0x1.58bb80375bc93p-4", "0x1.4c3e4f0e73f9dp-4"]),
    ),
    "task_and_rule, monotone-regression": (
        ("monotone-regression", {"mode": "task_and_rule", "rule_weight": 0.5}),
        ("a6815798f6de0805131976763174b410bc3a44b2bba768091d613e5df0994957",
         ["0x1.5e786c93e06dap-13", "0x1.081de43dd138bp-13"], ["0x1.1030003421f49p+1", "0x1.0f56c684f6806p+1"]),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_MODE_FITS))
def test_baseline_fit_is_bit_identical_to_the_pinned_digest(case):
    (task, train), (digest, train_rule, val_metric) = PINNED_MODE_FITS[case]
    cfg = pinned_config(task, **train)
    result = fit(cfg.model_spec(), cfg.train_config(), cfg.build_dataset(), cfg.rule())
    assert [r.train_rule.hex() for r in result.report.records] == train_rule
    assert [r.val_metric.hex() for r in result.report.records] == val_metric
    assert params_sha256(result.params) == digest


# 2-epoch monotone-regression fits under every other coupling, with and without a
# shared block; recorded while predict and the inference path still wrote the network twice
PINNED_COUPLING_FITS = {
    "concat": ({"coupling": "concat", "shared_units": [6]},
               "31c90e6bd49642f3528db74d37764f7c36c221753c4f4181f93a7383c43b5811"),
    "add": ({"coupling": "add"}, "48a7563acea60e707c9b1fd5c19da8f42a1eed2861d921c3a475da45128f0e8c"),
    "single": ({"coupling": "single", "shared_units": [6]},
               "6d2ad981df56f7b53a444dc6b599189fb06bede51c6023be11780f7069bee0e4"),
    "input_concat_alpha": ({"coupling": "input_concat_alpha"},
                           "96b63f79919fe6af5119047d594f38f9bff47795cdb96fc2ff41e5f35769a92a"),
    "input_concat_alpha, shared block": ({"coupling": "input_concat_alpha", "shared_units": [6]},
                                         "35e6840d43da6fe3c9d8c063869a6ecabda56f4b510b60393e033b58150c8f10"),
}


@pytest.mark.parametrize("case", sorted(PINNED_COUPLING_FITS))
def test_fit_under_each_coupling_is_bit_identical_to_the_pinned_digest(case):
    model, digest = PINNED_COUPLING_FITS[case]
    cfg = config_from_dict({"task": "monotone-regression", "data": {"n": 300},
                            "model": {"encoder_units": [8, 4], "decision_units": [8], **model},
                            "train": {"max_epochs": 2, "patience": 1}})
    result = fit(cfg.model_spec(), cfg.train_config(), cfg.build_dataset(), cfg.rule())
    assert result.report.final_epoch == 2
    assert params_sha256(result.params) == digest


def traced_peak(run) -> int:
    """Bytes that ``tracemalloc`` sees allocated at the peak of ``run()``, over what was allocated before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def widest_matrix_bytes(spec: ModelSpec, rows: int) -> int:
    """Bytes of one float64 matrix of ``rows`` rows and the width of the model's widest layer."""
    return rows * max(layer.fan_out for block in spec.blocks().values() for layer in block) * 8


def test_loss_scale_pass_keeps_one_matrix_per_layer():
    # the rescale pass runs the train split and its perturbed copy, one after the other,
    # on the inference path: each encoding holds the layer being computed and its input
    cfg = config_from_dict({"task": "shifted-classification", "data": {"n_usual": 300, "n_unusual": 300}})
    spec = cfg.model_spec()
    x, y = cfg.build_dataset().subset("train")
    params = init_params(spec, np.random.default_rng(0))
    peak = traced_peak(lambda: compute_loss_scale(spec, params, x, y, cfg.rule(), np.random.default_rng(1)))
    # 5.5x when both passes were recorded on one gradient tape, 2.58x when each encoding was
    # recorded on a tape of its own, 1.44x with no tape
    assert peak < 2 * widest_matrix_bytes(spec, x.shape[0]), (peak, widest_matrix_bytes(spec, x.shape[0]))


@pytest.mark.parametrize("coupling", ["scaled_concat", "concat", "add", "single"])
def test_inference_encoding_keeps_only_the_live_layer(coupling):
    # four layers per encoder and a narrow latent: holding every layer's output of an encoding
    # would cost 3.3x (one encoder) to 6.4x (two), the layer being computed and its input 2x;
    # input_concat_alpha is left out, as its encoder writes into buffers the next strength reuses
    spec = ModelSpec(input_dim=4, output_dim=1, coupling=coupling, encoder_units=(64, 64, 64, 8), decision_units=())
    rng = np.random.default_rng(3)
    params = init_params(spec, rng)
    x = rng.uniform(-1, 1, (500, 4))
    peak = traced_peak(lambda: next(forward_per_alpha(spec, params, encode(Arrays(), spec, params, x), [0.5])))
    assert peak < 2.5 * widest_matrix_bytes(spec, x.shape[0]), (peak, widest_matrix_bytes(spec, x.shape[0]))
