"""Synthetic tabular generators: correlation targeting and shift mixing."""

import numpy as np
import pytest

from helpers import usual_mask
from rulemix.errors import GenerationError
from rulemix.tabular import (
    CorrGroupSpec,
    ShiftMixSpec,
    difference_correlation,
    synth_monotone_regression,
    synth_shifted_classification,
)


class TestMonotoneRegression:
    def test_zero_correlation_without_noise(self):
        ds = synth_monotone_regression(CorrGroupSpec(n=4000, target_corr=0.0, noise=0.0, seed=0))
        measured = difference_correlation(ds.x[:, 0], ds.y)
        assert abs(measured) < 0.05

    def test_negative_target_lands_in_band(self):
        spec = CorrGroupSpec(n=3000, target_corr=-0.3, seed=1)
        ds = synth_monotone_regression(spec)
        # independent recount of the generator's own verification statistic
        measured = float(
            np.corrcoef(np.diff(ds.x[:, spec.feature]), np.diff(ds.y[:, 0]))[0, 1]
        )
        assert -0.35 <= measured <= -0.25

    def test_identical_seeds_identical_datasets(self):
        spec = CorrGroupSpec(n=500, target_corr=-0.2, seed=7)
        a = synth_monotone_regression(spec)
        b = synth_monotone_regression(spec)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_every_requested_correlation_is_hit(self):
        for c in (-0.1, -0.2, -0.3, 0.2, 0.3):
            for seed in range(3):
                spec = CorrGroupSpec(n=2000, target_corr=c, seed=seed)
                ds = synth_monotone_regression(spec)
                measured = difference_correlation(ds.x[:, 0], ds.y)
                assert abs(measured - c) <= 0.05, (c, seed, measured)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorrGroupSpec(target_corr=1.5)
        with pytest.raises(ValueError):
            CorrGroupSpec(n=10)
        with pytest.raises(ValueError):
            CorrGroupSpec(feature=9, d=5)

    def test_unattainable_target_fails_after_bounded_retries(self, monkeypatch):
        import rulemix.tabular as tab

        monkeypatch.setattr(tab, "CORR_TOLERANCE", 1e-9)  # impossible band
        with pytest.raises(GenerationError, match="after"):
            synth_monotone_regression(CorrGroupSpec(n=200, target_corr=-0.2, seed=0))


class TestShiftedClassification:
    def test_all_usual_means_rule_holds_everywhere(self):
        spec = ShiftMixSpec(n_usual=1000, n_unusual=0)
        ds = synth_shifted_classification(spec, seed=0)
        side = ds.x[:, spec.feature] >= spec.threshold
        assert np.array_equal(side.astype(float), ds.y[:, 0])

    def test_mix_ratios_by_construction(self):
        source = ShiftMixSpec(n_usual=6007, n_unusual=14018)
        target1 = ShiftMixSpec(n_usual=20000, n_unusual=6009)
        assert source.n_usual / (source.n_usual + source.n_unusual) == pytest.approx(0.30, abs=0.005)
        assert target1.n_usual / (target1.n_usual + target1.n_unusual) == pytest.approx(0.77, abs=0.005)
        ds = synth_shifted_classification(source, seed=0)
        assert len(ds) == 20025
        recomputed = usual_mask(ds.x, ds.y, source.threshold, source.feature)
        assert int(recomputed.sum()) == 6007

    def test_membership_recomputable_and_exact(self):
        spec = ShiftMixSpec(n_usual=700, n_unusual=300)
        for seed in range(3):
            ds = synth_shifted_classification(spec, seed=seed)
            mask = usual_mask(ds.x, ds.y, spec.threshold, spec.feature)
            assert int(mask.sum()) == 700
            assert int((~mask).sum()) == 300

    def test_seed_determinism(self):
        spec = ShiftMixSpec(n_usual=400, n_unusual=600)
        a = synth_shifted_classification(spec, seed=5)
        b = synth_shifted_classification(spec, seed=5)
        c = synth_shifted_classification(spec, seed=6)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_eval_only_split(self):
        spec = ShiftMixSpec(n_usual=100, n_unusual=100)
        ds = synth_shifted_classification(spec, seed=0, split_fractions=(0.0, 0.0, 1.0))
        assert ds.counts() == {"train": 0, "val": 0, "test": 200}

    def test_labels_are_binary(self):
        ds = synth_shifted_classification(ShiftMixSpec(n_usual=50, n_unusual=150), seed=1)
        assert set(np.unique(ds.y)) == {0.0, 1.0}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShiftMixSpec(n_usual=0, n_unusual=0)
        with pytest.raises(ValueError):
            ShiftMixSpec(n_usual=10, n_unusual=10, feature=6, d=6)
