"""Simulator physics, energy function, and dataset construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cartesian_energy, reference_eom, reference_rk4_step, reference_states
from rulemix.data import SPLITS
from rulemix.errors import SimulationBlowup
from rulemix.pendulum import (
    DEFAULT_PARAMS,
    PendulumParams,
    build_pendulum_dataset,
    energy,
    rk4_simulate,
    simulate_states,
)


def derivatives(state, p: PendulumParams):
    """Time derivative (omega1, alpha1, omega2, alpha2) from the reference
    equations, which the simulator's steps match bit for bit."""
    return reference_eom(state, p)


def rk4_step(state, dt: float, p: PendulumParams):
    """One step of the simulator, through the path every dataset build takes."""
    return tuple(simulate_states(state, p, 1, dt)[1])


class TestEquationsOfMotion:
    def test_rest_state_is_equilibrium(self):
        assert derivatives((0.0, 0.0, 0.0, 0.0), DEFAULT_PARAMS) == (0.0, 0.0, 0.0, 0.0)

    def test_friction_drains_energy_at_rate_b_omega_sq(self):
        # chain rule along the flow: dE/dt = dE/ds . f(s) = -b*(w1^2 + w2^2)
        from rulemix.pendulum import energy_gradient

        damped = PendulumParams(b=0.05)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = tuple(rng.uniform(-2, 2, 4))
            flow = np.array(derivatives(s, damped))
            de_dt = float(energy_gradient(np.array(s), damped)[0] @ flow)
            expected = -damped.b * (s[1] ** 2 + s[3] ** 2)
            assert de_dt == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PendulumParams(m1=0.0)
        with pytest.raises(ValueError):
            PendulumParams(b=-0.1)

    @pytest.mark.parametrize("field", ["m1", "m2", "l1", "l2", "g", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, field, value):
        # the message names b by the config key that sets it
        name = "friction" if field == "b" else field
        with pytest.raises(ValueError, match=f"^{name} must be"):
            PendulumParams(**{field: value})


class TestEnergy:
    def test_hanging_at_rest(self):
        p = DEFAULT_PARAMS
        expected = -(p.m1 + p.m2) * p.g * p.l1 - p.m2 * p.g * p.l2
        assert energy((0.0, 0.0, 0.0, 0.0), p) == pytest.approx(expected, rel=1e-15)

    def test_horizontal_arms_at_rest_have_zero_energy(self):
        assert energy((np.pi / 2, 0.0, np.pi / 2, 0.0), DEFAULT_PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_matches_cartesian_rederivation(self):
        # independent oracle: positions/velocities in the plane
        rng = np.random.default_rng(1)
        p = PendulumParams(m1=1.7, m2=0.6, l1=1.3, l2=0.4, g=9.2, b=0.0)
        for _ in range(100):
            s = rng.uniform(-3, 3, 4)
            assert energy(s, p) == pytest.approx(cartesian_energy(s, p), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        states = rng.uniform(-2, 2, (10, 4))
        batch = energy(states, DEFAULT_PARAMS)
        singles = np.array([energy(s, DEFAULT_PARAMS) for s in states])
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


class TestSimulation:
    def test_frictionless_energy_drift_below_gate(self):
        p = PendulumParams(b=0.0)
        states = simulate_states((2.0, 0.0, 2.0, 0.0), p, 2000, 1.0 / 200)
        energies = energy(states, p)
        drift = np.max(np.abs(energies - energies[0]) / abs(energies[0]))
        assert drift < 1e-6

    def test_rest_stays_at_rest(self):
        kept = rk4_simulate((0.0, 0.0, 0.0, 0.0), DEFAULT_PARAMS, 50, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(kept, np.zeros((50, 4)))

    def test_damped_pairs_lose_energy(self):
        kept = rk4_simulate((2.0, 0.0, 2.0, 0.0), DEFAULT_PARAMS, 1000, 0.0, np.random.default_rng(0))
        e = energy(kept, DEFAULT_PARAMS)
        assert np.all(np.diff(e) < 0.0)

    def test_blowup_reports_step_index(self):
        # force divergence with an unphysical hand-built parameter object
        p = PendulumParams(m1=1e-12, m2=1e12, l1=1e-6, l2=1e6, g=9.81, b=0.0)
        with pytest.raises(SimulationBlowup) as info:
            simulate_states((2.0, 1e9, -2.0, 1e9), p, 10000, 0.05)
        assert info.value.step >= 1


class TestIntegratorMatchesReference:
    """The simulator's arithmetic is pinned to a term-by-term reference, so
    datasets stay byte-identical; comparisons are exact, not approximate."""

    PARAMS = (DEFAULT_PARAMS, PendulumParams(m1=1.7, m2=0.6, l1=1.3, l2=0.4, g=9.2, b=0.3))

    def test_derivatives_and_step_equal_reference(self):
        rng = np.random.default_rng(3)
        for p in self.PARAMS:
            for _ in range(200):
                s = tuple(float(v) for v in rng.uniform(-3, 3, 4))
                assert rk4_step(s, 0.005, p) == reference_rk4_step(s, 0.005, p)

    def test_simulate_states_equals_loop_of_steps(self):
        dt = 1.0 / 200
        for p in self.PARAMS:
            for s0 in ((2.0, 0.0, 1.99, 0.0), (0.3, -1.0, -2.5, 4.0)):
                got = simulate_states(s0, p, 2000, dt)
                assert np.array_equal(got, reference_states(lambda s: reference_rk4_step(s, dt, p), s0, 2000))
                assert np.array_equal(got, reference_states(lambda s: rk4_step(s, dt, p), s0, 2000))

    def test_blowup_step_index_equals_reference(self):
        p = PendulumParams(m1=1e-12, m2=1e12, l1=1e-6, l2=1e6, g=9.81, b=0.0)
        s0 = (2.0, 1e9, -2.0, 1e9)
        state, first_bad = s0, None
        for i in range(1, 10001):
            state = reference_rk4_step(state, 0.05, p)
            if not all(np.isfinite(state)):
                first_bad = i
                break
        assert first_bad is not None, "setup assumption: the reference diverges"
        with pytest.raises(SimulationBlowup) as info:
            simulate_states(s0, p, 10000, 0.05)
        assert info.value.step == first_bad

    @pytest.mark.parametrize("n_steps", [2000, 2013, 7])
    @pytest.mark.parametrize("every", [1, 20])
    def test_every_keeps_exactly_the_strided_states(self, every, n_steps):
        dt = 1.0 / 200
        for p in self.PARAMS:
            for s0 in ((2.0, 0.0, 1.99, 0.0), (0.3, -1.0, -2.5, 4.0)):
                want = simulate_states(s0, p, n_steps, dt)[::every]
                got = simulate_states(s0, p, n_steps, dt, every=every)
                assert got.shape == want.shape == (n_steps // every + 1, 4)
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def reference_first_bad_step(s0, p, n_steps, dt):
        """The first step whose reference state is non-finite, or whose
        stages take the sine of an infinite angle (which would give NaN)."""
        state = s0
        for i in range(1, n_steps + 1):
            try:
                state = reference_rk4_step(state, dt, p)
            except ValueError:
                return i, "domain"
            if not all(np.isfinite(state)):
                return i, "non-finite"
        return None, None

    @pytest.mark.parametrize(
        "friction,cause", [(544.0, "non-finite"), (541.0, "domain")], ids=["non-finite-state", "infinite-stage-angle"]
    )
    def test_blowup_between_retained_states_names_its_step(self, friction, cause):
        # friction far above any physical setting makes the 200 Hz step unstable
        p, s0, dt = PendulumParams(b=friction), (2.0, 0.0, 1.99, 0.0), 1.0 / 200
        first_bad, found = self.reference_first_bad_step(s0, p, 1000, dt)
        assert found == cause and first_bad > 20 and first_bad % 20, "setup assumption: a blow-up between kept states"
        for every in (1, 20):
            with pytest.raises(SimulationBlowup) as info:
                simulate_states(s0, p, 1000, dt, every=every)
            assert info.value.step == first_bad


class TestBuildIsPinned:
    """Digests of a noisy build, fixed when the simulator was last rewritten:
    a change to the RK4 arithmetic or to the noise draws changes them."""

    N_PAIRS, N_TRAJECTORIES, SEED = 400, 3, 11
    SHA256 = (
        {
            "train": "5903390e4e24d8697af4c0306252854cf301bbc994afd5a20ac6c0058506decf",
            "val": "dc46489534127ecd914b97de2e726c614f4498908b6f3f9b2c0d2fdc0c85cd59",
            "test": "d9acb64c6d5b570e2b32bbb365fb55ba68869026b3bbdda72438394b455f6f3b",
        },
        {
            "train": "781e803bafd8dad8c651126685a40bf18e6207a2f515f7510531c6d72d614cea",
            "val": "f7a82f8fff8d1f51178ba6c0867c4e3a89445111e6b2d48783587fda0ee5f653",
            "test": "834cecd6adf06fcab84e5b0d67478c6414a7a65ec657171ead91a9fa69f605b9",
        },
    )

    @pytest.mark.parametrize("which", [0, 1])
    def test_split_digests(self, which):
        p = TestIntegratorMatchesReference.PARAMS[which]
        ds = build_pendulum_dataset(p, n_pairs=self.N_PAIRS, n_trajectories=self.N_TRAJECTORIES, seed=self.SEED)
        assert {s: ds.sha256(s) for s in SPLITS} == self.SHA256[which]


class TestDatasetBuilder:
    def test_default_split_sizes(self):
        ds = build_pendulum_dataset(n_pairs=1000, n_trajectories=2, seed=0)
        assert ds.counts() == {"train": 600, "val": 100, "test": 300}

    def test_paper_scale_split_sizes(self):
        # 30,000 pairs -> 18k/3k/9k; use few trajectories but tiny counts to stay fast
        from rulemix.data import assign_splits

        labels = assign_splits(30000, (0.6, 0.1, 0.3))
        assert int(np.sum(labels == "train")) == 18000
        assert int(np.sum(labels == "val")) == 3000
        assert int(np.sum(labels == "test")) == 9000

    def test_pairs_are_consecutive_within_trajectories(self):
        ds = build_pendulum_dataset(n_pairs=200, n_trajectories=2, noise_std=0.0, seed=3)
        # within one trajectory the target of pair t is the input of pair t+1
        first = ds.x[:100], ds.y[:100]
        np.testing.assert_array_equal(first[1][:-1], first[0][1:])
        # trajectory boundary: pair 100 starts a fresh trajectory
        assert not np.allclose(ds.y[99], ds.x[100])

    def test_seed_changes_noise_not_clean_trajectory(self):
        clean = build_pendulum_dataset(n_pairs=100, n_trajectories=1, noise_std=0.0, seed=0)
        noisy1 = build_pendulum_dataset(n_pairs=100, n_trajectories=1, noise_std=0.01, seed=1)
        noisy2 = build_pendulum_dataset(n_pairs=100, n_trajectories=1, noise_std=0.01, seed=2)
        clean2 = build_pendulum_dataset(n_pairs=100, n_trajectories=1, noise_std=0.0, seed=9)
        np.testing.assert_array_equal(clean.x, clean2.x)  # no noise, seed-independent
        assert not np.array_equal(noisy1.x, noisy2.x)
        assert np.max(np.abs(noisy1.x - clean.x)) < 0.01 * 6  # noise is small
        assert np.max(np.abs(noisy1.x - clean.x)) > 0.0

    def test_same_seed_is_bit_identical(self):
        a = build_pendulum_dataset(n_pairs=150, n_trajectories=3, seed=11)
        b = build_pendulum_dataset(n_pairs=150, n_trajectories=3, seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_clean_pairs_satisfy_damping_rule_everywhere(self):
        ds = build_pendulum_dataset(n_pairs=500, n_trajectories=2, noise_std=0.0, seed=0)
        # recount with the energy oracle over every clean pair
        violations = int(np.sum(energy(ds.y, DEFAULT_PARAMS) > energy(ds.x, DEFAULT_PARAMS)))
        assert violations == 0

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("n_trajectories", 0, "n_trajectories must be >= 1"),
            ("n_pairs", 4, "at least one pair per trajectory"),
            ("theta0", math.inf, "theta0 must be finite"),
            ("theta0", math.nan, "theta0 must be finite"),
            ("noise_std", -1.0, "noise_std must be finite and >= 0"),
            ("noise_std", math.nan, "noise_std must be finite and >= 0"),
            ("noise_std", math.inf, "noise_std must be finite and >= 0"),
        ],
    )
    def test_bad_arguments_rejected(self, field, value, message):
        args = {"n_pairs": 50, "n_trajectories": 5, "theta0": 2.0, "noise_std": 0.01, field: value}
        with pytest.raises(ValueError, match=message):
            build_pendulum_dataset(**args)

    def test_unknown_split_name_rejected(self):
        with pytest.raises(ValueError, match="unknown splits"):
            build_pendulum_dataset(n_pairs=20, n_trajectories=2, splits=("tset",))


class TestSplitBuild:
    """Building some splits gives exactly their rows of the full build."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_trajectories=st.integers(1, 5),
        extra_pairs=st.integers(0, 23),  # uneven n_pairs % n_trajectories
        tenths=st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda t: sum(t) <= 10),
        noise_std=st.sampled_from([0.0, 0.01]),
        splits=st.lists(st.sampled_from(SPLITS), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 3),
    )
    def test_requested_splits_equal_the_full_build(self, n_trajectories, extra_pairs, tenths, noise_std, splits, seed):
        # fractions in tenths put split boundaries inside trajectories as often as on them
        fractions = (tenths[0] / 10, tenths[1] / 10, 1.0 - tenths[0] / 10 - tenths[1] / 10)
        args = dict(
            params=PendulumParams(b=0.3), n_pairs=n_trajectories + extra_pairs, n_trajectories=n_trajectories,
            noise_std=noise_std, seed=seed, split_fractions=fractions,
        )
        full = build_pendulum_dataset(**args)
        part = build_pendulum_dataset(**args, splits=tuple(splits))
        for split in SPLITS:
            got_x, got_y = part.subset(split)
            if split in splits:
                want_x, want_y = full.subset(split)
                assert got_x.tobytes() == want_x.tobytes() and got_y.tobytes() == want_y.tobytes()
                assert got_x.shape == want_x.shape and got_y.shape == want_y.shape
            else:
                assert got_x.shape[0] == 0
        assert [s for s in full.split if s in splits] == part.split.tolist()  # stream order

    @pytest.mark.parametrize("splits,simulated", [(SPLITS, 10), (("val", "test"), 4), (("test",), 3), (("val",), 1)])
    def test_only_trajectories_with_requested_pairs_are_simulated(self, monkeypatch, splits, simulated):
        import rulemix.pendulum

        real = rulemix.pendulum.simulate_states
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(rulemix.pendulum, "simulate_states", counting)
        ds = build_pendulum_dataset(n_pairs=100, n_trajectories=10, splits=splits)
        assert len(calls) == simulated
        assert calls == [10 * 20] * simulated  # whole trajectories: 10 pairs of 20 RK4 steps each
        assert len(ds) == 10 * simulated
