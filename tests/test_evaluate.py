"""Metrics, strength sweeps, selection, and rank correlation."""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest

import rulemix.autodiff
import rulemix.evaluate
import rulemix.model
import rulemix.parallel
import rulemix.rules
from helpers import assert_joined, direct_sweep, force_sweep_workers, spearman_rank_corr, tiny_model
from rulemix.errors import ConfigError, InfeasibleSelectionError, UndefinedRatioError
from rulemix.evaluate import (
    EXTENDED_ALPHA_RANGE,
    MAX_ALPHA_POINTS,
    SweepRecord,
    alpha_grid,
    alpha_sweep,
    select_alpha,
    sweep_from_csv,
    sweep_to_csv,
    task_metric,
)
from rulemix.autodiff import Arrays
from rulemix.model import (
    COUPLINGS, ModelSpec, encode, forward_per_alpha, init_params, passages, predict_values, width_matched_units,
)
from rulemix.pendulum import DEFAULT_PARAMS
from rulemix.rules import EnergyDampingRule, MonotonicRule, ThresholdRule

ENERGY_RULE = EnergyDampingRule(DEFAULT_PARAMS)


class TestTaskMetric:
    def test_exact_predictions_have_zero_mae(self):
        y = np.random.default_rng(0).uniform(-1, 1, (10, 2))
        assert task_metric("mae", y, y) == 0.0

    def test_uninformative_classifier_hits_ln2(self):
        y = np.array([[0.0], [1.0], [0.0], [1.0]])
        y_hat = np.full((4, 1), 0.5)
        assert task_metric("cross_entropy", y_hat, y) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_matches_hand_rolled_recount(self):
        rng = np.random.default_rng(1)
        y = (rng.uniform(size=(25, 1)) > 0.5).astype(float)
        y_hat = rng.uniform(0.01, 0.99, (25, 1))
        # element-by-element recount, no vectorized shortcuts
        pairs = [(float(a[0]), float(b[0])) for a, b in zip(y_hat, y)]
        mae = sum(abs(a - b) for a, b in pairs) / 25
        ce = -sum(b * math.log(a) + (1 - b) * math.log(1 - a) for a, b in pairs) / 25
        err = sum(1.0 for a, b in pairs if (a >= 0.5) != (b >= 0.5)) / 25
        assert task_metric("mae", y_hat, y) == pytest.approx(mae, rel=1e-12)
        assert task_metric("cross_entropy", y_hat, y) == pytest.approx(ce, rel=1e-12)
        assert task_metric("error_rate", y_hat, y) == pytest.approx(err, rel=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            task_metric("mae", np.zeros((0, 1)), np.zeros((0, 1)))

    def test_probability_clamping_keeps_ce_finite(self):
        y = np.array([[1.0], [0.0]])
        y_hat = np.array([[0.0], [1.0]])  # maximally wrong
        assert math.isfinite(task_metric("cross_entropy", y_hat, y))


class TestGrids:
    def test_default_grid_is_21_points(self):
        grid = alpha_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_extended_grid_covers_extrapolation_range(self):
        grid = alpha_grid(*EXTENDED_ALPHA_RANGE)
        assert grid[0] == -0.2 and grid[-1] == 1.4
        assert len(grid) == 33
        assert (grid[0], grid[-1]) == EXTENDED_ALPHA_RANGE

    @pytest.mark.parametrize(
        "start,stop,step",
        [(0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (1.0, 0.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)],
    )
    def test_bad_bounds_rejected(self, start, stop, step):
        with pytest.raises(ConfigError, match="step > 0 and stop >= start"):
            alpha_grid(start, stop, step)

    def test_grid_size_is_capped(self):
        assert len(alpha_grid(0.0, 1.0, 1e-5)) == MAX_ALPHA_POINTS
        with pytest.raises(ConfigError, match="1e[+]12 points"):
            alpha_grid(0.0, 1.0, 1e-12)  # rejected before any list is built
        with pytest.raises(ConfigError, match="inf points"):
            alpha_grid(0.0, 1.0, 5e-324)  # the point count overflows a float
        with pytest.raises(ConfigError, match="100002 points"):
            alpha_grid(0.0, MAX_ALPHA_POINTS, 1.0)

    def test_single_point_when_start_equals_stop(self):
        assert alpha_grid(0.3, 0.3, 0.1) == [0.3]


class TestAlphaSweep:
    def make_sweep(self, coupling="scaled_concat", seed=0):
        rng = np.random.default_rng(seed)
        spec, params = tiny_model(rng, coupling=coupling)
        x = rng.uniform(-0.2, 0.2, (40, 4))
        y = x.copy()
        return spec, params, x, y

    def test_sweep_never_mutates_the_model(self):
        spec, params, x, y = self.make_sweep()
        frozen = {k: v.copy() for k, v in params.items()}
        first = alpha_sweep(spec, params, x, y, ENERGY_RULE, alpha_grid(), "mae")
        second = alpha_sweep(spec, params, x, y, ENERGY_RULE, alpha_grid(), "mae")
        assert first == second
        for k in params:
            assert np.array_equal(params[k], frozen[k])

    def test_strength_invariant_couplings_give_identical_records(self):
        for mode in ("concat", "add"):
            spec, params, x, y = self.make_sweep(coupling=mode)
            records = alpha_sweep(spec, params, x, y, ENERGY_RULE, alpha_grid(), "mae")
            assert len({(r.task_metric, r.verification) for r in records}) == 1

    def test_single_point_grid_is_plain_evaluation(self):
        spec, params, x, y = self.make_sweep()
        records = alpha_sweep(spec, params, x, y, ENERGY_RULE, [0.0], "mae")
        assert len(records) == 1 and records[0].alpha == 0.0

    def test_monotonic_rule_uses_one_frozen_perturbation_set(self):
        rng = np.random.default_rng(3)
        spec, params = tiny_model(rng, output_dim=1)
        x = rng.uniform(0.5, 1.5, (30, 4))
        y = x[:, :1].copy()
        rule = MonotonicRule(feature=0, direction="decrease")
        a = alpha_sweep(spec, params, x, y, rule, alpha_grid(), "mae", perturb_seed=11)
        b = alpha_sweep(spec, params, x, y, rule, alpha_grid(), "mae", perturb_seed=11)
        c = alpha_sweep(spec, params, x, y, rule, alpha_grid(), "mae", perturb_seed=12)
        assert a == b
        assert any(ra.verification != rc.verification for ra, rc in zip(a, c))

    def test_csv_round_trip(self, tmp_path):
        spec, params, x, y = self.make_sweep()
        records = alpha_sweep(spec, params, x, y, ENERGY_RULE, [0.0, 0.5, 1.0], "mae", split="val")
        path = tmp_path / "sweep.csv"
        sweep_to_csv(records, path)
        assert sweep_from_csv(path) == records


# rule, output columns, task, metric
SWEEP_RULES = {
    "energy": (EnergyDampingRule(DEFAULT_PARAMS), 4, "regression", "mae"),
    "threshold": (ThresholdRule("row_sumsq", 2.0), 4, "regression", "mae"),
    "monotonic": (MonotonicRule(feature=0, direction="increase"), 1, "classification", "cross_entropy"),
}


class TestSweepMatchesFullPasses:
    """The sweep reuses the alpha-free layers; its records must equal, bit for
    bit, records built from one full forward pass per strength."""

    def make(self, coupling, family, seed=21):
        rule, out_dim, task, metric = SWEEP_RULES[family]
        rng = np.random.default_rng(seed)
        spec = ModelSpec(
            input_dim=4, output_dim=out_dim, task=task, coupling=coupling,
            shared_units=(6,), encoder_units=(8, 5), decision_units=(7,),
        )
        x = rng.uniform(0.5, 1.5, (50, 4))  # feature 0 is non-zero, so every perturbation is valid
        y = (rng.uniform(size=(50, out_dim)) > 0.5).astype(float) if task == "classification" else x.copy()
        return spec, init_params(spec, rng), x, y, rule, metric

    @pytest.mark.parametrize("family", sorted(SWEEP_RULES))
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_records_equal_per_alpha_predict_values(self, coupling, family):
        spec, params, x, y, rule, metric = self.make(coupling, family)
        alphas = alpha_grid(*EXTENDED_ALPHA_RANGE, 0.1)
        got = alpha_sweep(spec, params, x, y, rule, alphas, metric, split="val", perturb_seed=5)
        want = direct_sweep(spec, params, x, y, rule, alphas, metric, split="val", perturb_seed=5)
        assert got == want

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_encoders_run_once_unless_they_read_alpha(self, coupling, monkeypatch, threads):
        spec, params, x, y, rule, metric = self.make(coupling, "monotonic")
        calls = []
        original = rulemix.autodiff.dense_forward

        def counting(h, layers, label, *args, **kwargs):
            if h.shape[0]:  # decode_buffers lays its arrays out with a decode of no rows
                calls.append(label)  # list.append holds the GIL: threads do not lose entries
            return original(h, layers, label, *args, **kwargs)

        monkeypatch.setattr(rulemix.autodiff, "dense_forward", counting)
        force_sweep_workers(monkeypatch, 2)
        alpha_sweep(spec, params, x, y, rule, alpha_grid(), metric)
        assert len(threads) == expected_threads(spec, rule, 2, len(alpha_grid()))
        # the input and its perturbed copy: two encodings, two decodes per strength, over both threads;
        # the shared block never reads alpha, so it runs once per input under every coupling
        n = len(alpha_grid())
        assert calls.count("shared") == 2
        assert calls.count("decision") == 2 * n
        if coupling == "input_concat_alpha":
            assert calls.count("encoder") == 2 * n
        else:
            assert calls.count("data") == 2


def expected_threads(spec, rule, workers, strengths) -> int:
    """Threads a sweep on ``workers`` threads starts: one task per passage and input, then one per strength."""
    jobs = len(passages(spec)) * (2 if rule.needs_perturbation else 1)
    return (min(workers, jobs) - 1 if jobs else 0) + min(workers, strengths) - 1


class TestSweepInWorkers:
    """Sweeps encoded and decoded on threads give the records, and raise the errors, of one thread."""

    make = TestSweepMatchesFullPasses.make

    # 17 strengths share unevenly over 2 and 3 workers; 2 are fewer than 3 workers
    GRIDS = {"extended": alpha_grid(*EXTENDED_ALPHA_RANGE, 0.1), "one point": [0.3], "two points": [0.0, 1.0]}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("family", sorted(SWEEP_RULES))
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_records_equal_per_alpha_predict_values(self, workers, coupling, family, grid, monkeypatch, threads):
        spec, params, x, y, rule, metric = self.make(coupling, family)
        alphas = self.GRIDS[grid]
        force_sweep_workers(monkeypatch, workers)
        baseline = threading.active_count()
        got = alpha_sweep(spec, params, x, y, rule, alphas, metric, split="val", perturb_seed=5)
        assert len(threads) == expected_threads(spec, rule, workers, len(alphas))
        assert_joined(threads, baseline)
        assert got == direct_sweep(spec, params, x, y, rule, alphas, metric, split="val", perturb_seed=5)

    def raised(self, workers, monkeypatch, threads, rule, alphas) -> tuple[type, str]:
        spec, params, x, y, _, metric = self.make("scaled_concat", "monotonic")
        force_sweep_workers(monkeypatch, workers)
        baseline = threading.active_count()
        with pytest.raises(ValueError) as info:
            alpha_sweep(spec, params, x, y, rule, alphas, metric)
        assert_joined(threads, baseline)
        return type(info.value), str(info.value)

    def test_a_guard_no_pair_crosses_raises_as_in_one_thread(self, monkeypatch, threads):
        rule = MonotonicRule(feature=0, direction="increase", guard=100.0)  # inputs stay below 2
        alphas = alpha_grid()
        one = self.raised(1, monkeypatch, threads, rule, alphas)
        assert one == (UndefinedRatioError, "no valid perturbation pairs to verify")
        assert threads == []
        assert self.raised(2, monkeypatch, threads, rule, alphas) == one
        assert len(threads) == 2  # one for the encoding, one for the decode

    @pytest.mark.parametrize("at", [0, 1, 2, 3])  # shares deal round-robin: 0 and 2 in the worker thread's
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_strength_raises_as_in_one_thread(self, monkeypatch, threads, bad, at):
        rule = SWEEP_RULES["monotonic"][0]
        alphas = [0.0, 0.5, 1.0, 1.4]
        alphas[at] = bad
        one = self.raised(1, monkeypatch, threads, rule, alphas)
        assert one == (ValueError, "rule strength must be finite")
        assert self.raised(2, monkeypatch, threads, rule, alphas) == one
        assert len(threads) == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("refused", [(0.5, 1.0), (1.0, 0.5), (0.5, 1.4), (1.4, 0.5)])
    def test_the_first_error_in_grid_order_is_raised(self, monkeypatch, threads, workers, refused):
        real = rulemix.model._strength
        first, second = refused  # second is refused first: the thread that raises it must not win

        def refusing(alpha):
            if alpha == second:
                raise ValueError(f"strength {alpha} refused")
            if alpha == first:
                time.sleep(0.05)
                raise ValueError(f"strength {alpha} refused")
            return real(alpha)

        monkeypatch.setattr(rulemix.model, "_strength", refusing)
        raised = self.raised(workers, monkeypatch, threads, SWEEP_RULES["monotonic"][0], [0.0, 0.5, 1.0, 1.4])
        assert raised == (ValueError, f"strength {min(refused)} refused")
        assert len(threads) == 2 * (workers - 1)

    def test_an_interrupt_during_a_threaded_decode_joins_every_thread(self, monkeypatch, threads):
        spec, params, x, y, rule, metric = self.make("scaled_concat", "monotonic")
        real = rulemix.model._strength
        decoded = []

        def interrupting(alpha):
            decoded.append(alpha)
            if threading.current_thread() is not threading.main_thread():
                os.kill(os.getpid(), signal.SIGINT)  # blocked in a worker: the caller takes it
                time.sleep(0.2)
            return real(alpha)

        monkeypatch.setattr(rulemix.model, "_strength", interrupting)
        force_sweep_workers(monkeypatch, 2)
        baseline = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            alpha_sweep(spec, params, x, y, rule, alpha_grid(), metric)
        assert_joined(threads, baseline)
        assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == set()  # nothing left blocked in the caller
        assert len(decoded) < 2 * 2 * len(alpha_grid())  # the worker stopped at its next strength


class TestSweepMemory:
    """Worker threads write only arrays the calling thread made, so threads add no memory but their shares' arrays.

    Memory a thread allocates comes from a malloc arena of its own, whose freed pages the calling thread
    cannot reuse, and unlike a forked worker's it counts in the process's resident memory.
    """

    make = TestSweepMatchesFullPasses.make

    @pytest.mark.parametrize("family", sorted(SWEEP_RULES))
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_worker_threads_write_only_arrays_the_caller_made(self, coupling, family, monkeypatch, threads):
        spec, params, x, y, rule, metric = self.make(coupling, family)
        real, made = rulemix.autodiff.out_array, []

        def recording(buffers, i, shape):
            before = buffers[i] if buffers is not None and i < len(buffers) else None
            out = real(buffers, i, shape)
            if out is not before:
                made.append((threading.current_thread().name, shape))
            return out

        monkeypatch.setattr(rulemix.autodiff, "out_array", recording)
        force_sweep_workers(monkeypatch, 2)
        alpha_sweep(spec, params, x, y, rule, alpha_grid(), metric)
        assert [thread.name for thread in threads][-1:] == ["rulemix-0"]  # the decode ran on a thread
        assert [shape for name, shape in made if name != threading.main_thread().name] == []

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_decode_buffers_hold_every_array_a_decode_writes(self, coupling):
        spec, params, x, *_ = self.make(coupling, "energy")
        (latents,) = rulemix.model.encode_all(spec, params, [x])
        buffers = rulemix.model.decode_buffers(spec, params, latents)
        made = [a for arrays in buffers for a in arrays]
        outs = list(forward_per_alpha(spec, params, latents, [0.3], buffers))
        assert [a for arrays in buffers for a in arrays] == made  # each array the one made, none added
        assert any(np.shares_memory(outs[0], a) for a in made)
        assert outs[0].tobytes() == next(forward_per_alpha(spec, params, encode(Arrays(), spec, params, x),
                                                            [0.3])).tobytes()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("family", ["energy", "monotonic"])
    def test_a_threaded_sweep_peaks_at_one_worker_plus_its_shares_arrays(self, family, workers, monkeypatch):
        import tracemalloc

        rule, out_dim, task, metric = SWEEP_RULES[family]
        spec = ModelSpec(input_dim=4, output_dim=out_dim, task=task, shared_units=(64, 16),
                         encoder_units=(64, 64, 64), decision_units=(64,))  # the desk spec
        rng = np.random.default_rng(3)
        params = init_params(spec, rng)
        x = rng.uniform(0.5, 1.5, (3000, 4))
        y = (rng.uniform(size=(3000, out_dim)) > 0.5).astype(float) if task == "classification" else x.copy()
        # what one share of strengths decodes into, per input: the arrays each extra worker needs
        (latents,) = rulemix.model.encode_all(spec, params, [x])
        share = sum(a.nbytes for arrays in rulemix.model.decode_buffers(spec, params, latents) for a in arrays)
        share *= 2 if rule.needs_perturbation else 1

        def peak(n_workers):
            force_sweep_workers(monkeypatch, n_workers)
            tracemalloc.start()
            try:
                alpha_sweep(spec, params, x, y, rule, alpha_grid(), metric)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(1)
        assert peak(workers) <= one + (workers - 1) * share + 256 * 1024


class TestSweepGates:
    """Each phase of a sweep runs on threads only for enough work per task, in a process that runs one OS thread."""

    @pytest.fixture
    def sweep(self, monkeypatch):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable core: a sweep never starts a thread")
        monkeypatch.setattr(rulemix.parallel, "os_threads", lambda: 1)  # as with OPENBLAS_NUM_THREADS=1
        spec, params, x, y, rule, metric = TestSweepMatchesFullPasses().make("scaled_concat", "energy")

        def run(encode_min=0, decode_min=0):
            monkeypatch.setattr(rulemix.evaluate, "ENCODE_THREAD_MIN_MACS", encode_min)
            monkeypatch.setattr(rulemix.evaluate, "DECODE_THREAD_MIN_MACS", decode_min)
            got = alpha_sweep(spec, params, x, y, rule, alpha_grid(), metric)
            assert got == direct_sweep(spec, params, x, y, rule, alpha_grid(), metric)

        # the multiply-adds of one task: a passage's encoding of the 50 rows, one strength's decode of them
        run.encode = x.shape[0] * rulemix.evaluate.encode_macs(spec)
        run.decode = x.shape[0] * rulemix.evaluate.decode_macs(spec)
        return run

    def test_enough_work_in_one_os_thread_runs_on_threads(self, sweep, threads):
        baseline = threading.active_count()
        sweep(encode_min=sweep.encode, decode_min=sweep.decode)
        assert len(threads) == 2  # one for the encoding, one for the decode
        assert_joined(threads, baseline)

    def test_each_phase_below_its_gate_stays_in_the_calling_thread(self, sweep, threads):
        sweep(encode_min=sweep.encode + 1, decode_min=sweep.decode)
        assert [thread.name for thread in threads] == ["rulemix-0"]  # the decode's
        sweep(encode_min=sweep.encode, decode_min=sweep.decode + 1)
        assert len(threads) == 2  # and then the encoding's
        sweep(encode_min=sweep.encode + 1, decode_min=sweep.decode + 1)
        assert len(threads) == 2

    def test_a_live_thread_keeps_the_sweep_in_the_calling_thread(self, sweep, threads):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            sweep()
        finally:
            release.set()
            thread.join(30)
        assert threads == [thread]

    def test_other_os_threads_keep_the_sweep_in_the_calling_thread(self, sweep, threads, monkeypatch):
        monkeypatch.setattr(rulemix.parallel, "os_threads", lambda: 2)  # a BLAS pool that Python does not see
        sweep()
        assert threads == []

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_decode_work_counts_the_decision_block_and_an_alpha_fed_encoder(self, coupling):
        spec = ModelSpec(input_dim=4, output_dim=2, coupling=coupling, encoder_units=(8, 5), decision_units=(7,))
        # under scaled_concat the first layer's products are encoded once: its blend costs one per unit
        first = {"scaled_concat": 7, "single": 5 * 7, "add": 5 * 7}.get(coupling, 10 * 7)
        decision = first + 7 * 2
        # the width-matched encoder reads h and alpha: 5 inputs, then widths (u, 10)
        (u, _) = width_matched_units(4, (8, 5)) if coupling == "input_concat_alpha" else (0, 0)
        encoder = 5 * u + u * 10 if coupling == "input_concat_alpha" else 0
        assert rulemix.evaluate.decode_macs(spec) == decision + encoder

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_encode_work_counts_one_passage_and_its_product(self, coupling):
        spec = ModelSpec(input_dim=4, output_dim=2, coupling=coupling, shared_units=(6,), encoder_units=(8, 5),
                         decision_units=(7,))
        passage = 6 * 8 + 8 * 5  # the shared block runs in the calling thread: not counted
        want = {"scaled_concat": passage + 5 * 7, "input_concat_alpha": 0}.get(coupling, passage)
        assert rulemix.evaluate.encode_macs(spec) == want


# (task_metric, verification) as hex floats at each strength of PINNED_SWEEP_ALPHAS, for the
# monotonic sweep of TestSweepMatchesFullPasses.make; recorded while predict and the inference
# path still wrote the network twice, so unlike direct_sweep they do not share code with the sweep
PINNED_SWEEP_ALPHAS = [-0.2, 0.0, 0.3, 1.0, 1.4]
PINNED_SWEEPS = {
    "scaled_concat": [
        ("0x1.5c46f4d35a905p-1", "0x1.f5c28f5c28f5cp-1"), ("0x1.5c482c1d43568p-1", "0x1.eb851eb851eb8p-1"),
        ("0x1.5c4a919003384p-1", "0x1.47ae147ae147bp-4"), ("0x1.5c3736f4501d1p-1", "0x0.0p+0"),
        ("0x1.5c3f156dfd0f4p-1", "0x0.0p+0"),
    ],
    "concat": [("0x1.5c445d0cfe0edp-1", "0x0.0p+0")] * 5,
    "add": [("0x1.749fa00858097p-1", "0x0.0p+0")] * 5,
    "input_concat_alpha": [
        ("0x1.5c6f54d929053p-1", "0x1.3333333333333p-2"), ("0x1.5c7553d0e3951p-1", "0x1.ae147ae147ae1p-2"),
        ("0x1.5c87036e2896cp-1", "0x1.eb851eb851eb8p-4"), ("0x1.5ca1182bac4a4p-1", "0x0.0p+0"),
        ("0x1.5c93ed9a48573p-1", "0x0.0p+0"),
    ],
    "single": [("0x1.670107594ed13p-1", "0x1.b851eb851eb85p-1")] * 5,
}


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_sweep_under_each_coupling_equals_the_pinned_records(coupling):
    spec, params, x, y, rule, metric = TestSweepMatchesFullPasses().make(coupling, "monotonic")
    records = alpha_sweep(spec, params, x, y, rule, PINNED_SWEEP_ALPHAS, metric, perturb_seed=5)
    assert [r.alpha for r in records] == PINNED_SWEEP_ALPHAS
    assert [(r.task_metric.hex(), r.verification.hex()) for r in records] == PINNED_SWEEPS[coupling]


class TestSweepBuffers:
    """Each strength decodes into the arrays of the previous one; nothing the
    caller passed in is written to."""

    make = TestSweepMatchesFullPasses.make

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_second_strength_writes_into_the_first_strengths_arrays(self, coupling, monkeypatch):
        spec, params, x, _, _, _ = self.make(coupling, "energy")
        encoded = encode(Arrays(), spec, params, x)
        blocks, original = [], Arrays.dense

        def dense(ops, z, layers, block):
            blocks.append(block)
            return original(ops, z, layers, block)

        monkeypatch.setattr(Arrays, "dense", dense)
        passes = forward_per_alpha(spec, params, encoded, [0.2, 0.7])
        first = next(passes)
        second = next(passes)
        assert np.shares_memory(second, first)
        # the encoding is computed once: a strength runs at most the alpha-fed encoder and the decision block
        assert blocks and set(blocks) <= {"encoder", "decision"}

    @pytest.mark.parametrize("family", sorted(SWEEP_RULES))
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_sweep_leaves_params_inputs_and_perturbed_copy_untouched(self, coupling, family, monkeypatch):
        spec, params, x, y, rule, metric = self.make(coupling, family)
        before = {k: v.tobytes() for k, v in params.items()}
        x_before, y_before = x.tobytes(), y.tobytes()
        drawn = []
        original = rulemix.evaluate.perturb_batch

        def recording(*args):
            pert = original(*args)
            drawn.append((pert, pert.x_p.tobytes()))
            return pert

        monkeypatch.setattr(rulemix.evaluate, "perturb_batch", recording)
        alpha_sweep(spec, params, x, y, rule, alpha_grid(*EXTENDED_ALPHA_RANGE, 0.1), metric)
        assert {k: v.tobytes() for k, v in params.items()} == before
        assert x.tobytes() == x_before and y.tobytes() == y_before
        assert len(drawn) == rule.needs_perturbation
        for pert, x_p_before in drawn:
            assert pert.x_p.tobytes() == x_p_before

    def test_energy_of_the_inputs_is_computed_once_per_split(self, monkeypatch):
        spec, params, x, y, rule, metric = self.make("scaled_concat", "energy")
        alphas = alpha_grid(*EXTENDED_ALPHA_RANGE, 0.02)
        want = direct_sweep(spec, params, x, y, rule, alphas, metric)
        on_inputs = []
        original = rulemix.rules.energy

        def counting(states, p):
            on_inputs.append(np.shares_memory(states, x))
            return original(states, p)

        monkeypatch.setattr(rulemix.rules, "energy", counting)
        got = alpha_sweep(spec, params, x, y, rule, alphas, metric)
        assert got == want
        assert sum(on_inputs) == 1
        assert len(on_inputs) == len(alphas) + 1


class TestSelectAlpha:
    def test_single_record(self):
        records = [SweepRecord(0.3, 1.0, 0.9, "val")]
        assert select_alpha(records).alpha == 0.3

    def test_verification_floor_picks_only_feasible_point(self):
        records = [
            SweepRecord(0.2, 1.0, 0.50, "val"),
            SweepRecord(0.6, 1.2, 0.95, "val"),
        ]
        choice = select_alpha(records, min_verification=0.9)
        assert choice.alpha == 0.6

    def test_ties_break_toward_smaller_strength(self):
        records = [
            SweepRecord(0.8, 1.0, 1.0, "val"),
            SweepRecord(0.2, 1.0, 1.0, "val"),
            SweepRecord(0.5, 1.0, 1.0, "val"),
        ]
        assert select_alpha(records).alpha == 0.2

    def test_infeasible_floor_reports_best_achievable(self):
        records = [SweepRecord(0.2, 1.0, 0.4, "val"), SweepRecord(0.8, 1.5, 0.7, "val")]
        with pytest.raises(InfeasibleSelectionError, match="0.7"):
            select_alpha(records, min_verification=0.9)

    def test_chosen_point_is_feasible_and_minimal(self):
        rng = np.random.default_rng(4)
        records = [
            SweepRecord(a, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0, 1)), "val")
            for a in alpha_grid()
        ]
        choice = select_alpha(records, min_verification=0.3)
        feasible = [r for r in records if r.verification >= 0.3]
        assert choice.verification >= 0.3
        assert choice.task_metric == min(r.task_metric for r in feasible)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            select_alpha([])

    def test_classification_sweep_picks_the_strength_with_most_correct_rows(self):
        rng = np.random.default_rng(1)
        spec, params = tiny_model(rng, output_dim=1, task="classification")
        x = rng.uniform(-1, 1, (60, 4))
        y = (x[:, :1] > 0).astype(float)
        grid = alpha_grid()
        correct = [int(np.sum((predict_values(spec, params, x, a) >= 0.5) == (y >= 0.5))) for a in grid]
        assert len(set(correct)) > 1
        records = alpha_sweep(spec, params, x, y, MonotonicRule(feature=0, direction="increase"), grid, "error_rate")
        assert select_alpha(records).alpha == grid[correct.index(max(correct))]


class TestSpearman:
    def test_perfect_monotone_is_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman_rank_corr(x, [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)
        assert spearman_rank_corr(x, [9.0, 7.0, 5.0, 3.0]) == pytest.approx(-1.0)

    def test_matches_brute_force_rank_pearson(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        # oracle: rank via argsort twice (no ties in continuous draws), then Pearson
        ra = np.argsort(np.argsort(a)).astype(float)
        rb = np.argsort(np.argsort(b)).astype(float)
        expected = np.corrcoef(ra, rb)[0, 1]
        assert spearman_rank_corr(a, b) == pytest.approx(expected, rel=1e-12)

    def test_ties_use_average_ranks(self):
        # hand-computed: x ranks (1.5, 1.5, 3), y ranks (1, 2, 3)
        rho = spearman_rank_corr([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert rho == pytest.approx(np.corrcoef([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])[0, 1])

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman_rank_corr([1.0, 1.0], [1.0, 2.0])
