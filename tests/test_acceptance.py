"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line with its measured numbers (visible with
``pytest tests/test_acceptance.py -v -s``); a failed criterion shows up as a
failed test. The trend criteria (6-9) retrain small models from scratch, so
this module takes a few minutes of CPU.
"""

import math
import time

import numpy as np
import pytest

from helpers import tiny_model
from rulemix.autodiff import Tape
from rulemix.checkpoint import load_checkpoint, save_checkpoint
from rulemix.config import config_from_dict
from rulemix.data import Dataset, assign_splits
from rulemix.evaluate import (
    alpha_grid,
    alpha_sweep,
    extended_alpha_grid,
    select_alpha,
    spearman_rank_corr,
)
from rulemix.model import ModelSpec, init_params, predict, predict_values
from rulemix.optim import AdamState
from rulemix.pendulum import (
    PendulumParams,
    build_pendulum_dataset,
    energy,
    simulate_states,
)
from rulemix.rules import EnergyDampingRule, MonotonicRule, perturb_batch
from rulemix.tabular import CorrGroupSpec, ShiftMixSpec, synth_monotone_regression, synth_shifted_classification
from rulemix.train import TrainConfig, compute_loss_scale, fit, sample_alpha, train_step

# ----------------------------------------------------------------------
# shared desk-scale setup: 3,000 training pairs from a strongly damped
# double pendulum, trajectories long enough to reach the near-rest regime
# ----------------------------------------------------------------------

DESK_PARAMS = PendulumParams(b=0.3)
DESK_SPEC = ModelSpec(
    input_dim=4, output_dim=4,
    shared_units=(64, 16), encoder_units=(64, 64, 64), decision_units=(64,),
)
DESK_SINGLE = ModelSpec(
    input_dim=4, output_dim=4, coupling="single",
    shared_units=(64, 16), encoder_units=(64, 64, 64), decision_units=(64,),
)
DESK_RULE = EnergyDampingRule(DESK_PARAMS)
DESK_SEEDS = (0, 1, 2)


def desk_train_config(seed, **kw):
    base = dict(mode="controlled", lr=0.0005, max_epochs=200, patience=10, seed=seed)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def desk_dataset():
    return build_pendulum_dataset(
        DESK_PARAMS, n_pairs=10_000, n_trajectories=10, noise_std=0.01, seed=0,
        split_fractions=(0.3, 0.1, 0.6),
    )


@pytest.fixture(scope="module")
def desk_controlled_runs(desk_dataset):
    started = time.perf_counter()
    runs = [fit(DESK_SPEC, desk_train_config(seed), desk_dataset, DESK_RULE) for seed in DESK_SEEDS]
    return runs, time.perf_counter() - started


def small_random_model(rng, task, input_dim, output_dim):
    """Random two-passage model, <=3 layers and <=16 units per block."""
    depth = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(4, 17)) for _ in range(depth))
    spec = ModelSpec(
        input_dim=input_dim, output_dim=output_dim, task=task,
        shared_units=(), encoder_units=widths, decision_units=(int(rng.integers(4, 17)),),
    )
    return spec, init_params(spec, rng)


def kink_aware_grad_check(f, params, h=1e-4):
    """Max relative analytic-vs-central-difference error, skipping kink hits.

    Central differences are invalid on coordinates whose +/-h interval
    straddles a hinge (ReLU or hinge-loss breakpoint): there the two
    step sizes disagree at O(1) instead of O(h^2). Such coordinates are
    detected by comparing the h and h/2 estimates and excluded; the caller
    asserts they stay rare.
    """
    _, analytic = f(params)
    worst = 0.0
    checked = skipped = 0

    def central(name, i, step):
        work = {k: (v.copy() if k == name else v) for k, v in params.items()}
        flat = work[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        up = f(work)[0]
        flat[i] = orig - step
        down = f(work)[0]
        return (up - down) / (2.0 * step)

    for name, base in params.items():
        grads = analytic[name].reshape(-1)
        for i in range(base.size):
            fd = central(name, i, h)
            err = abs(grads[i] - fd) / (abs(fd) + 1e-8)
            checked += 1
            if err < 1e-4:
                worst = max(worst, err)
                continue
            fd_half = central(name, i, h / 2.0)
            if abs(fd - fd_half) > 1e-3 * max(abs(fd), abs(fd_half), 1e-6):
                skipped += 1  # provably non-smooth across the interval
                continue
            worst = max(worst, abs(grads[i] - fd_half) / (abs(fd_half) + 1e-8))
    return worst, checked, skipped


def test_criterion_01_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"mse": 0.0, "bce": 0.0, "energy": 0.0, "monotonic": 0.0}
    checked = skipped = 0
    for trial in range(5):
        alpha = float(rng.uniform(0.1, 0.9))

        spec, params = small_random_model(rng, "regression", 4, 3)
        x = rng.uniform(-1, 1, (4, 4))
        y = rng.uniform(-1, 1, (4, 3))

        def f_mse(p, spec=spec, x=x, y=y, alpha=alpha):
            tape = Tape()
            out = predict(tape, spec, p, x, alpha).output
            loss = tape.mse(out, tape.constant(y))
            return tape.scalar(loss), tape.backprop(loss)

        err, n, s = kink_aware_grad_check(f_mse, params)
        worst["mse"] = max(worst["mse"], err)
        checked += n
        skipped += s

        spec, params = small_random_model(rng, "classification", 5, 1)
        x = rng.uniform(-1, 1, (4, 5))
        y = (rng.uniform(size=(4, 1)) > 0.5).astype(float)

        def f_bce(p, spec=spec, x=x, y=y, alpha=alpha):
            tape = Tape()
            out = predict(tape, spec, p, x, alpha).output
            loss = tape.bce(out, tape.constant(y))
            return tape.scalar(loss), tape.backprop(loss)

        err, n, s = kink_aware_grad_check(f_bce, params)
        worst["bce"] = max(worst["bce"], err)
        checked += n
        skipped += s

        spec, params = small_random_model(rng, "regression", 4, 4)
        x = rng.uniform(-1, 1, (4, 4))

        def f_energy(p, spec=spec, x=x, alpha=alpha):
            tape = Tape()
            fwd = predict(tape, spec, p, x, alpha)
            from rulemix.rules import energy_rule_node

            loss = energy_rule_node(tape, DESK_RULE, x, fwd.output)
            return tape.scalar(loss), tape.backprop(loss)

        err, n, s = kink_aware_grad_check(f_energy, params)
        worst["energy"] = max(worst["energy"], err)
        checked += n
        skipped += s

        spec, params = small_random_model(rng, "regression", 4, 1)
        x = rng.uniform(0.5, 1.5, (4, 4))
        rule = MonotonicRule(feature=1, direction="decrease", bound=0.1)
        pert = perturb_batch(x, rule, rng)  # frozen for the whole check

        def f_mono(p, spec=spec, x=x, rule=rule, pert=pert, alpha=alpha):
            tape = Tape()
            fwd = predict(tape, spec, p, x, alpha)
            fwd_p = predict(tape, spec, p, pert.x_p, alpha)
            from rulemix.rules import monotonic_rule_node

            loss = monotonic_rule_node(tape, rule, fwd.output, fwd_p.output, pert.valid)
            return tape.scalar(loss), tape.backprop(loss)

        err, n, s = kink_aware_grad_check(f_mono, params)
        worst["monotonic"] = max(worst["monotonic"], err)
        checked += n
        skipped += s

    elapsed = time.perf_counter() - started
    for name, err in worst.items():
        assert err < 1e-4, f"{name} gradient mismatch {err:.2e}"
    assert skipped <= 0.01 * checked, f"too many kink hits: {skipped}/{checked}"
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 01 PASS: 20 random models, max FD mismatch "
        f"{max(worst.values()):.2e} (< 1e-4), {skipped}/{checked} hinge "
        f"coordinates excluded, {elapsed:.1f}s"
    )


def test_criterion_02_simulator_physics():
    started = time.perf_counter()
    frictionless = PendulumParams(b=0.0)
    states = simulate_states((2.0, 0.0, 2.0, 0.0), frictionless, 2000, 1.0 / 200)
    energies = energy(states, frictionless)
    drift = float(np.max(np.abs(energies - energies[0]) / abs(energies[0])))
    assert drift < 1e-6, f"frictionless drift {drift:.2e}"

    worst_rise = -math.inf
    for params, n_pairs in ((PendulumParams(b=0.05), 1000), (DESK_PARAMS, 1000)):
        ds = build_pendulum_dataset(params, n_pairs=n_pairs, n_trajectories=1, noise_std=0.0, seed=0)
        diffs = energy(ds.y, params) - energy(ds.x, params)
        worst_rise = max(worst_rise, float(diffs.max()))
        assert np.all(diffs <= 0.0), f"energy rose by {diffs.max():.3e} at b={params.b}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 02 PASS: drift {drift:.2e} (< 1e-6), damped pairs max dE "
        f"{worst_rise:.2e} (<= 0), {elapsed:.1f}s"
    )


def test_criterion_03_gating_decouples_passages():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        spec, params = tiny_model(rng, widths=(12, 8))
        x = rng.uniform(-1, 1, (16, 4))
        y = rng.uniform(-1, 1, (16, 4))
        for alpha, frozen, active in ((0.0, "rule.", "data."), (1.0, "data.", "rule.")):
            tape = Tape()
            fwd = predict(tape, spec, params, x, alpha)
            grads = tape.backprop(tape.mse(fwd.output, tape.constant(y)))
            for name, g in grads.items():
                if name.startswith(frozen):
                    assert np.all(g == 0.0), f"{name} has nonzero gradient at alpha={alpha}"
                if name.startswith(active):
                    assert np.any(g != 0.0)
    print("ACCEPTANCE 03 PASS: encoder gradients exactly zero at alpha=0/1 (3 random batches)")


def test_criterion_04_objective_identity(desk_dataset):
    x_tr, y_tr = desk_dataset.subset("train")
    rng = np.random.default_rng(0)
    params = init_params(DESK_SPEC, rng)
    scale = compute_loss_scale(DESK_SPEC, params, x_tr, y_tr, DESK_RULE, rng)

    # exact identity at initialization through the canonical scaling path
    assert scale.scaled_task(scale.task0) == scale.rule0
    assert scale.ratio == scale.rule0 / scale.task0

    adam = AdamState.for_params(params, lr=0.0005)
    worst = 0.0
    for step_idx in range(25):
        alpha = sample_alpha(0.1, rng)
        idx = rng.permutation(len(x_tr))[:32]
        params, step = train_step(
            DESK_SPEC, params, adam, x_tr[idx], y_tr[idx], DESK_RULE,
            "controlled", alpha, scale,
        )
        recomposed = alpha * step.rule_loss + scale.ratio * (1.0 - alpha) * step.task_loss
        rel = abs(step.total_loss - recomposed) / abs(step.total_loss)
        worst = max(worst, rel)
    assert worst <= 1e-12, f"decomposition error {worst:.2e}"
    print(
        f"ACCEPTANCE 04 PASS: per-step decomposition within {worst:.1e} (<= 1e-12); "
        f"rho*task0 == rule0 exactly at init"
    )


def beta_cdf_oracle(x0: float, a: float, b: float, n: int = 20001) -> float:
    """Regularized incomplete beta by quadrature (x = t**(1/a) substitution)."""
    t = np.linspace(0.0, x0**a, n)
    integral = np.trapezoid((1.0 - t ** (1.0 / a)) ** (b - 1.0), t) / a
    return integral / (math.gamma(a) * math.gamma(b) / math.gamma(a + b))


def test_criterion_05_beta_prior():
    rng = np.random.default_rng(7)
    draws = np.array([sample_alpha(0.1, rng) for _ in range(100_000)])
    mean = float(draws.mean())
    tail = float(np.mean((draws < 0.05) | (draws > 0.95)))
    expected_tail = beta_cdf_oracle(0.05, 0.1, 0.1) + (1.0 - beta_cdf_oracle(0.95, 0.1, 0.1))
    assert abs(mean - 0.5) < 0.01
    assert abs(tail - expected_tail) < 0.02
    print(
        f"ACCEPTANCE 05 PASS: mean {mean:.4f} (0.5 +/- 0.01), tail {tail:.4f} vs "
        f"oracle {expected_tail:.4f} (+/- 0.02)"
    )


def test_criterion_06_controllability_trend(desk_dataset, desk_controlled_runs):
    runs, fit_seconds = desk_controlled_runs
    started = time.perf_counter()
    x_te, y_te = desk_dataset.subset("test")
    grid = alpha_grid()
    lines = []
    for seed, result in zip(DESK_SEEDS, runs):
        records = alpha_sweep(DESK_SPEC, result.params, x_te, y_te, DESK_RULE, grid, "mae")
        vers = [r.verification for r in records]
        gap = vers[-1] - vers[0]
        rank_corr = spearman_rank_corr(grid, vers)
        assert gap >= 0.20, f"seed {seed}: verification gap {gap:.3f} < 0.20"
        assert rank_corr >= 0.8, f"seed {seed}: spearman {rank_corr:.3f} < 0.8"
        lines.append(f"seed{seed} gap={100 * gap:.0f}pp rho_s={rank_corr:.2f}")
    total = fit_seconds + (time.perf_counter() - started)
    assert total < 900.0
    print(f"ACCEPTANCE 06 PASS: {'; '.join(lines)}; runtime {total:.0f}s (< 900s)")


def test_criterion_07_baseline_ordering(desk_dataset):
    x_te, y_te = desk_dataset.subset("test")
    vers = {"task_only": [], "task_and_rule": []}
    for mode, weight, rule in (("task_only", 0.0, None), ("task_and_rule", 1.0, DESK_RULE)):
        for seed in DESK_SEEDS:
            cfg = desk_train_config(seed, mode=mode, rule_weight=weight)
            result = fit(DESK_SINGLE, cfg, desk_dataset, rule)
            record = alpha_sweep(DESK_SINGLE, result.params, x_te, y_te, DESK_RULE, [0.0], "mae")[0]
            vers[mode].append(record.verification)
    mean_task = float(np.mean(vers["task_only"]))
    mean_both = float(np.mean(vers["task_and_rule"]))
    assert mean_both > mean_task
    print(
        f"ACCEPTANCE 07 PASS: fixed-weight rule regularization verification "
        f"{mean_both:.3f} > task-only {mean_task:.3f} (3-seed means)"
    )


def test_criterion_08_optimal_strength_tracks_correlation():
    started = time.perf_counter()
    spec = ModelSpec(input_dim=5, output_dim=1, shared_units=(),
                     encoder_units=(64, 64, 16), decision_units=(64,))
    rule = MonotonicRule(feature=0, direction="decrease", bound=0.1)
    grid = alpha_grid(0.0, 1.0, 0.2)
    chains = []
    for seed in range(5):
        chain = []
        for corr in (-0.1, -0.2, -0.3):
            ds = synth_monotone_regression(
                CorrGroupSpec(n=1200, d=5, feature=0, target_corr=corr, noise=1.0, seed=seed),
                split_fractions=(0.5, 0.3, 0.2),
            )
            cfg = TrainConfig(mode="controlled", max_epochs=150, patience=10, seed=seed)
            result = fit(spec, cfg, ds, rule)
            x_val, y_val = ds.subset("val")
            records = alpha_sweep(spec, result.params, x_val, y_val, rule, grid, "mae", perturb_seed=0)
            chain.append(select_alpha(records).alpha)
        chains.append(chain)
    monotone = sum(1 for c in chains if c[0] <= c[1] <= c[2])
    elapsed = time.perf_counter() - started
    assert monotone >= 4, f"only {monotone}/5 seed-matched chains are non-decreasing: {chains}"
    assert elapsed < 1200.0
    print(
        f"ACCEPTANCE 08 PASS: {monotone}/5 non-decreasing optimal-strength chains "
        f"{chains}; runtime {elapsed:.0f}s (< 1200s)"
    )


def test_criterion_09_distribution_shift_adaptation():
    spec = ModelSpec(input_dim=6, output_dim=1, task="classification",
                     shared_units=(), encoder_units=(100, 16), decision_units=())
    rule = MonotonicRule(feature=0, direction="increase", bound=0.1)
    source = ShiftMixSpec(n_usual=1502, n_unusual=3504)   # usual ratio 0.30
    target = ShiftMixSpec(n_usual=2000, n_unusual=601)    # usual ratio 0.77
    assert abs(source.usual_ratio - 0.30) < 0.005
    assert abs(target.usual_ratio - 0.77) < 0.005
    gaps = []
    max_jump = 0.0
    for seed in range(3):
        src = synth_shifted_classification(source, seed=seed)
        tgt = synth_shifted_classification(target, seed=1000 + seed, split_fractions=(0.0, 0.0, 1.0))
        cfg = TrainConfig(mode="controlled", max_epochs=100, patience=10, seed=seed)
        result = fit(spec, cfg, src, rule)
        x_t, y_t = tgt.subset("test")
        records = alpha_sweep(spec, result.params, x_t, y_t, rule, alpha_grid(), "cross_entropy",
                              perturb_seed=5)
        chosen = select_alpha(records)
        gaps.append(records[0].task_metric - chosen.task_metric)
        # extrapolated sweep must stay finite and continuous
        outs = np.stack([predict_values(spec, result.params, x_t[:400], a) for a in extended_alpha_grid()])
        assert np.all(np.isfinite(outs))
        max_jump = max(max_jump, float(np.max(np.abs(np.diff(outs, axis=0)))))
    mean_gap = float(np.mean(gaps))
    assert mean_gap > 0.0, f"cross-entropy not improved by strength control: {gaps}"
    assert max_jump < 0.25, f"extrapolated predictions jump by {max_jump:.3f}"
    print(
        f"ACCEPTANCE 09 PASS: mean CE improvement {mean_gap:.4f} > 0 over 3 seeds; "
        f"extrapolation finite, max adjacent jump {max_jump:.3f}"
    )


def test_criterion_10_ablation_sanity(desk_dataset):
    x_te, y_te = desk_dataset.subset("test")
    # strength-invariant couplings: sweep rows must be bit-identical
    for coupling in ("concat", "add"):
        spec = ModelSpec(input_dim=4, output_dim=4, coupling=coupling,
                         shared_units=(64, 16), encoder_units=(64, 64, 64), decision_units=(64,))
        cfg = desk_train_config(0, max_epochs=15, patience=10)
        result = fit(spec, cfg, desk_dataset, DESK_RULE)
        records = alpha_sweep(spec, result.params, x_te, y_te, DESK_RULE, alpha_grid(), "mae")
        assert len({(r.task_metric, r.verification) for r in records}) == 1, coupling
    # both rescale policies must run to completion on the desk config
    finals = {}
    for policy in ("fixed", "per_epoch"):
        cfg = desk_train_config(0, max_epochs=30, patience=10, rho_policy=policy)
        result = fit(DESK_SPEC, cfg, desk_dataset, DESK_RULE)
        assert result.report.final_epoch >= 1
        assert math.isfinite(result.report.rho)
        finals[policy] = result.report.final_epoch
    print(
        f"ACCEPTANCE 10 PASS: concat/add sweeps strength-invariant (bit-identical rows); "
        f"rho policies completed at epochs {finals}"
    )


def test_criterion_11_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.15, 0.15, (240, 4))
    ds = Dataset(x=x, y=x.copy(), split=assign_splits(240, (0.6, 0.2, 0.2)))
    spec, _ = tiny_model(np.random.default_rng(1))
    cfg = TrainConfig(mode="controlled", max_epochs=5, patience=3, seed=9)
    rule = EnergyDampingRule(PendulumParams())
    a = fit(spec, cfg, ds, rule)
    b = fit(spec, cfg, ds, rule)
    assert a.params.keys() == b.params.keys()
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key]), key

    cfg_snapshot = config_from_dict({"task": "pendulum"}).raw
    path = tmp_path / "ck.npz"
    save_checkpoint(path, a, cfg_snapshot, seed=9)
    loaded = load_checkpoint(path)
    probe = rng.uniform(-1, 1, (20, 4))
    for alpha in (0.0, 0.31, 1.0):
        before = predict_values(a.spec, a.params, probe, alpha)
        after = predict_values(loaded.spec, loaded.params, probe, alpha)
        assert np.array_equal(before, after)
    print(
        "ACCEPTANCE 11 PASS: identical (config, seed) -> bit-identical parameters; "
        "checkpoint round-trip preserves predictions bit-exactly"
    )
