"""Acceptance gate: one test per top-level criterion, each printing a
PASS/FAIL line with its headline numbers (run with ``pytest -s`` to see them
on passing runs).
"""

import time

import numpy as np
import pytest

from steerdist import (
    ChannelSpec,
    CutoffCriteria,
    FilterSpec,
    acceptance_rate_exact,
    apply_lossy,
    apply_noisy,
    check_physical,
    cutoff_from_table,
    filtered_ensemble,
    from_cov,
    key_rate,
    min_gain_for_key,
    moment_stats,
    nla_single_mode,
    post_select,
    random_physical_state,
    reconstruct_covariance,
    reference_cutoff_table,
    sample_batch,
    select_cutoff,
    steerability,
    steerability_with_se,
    steering_loss_threshold,
    tmss_standard,
)
from steerdist.measurement import reconstruction_tolerance

MODEL = tmss_standard(-4.2, 7.3)
PURE = tmss_standard(-4.2, 4.2)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_lossy_one_way_threshold():
    t0 = time.perf_counter()
    thr = steering_loss_threshold(MODEL, ChannelSpec(0.0), "b_to_a")
    elapsed = time.perf_counter() - t0
    ok = abs(thr - 0.3077) <= 0.001 and abs(0.32 - thr) <= 0.03 and elapsed < 1.0
    report(1, ok, f"lossy B->A threshold {thr:.5f} (paper 0.32), {elapsed:.2f}s")


def test_criterion_2_nla_extension():
    t0 = time.perf_counter()
    thr = steering_loss_threshold(MODEL, ChannelSpec(0.0), "b_to_a", nla_gain=1.2)
    elapsed = time.perf_counter() - t0
    ok = 0.38 <= thr <= 0.48 and elapsed < 10.0
    report(2, ok, f"amplified B->A threshold {thr:.5f} in [0.38, 0.48], {elapsed:.2f}s")


def test_criterion_3_noisy_thresholds():
    t0 = time.perf_counter()
    ch = ChannelSpec(0.0, 0.12, "loss_scaled")
    ba = steering_loss_threshold(MODEL, ch, "b_to_a")
    ab = steering_loss_threshold(MODEL, ch, "a_to_b")
    ba_nla = steering_loss_threshold(MODEL, ch, "b_to_a", nla_gain=1.2)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(ba - 0.2841) <= 0.001
        and abs(ab - 0.7072) <= 0.001
        and abs(0.73 - ab) <= 0.05
        and 0.35 <= ba_nla <= 0.45
        and elapsed < 10.0
    )
    report(3, ok, f"noisy B->A {ba:.5f}, A->B {ab:.5f}, amplified B->A {ba_nla:.5f}, "
                  f"{elapsed:.2f}s")


CELLS_4 = [(loss, g) for loss in (0.0, 0.2, 0.4) for g in (1.05, 1.2)]


def test_criterion_4_mc_analytic_equivalence():
    t0 = time.perf_counter()
    table = reference_cutoff_table()
    worst_entry = 0.0
    worst_steer = 0.0
    for idx, (loss, g) in enumerate(CELLS_4):
        out = apply_lossy(MODEL, loss)
        filt = FilterSpec(g, cutoff_from_table(loss, g, table))
        ideal = nla_single_mode(out.cov, g)
        seed = 1_000 + idx
        batch = sample_batch(out, 10_000_000, seed, threads=4)
        filtered, _ = post_select(batch, filt, seed)
        cov, se = reconstruct_covariance(filtered, min_accepted=1_000)
        dev = np.max(np.abs(cov - ideal) / np.where(se > 0, se, np.inf))
        worst_entry = max(worst_entry, dev)
        tol = reconstruction_tolerance(se)
        for d in ("a_to_b", "b_to_a"):
            val, err = steerability_with_se(cov, se, d, tol)
            want = steerability(from_cov(ideal), d)
            worst_steer = max(worst_steer, abs(val - want) / max(err, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst_entry < 5.0 and worst_steer < 3.0
    report(4, ok, f"6 cells x 1e7 samples: worst entry {worst_entry:.2f} SE (< 5), "
                  f"worst steering {worst_steer:.2f} SE (< 3), {elapsed:.0f}s")


def test_criterion_5_amplifier_oracles():
    lam, g = 1.0 / 3.0, 1.5
    v_sq = (1 - lam) / (1 + lam)
    state = tmss_standard(10 * np.log10(v_sq), -10 * np.log10(v_sq))
    out = nla_single_mode(state.cov, g)
    lam2 = g * lam
    n2 = (1 + lam2**2) / (1 - lam2**2)
    c2 = 2 * lam2 / (1 - lam2**2)
    want = np.zeros((4, 4))
    want[:2, :2] = want[2:, 2:] = n2 * np.eye(2)
    want[:2, 2:] = want[2:, :2] = c2 * np.diag([1.0, -1.0])
    err_tmss = np.max(np.abs(out - want))

    thermal = nla_single_mode(np.diag([1.0, 1.0, 2.0, 2.0]), 1.2)
    err_thermal = abs(thermal[2, 2] - 2.846153846153846)
    ok = err_tmss < 1e-6 and err_thermal < 1e-6
    report(5, ok, f"TMSS eigen-relation err {err_tmss:.2e}, "
                  f"thermal-block err {err_thermal:.2e} (both < 1e-6)")


def test_criterion_6_qkd_thresholds():
    from scipy.optimize import brentq

    t0 = time.perf_counter()
    crossing = brentq(
        lambda db: key_rate(tmss_standard(db, -db).cov).key_rate, -8.0, -4.0,
        xtol=1e-6,
    )
    k1 = key_rate(MODEL.cov).key_rate
    g_star = min_gain_for_key(MODEL, 4.5, np.arange(1.0, 1.56, 0.02))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(crossing - (-6.01)) <= 0.05
        and abs(k1 - (-0.2168)) <= 0.001
        and abs(g_star - 1.4) <= 0.1
        and elapsed < 30.0
    )
    report(6, ok, f"pure crossing {crossing:.3f} dB, K(g=1) {k1:.4f}, "
                  f"min gain {g_star:.2f}, {elapsed:.1f}s")


def test_criterion_7_cutoff_table():
    t0 = time.perf_counter()
    ref = reference_cutoff_table()
    table = {}
    for loss in (0.0, 0.2, 0.4, 0.6, 0.8):
        for g in (1.05, 1.10, 1.15, 1.20, 1.25):
            bc, _ = select_cutoff(MODEL, ChannelSpec(loss), g,
                                  CutoffCriteria(), verify=False)
            table[(loss, g)] = bc
    worst = max(abs(table[k] - ref[k]) for k in ref)
    monotone = all(
        table[(l1, g)] >= table[(l2, g)]
        for g in (1.05, 1.10, 1.15, 1.20, 1.25)
        for l1, l2 in zip((0.0, 0.2, 0.4, 0.6), (0.2, 0.4, 0.6, 0.8))
    ) and all(
        table[(loss, g1)] <= table[(loss, g2)]
        for loss in (0.0, 0.2, 0.4, 0.6, 0.8)
        for g1, g2 in zip((1.05, 1.10, 1.15, 1.20), (1.10, 1.15, 1.20, 1.25))
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.5 and monotone
    report(7, ok, f"all 25 cells within {worst:.2f} (<= 0.5) of the published "
                  f"table, trends exact, {elapsed:.1f}s")


def test_criterion_8_gaussianity_and_acceptance_trends():
    table = reference_cutoff_table()
    gains = (1.05, 1.10, 1.15, 1.20, 1.25)
    losses = (0.0, 0.2, 0.4, 0.6, 0.8)
    worst_skew = worst_kurt = 0.0
    rates = {}
    mc_checked = 0
    for loss in losses:
        out = apply_lossy(MODEL, loss)
        for g in gains:
            filt = FilterSpec(g, table[(loss, g)])
            ens = filtered_ensemble(out, filt)
            worst_skew = max(worst_skew, abs(ens.bob_skewness))
            worst_kurt = max(worst_kurt, abs(ens.bob_kurtosis - 3.0))
            rates[(loss, g)] = ens.acceptance_rate
            if ens.acceptance_rate * 1_000_000 >= 50_000:
                seed = int(7_000 + 100 * loss * 10 + g * 100)
                batch = sample_batch(out, 1_000_000, seed)
                filtered, _ = post_select(batch, filt, seed)
                sel = filtered.accepted
                for arr in (filtered.bob_x[sel], filtered.bob_p[sel]):
                    stats = moment_stats(arr)
                    worst_skew = max(worst_skew, abs(stats.skewness))
                    worst_kurt = max(worst_kurt, abs(stats.kurtosis - 3.0))
                mc_checked += 1
    g_monotone = all(
        rates[(loss, g1)] > rates[(loss, g2)]
        for loss in losses for g1, g2 in zip(gains, gains[1:])
    )
    loss_monotone = all(
        rates[(l1, g)] < rates[(l2, g)]
        for g in gains for l1, l2 in zip(losses, losses[1:])
    )
    ok = worst_skew < 0.05 and worst_kurt < 0.1 and g_monotone and loss_monotone
    report(8, ok, f"worst |skew| {worst_skew:.4f} (< 0.05), worst |kurt-3| "
                  f"{worst_kurt:.4f} (< 0.1) incl. {mc_checked} sampled cells; "
                  f"acceptance monotone in g (down) and loss (up)")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(424242)
    # channel physicality over 1000 random physical states
    for _ in range(1000):
        state = random_physical_state(rng)
        out = apply_noisy(state, rng.uniform(0, 1), rng.uniform(0, 0.3),
                          "loss_scaled" if rng.random() < 0.5 else "fixed")
        assert check_physical(out.cov).passed

    # loss composition identity
    for _ in range(50):
        state = random_physical_state(rng)
        l1, l2 = rng.uniform(0, 1, 2)
        a = apply_lossy(apply_lossy(state, l1), l2).cov
        b = apply_lossy(state, 1 - (1 - l1) * (1 - l2)).cov
        assert np.allclose(a, b, atol=1e-12)

    # steering invariance under local symplectics
    base_ab = steerability(MODEL, "a_to_b")
    for _ in range(50):
        sp = np.eye(4)
        for side in (0, 2):
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(-0.6, 0.6)
            rot = np.array([[np.cos(theta), np.sin(theta)],
                            [-np.sin(theta), np.cos(theta)]])
            sp[side:side + 2, side:side + 2] = rot @ np.diag([np.exp(r), np.exp(-r)])
        cov = sp @ MODEL.cov @ sp.T
        val = steerability(from_cov((cov + cov.T) / 2), "a_to_b")
        assert abs(val - base_ab) < 1e-9

    # pure-state zero-loss symmetry
    assert abs(steerability(PURE, "a_to_b") - steerability(PURE, "b_to_a")) < 1e-12

    # pure-state post-amplification ordering over the grid
    for loss in np.linspace(0.0, 0.5, 6):
        out = apply_lossy(PURE, float(loss))
        for g in np.linspace(1.0, 1.3, 7):
            cov = out.cov if g == 1.0 else nla_single_mode(out.cov, float(g))
            st = from_cov(cov)
            assert steerability(st, "b_to_a") <= steerability(st, "a_to_b") + 1e-9

    # impure-state crossover at zero loss, gain 1.2
    amplified = from_cov(nla_single_mode(MODEL.cov, 1.2))
    assert steerability(amplified, "b_to_a") > steerability(amplified, "a_to_b")

    # determinism of the seeded pipelines under varying worker counts
    ref_batch = sample_batch(MODEL, 300_000, seed=777, threads=1)
    for threads in (2, 4):
        other = sample_batch(MODEL, 300_000, seed=777, threads=threads)
        for name in ("alice_basis", "alice_value", "bob_x", "bob_p"):
            assert np.array_equal(getattr(ref_batch, name), getattr(other, name))
    a, rate_a = post_select(ref_batch, FilterSpec(1.2, 4.0), seed=778)
    b, rate_b = post_select(ref_batch, FilterSpec(1.2, 4.0), seed=778)
    assert rate_a == rate_b and np.array_equal(a.accepted, b.accepted)

    report(9, True, "1000-state channel physicality, composition, invariance, "
                    "pure ordering, impure crossover, thread determinism")
