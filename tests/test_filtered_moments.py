import numpy as np
import pytest

from steerdist import (
    FilterSpec,
    acceptance_rate_exact,
    apply_lossy,
    filtered_ensemble,
    from_cov,
    nla_single_mode,
    post_select,
    reconstruct_covariance,
    sample_batch,
    tmss_standard,
)


def test_unit_gain_reproduces_input_statistics(model_state):
    ens = filtered_ensemble(model_state, FilterSpec(1.0, 4.5))
    assert ens.acceptance_rate == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ens.cov, model_state.cov, atol=1e-10)
    assert ens.bob_kurtosis == pytest.approx(3.0, abs=1e-10)
    assert ens.bob_skewness == 0.0


def test_large_cutoff_limit_is_ideal_amplifier(model_state):
    # two independent routes to the amplified covariance: the characteristic-
    # function algebra and the filter-integral limit
    for loss, g in ((0.0, 1.2), (0.2, 1.15), (0.4, 1.3)):
        out = apply_lossy(model_state, loss)
        ens = filtered_ensemble(out, FilterSpec(g, 40.0))
        ideal = nla_single_mode(out.cov, g)
        assert np.max(np.abs(ens.cov - ideal)) < 1e-8


def test_alice_cross_term_follows_the_filter(model_state):
    # a local rotation and squeeze on Alice keeps Bob's block isotropic but
    # gives Alice's block an x-p covariance, which the filter must carry too
    theta, r = 0.4, 0.3
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    local = np.eye(4)
    local[:2, :2] = rot @ np.diag([np.exp(r), np.exp(-r)])
    cov = local @ apply_lossy(model_state, 0.2).cov @ local.T
    state = from_cov((cov + cov.T) / 2)
    assert abs(state.cov[0, 1]) > 1.0
    unit = filtered_ensemble(state, FilterSpec(1.0, 4.5))
    assert np.max(np.abs(unit.cov[:2, :2] - state.cov[:2, :2])) < 1e-12
    ens = filtered_ensemble(state, FilterSpec(1.2, 40.0))
    assert np.max(np.abs(ens.cov - nla_single_mode(state.cov, 1.2))) < 1e-8


def test_acceptance_rate_matches_monte_carlo(model_state):
    out = apply_lossy(model_state, 0.2)
    filt = FilterSpec(1.15, 4.0)
    exact = acceptance_rate_exact(out, filt)
    batch = sample_batch(out, 1_000_000, seed=50)
    _, rate = post_select(batch, filt, seed=51)
    se = np.sqrt(exact * (1 - exact) / 1_000_000)
    assert abs(rate - exact) < 3 * se


def test_covariance_matches_monte_carlo(model_state):
    out = apply_lossy(model_state, 0.2)
    filt = FilterSpec(1.1, 4.25)
    ens = filtered_ensemble(out, filt)
    batch = sample_batch(out, 1_000_000, seed=52)
    filtered, _ = post_select(batch, filt, seed=53)
    cov, se = reconstruct_covariance(filtered, min_accepted=5_000)
    dev = np.max(np.abs(cov - ens.cov) / np.where(se > 0, se, np.inf))
    assert dev < 5.0


def test_kurtosis_matches_monte_carlo(model_state):
    from steerdist import moment_stats
    out = apply_lossy(model_state, 0.4)
    filt = FilterSpec(1.15, 3.0)  # biased regime: kurtosis well below 3
    ens = filtered_ensemble(out, filt)
    assert ens.bob_kurtosis < 2.95
    batch = sample_batch(out, 500_000, seed=54)
    filtered, _ = post_select(batch, filt, seed=55)
    stats = moment_stats(filtered.bob_x[filtered.accepted])
    n_acc = int(np.count_nonzero(filtered.accepted))
    se_kurt = np.sqrt(24.0 / n_acc)
    assert abs(stats.kurtosis - ens.bob_kurtosis) < 4 * se_kurt
    assert abs(stats.skewness) < 4 * np.sqrt(6.0 / n_acc)


def test_tail_sum_matches_incomplete_gamma():
    from math import factorial

    from scipy.special import gammaincc  # test oracle only

    from steerdist.filtered_moments import _upper_gamma_tail

    for k in range(5):
        for y in (1e-3, 0.1, 1.0, 4.5, 20.0, 60.0, 300.0):
            want = gammaincc(k + 1, y) * factorial(k)
            assert _upper_gamma_tail(k, y) == pytest.approx(want, rel=1e-12)


def test_strong_truncation_is_detectably_non_gaussian(model_state):
    ens = filtered_ensemble(model_state, FilterSpec(1.25, 2.0))
    assert abs(ens.bob_kurtosis - 3.0) > 0.1


def test_anisotropic_bob_block_rejected():
    cov = np.diag([2.0, 2.0, 1.5, 2.5])
    with pytest.raises(NotImplementedError, match="isotropic"):
        filtered_ensemble(from_cov(cov), FilterSpec(1.1, 4.0))


def test_acceptance_rate_bounds(model_state):
    for g, bc in ((1.05, 3.0), (1.2, 5.0), (1.4, 4.5)):
        rate = acceptance_rate_exact(model_state, FilterSpec(g, bc))
        assert 0.0 < rate <= 1.0
