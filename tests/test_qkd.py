import numpy as np
import pytest
from scipy.optimize import brentq

from steerdist import (
    FilterSpec,
    NoPositiveKeyError,
    apply_lossy,
    from_cov,
    key_rate,
    key_rate_filtered,
    key_rate_with_se,
    min_gain_for_key,
    nla_single_mode,
    tmss_standard,
)
from steerdist.qkd import _filtered_key_rate_stack

TWO_OVER_E = 2.0 / np.e


def _conditional_variances(sigma):
    result = key_rate(sigma)
    return result.v_x_cond, result.v_p_cond


def test_conditional_variances_vacuum():
    assert _conditional_variances(np.eye(4)) == (1.0, 1.0)


def test_conditional_variances_pure_state():
    s = tmss_standard(-6.0, 6.0)
    n = s.cov[0, 0]
    v_x, v_p = _conditional_variances(s.cov)
    # pure-state identity: (1+n)/(2n)
    assert v_x == pytest.approx((1 + n) / (2 * n), rel=1e-12)
    assert v_p == pytest.approx(v_x, rel=1e-12)


def test_conditional_variances_model_state(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    want = (n + 1) / 2 - c * c / (2 * n)
    assert want == pytest.approx(0.855054, abs=1e-6)
    v_x, v_p = _conditional_variances(model_state.cov)
    assert v_x == pytest.approx(want, rel=1e-12)
    assert v_p == pytest.approx(want, rel=1e-12)


def test_key_rate_model_state(model_state):
    assert key_rate(model_state.cov).key_rate == pytest.approx(-0.216782, abs=1e-4)


def test_key_rate_vacuum():
    assert key_rate(np.eye(4)).key_rate == pytest.approx(1 - np.log2(np.e), rel=1e-12)


def test_key_rate_minus_6db_is_near_zero():
    # the exact zero crossing sits at -6.0109 dB, so -6 dB is very slightly
    # negative: K = -0.0010222 (the reported "minimum squeezing -6 dB" is a
    # two-figure statement)
    k = key_rate(tmss_standard(-6.0, 6.0).cov).key_rate
    assert k == pytest.approx(-0.0010222, abs=1e-6)
    assert abs(k) < 1.5e-3


def test_pure_state_zero_crossing_in_db():
    def k_of_db(db):
        return key_rate(tmss_standard(db, -db).cov).key_rate

    crossing = brentq(k_of_db, -8.0, -4.0, xtol=1e-6)
    assert crossing == pytest.approx(-6.01, abs=0.02)


def test_key_rate_symmetric_under_x_p_exchange(model_state):
    swap = np.zeros((4, 4))
    swap[0, 1] = swap[1, 0] = swap[2, 3] = swap[3, 2] = 1.0
    # relabelling x<->p in both modes flips the sign of the cross block,
    # which the key rate does not see; v_x and v_p trade places
    swapped = swap @ model_state.cov @ swap.T
    assert key_rate(swapped).key_rate == pytest.approx(
        key_rate(model_state.cov).key_rate, rel=1e-12
    )
    assert _conditional_variances(swapped) == pytest.approx(
        _conditional_variances(model_state.cov)[::-1], rel=1e-12
    )


def test_key_rate_increases_as_conditional_variance_drops(model_state):
    base = key_rate(model_state.cov).key_rate
    better = model_state.cov.copy()
    better[2, 2] -= 0.05  # lower Bob x-variance lowers v_x
    assert key_rate(better).key_rate > base
    worse = model_state.cov.copy()
    worse[0, 2] = worse[2, 0] = model_state.cov[0, 2] - 0.05  # weaker correlation
    assert key_rate(worse).key_rate < base


def test_ideal_amplifier_key_rate_saturates_negative(model_state):
    # the ideal (infinite-cutoff) amplifier tops out below zero for this
    # impure state: v_x -> (n-1)(n(n+1)-c^2)/(2c^2) > 2/e at the gain bound
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    v_limit = (n - 1) * (n * (n + 1) - c * c) / (2 * c * c)
    assert v_limit > TWO_OVER_E
    for g in (1.2, 1.3, 1.4, 1.43):
        k = key_rate(nla_single_mode(model_state.cov, g)).key_rate
        assert k < 0.0


def test_filtered_key_rate_crosses_zero(model_state):
    # the finite-cutoff ensemble the protocol actually measures does cross
    assert key_rate_filtered(model_state, 1.0, 4.5).key_rate == pytest.approx(
        key_rate(model_state.cov).key_rate, rel=1e-12
    )
    assert key_rate_filtered(model_state, 1.3, 4.5).key_rate < 0
    assert key_rate_filtered(model_state, 1.35, 4.5).key_rate > 0


@pytest.mark.parametrize("cutoff", [np.nan, -1.0, 0.0])
def test_unfiltered_key_rate_refuses_a_cutoff_the_filter_refuses(model_state, cutoff):
    with pytest.raises(ValueError, match="cutoff must be finite and > 0"):
        key_rate_filtered(model_state, 1.0, cutoff)


def test_filtered_key_rate_stack_equals_scalar_calls(model_state, pure_state):
    # the scalar call is row 0 of the stack at N = 1, and a row does not
    # depend on the rest of its stack
    from steerdist import FilterSpec, acceptance_rate_exact

    states = [model_state, pure_state, tmss_standard(-6.0, 6.0)]
    gains = [1.0, 1.1, 1.3, 1.44, 1.5]
    cells = [(s, g) for s in states for g in gains]
    for cutoff in (4.5, 30.0):
        key, v_x, v_p, acc = _filtered_key_rate_stack(
            np.stack([s.cov for s, _ in cells]), [g for _, g in cells], cutoff)
        for i, (s, g) in enumerate(cells):
            want = key_rate_filtered(s, g, cutoff)
            one = _filtered_key_rate_stack(s.cov[None], [g], cutoff)
            assert (want.key_rate, want.v_x_cond, want.v_p_cond) == tuple(x[0] for x in one[:3])
            assert (key[i], v_x[i], v_p[i]) == tuple(x[0] for x in one[:3])
            assert acc[i] == (1.0 if g == 1.0 else acceptance_rate_exact(s, FilterSpec(g, cutoff)))


@pytest.mark.parametrize("state, gain, cutoff, message", [
    (None, 0.9, 4.5, r"^gain must be >= 1, got 0\.9$"),
    (None, np.nan, 4.5, r"^gain must be >= 1, got nan$"),
    (None, 1.2, -1.0, r"^cutoff must be finite and > 0, got -1\.0$"),
    (None, 1.0, np.inf, r"^cutoff must be finite and > 0, got inf$"),
    (None, 1.2, 1e300, r"^cutoff must be <= 1e\+50, got 1e\+300$"),
    (0.5, 1.0, 4.5, r"^state is unphysical: min symplectic eigenvalue 0\.5 < 1 \(tol 0\.001\)$"),
])
def test_filtered_key_rate_refusals(model_state, state, gain, cutoff, message):
    state = model_state if state is None else from_cov(state * np.eye(4))
    with pytest.raises(ValueError, match=message):
        key_rate_filtered(state, gain, cutoff)


def test_filtered_key_rate_checks_no_physicality_of_the_ensemble():
    # above unit gain the post-selected statistics are taken as they are
    assert key_rate_filtered(from_cov(0.5 * np.eye(4)), 1.2, 4.5).key_rate > 0


def _exact_conditional_variances(cov, gain, cutoff):
    """(V_x, V_p) of the exact filtered ensemble, in 40-digit arithmetic:
    its Bob block, cross block and Alice diagonal from the weighted u-moments
    m_0 and m_1, then (B + 1)/2 - C^2/(2 A) per basis."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        sigma = [[mp.mpf(float(x)) for x in row] for row in cov]
        g, bc2 = mp.mpf(gain), mp.mpf(cutoff) ** 2
        s2 = (sigma[2][2] + 1) / 2
        q, t = 1 / s2, 1 - 1 / g**2

        def m(k):
            below = (q * mp.exp(-t * bc2) * bc2 ** (k + 1)
                     * mp.hyp1f1(k + 1, k + 2, -(q - t) * bc2) / (k + 1))
            return below + mp.gammainc(k + 1, q * bc2) / q**k

        w = m(1) / m(0) / s2
        out = []
        for k in (0, 1):
            row2 = sigma[k][2] ** 2 + sigma[k][3] ** 2
            alice = sigma[k][k] + row2 / (2 * s2) * (w - 1)
            cross = sigma[k][k + 2] * w / g
            out.append(float(w * s2 / g**2 - cross**2 / (2 * alice)))
        return out


@pytest.mark.parametrize("cutoff", [4.5, 30.0, 1e4])
def test_filtered_conditional_variances_match_high_precision(model_state, cutoff):
    # a standard-form state, a lossy one, and one whose Alice mode is
    # rotated, so that her cross-block rows have both entries
    theta = 0.4
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    covs = [model_state.cov, apply_lossy(model_state, 0.3).cov,
            rot @ model_state.cov @ rot.T]
    gains = (1.1, 1.3, 1.44, 1.5)
    cells = [(cov, g) for cov in covs for g in gains]
    _, v_x, v_p, _ = _filtered_key_rate_stack(np.stack([c for c, _ in cells]),
                                              [g for _, g in cells], cutoff)
    want = np.array([_exact_conditional_variances(c, g, cutoff) for c, g in cells])
    got = np.stack([v_x, v_p], axis=1)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_min_gain_analytic(model_state):
    g_star = min_gain_for_key(model_state, 4.5, np.arange(1.0, 1.56, 0.02))
    assert g_star == pytest.approx(1.32, abs=1e-9)  # frozen from the exact sweep
    assert abs(g_star - 1.4) <= 0.1  # reported: secret key for g > 1.4


def test_min_gain_threshold_state_at_boundary():
    # the -6 dB pure state sits at the K = 0 boundary: the first positive
    # grid point is within a step or two of unit gain
    s = tmss_standard(-6.0, 6.0)
    g_star = min_gain_for_key(s, 4.5, np.arange(1.0, 1.2, 0.02))
    assert g_star <= 1.04


def test_min_gain_failure(model_state):
    with pytest.raises(NoPositiveKeyError):
        min_gain_for_key(model_state, 4.5, [1.0, 1.05, 1.1])


def test_min_gain_refuses_gain_below_one(model_state):
    with pytest.raises(ValueError, match=r"gain must be >= 1, got 0\.9"):
        min_gain_for_key(model_state, 4.5, [0.9, 1.0])
    # the grid is scanned in order: a positive key before the bad gain wins
    assert min_gain_for_key(model_state, 4.5, [1.0, 1.4, 0.9]) == 1.4


def test_min_gain_refuses_the_cutoff_before_any_gain(model_state):
    # the stack call checks the cutoff before the scan reaches a gain, where
    # FilterSpec(0.5, -1.0) would name the gain first; an empty grid comes first
    with pytest.raises(ValueError, match=r"^cutoff must be finite and > 0, got -1\.0$"):
        min_gain_for_key(model_state, -1.0, [0.5, 1.2])
    with pytest.raises(ValueError, match=r"^gain must be >= 1, got 0\.5$"):
        FilterSpec(0.5, -1.0)
    with pytest.raises(ValueError, match="gain grid is empty"):
        min_gain_for_key(model_state, -1.0, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
def test_min_gain_scans_past_no_gain_it_does_not_reach(model_state, bad):
    # every gain FilterSpec refuses is evaluated at 1 by the stack call, so
    # the scan stops at 1.4 and refuses the bad gain only at its position
    assert min_gain_for_key(model_state, 4.5, [1.3, 1.4, bad]) == 1.4
    with pytest.raises(ValueError, match=f"gain must be (finite and )?>= 1, got {bad}"):
        min_gain_for_key(model_state, 4.5, [1.3, bad, 1.4])


def test_min_gain_scans_past_a_gain_above_the_magnitude_bound():
    # a gain past MAX_CUTOFF is refused at its position, as NaN and 0.5 are
    state = tmss_standard(-4.2, 7.3)
    assert min_gain_for_key(state, 4.5, [1.0, 1.5, 1e60]) == 1.5
    with pytest.raises(ValueError, match=r"gain must be <= 1e\+50, got 1e\+60"):
        min_gain_for_key(state, 4.5, [1.0, 1e60, 1.5])


def test_key_rate_with_se(model_state):
    from steerdist import reconstruct_covariance, sample_batch

    batch = sample_batch(model_state, 500_000, seed=88)
    cov, se = reconstruct_covariance(batch)
    result, err = key_rate_with_se(cov, se)
    assert err > 0
    assert abs(result.key_rate - key_rate(model_state.cov).key_rate) < 4 * err


def test_unphysical_input_rejected():
    with pytest.raises(Exception, match="unphysical"):
        key_rate(0.5 * np.eye(4))
