import numpy as np
import pytest

from steerdist import (
    GainPair,
    GainTooLargeError,
    apply_lossy,
    build_gain_matrices,
    check_physical,
    from_cov,
    max_single_mode_gain,
    nla_cov_two_mode,
    nla_single_mode,
    random_physical_state,
    steerability,
    symplectic_form,
    tmss_standard,
)


def tmss_cov_fock(lam: float, nmax: int = 200):
    """Brute-force oracle: standard-form (n, c) from the Schmidt series.

    |TMSS(lam)> = sqrt(1-lam^2) sum lam^n |nn>, so <a^dag a> and <ab> are
    truncated geometric sums; n = 1 + 2<a^dag a>, c = 2<ab>.
    """
    k = np.arange(nmax)
    w = (1 - lam**2) * lam ** (2 * k)
    nbar = float(np.sum(w * k))
    ab = float(np.sum(w * k) / lam) if lam > 0 else 0.0
    return 1 + 2 * nbar, 2 * ab


def thermal_variance_fock(v: float, g: float, nmax: int = 400):
    """Geometric-series oracle: g^n on a thermal state maps q -> g^2 q."""
    q = (v - 1.0) / (v + 1.0)
    q2 = g * g * q
    assert q2 < 1.0
    k = np.arange(nmax)
    w = (1 - q2) * q2**k
    return float(1 + 2 * np.sum(w * k))


def lam_to_db(lam: float):
    v_sq = (1 - lam) / (1 + lam)
    return 10 * np.log10(v_sq), -10 * np.log10(v_sq)


def test_gain_pair_validation():
    with pytest.raises(ValueError):
        GainPair(0.9, 1.2)
    with pytest.raises(ValueError, match="g > 1 strictly"):
        build_gain_matrices(GainPair(1.0, 1.2))


def test_gain_matrix_coefficients():
    g1, g2 = build_gain_matrices(GainPair(1.1, 1.2))
    # direct evaluation: B = (g^2+1)/(2(g^2-1)), 2D = 2g/(1-g^2)
    assert g1[2, 2] == pytest.approx(2.44 / 0.88, rel=1e-12)
    assert g2[2, 2] == pytest.approx(2 * 1.2 / (1 - 1.44), rel=1e-12)


def test_gain_matrix_symmetry_when_equal():
    g1, g2 = build_gain_matrices(GainPair(1.15, 1.15))
    assert g1[0, 0] == g1[2, 2]
    assert g2[0, 0] == g2[2, 2]


def test_gain_matrices_commute_with_symplectic_form(rng):
    omega = symplectic_form(2)
    for _ in range(10):
        pair = GainPair(1 + rng.uniform(0.01, 0.4), 1 + rng.uniform(0.01, 0.4))
        for mat in build_gain_matrices(pair):
            assert np.allclose(omega.T @ mat @ omega, mat, atol=1e-12)


def test_identity_limit_linear_convergence(model_state):
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        out = nla_cov_two_mode(model_state.cov, GainPair(1 + eps, 1 + eps))
        errs.append(np.max(np.abs(out - model_state.cov)))
    assert errs[0] < 2e-2
    for a, b in zip(errs, errs[1:]):
        assert 5.0 < a / b < 20.0  # error scales like eps
    out = nla_cov_two_mode(model_state.cov, GainPair(1 + 1e-6, 1 + 1e-6))
    assert np.max(np.abs(out - model_state.cov)) < 1e-4


def test_tmss_eigen_relation_one_sided():
    lam, g = 1.0 / 3.0, 1.5
    state = tmss_standard(*lam_to_db(lam))
    n_in, c_in = tmss_cov_fock(lam)
    assert state.cov[0, 0] == pytest.approx(n_in, abs=1e-12)
    out = nla_single_mode(state.cov, g, side="b")
    n_want, c_want = tmss_cov_fock(g * lam)
    assert n_want == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert c_want == pytest.approx(4.0 / 3.0, abs=1e-12)
    want = np.zeros((4, 4))
    want[:2, :2] = want[2:, 2:] = n_want * np.eye(2)
    want[:2, 2:] = want[2:, :2] = c_want * np.diag([1.0, -1.0])
    assert np.max(np.abs(out - want)) < 1e-12


def test_tmss_eigen_relation_two_sided():
    lam, g = 0.25, 1.3
    state = tmss_standard(*lam_to_db(lam))
    out = nla_cov_two_mode(state.cov, GainPair(g, g))
    n_want, c_want = tmss_cov_fock(g * g * lam)
    assert out[0, 0] == pytest.approx(n_want, abs=1e-7)
    assert out[0, 2] == pytest.approx(c_want, abs=1e-7)


def test_thermal_block_oracle():
    sigma = np.diag([1.0, 1.0, 2.0, 2.0])
    out = nla_single_mode(sigma, 1.2, side="b")
    want = thermal_variance_fock(2.0, 1.2)
    assert want == pytest.approx(37.0 / 13.0, abs=1e-9)
    assert out[2, 2] == pytest.approx(want, abs=1e-12)
    assert out[3, 3] == pytest.approx(want, abs=1e-12)
    assert np.allclose(out[:2, :2], np.eye(2), rtol=0.0, atol=1e-12)


def test_side_a_amplifies_alice():
    sigma = np.diag([2.0, 2.0, 1.0, 1.0])
    out = nla_single_mode(sigma, 1.2, side="a")
    assert out[0, 0] == pytest.approx(37.0 / 13.0, abs=1e-12)
    assert np.allclose(out[2:, 2:], np.eye(2), rtol=0.0, atol=1e-12)


def test_unit_gain_is_identity(model_state):
    assert np.array_equal(nla_single_mode(model_state.cov, 1.0), model_state.cov)


def test_recovers_two_way_steering(model_state):
    # loss 0.35 kills B->A; gain 1.2 restores it (two-way below ~0.43)
    out = apply_lossy(model_state, 0.35)
    assert steerability(out, "b_to_a") == 0.0
    amplified = from_cov(nla_single_mode(out.cov, 1.2))
    assert steerability(amplified, "b_to_a") > 0.0


def test_gain_too_large_rejected(model_state):
    g_max = max_single_mode_gain(model_state.cov)
    assert g_max == pytest.approx(np.sqrt((model_state.cov[0, 0] + 1)
                                          / (model_state.cov[0, 0] - 1)), rel=1e-12)
    with pytest.raises(GainTooLargeError, match="eigenvalue"):
        nla_cov_two_mode(model_state.cov, GainPair(1 + 1e-6, g_max + 0.01))


@pytest.mark.parametrize("side", ["a", "b"])
def test_single_mode_gain_too_large_rejected(side, model_state):
    sigma = apply_lossy(model_state, 0.3).cov  # Alice and Bob blocks differ
    g_max = max_single_mode_gain(sigma, side)
    assert np.isfinite(g_max)
    nla_single_mode(sigma, g_max * (1 - 1e-6), side=side)
    with pytest.raises(GainTooLargeError, match="eigenvalue"):
        nla_single_mode(sigma, g_max * (1 + 1e-6), side=side)


def test_side_a_is_side_b_on_swapped_modes(rng):
    swap = [2, 3, 0, 1]
    for _ in range(25):
        sigma = random_physical_state(rng).cov
        swapped = sigma[np.ix_(swap, swap)]
        g = 1.0 + 0.5 * (min(max_single_mode_gain(sigma, "a"), 2.5) - 1.0)
        out_a = nla_single_mode(sigma, g, side="a")
        out_b = nla_single_mode(swapped, g, side="b")[np.ix_(swap, swap)]
        assert np.allclose(out_a, out_b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("side", ["a", "b"])
def test_two_mode_map_approaches_one_sided_limit_linearly(side, model_state):
    sigma = apply_lossy(model_state, 0.3).cov
    g = 1.2
    exact = nla_single_mode(sigma, g, side=side)
    errs = []
    for eps in (1e-4, 1e-5, 1e-6):
        pair = GainPair(1 + eps, g) if side == "b" else GainPair(g, 1 + eps)
        errs.append(np.max(np.abs(nla_cov_two_mode(sigma, pair) - exact)))
    assert errs[0] < 1e-2
    for a, b in zip(errs, errs[1:]):
        assert 8.0 < a / b < 12.0  # error scales like eps


def test_output_physical_for_random_states(rng):
    for _ in range(25):
        state = random_physical_state(rng)
        g_max = max_single_mode_gain(state.cov)
        g = 1.0 + 0.5 * (min(g_max, 2.5) - 1.0)
        out = nla_single_mode(state.cov, g, side="b")
        assert check_physical(out).passed


def test_pure_state_never_surpasses_after_amplification(pure_state):
    for loss in np.linspace(0.0, 0.5, 6):
        out = apply_lossy(pure_state, float(loss))
        for g in np.linspace(1.0, 1.3, 7):
            cov = out.cov if g == 1.0 else nla_single_mode(out.cov, float(g))
            state = from_cov(cov)
            assert steerability(state, "b_to_a") <= steerability(state, "a_to_b") + 1e-9


def test_impure_state_crossover(model_state):
    amplified = from_cov(nla_single_mode(model_state.cov, 1.2))
    gba = steerability(amplified, "b_to_a")
    gab = steerability(amplified, "a_to_b")
    assert gba > gab  # the reverse of the pure-state ordering
    base = steerability(model_state, "a_to_b")
    assert gab > base and gba > base  # amplification enhances both directions
