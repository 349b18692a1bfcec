import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import cov_from_text, cov_to_text, random_physical_state, schur_complement
from steerdist import (
    UnphysicalStateError,
    apply_lossy,
    check_physical,
    from_cov,
    purity,
    symplectic_eigenvalues,
    symplectic_form,
    tmss_standard,
)
from steerdist.filtered_moments import filtered_ensemble_stack
from steerdist.gaussian import require_cov_stack

# oracle: V = 10^(dB/10), n = (V_sq + V_anti)/2, c = (V_anti - V_sq)/2
V_SQ = 10.0 ** (-0.42)
V_ANTI = 10.0 ** 0.73
N_MODEL = (V_SQ + V_ANTI) / 2  # 2.875253680...
C_MODEL = (V_ANTI - V_SQ) / 2  # 2.495064284...


def test_symplectic_form_identities():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_tmss_zero_db_is_vacuum():
    assert np.allclose(tmss_standard(0.0, 0.0).cov, np.eye(4))


def test_tmss_model_state_blocks():
    s = tmss_standard(-4.2, 7.3)
    assert s.cov[0, 0] == pytest.approx(N_MODEL, abs=1e-12)
    assert s.cov[1, 1] == pytest.approx(N_MODEL, abs=1e-12)
    assert s.cov[0, 2] == pytest.approx(C_MODEL, abs=1e-12)
    assert s.cov[1, 3] == pytest.approx(-C_MODEL, abs=1e-12)
    assert N_MODEL == pytest.approx(2.87525, abs=5e-6)
    assert C_MODEL == pytest.approx(2.49506, abs=5e-6)


def test_tmss_pure_state_identities():
    s = tmss_standard(-6.0, 6.0)
    # V_anti = 1/V_sq makes the state pure: det sigma = 1
    assert np.linalg.det(s.cov) == pytest.approx(1.0, abs=1e-9)
    vs, va = 10.0 ** -0.6, 10.0 ** 0.6
    assert s.cov[0, 0] == pytest.approx((vs + va) / 2, abs=1e-12)


def test_tmss_rejects_bad_db_pairs():
    with pytest.raises(ValueError):
        tmss_standard(1.0, 2.0)  # positive squeeze level
    with pytest.raises(UnphysicalStateError):
        tmss_standard(-6.0, 3.0)  # V_sq * V_anti < 1
    for pair in ((float("nan"), 1.0), (-1.0, float("nan"))):
        with pytest.raises(ValueError, match="expected squeeze_db <= 0 <= antisqueeze_db"):
            tmss_standard(*pair)


@pytest.mark.parametrize("pair", [(-4.2, 4000.0), (-4000.0, 7.3)])
def test_tmss_refuses_db_values_whose_variance_is_no_positive_float(pair):
    # 10**400 overflows a float and 10**-400 rounds to 0
    from steerdist import InputError

    with pytest.raises(InputError, match=r"10\*\*\(dB/10\) a finite, positive float"):
        tmss_standard(*pair)


def test_db_rule_is_the_magnitude_bound_of_the_variance():
    # 10**(|dB|/10) <= 1e50 is |dB| <= 500, on both sides of 0 dB
    from steerdist import InputError
    from steerdist.gaussian import db_variance_ok

    assert db_variance_ok(500.0) and db_variance_ok(-500.0)
    for pair in ((-4.2, 500.00000000001), (-500.00000000001, 7.3)):
        with pytest.raises(InputError, match=r"in \[1e-50, 1e\+50\], got"):
            tmss_standard(*pair)


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert np.allclose(symplectic_eigenvalues(np.eye(6)), 1.0)
    assert symplectic_eigenvalues(np.diag([3.0, 3.0]))[0] == pytest.approx(3.0)


def test_symplectic_eigenvalues_pure_tmss():
    nu = symplectic_eigenvalues(tmss_standard(-6.0, 6.0).cov)
    assert np.allclose(nu, 1.0, atol=1e-9)


def test_symplectic_eigenvalues_2x2_equals_sqrt_det(rng):
    for _ in range(25):
        m = random_physical_state(rng).cov[:2, :2]
        nu = symplectic_eigenvalues(m)
        assert nu[0] == pytest.approx(np.sqrt(np.linalg.det(m)), rel=1e-12)


def test_symplectic_eigenvalues_rejects_non_pd():
    with pytest.raises(ValueError, match="positive definite"):
        symplectic_eigenvalues(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
def test_symplectic_eigenvalues_rejects_a_matrix_that_is_not_2k_x_2k(shape):
    with pytest.raises(ValueError) as err:
        symplectic_eigenvalues(np.ones(shape))
    assert str(err.value) == f"expected a 2k x 2k matrix, got shape {shape}"


def test_purity_values():
    assert purity(np.eye(4)) == pytest.approx(1.0)
    # oracle: det sigma = (V_sq * V_anti)^2 so mu = 1/(V_sq * V_anti)
    assert purity(tmss_standard(-4.2, 7.3).cov) == pytest.approx(1 / (V_SQ * V_ANTI), rel=1e-12)
    assert purity(tmss_standard(-6.0, 6.0).cov) == pytest.approx(1.0, abs=1e-9)


def test_purity_rejects_unphysical():
    with pytest.raises(UnphysicalStateError):
        purity(np.diag([0.5, 0.5, 0.5, 0.5]))


def test_purity_invariant_under_symplectic(rng):
    s = tmss_standard(-4.2, 7.3)
    mu0 = purity(s.cov)
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(-0.5, 0.5)
        local = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        local = local @ np.diag([np.exp(r), np.exp(-r)])
        sp = np.eye(4)
        sp[:2, :2] = local
        cov = sp @ s.cov @ sp.T
        assert purity((cov + cov.T) / 2) == pytest.approx(mu0, rel=1e-9)


def test_check_physical():
    assert check_physical(np.eye(4)).passed
    report = check_physical(0.5 * np.eye(4))
    assert not report.passed
    assert report.min_symplectic_eigenvalue == pytest.approx(0.5)


def test_channel_outputs_stay_physical(rng):
    for _ in range(50):
        state = random_physical_state(rng)
        out = apply_lossy(state, rng.uniform(0, 1))
        assert check_physical(out.cov).passed


def test_schur_complement_block_diagonal_passthrough():
    cov = np.diag([2.0, 2.0, 3.0, 3.0])
    assert np.allclose(schur_complement(cov, "b"), np.diag([3.0, 3.0]))
    assert np.allclose(schur_complement(cov, "a"), np.diag([2.0, 2.0]))


def test_schur_complement_model_state():
    s = tmss_standard(-4.2, 7.3)
    want = (N_MODEL - C_MODEL**2 / N_MODEL) * np.eye(2)
    assert np.allclose(schur_complement(s.cov, "b"), want, atol=1e-12)


def test_schur_complement_pure_state():
    s = tmss_standard(-6.0, 6.0)
    n = s.cov[0, 0]
    # n^2 - c^2 = 1 for pure states, so the complement is I/n
    assert np.allclose(schur_complement(s.cov, "b"), np.eye(2) / n, atol=1e-9)


def test_schur_determinant_factorization(rng):
    for _ in range(25):
        cov = random_physical_state(rng).cov
        a = cov[:2, :2]
        comp = schur_complement(cov, "b")
        assert np.linalg.det(comp) * np.linalg.det(a) == pytest.approx(
            np.linalg.det(cov), rel=1e-9
        )


def test_state_partition_validation():
    with pytest.raises(ValueError, match="4x4"):
        from_cov(np.eye(6))
    with pytest.raises(ValueError, match="symmetric"):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        from_cov(cov)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cov_stack_refuses_a_non_finite_matrix_naming_its_cell(bad):
    covs = np.stack([np.eye(4)] * 3)
    covs[1, 2, 3] = covs[1, 3, 2] = bad
    with pytest.raises(ValueError, match="non-finite entry") as exc:
        require_cov_stack(covs)
    assert exc.value.cell == 1
    with pytest.raises(ValueError, match="non-finite entry"):
        from_cov(covs[1])
    with pytest.raises(ValueError, match="non-finite entry") as exc:
        filtered_ensemble_stack(covs, 1.2, 3.0)
    assert exc.value.cell == 1


def test_state_arrays_frozen():
    s = from_cov(np.eye(4))
    with pytest.raises(ValueError):
        s.cov[0, 0] = 5.0


def test_serialization_roundtrip_exact(rng):
    cov = random_physical_state(rng).cov
    text = cov_to_text(cov)
    assert text.startswith("covmatrix v1 4\n")
    assert np.array_equal(cov_from_text(text), cov)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_states_are_physical(seed):
    state = random_physical_state(np.random.default_rng(seed))
    assert check_physical(state.cov).passed
