"""One-sided device-independent QKD key-rate bound (reverse reconciliation).

The bound is

    K >= log2( 2 / (e * sqrt(V_{P_B|P_A} V_{X_B|X_A})) )

where the conditional variances are those of Bob's heterodyne outcome given
Alice's homodyne outcome, computed directly from the covariance matrix:

    V_{X_B|X_A} = (B_xx + 1)/2 - (C_xx/sqrt(2))^2 / A_xx

and analogously for p.  Negative values are reported as-is (no secure key
from this bound).

``min_gain_for_key`` sweeps the distillation gain at fixed cutoff.  It
evaluates the exact post-selected ensemble at the given cutoff
(deterministic; :mod:`steerdist.filtered_moments`) rather than the ideal
infinite-cutoff amplifier: for the impure model state the ideal amplifier's
key rate saturates at about -0.0094 bits just below its normalizability
bound g ~ 1.4375 and never turns positive, while the finite-cutoff ensemble
-- which is what the protocol actually measures -- crosses zero near
g ~ 1.3 for beta_c = 4.5.  The sweep samples nothing; the sampled pipeline
converges to the same ensemble, which the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtered_moments import filtered_ensemble, filtered_ensemble_stack
from .gaussian import (
    GaussianState,
    InputError,
    NumericalError,
    RECONSTRUCTION_TOL,
    _first_order_se,
    _require_stack,
    require_cov_stack,
)
from .measurement import FilterSpec


@dataclass(frozen=True)
class KeyRateResult:
    key_rate: float  # bits per accepted symbol; negative = insecure regime
    v_x_cond: float
    v_p_cond: float


def conditional_variances(sigma: np.ndarray, physicality_tol: float = RECONSTRUCTION_TOL):
    """(V_{X_B|X_A}, V_{P_B|P_A}) of heterodyne given homodyne.

    ``physicality_tol`` is loose by default (``RECONSTRUCTION_TOL``); pass
    :func:`steerdist.measurement.reconstruction_tolerance` of the SE matrix
    when feeding estimated covariances.
    """
    covs = _require_stack(np.asarray(sigma, dtype=float)[None], physicality_tol)
    v_x, v_p = _conditional_variances_stack(covs)
    return float(v_x[0]), float(v_p[0])


def _conditional_variances_stack(covs: np.ndarray):
    """(V_{X_B|X_A}, V_{P_B|P_A}) arrays of a (N, 4, 4) stack; no physicality check."""
    covs = require_cov_stack(covs)
    v_x = (covs[:, 2, 2] + 1.0) / 2.0 - (covs[:, 0, 2] / np.sqrt(2.0)) ** 2 / covs[:, 0, 0]
    v_p = (covs[:, 3, 3] + 1.0) / 2.0 - (covs[:, 1, 3] / np.sqrt(2.0)) ** 2 / covs[:, 1, 1]
    return v_x, v_p


def _rate(v_x, v_p):
    return np.log2(2.0 / (np.e * np.sqrt(v_x * v_p)))


def key_rate(sigma: np.ndarray, physicality_tol: float = RECONSTRUCTION_TOL) -> KeyRateResult:
    """Lower bound on the reverse-reconciliation key rate, in bits; the
    matrix is checked for physicality at ``physicality_tol``
    (``RECONSTRUCTION_TOL``)."""
    v_x, v_p = conditional_variances(sigma, physicality_tol)
    return KeyRateResult(float(_rate(v_x, v_p)), v_x, v_p)


def key_rate_filtered(state: GaussianState, gain: float, beta_c: float) -> KeyRateResult:
    """Key rate of the exact post-selected ensemble at one (gain, cutoff).

    The ensemble's moment matrix is the statistics of the protocol's own
    post-selected data; under strong truncation it need not satisfy the
    bona-fide state condition, so no physicality gate is applied.
    """
    filt = FilterSpec(gain, beta_c)  # at unit gain too, as the stack refuses
    if gain == 1.0:
        return key_rate(state.cov)
    ens = filtered_ensemble(state, filt)
    return key_rate(ens.cov, physicality_tol=np.inf)


def _filtered_key_rate_stack(covs: np.ndarray, gains, beta_c: float):
    """(key rates, V_x, V_p, acceptance rates) of :func:`key_rate_filtered`
    on a (N, 4, 4) stack, one gain per matrix, with no physicality check of
    the unit-gain rows, which keep their matrix and rate 1."""
    covs = require_cov_stack(covs)
    gains = np.asarray(gains, dtype=float)
    acc, ens, _ = filtered_ensemble_stack(covs, gains, beta_c)
    unit = gains == 1.0
    ens[unit], acc[unit] = covs[unit], 1.0
    v_x, v_p = _conditional_variances_stack(ens)
    return _rate(v_x, v_p), v_x, v_p, acc


def key_rate_with_se_stack(covs: np.ndarray, ses: np.ndarray):
    """(key rates, V_x, V_p, SEs of the key rates) of a (N, 4, 4) stack of
    estimated covariances and their entry SEs.  It takes matrices that
    :func:`steerdist.measurement.covariance_stack` accepted, so it checks
    their symmetry but not their physicality.  The SE is first order through
    the exact gradient of K = log2(2/e) - log2(V_X V_P)/2; the entries count
    as independent, which overstates the seed-to-seed spread 2.4-2.8x."""
    covs = require_cov_stack(covs)
    v_x, v_p = _conditional_variances_stack(covs)
    grad = np.zeros_like(covs)
    for k, v in enumerate((v_x, v_p)):
        # V = (B + 1)/2 - C^2/(2A) of basis k, with A, B, C its three entries
        a, c, dk_dv = covs[:, k, k], covs[:, k, k + 2], -0.5 / (np.log(2.0) * v)
        grad[:, k, k], grad[:, k + 2, k + 2], grad[:, k, k + 2] = (
            dk_dv * c * c / (2.0 * a * a), dk_dv / 2.0, -dk_dv * c / a)
    return _rate(v_x, v_p), v_x, v_p, _first_order_se(grad, ses)


def key_rate_with_se(cov: np.ndarray, se: np.ndarray,
                     physicality_tol: float = 1e-2):
    """Key rate and its first-order standard error from an estimated
    covariance: :func:`key_rate_with_se_stack` with N = 1, after a physicality
    check at ``physicality_tol``."""
    covs = _require_stack(np.asarray(cov, dtype=float)[None], physicality_tol)
    rate, v_x, v_p, err = key_rate_with_se_stack(covs, np.asarray(se, dtype=float)[None])
    return KeyRateResult(float(rate[0]), float(v_x[0]), float(v_p[0])), float(err[0])


class NoPositiveKeyError(NumericalError):
    """No gain on the grid gives a positive key rate."""


def min_gain_for_key(state: GaussianState, beta_c: float, g_grid) -> float:
    """Smallest grid gain with positive key rate at the given cutoff.  One
    stack call evaluates the grid; the scan in grid order stops at the first
    positive key or raises at the first gain :class:`FilterSpec` refuses."""
    g_grid = np.asarray(list(g_grid), dtype=float)
    if g_grid.size == 0:
        raise InputError("gain grid is empty")
    # a gain FilterSpec refuses is evaluated at 1 here, refused in place by the scan
    gains = np.where((g_grid >= 1.0) & (g_grid < np.inf), g_grid, 1.0)
    rates = _filtered_key_rate_stack(np.broadcast_to(state.cov, (g_grid.size, 4, 4)),
                                     gains, beta_c)[0]
    for g, rate in zip(g_grid.tolist(), rates.tolist()):
        if g == 1.0:  # the unfiltered state, checked for physicality
            rate = key_rate(state.cov).key_rate
        else:
            FilterSpec(g, beta_c)  # raises on a gain or cutoff the filter refuses
        if rate > 0.0:
            return g
    raise NoPositiveKeyError(
        f"no positive key on the gain grid [{g_grid[0]}, {g_grid[-1]}] "
        f"at cutoff {beta_c}"
    )
