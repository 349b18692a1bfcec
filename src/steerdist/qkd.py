"""One-sided device-independent QKD key-rate bound (reverse reconciliation).

The bound is

    K >= log2( 2 / (e * sqrt(V_{P_B|P_A} V_{X_B|X_A})) )

where the conditional variances are those of Bob's heterodyne outcome given
Alice's homodyne outcome, computed directly from the covariance matrix:

    V_{X_B|X_A} = (B_xx + 1)/2 - (C_xx/sqrt(2))^2 / A_xx

and analogously for p.  Negative values are reported as-is (no secure key
from this bound).

``min_gain_for_key`` sweeps the distillation gain at fixed cutoff.  The
"analytic" mode evaluates the exact post-selected ensemble at the given
cutoff (deterministic; :mod:`steerdist.filtered_moments`) rather than the
ideal infinite-cutoff amplifier: for the impure model state the ideal
amplifier's key rate saturates at about -0.0094 bits just below its
normalizability bound g ~ 1.4375 and never turns positive, while the
finite-cutoff ensemble -- which is what the protocol actually measures --
crosses zero near g ~ 1.3 for beta_c = 4.5.  Monte Carlo mode runs the full
sampling pipeline and converges to the same ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtered_moments import filtered_ensemble
from .gaussian import (
    GaussianState,
    UnphysicalStateError,
    check_physical,
    require_cov_stack,
)
from .measurement import (
    FilterSpec,
    post_select,
    propagate_se,
    reconstruct_covariance,
    reconstruction_tolerance,
    sample_batch,
)


@dataclass(frozen=True)
class KeyRateResult:
    key_rate: float  # bits per accepted symbol; negative = insecure regime
    v_x_cond: float
    v_p_cond: float


def conditional_variances(sigma: np.ndarray, physicality_tol: float = 1e-3):
    """(V_{X_B|X_A}, V_{P_B|P_A}) of heterodyne given homodyne.

    ``physicality_tol`` is loose by default; pass
    :func:`steerdist.measurement.reconstruction_tolerance` of the SE matrix
    when feeding estimated covariances.
    """
    if not np.isinf(physicality_tol):
        report = check_physical(sigma, tol=physicality_tol)
        if not report:
            raise UnphysicalStateError(
                f"unphysical input: min symplectic eigenvalue "
                f"{report.min_symplectic_eigenvalue:.6g}"
            )
    v_x, v_p = _conditional_variances_stack(np.asarray(sigma, dtype=float)[None])
    return float(v_x[0]), float(v_p[0])


def _conditional_variances_stack(covs: np.ndarray):
    """(V_{X_B|X_A}, V_{P_B|P_A}) arrays of a (N, 4, 4) stack; no physicality check."""
    covs = require_cov_stack(covs)
    v_x = (covs[:, 2, 2] + 1.0) / 2.0 - (covs[:, 0, 2] / np.sqrt(2.0)) ** 2 / covs[:, 0, 0]
    v_p = (covs[:, 3, 3] + 1.0) / 2.0 - (covs[:, 1, 3] / np.sqrt(2.0)) ** 2 / covs[:, 1, 1]
    return v_x, v_p


def _rate(v_x, v_p):
    return np.log2(2.0 / (np.e * np.sqrt(v_x * v_p)))


def key_rate(sigma: np.ndarray, physicality_tol: float = 1e-3) -> KeyRateResult:
    """Lower bound on the reverse-reconciliation key rate, in bits."""
    v_x, v_p = conditional_variances(sigma, physicality_tol)
    return KeyRateResult(float(_rate(v_x, v_p)), v_x, v_p)


def key_rate_filtered(state: GaussianState, gain: float, beta_c: float) -> KeyRateResult:
    """Key rate of the exact post-selected ensemble at one (gain, cutoff).

    The ensemble's moment matrix is the statistics of the protocol's own
    post-selected data; under strong truncation it need not satisfy the
    bona-fide state condition, so no physicality gate is applied.
    """
    if gain == 1.0:
        return key_rate(state.cov)
    ens = filtered_ensemble(state, FilterSpec(gain, beta_c))
    return key_rate(ens.cov, physicality_tol=np.inf)


def key_rate_with_se(cov: np.ndarray, se: np.ndarray,
                     physicality_tol: float = 1e-2):
    """Key rate and standard error from an estimated covariance matrix."""
    result = key_rate(cov, physicality_tol)
    return result, propagate_se(
        lambda covs: _rate(*_conditional_variances_stack(covs)), cov, se)


class NoPositiveKeyError(RuntimeError):
    pass


def min_gain_for_key(
    state: GaussianState,
    beta_c: float,
    g_grid,
    mode: str = "analytic",
    seed: int = 0,
    sample_count: int = 10_000_000,
    min_accepted: int = 1_000,
) -> float:
    """Smallest grid gain with positive key rate at the given cutoff."""
    if mode not in ("analytic", "monte_carlo"):
        raise ValueError(f"mode must be 'analytic' or 'monte_carlo', got {mode!r}")
    g_grid = np.asarray(list(g_grid), dtype=float)
    if g_grid.size == 0:
        raise ValueError("gain grid is empty")
    batch = None
    for g in g_grid:
        if mode == "analytic":
            result = key_rate_filtered(state, float(g), beta_c)
        else:
            if batch is None:  # one Gaussian stream; the filter draws its own
                batch = sample_batch(state, sample_count, seed)
            if g == 1.0:
                cov, se = reconstruct_covariance(batch, min_accepted)
            else:
                filtered, _ = post_select(batch, FilterSpec(float(g), beta_c), seed)
                cov, se = reconstruct_covariance(filtered, min_accepted)
            result = key_rate(cov, reconstruction_tolerance(se))
        if result.key_rate > 0.0:
            return float(g)
    raise NoPositiveKeyError(
        f"no positive key on the gain grid [{g_grid[0]}, {g_grid[-1]}] "
        f"at cutoff {beta_c}"
    )
