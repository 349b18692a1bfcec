"""Exact (infinite-sample) statistics of the accepted, rescaled ensemble.

For the states in this study Bob's reduced block is isotropic (B = V*I,
no x-p correlation), so the squared outcome magnitude u = |gamma|^2 is
exponentially distributed with mean s2 = (V+1)/2 and the acceptance weight
w(u) = min(1, exp(t(u - beta_c^2))), t = 1 - g^-2, depends on u alone.
Every moment the Monte Carlo reconstruction estimates then reduces to
weighted u-moments

    m_k = E[w(u) u^k],

computed here in closed form.  Below the cutoff w is an exponential in u,
so with q = 1/s2, c = beta_c^2 and y = (q - t) c that part is
q c^{k+1} e^{-tc} int_0^1 s^k e^{-ys} ds (a power series in y for |y| <= 1,
a recurrence in k otherwise; see :func:`_weighted_u_moments`); above it the
tail is int_y^inf v^k e^{-v} dv = e^{-y} sum_{j<=k} k!/j! y^j.  This closed
form replaces a 400-node Gauss-Legendre quadrature: it is exact to 5e-15
relative against 40-digit arithmetic (the quadrature: 3e-13), and start-up
no longer solves the quadrature's 400 x 400 eigenproblem.
This gives the exact acceptance rate, accepted mean <u> and kurtosis of
the accepted marginals, and from <u> the exact covariance matrix the
reconstruction converges to -- all deterministic and valid even where the
acceptance rate starves a sampled run.  The filtered key rate takes <u>
itself, not the matrix's Bob entry 2<u>/g^2 - 1, which cancels at large g.

As beta_c -> infinity (and g below the normalizability bound) the filtered
covariance converges to the ideal amplified covariance, which provides an
independent cross-check of the analytic amplifier map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .gaussian import GaussianState, _raise_first, require_cov_stack
from .measurement import MODEL_RTOL, FilterSpec, _check_filter

# terms of the power series of J_k(y) for |y| <= 1: the first omitted one,
# at most 1/20! < 4e-19, is below 2e-18 of J_k(y) >= J_k(1) > e^-1/(k+1)
_TERMS = 20


def _tail_sum(k: int, y):
    """e^y Gamma(k+1, y) = sum_{j<=k} y^j k!/j!; all terms positive."""
    return sum(factorial(k) // factorial(j) * y**j for j in range(k + 1))


def _weighted_u_moments(s2, t, bc2, kmax: int):
    """(r, f): m_k = E[min(1, e^{t(u-bc2)}) u^k] = f r_k for u ~ Exp(mean s2),
    k = 0..kmax, from length-N arrays.  f = max(e^{-tB}, e^{-qB}) may round
    to 0 at a large cutoff, where r and so m_j / m_k = r_j / r_k stay finite.

    With q = 1/s2, B = bc2 and y = (q - t) B, the part below the cutoff is
    q B^{k+1} e^{-tB} J_k(y), J_k(y) = int_0^1 s^k e^{-ys} ds.  For |y| <= 1
    J_k is the power series sum_m (-y)^m / (m! (k+1+m)).  Otherwise
    e^{-tB} J_0 = (e^{-tB} - e^{-qB}) / y and
    e^{-tB} J_k = (k e^{-tB} J_{k-1} - e^{-qB}) / y, evaluated relative to
    f: nothing overflows when t > q, and the two exponentials are not
    rounded apart before the recurrence subtracts them.  The tail adds
    e^{-qB} :func:`_tail_sum` (k, qB) / q^k."""
    q = 1.0 / s2
    y = (q - t) * bc2
    big = np.exp(-np.minimum(q, t) * bc2)   # f = max(e^{-tB}, e^{-qB})
    ratio = np.exp(-np.abs(y))              # min(e^{-tB}, e^{-qB}) / f
    et, eq = np.where(y > 0, 1.0, ratio), np.where(y > 0, ratio, 1.0)  # e^{-tB}, e^{-qB} / f
    small = np.abs(y) <= 1.0
    # each branch sees a harmless value in the other branch's rows
    minus_y = np.where(small, -y, 0.0)
    y_rec = np.where(small, 1.0, y)
    rec = -np.expm1(-np.abs(y_rec)) / np.abs(y_rec)   # (et - eq) / y
    out = np.empty((kmax + 1, len(s2)))
    for k in range(kmax + 1):
        if k:
            rec = (k * rec - eq) / y_rec
        series = np.zeros(len(s2))
        for m in range(_TERMS - 1, -1, -1):  # Horner's rule
            series *= minus_y
            series += 1.0 / (factorial(m) * (k + 1 + m))
        below = q * bc2 ** (k + 1) * np.where(small, et * series, rec)
        out[k] = below + eq * _tail_sum(k, q * bc2) / q**k
    return out, big


@dataclass(frozen=True)
class FilteredEnsemble:
    """Exact accepted-ensemble summary for one (state, filter) pair."""

    acceptance_rate: float
    cov: np.ndarray          # covariance the reconstruction converges to
    bob_kurtosis: float      # of each rescaled Bob quadrature marginal
    bob_skewness: float      # exactly 0 by symmetry of the radial weight


def _filter_integrals(covs: np.ndarray, gains, cutoffs):
    """(gains, s2 = E[u] unfiltered, <u> accepted, acceptance rates, Bob
    kurtoses) of a (N, 4, 4) stack, after the filter and isotropy checks."""
    g, cutoffs = np.asarray(gains, dtype=float), np.asarray(cutoffs, dtype=float)
    _check_filter(g, cutoffs)
    g, cutoffs = np.broadcast_to(g, (len(covs),)), np.broadcast_to(cutoffs, (len(covs),))
    b = covs[:, 2:, 2:]
    scale = np.maximum(1.0, np.abs(b[:, 0, 0])) * MODEL_RTOL
    _raise_first((np.abs(b[:, 0, 0] - b[:, 1, 1]) > scale) | (np.abs(b[:, 0, 1]) > scale),
                 lambda i: NotImplementedError(
                     "exact filtered moments require an isotropic Bob block "
                     f"(got diag {b[i, 0, 0]:.6g}/{b[i, 1, 1]:.6g}, cross {b[i, 0, 1]:.6g})"))
    s2 = (b[:, 0, 0] + 1.0) / 2.0
    t = 1.0 - 1.0 / (g * g)
    (r0, r1, r2), scale = _weighted_u_moments(s2, t, cutoffs**2, kmax=2)
    u1 = r1 / r0
    # E[q^4] = (3/8)<u^2> per quadrature component of gamma; kurtosis is
    # scale-invariant so the 1/g rescale drops out.
    return g, s2, u1, r0 * scale, 1.5 * (r2 / r0) / (u1 * u1)


def filtered_ensemble_stack(covs: np.ndarray, gains, cutoffs):
    """(acceptance rates, covariance matrices, Bob kurtoses) of the accepted
    ensembles of a (N, 4, 4) stack, ``gains`` and ``cutoffs`` scalars or
    length-N arrays; the skewness is 0 for all of them."""
    covs = require_cov_stack(covs)
    g, s2, u1, rate, kurt = _filter_integrals(covs, gains, cutoffs)
    a, c = covs[:, :2, :2], covs[:, :2, 2:]
    out = np.zeros((len(covs), 4, 4))
    # Bob block: accepted Var(bob quadrature) = <u>, rescaled by 1/g^2,
    # then V = 2 Var - 1. Radial weight keeps the block isotropic.
    out[:, 2:, 2:] = (2.0 * u1 / g**2 - 1.0)[:, None, None] * np.eye(2)
    # Cross block: Cov(alice_i, bob_j) scales by <u>/s2 before rescaling.
    out[:, :2, 2:] = c * (u1 / (g * s2))[:, None, None]
    out[:, 2:, :2] = out[:, :2, 2:].transpose(0, 2, 1)
    # Alice block: regression of alice on Bob's outcome pair. The residual
    # is unaffected by the filter; the explained part (c_i.c_j/2)/s2 scales
    # with <u>/s2.
    for i, j in ((0, 0), (1, 1), (0, 1)):
        cvec2 = (c[:, i, 0] * c[:, j, 0] + c[:, i, 1] * c[:, j, 1]) / 2.0
        out[:, i, j] = out[:, j, i] = a[:, i, j] + (cvec2 / s2) * (u1 / s2 - 1.0)
    return rate, out, kurt


def filtered_ensemble(state: GaussianState, filt: FilterSpec) -> FilteredEnsemble:
    """Exact statistics of the post-selected, rescaled ensemble.

    The returned covariance matrix is what :func:`reconstruct_covariance`
    converges to as the sample count grows, entry by entry, except Alice's
    x-p entry, which her single-quadrature homodyne does not observe.
    """
    rate, cov, kurt = filtered_ensemble_stack(state.cov[None], filt.gain, filt.cutoff)
    return FilteredEnsemble(float(rate[0]), cov[0], float(kurt[0]), 0.0)


def acceptance_rate_exact(state: GaussianState, filt: FilterSpec) -> float:
    """Exact expected acceptance rate of :func:`post_select`."""
    return filtered_ensemble(state, filt).acceptance_rate
