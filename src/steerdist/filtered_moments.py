"""Exact (infinite-sample) statistics of the accepted, rescaled ensemble.

For the states in this study Bob's reduced block is isotropic (B = V*I,
no x-p correlation), so the squared outcome magnitude u = |gamma|^2 is
exponentially distributed with mean s2 = (V+1)/2 and the acceptance weight
w(u) = min(1, exp(t(u - beta_c^2))), t = 1 - g^-2, depends on u alone.
Every moment the Monte Carlo reconstruction estimates then reduces to
weighted u-moments

    m_k = E[w(u) u^k],

computed here with Gauss-Legendre quadrature below the cutoff plus the
closed-form tail above it, int_y^inf v^k e^{-v} dv = e^{-y} sum_{j<=k} k!/j! y^j.
This gives the exact acceptance rate, the exact covariance matrix the
reconstruction converges to, and the exact kurtosis of the accepted
marginals — all deterministic and valid even where the acceptance rate
starves a sampled run.

As beta_c -> infinity (and g below the normalizability bound) the filtered
covariance converges to the ideal amplified covariance, which provides an
independent cross-check of the analytic amplifier map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .gaussian import GaussianState
from .measurement import FilterSpec

_NODES, _WEIGHTS = leggauss(400)

# Bob-block isotropy tolerance: these formulas only hold when the reduced
# block is proportional to the identity.
_ISOTROPY_RTOL = 1e-9


def _upper_gamma_tail(k: int, y: float) -> float:
    """Gamma(k+1, y) = e^{-y} sum_{j<=k} y^j k!/j!; all terms positive."""
    return exp(-y) * sum(factorial(k) // factorial(j) * y**j for j in range(k + 1))


def _weighted_u_moments(s2: float, t: float, bc2: float, kmax: int):
    """m_k = E[min(1, e^{t(u-bc2)}) u^k] for u ~ Exp(mean s2), k = 0..kmax."""
    q = 1.0 / s2
    x = 0.5 * bc2 * (_NODES + 1.0)
    w = 0.5 * bc2 * _WEIGHTS
    e = np.exp(-(q - t) * x)
    out = []
    for k in range(kmax + 1):
        below = q * np.exp(-t * bc2) * float(np.sum(w * x**k * e))
        above = _upper_gamma_tail(k, q * bc2) / q**k
        out.append(below + above)
    return out


@dataclass(frozen=True)
class FilteredEnsemble:
    """Exact accepted-ensemble summary for one (state, filter) pair."""

    acceptance_rate: float
    cov: np.ndarray          # covariance the reconstruction converges to
    bob_kurtosis: float      # of each rescaled Bob quadrature marginal
    bob_skewness: float      # exactly 0 by symmetry of the radial weight


def _bob_isotropy(state: GaussianState) -> float:
    _, b, _ = state.blocks()
    scale = max(1.0, abs(b[0, 0]))
    if abs(b[0, 0] - b[1, 1]) > _ISOTROPY_RTOL * scale or abs(b[0, 1]) > _ISOTROPY_RTOL * scale:
        raise NotImplementedError(
            "exact filtered moments require an isotropic Bob block "
            f"(got diag {b[0, 0]:.6g}/{b[1, 1]:.6g}, cross {b[0, 1]:.6g})"
        )
    return float(b[0, 0])


def filtered_ensemble(state: GaussianState, filt: FilterSpec) -> FilteredEnsemble:
    """Exact statistics of the post-selected, rescaled ensemble.

    The returned covariance matrix is what :func:`reconstruct_covariance`
    converges to as the sample count grows, entry by entry.
    """
    if len(state.alice_modes) != 1 or len(state.bob_modes) != 1:
        raise ValueError("filtered moments require exactly one mode per side")
    a, _, c = state.blocks()
    v_b = _bob_isotropy(state)
    s2 = (v_b + 1.0) / 2.0          # E[u] without filtering
    t = 1.0 - 1.0 / (filt.gain * filt.gain)
    bc2 = filt.cutoff**2
    m0, m1, m2 = _weighted_u_moments(s2, t, bc2, kmax=2)
    u1 = m1 / m0                    # <u> under acceptance
    u2 = m2 / m0
    g = filt.gain

    cov = np.zeros((4, 4))
    # Bob block: accepted Var(bob quadrature) = <u>, rescaled by 1/g^2,
    # then V = 2 Var - 1. Radial weight keeps the block isotropic.
    cov[2:, 2:] = (2.0 * u1 / g**2 - 1.0) * np.eye(2)
    # Cross block: Cov(alice_i, bob_j) scales by <u>/s2 before rescaling.
    cov[:2, 2:] = c * u1 / (g * s2)
    cov[2:, :2] = cov[:2, 2:].T
    # Alice block: regression of alice on Bob's outcome pair. The residual
    # is unaffected by the filter; the explained part scales with <u>/s2.
    for i in range(2):
        cvec2 = (c[i, 0] ** 2 + c[i, 1] ** 2) / 2.0
        cov[i, i] = a[i, i] + (cvec2 / s2) * (u1 / s2 - 1.0)

    # E[q^4] = (3/8)<u^2> per quadrature component of gamma; kurtosis is
    # scale-invariant so the 1/g rescale drops out.
    kurt = 1.5 * u2 / (u1 * u1)
    return FilteredEnsemble(float(m0), cov, float(kurt), 0.0)


def acceptance_rate_exact(state: GaussianState, filt: FilterSpec) -> float:
    """Exact expected acceptance rate of :func:`post_select`."""
    v_b = _bob_isotropy(state)
    s2 = (v_b + 1.0) / 2.0
    t = 1.0 - 1.0 / (filt.gain * filt.gain)
    (m0,) = _weighted_u_moments(s2, t, filt.cutoff**2, kmax=0)
    return float(m0)
