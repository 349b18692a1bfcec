"""Analytic noiseless linear amplification of Bob's mode.

The ideal amplifier acts as g^(n_hat) on a mode.  Amplifying both modes,
with gains (g1, g2), maps the covariance matrix to
sigma' = G2 (2 G1 - sigma)^{-1} G2 - 2 G1 for diagonal gain matrices G1, G2
(Fiurasek & Cerf, PRA 2012; the tests keep this two-sided map in
``tests/reference.py``).  The paper amplifies Bob's mode only, the exact
g1 -> 1 limit of that map: with K, L, X Alice's (kept), Bob's (amplified)
and the cross block,

    B = (g^2+1)/(2(g^2-1)),  D = g/(1-g^2),  M = (2B I - L)^{-1},

    K -> K + X M X^T,   X -> -2D X M,   L -> 4D^2 M - 2B I = (2B L - I) M

(the last form, from D^2 - B^2 = -1/4, avoids cancellation as g -> 1).  It
needs 2B I - L > 0, otherwise the amplified state is unnormalizable; that
is the bound :func:`max_single_mode_gain` states.

States have zero mean, so only the covariance matrix is transformed.
"""

from __future__ import annotations

import numpy as np

from .gaussian import (
    PHYSICALITY_TOL,
    NumericalError,
    UnphysicalStateError,
    _raise_first,
    _require_cov,
    _require_in,
    inv2,
    min_eig2,
    min_symplectic_eigenvalues,
    pd2,
    require_cov_stack,
)


class GainTooLargeError(NumericalError):
    """2B(g) I - L is not positive definite: gain too large for this state."""


def _check_gains(gains) -> None:
    """The gain rule, at least 1 and finite, on one gain or an array of them."""
    _require_in(gains, "gain", 1.0)


def nla_single_mode(sigma: np.ndarray, g: float) -> np.ndarray:
    """Exact amplification of Bob's mode: with M = (2B(g) I - L)^{-1}, Alice's,
    the cross and Bob's blocks map to K + X M X^T, -2D(g) X M, (2B(g) L - I) M.
    """
    return nla_single_mode_stack(np.asarray(sigma, dtype=float)[None], g)[0]


def nla_single_mode_stack(covs: np.ndarray, gains) -> np.ndarray:
    """:func:`nla_single_mode` on a (N, 4, 4) stack; ``gains`` is a scalar or
    a length-N array.  Entries with gain 1 are returned unchanged; every
    amplified entry is checked for physicality at ``PHYSICALITY_TOL``."""
    covs = require_cov_stack(covs)
    gains = np.broadcast_to(np.asarray(gains, dtype=float), (len(covs),))
    _check_gains(gains)
    out = covs.copy()
    amp = np.flatnonzero(gains != 1.0)
    if amp.size == 0:
        return out
    g = gains[amp][:, None, None]
    b = (g * g + 1.0) / (2.0 * (g * g - 1.0))
    d = g / (1.0 - g * g)
    sub = covs[amp]
    k, l, x = sub[:, :2, :2], sub[:, 2:, 2:], sub[:, :2, 2:]
    n = 2.0 * b * np.eye(2) - l
    eig, bad = np.ones(len(covs)), np.zeros(len(covs), dtype=bool)
    eig[amp], bad[amp] = min_eig2(n), ~pd2(n)
    _raise_first(bad, lambda i: GainTooLargeError(
        f"gain {gains[i]} too large for this state: "
        f"2*B*I - L has eigenvalue {eig[i]:.6g} <= 0"))
    m = inv2(n)
    xm = x @ m
    res = np.empty_like(sub)
    res[:, :2, :2] = k + xm @ np.swapaxes(x, 1, 2)
    res[:, :2, 2:] = -2.0 * d * xm
    res[:, 2:, :2] = np.swapaxes(res[:, :2, 2:], 1, 2)
    res[:, 2:, 2:] = (2.0 * b * l - np.eye(2)) @ m
    out[amp] = 0.5 * (res + np.swapaxes(res, 1, 2))
    nu = np.ones(len(covs))
    try:
        nu[amp] = min_symplectic_eigenvalues(out[amp])
    except NumericalError as exc:  # not positive definite: report the stack index
        exc.cell = int(amp[exc.cell])
        raise
    _raise_first(nu < 1.0 - PHYSICALITY_TOL, lambda i: UnphysicalStateError(
        f"amplified state is unphysical: min symplectic eigenvalue {nu[i]:.12g}"))
    return out


def max_single_mode_gain(sigma: np.ndarray) -> float:
    """Largest gain before Bob's amplified state is unnormalizable.

    The bound is 2*B(g) > max eigenvalue of Bob's block, i.e.
    g^2 < (v_max + 1)/(v_max - 1) where v_max is the largest eigenvalue of
    that 2x2 block (v_max <= 1 means any gain is allowed).
    """
    sigma = _require_cov(sigma)
    v_max = float(np.linalg.eigvalsh(sigma[2:, 2:])[-1])
    if v_max <= 1.0:
        return np.inf
    return float(np.sqrt((v_max + 1.0) / (v_max - 1.0)))
