"""Analytic noiseless linear amplification of Bob's mode.

The ideal amplifier acts as g^(n_hat) on a mode.  Amplifying both modes,
with gains (g1, g2), maps the covariance matrix to
sigma' = G2 (2 G1 - sigma)^{-1} G2 - 2 G1 for diagonal gain matrices G1, G2
(Fiurasek & Cerf, PRA 2012; the tests keep this two-sided map in
``tests/reference.py``).  The paper amplifies Bob's mode only, the exact
g1 -> 1 limit of that map: with K, L, X Alice's (kept), Bob's (amplified)
and the cross block, B = (g^2+1)/(2(g^2-1)), D = g/(1-g^2) and
M = (2B I - L)^{-1}, it sends K -> K + X M X^T, X -> -2D X M and
L -> (2B L - I) M.  In s = (g^2-1)/(g^2+1) = 1/(2B) and N = (I - sL)^{-1},
M = sN and -2D s = 2g/(g^2+1), so

    K -> K + s X N X^T,   X -> (2g/(g^2+1)) X N,   L -> (L - sI) N.

At g = 1, s = 0 and N = I, so every block comes out unchanged.  The map
needs I - sL > 0, otherwise the amplified state is unnormalizable; that is
the bound :func:`max_single_mode_gain` states.

States have zero mean, so only the covariance matrix is transformed.
"""

from __future__ import annotations

import numpy as np

from .gaussian import (
    PHYSICALITY_TOL,
    NumericalError,
    UnphysicalStateError,
    _min_symplectic,
    _not_pd_error,
    _raise_first,
    _require_cov,
    _require_in,
    inv2,
    min_eig2,
    pd2,
    require_cov_stack,
)


class GainTooLargeError(NumericalError):
    """2B(g) I - L is not positive definite: gain too large for this state."""


def _check_gains(gains) -> None:
    """The gain rule, in [1, ``MAX_CUTOFF``], on one gain or an array of them."""
    _require_in(gains, "gain", 1.0)


def _amplifier_s(gains):
    """s = (g^2 - 1)/(g^2 + 1) of a gain or an array of them: 0 at unit gain."""
    return (np.square(gains) - 1.0) / (np.square(gains) + 1.0)


def nla_single_mode(sigma: np.ndarray, g: float) -> np.ndarray:
    """Exact amplification of Bob's mode by the map in s of the module docstring."""
    return nla_single_mode_stack(np.asarray(sigma, dtype=float)[None], g)[0]


def nla_single_mode_stack(covs: np.ndarray, gains) -> np.ndarray:
    """:func:`nla_single_mode` on a (N, 4, 4) stack; ``gains`` is a scalar or
    a length-N array.  Entries with gain 1 come out equal to their symmetric
    input; every amplified entry is checked for physicality at
    ``PHYSICALITY_TOL``."""
    covs = require_cov_stack(covs)
    gains = np.asarray(gains, dtype=float)
    _check_gains(gains)
    gains = np.broadcast_to(gains, (len(covs),))
    s = _amplifier_s(gains)[:, None, None]
    k, l, x = covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]
    n = np.eye(2) - s * l
    _raise_first(~pd2(n), lambda i: GainTooLargeError(
        f"gain {gains[i]} too large for this state: "
        f"2*B*I - L has eigenvalue {min_eig2(n[i]) / s[i, 0, 0]:.6g} <= 0"))
    n = inv2(n)
    out = np.empty_like(covs)
    out[:, :2, :2] = k + s * (x @ n @ np.swapaxes(x, 1, 2))
    out[:, :2, 2:] = (2.0 * gains / (gains * gains + 1.0))[:, None, None] * x @ n
    out[:, 2:, :2] = np.swapaxes(out[:, :2, 2:], 1, 2)
    out[:, 2:, 2:] = l @ n - s * n
    out = 0.5 * (out + np.swapaxes(out, 1, 2))
    nu, pd = _min_symplectic(out)
    _raise_first((gains != 1.0) & ~pd, lambda i: _not_pd_error(out[i]))
    _raise_first((gains != 1.0) & (nu < 1.0 - PHYSICALITY_TOL), lambda i: UnphysicalStateError(
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
