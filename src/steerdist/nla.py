"""Analytic noiseless linear amplification of a two-mode Gaussian state.

The ideal amplifier acts as g^(n_hat) on a mode.  For gains (g1, g2) on the
two modes the covariance matrix transforms as

    sigma' = G2 (2 G1 - sigma)^{-1} G2 - 2 G1

with diagonal G1 = diag(A, A, B, B), G2 = diag(2C, 2C, 2D, 2D) and

    A = (g1^2+1)/(2(g1^2-1)),  C = g1/(1-g1^2),
    B = (g2^2+1)/(2(g2^2-1)),  D = g2/(1-g2^2).

The transform requires 2 G1 - sigma > 0, otherwise the amplified state is
unnormalizable.  One-sided amplification is the exact g_other -> 1 limit of
this map (Fiurasek & Cerf, PRA 2012): with K, L, X the kept, amplified and
cross (kept-row) blocks, B = B(g), D = D(g) and M = (2B I - L)^{-1},

    K -> K + X M X^T,   X -> -2D X M,   L -> 4D^2 M - 2B I = (2B L - I) M

(the last form, from D^2 - B^2 = -1/4, avoids cancellation as g -> 1).  It
needs 2B I - L > 0, the bound :func:`max_single_mode_gain` states.

States have zero mean, so only the covariance matrix is transformed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    PHYSICALITY_TOL,
    NumericalError,
    UnphysicalStateError,
    _raise_first,
    _require_cov,
    inv2,
    min_eig2,
    min_symplectic_eigenvalues,
    pd2,
    require_cov_stack,
)


class GainTooLargeError(NumericalError):
    """2*G1 - sigma is not positive definite: gain too large for this state."""


@dataclass(frozen=True)
class GainPair:
    g1: float = 1.0
    g2: float = 1.0

    def __post_init__(self):
        if self.g1 < 1.0 or self.g2 < 1.0:
            raise ValueError(f"gains must be >= 1, got ({self.g1}, {self.g2})")


def build_gain_matrices(gains: GainPair):
    """(G1, G2) diagonal 4x4 gain matrices; requires both gains strictly > 1."""
    g1, g2 = gains.g1, gains.g2
    if g1 <= 1.0 or g2 <= 1.0:
        raise ValueError(
            f"gain matrices need g > 1 strictly (got {g1}, {g2}); "
            "use nla_single_mode for the one-sided limit"
        )
    a = (g1 * g1 + 1.0) / (2.0 * (g1 * g1 - 1.0))
    c = g1 / (1.0 - g1 * g1)
    b = (g2 * g2 + 1.0) / (2.0 * (g2 * g2 - 1.0))
    d = g2 / (1.0 - g2 * g2)
    return np.diag([a, a, b, b]), np.diag([2 * c, 2 * c, 2 * d, 2 * d])


def nla_cov_two_mode(sigma: np.ndarray, gains: GainPair) -> np.ndarray:
    """Covariance matrix after g1^(n_a) g2^(n_b) amplification of both modes."""
    sigma = _require_cov(sigma)
    g1mat, g2mat = build_gain_matrices(gains)
    m = 2.0 * g1mat - sigma
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0:
        raise GainTooLargeError(
            f"gain ({gains.g1}, {gains.g2}) too large for this state: "
            f"2*G1 - sigma has eigenvalue {eigs[0]:.6g} <= 0"
        )
    out = g2mat @ np.linalg.solve(m, g2mat) - 2.0 * g1mat
    return (out + out.T) / 2.0


def nla_single_mode(sigma: np.ndarray, g: float, side: str = "b") -> np.ndarray:
    """Exact one-sided amplification: with M = (2B(g) I - L)^{-1}, the kept,
    cross and amplified blocks map to K + X M X^T, -2D(g) X M, (2B(g) L - I) M.
    """
    return nla_single_mode_stack(np.asarray(sigma, dtype=float)[None], g, side)[0]


def nla_single_mode_stack(covs: np.ndarray, gains, side: str = "b") -> np.ndarray:
    """:func:`nla_single_mode` on a (N, 4, 4) stack; ``gains`` is a scalar or
    a length-N array.  Entries with gain 1 are returned unchanged; every
    amplified entry is checked for physicality at ``PHYSICALITY_TOL``."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    covs = require_cov_stack(covs)
    gains = np.broadcast_to(np.asarray(gains, dtype=float), (len(covs),))
    _raise_first(~(gains >= 1.0), lambda i: ValueError(f"gain must be >= 1, got {gains[i]}"))
    out = covs.copy()
    amp = np.flatnonzero(gains != 1.0)
    if amp.size == 0:
        return out
    keep, mod = (slice(0, 2), slice(2, 4)) if side == "b" else (slice(2, 4), slice(0, 2))
    g = gains[amp][:, None, None]
    b = (g * g + 1.0) / (2.0 * (g * g - 1.0))
    d = g / (1.0 - g * g)
    sub = covs[amp]
    k, l, x = sub[:, keep, keep], sub[:, mod, mod], sub[:, keep, mod]
    n = 2.0 * b * np.eye(2) - l
    eig, bad = np.ones(len(covs)), np.zeros(len(covs), dtype=bool)
    eig[amp], bad[amp] = min_eig2(n), ~pd2(n)
    _raise_first(bad, lambda i: GainTooLargeError(
        f"gain {gains[i]} too large for this state on side {side!r}: "
        f"2*B*I - L has eigenvalue {eig[i]:.6g} <= 0"))
    m = inv2(n)
    xm = x @ m
    res = np.empty_like(sub)
    res[:, keep, keep] = k + xm @ np.swapaxes(x, 1, 2)
    res[:, keep, mod] = -2.0 * d * xm
    res[:, mod, keep] = np.swapaxes(res[:, keep, mod], 1, 2)
    res[:, mod, mod] = (2.0 * b * l - np.eye(2)) @ m
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


def max_single_mode_gain(sigma: np.ndarray, side: str = "b") -> float:
    """Largest gain before the one-sided amplified state is unnormalizable.

    The bound is 2*B(g) > max eigenvalue of the amplified mode's block, i.e.
    g^2 < (v_max + 1)/(v_max - 1) where v_max is the largest eigenvalue of
    that 2x2 block (v_max <= 1 means any gain is allowed).
    """
    sigma = _require_cov(sigma)
    blk = sigma[2:, 2:] if side == "b" else sigma[:2, :2]
    v_max = float(np.linalg.eigvalsh(blk)[-1])
    if v_max <= 1.0:
        return np.inf
    return float(np.sqrt((v_max + 1.0) / (v_max - 1.0)))
