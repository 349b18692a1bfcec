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

Only zero-mean states appear in the experiments, so means are not
transformed; nonzero-mean inputs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import UnphysicalStateError, _require_cov, check_physical


class GainTooLargeError(ValueError):
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
    if sigma.shape != (4, 4):
        raise ValueError(f"expected a 4x4 covariance matrix, got {sigma.shape}")
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


def nla_single_mode(sigma: np.ndarray, g: float, side: str = "b",
                    mean: np.ndarray | None = None) -> np.ndarray:
    """Exact one-sided amplification: with M = (2B(g) I - L)^{-1}, the kept,
    cross and amplified blocks map to K + X M X^T, -2D(g) X M, (2B(g) L - I) M.
    """
    sigma = _require_cov(sigma)
    if sigma.shape != (4, 4):
        raise ValueError(f"expected a 4x4 covariance matrix, got {sigma.shape}")
    if mean is not None and np.any(np.asarray(mean) != 0.0):
        raise ValueError("only zero-mean states are supported")
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    if g < 1.0:
        raise ValueError(f"gain must be >= 1, got {g}")
    if g == 1.0:
        return sigma.copy()
    keep, amp = (slice(0, 2), slice(2, 4)) if side == "b" else (slice(2, 4), slice(0, 2))
    b = (g * g + 1.0) / (2.0 * (g * g - 1.0))
    d = g / (1.0 - g * g)
    k, l, x = sigma[keep, keep], sigma[amp, amp], sigma[keep, amp]
    n = 2.0 * b * np.eye(2) - l
    eig = np.linalg.eigvalsh(n)[0]
    if eig <= 0:
        raise GainTooLargeError(f"gain {g} too large for this state on side {side!r}: "
                                f"2*B*I - L has eigenvalue {eig:.6g} <= 0")
    m = np.linalg.inv(n)
    out = np.empty((4, 4))
    out[keep, keep] = k + x @ m @ x.T
    out[keep, amp] = -2.0 * d * (x @ m)
    out[amp, keep] = out[keep, amp].T
    out[amp, amp] = (2.0 * b * l - np.eye(2)) @ m
    out = (out + out.T) / 2.0
    report = check_physical(out)
    if not report:
        raise UnphysicalStateError(
            f"amplified state is unphysical: min symplectic eigenvalue "
            f"{report.min_symplectic_eigenvalue:.12g}"
        )
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
