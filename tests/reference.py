"""Reference routes and helpers the tests check the package against.

The package runs one batched 1+1 path per job.  The general routes below
compute the same quantities another way, so the tests keep them as their
references:

* :func:`steering_signed_general`: steering through the symplectic
  spectrum of the Schur complement, against the log-det stack kernels;
* :func:`schur_complement`: the Schur complement by a linear solve, against
  the closed-form 2x2 one;
* :func:`nla_cov_two_mode`: the two-sided amplifier map, whose g1 -> 1
  limit is the one-sided map ``nla_single_mode`` evaluates exactly.

:func:`random_physical_state`, :func:`cov_to_text` and :func:`cov_from_text`
are test helpers: random physical states for the property tests and a text
round trip of the covariance file format.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from steerdist.gaussian import (
    GaussianState,
    NumericalError,
    _require_cov,
    dump_cov,
    from_cov,
    load_cov,
    symplectic_eigenvalues,
)
from steerdist.nla import GainTooLargeError
from steerdist.steering import _check_direction


# --- steering (general Schur/symplectic route) -------------------------------

def steering_signed_general(state: GaussianState, direction: str) -> float:
    """Signed steering quantity through the symplectic spectrum of the Schur
    complement; no physicality check.  The tests' reference for the kernels."""
    _check_direction(direction)
    keep = "b" if direction == "a_to_b" else "a"
    comp = schur_complement(state.cov, keep)
    nu = symplectic_eigenvalues(comp)
    below = nu[nu < 1.0]
    if below.size:
        return float(-np.sum(np.log(below)))
    return float(-np.log(nu[0]))


# --- Gaussian-state helpers ---------------------------------------------------

def schur_complement(sigma: np.ndarray, keep: str) -> np.ndarray:
    """Schur complement of one party's block.

    ``keep='b'`` conditions on Alice and returns B - C^T A^{-1} C (the matrix
    whose symplectic spectrum quantifies A->B steering); ``keep='a'`` swaps
    the roles.
    """
    a, b, c = from_cov(sigma).blocks()
    if keep == "b":
        cond, kept, cross = a, b, c  # cross: rows conditioning, cols kept
    elif keep == "a":
        cond, kept, cross = b, a, c.T
    else:
        raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
    eigs = np.linalg.eigvalsh(cond)
    if eigs[0] <= 0:
        raise NumericalError(
            f"conditioning block is singular (smallest eigenvalue {eigs[0]:.3e})"
        )
    out = kept - cross.T @ np.linalg.solve(cond, cross)
    return (out + out.T) / 2.0


def random_physical_state(rng: np.random.Generator, nu_max: float = 3.0,
                          r_max: float = 0.8) -> GaussianState:
    """Random physical 1+1 state: S diag(nu1,nu1,nu2,nu2) S^T with nu >= 1.

    S is a product of random local rotations/squeezers and a two-mode
    squeezer, so the output covers mixed, correlated, non-standard-form
    states. Used by the property-test suite.
    """
    nu = 1.0 + rng.uniform(0.0, nu_max - 1.0, size=2)
    d = np.diag([nu[0], nu[0], nu[1], nu[1]])

    def local(theta, r):
        rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        sq = np.diag([np.exp(r), np.exp(-r)])
        return rot @ sq

    s = np.zeros((4, 4))
    s[:2, :2] = local(rng.uniform(0, 2 * np.pi), rng.uniform(-r_max, r_max))
    s[2:, 2:] = local(rng.uniform(0, 2 * np.pi), rng.uniform(-r_max, r_max))
    r2 = rng.uniform(0, r_max)
    z = np.diag([1.0, -1.0])
    tms = np.block(
        [[np.cosh(r2) * np.eye(2), np.sinh(r2) * z], [np.sinh(r2) * z, np.cosh(r2) * np.eye(2)]]
    )
    s = tms @ s
    cov = s @ d @ s.T
    return from_cov((cov + cov.T) / 2.0)


def cov_to_text(sigma: np.ndarray) -> str:
    buf = io.StringIO()
    dump_cov(sigma, buf)
    return buf.getvalue()


def cov_from_text(text: str) -> np.ndarray:
    return load_cov(io.StringIO(text))


# --- two-sided amplifier map --------------------------------------------------
#
# For gains (g1, g2) on Alice's and Bob's modes the covariance matrix
# transforms as sigma' = G2 (2 G1 - sigma)^{-1} G2 - 2 G1 with diagonal
# G1 = diag(A, A, B, B), G2 = diag(2C, 2C, 2D, 2D) and
#
#     A = (g1^2+1)/(2(g1^2-1)),  C = g1/(1-g1^2),
#     B = (g2^2+1)/(2(g2^2-1)),  D = g2/(1-g2^2).
#
# The transform requires 2 G1 - sigma > 0, otherwise the amplified state is
# unnormalizable.

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
