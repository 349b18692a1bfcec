"""Reference routes and helpers the tests check the package against.

The package runs one batched 1+1 path per job.  The general routes below
compute the same quantities another way, so the tests keep them as their
references:

* :func:`steering_signed_general`: steering through the symplectic
  spectrum of the Schur complement, against the log-det stack kernels;
* :func:`schur_complement`: the Schur complement by a linear solve, against
  the closed-form 2x2 one;
* :func:`nla_cov_two_mode`: the two-sided amplifier map, whose g1 -> 1
  limit is the one-sided map ``nla_single_mode`` evaluates exactly;
* :func:`covariance_per_matrix`, :func:`steerability_with_se_per_matrix`
  and :func:`key_rate_with_se_per_matrix`: the Monte Carlo epilogue one
  matrix at a time, as it was before the stacked calls replaced it, against
  ``covariance_stack``, ``steerability_with_se_stack`` and
  ``key_rate_with_se_stack``;
* :func:`loss_threshold_bisection`: the loss threshold by bisection on the
  signed steering quantity, against the closed-form root of
  ``steering_loss_threshold``;
* :func:`reconstruct_covariance_two_pass`: the batch reduction about the
  whole batch's means, from a first pass over every chunk, against the
  one-pass ``reconstruct_covariance``, whose centre is its first piece's;
* :func:`add_gram_all_pairs`: the Gram matrix of the pair products with
  every pair multiplied, the constant-1 ones too, against ``_add_gram``,
  which takes the pairs (0, j) as y itself;
* :func:`cutoff_from_table_per_pair`: the published-table lookup one
  (loss, g) pair at a time by ``min(axis, key=abs)``, against the grid
  lookup of ``cutoff_from_table``.

:func:`random_physical_state`, :func:`cov_to_text` and :func:`cov_from_text`
are test helpers: random physical states for the property tests and a text
round trip of the covariance file format.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from steerdist.channels import ChannelSpec, apply_noisy
from steerdist.gaussian import (
    GaussianState,
    NumericalError,
    _require_cov,
    check_physical,
    from_cov,
    inv2,
    require_physical_stack,
    schur_2x2,
    symplectic_eigenvalues,
)
from steerdist.measurement import (
    BASIS_P,
    BASIS_X,
    CHUNK,
    MIN_ACCEPTED,
    Ensemble,
    Moments,
    ReconstructionError,
    _add_gram,
    _BLOCK,
    _n_chunks,
    _pairs,
    reconstruction_tolerance,
)
from steerdist.nla import GainTooLargeError, nla_single_mode
from steerdist.qkd import KeyRateResult, _conditional_variances_stack, _rate
from steerdist.steering import (
    STEERING_POSITIVITY_TOL,
    NoThresholdError,
    _blocks_1p1,
    _check_direction,
    _signed_1p1,
    steering_signed_stack,
)


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
    sigma = from_cov(sigma).cov
    a, b, c = sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:]
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
    """``sigma`` as ``steerdist ingest`` writes ``ingest_cov.txt``."""
    buf = io.StringIO()
    np.savetxt(buf, sigma, fmt="%.17g", header="covmatrix v1 4", comments="")
    return buf.getvalue()


def cov_from_text(text: str) -> np.ndarray:
    """The matrix of a ``covmatrix v1`` text, read as the README says:
    ``np.loadtxt(path, skiprows=1)``."""
    return np.loadtxt(io.StringIO(text), skiprows=1)


# --- loss threshold by bisection ---------------------------------------------

def loss_threshold_bisection(state: GaussianState, channel_template: ChannelSpec,
                             direction: str, nla_gain: float | None, xtol: float) -> float:
    """Loss value where the signed steering quantity first reaches zero, by
    bisection to a bracket of width ``xtol``; returns the bracket's midpoint.
    It refuses and returns 1.0 where ``steering_loss_threshold`` does, but
    tests steerability at zero loss before the gain bound at full loss."""

    def signed(loss: float) -> float:
        out = apply_noisy(state, loss, channel_template.excess_noise,
                          channel_template.noise_model)
        if nla_gain is not None:
            out = GaussianState(nla_single_mode(out.cov, nla_gain))
        return float(steering_signed_stack(out.cov[None], direction)[0])

    lo, hi = 0.0, 1.0
    f_lo = signed(lo)
    if f_lo <= STEERING_POSITIVITY_TOL:
        raise NoThresholdError(f"direction {direction} is not steerable at zero loss "
                               f"(signed value {f_lo:.3e})")
    if signed(hi) > 0.0:
        return 1.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if signed(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


# --- the Monte Carlo epilogue, one matrix at a time ----------------------------

def _pair_map(a: np.ndarray) -> np.ndarray:
    (i, j, *_), (c, e, *_) = map(_pairs, a.shape)
    k = a[i][:, c] * a[j][:, e]
    k += (c < e) * (a[i][:, e] * a[j][:, c])
    return k


def _mapped(gram: np.ndarray, a: np.ndarray) -> np.ndarray:
    k = _pair_map(a)
    return k @ gram @ k.T


def _dim(gram: np.ndarray) -> int:
    """1 + the number of variables of a Gram matrix of pair products."""
    return {10: 4, 6: 3}[len(gram)]


def _central(gram: np.ndarray) -> np.ndarray:
    a = np.eye(_dim(gram))
    a[1:, 0] = -gram[0, 1:len(a)] / gram[0, 0]
    return _mapped(gram, a)


def _entry(gram: np.ndarray, u: int, v: int):
    position = _pairs(_dim(gram))[2]

    def total(i, j, k, l):
        return gram[position[i, j], position[k, l]]

    n = total(0, 0, 0, 0)
    u, v = u + 1, v + 1
    if u == v:
        m2 = total(0, 0, u, u) / n
        return m2 * n / (n - 1), np.sqrt(max(total(u, u, u, u) / n - m2 * m2, 0.0) / n)
    cov = total(0, 0, u, v) / (n - 1)
    return cov, np.sqrt(max(total(u, u, v, v) / n - cov * cov, 0.0) / n)


def covariance_per_matrix(ens, min_accepted: int = MIN_ACCEPTED):
    """(covariance estimate, standard errors) of one ``Ensemble``, raising
    its ``ReconstructionError``."""
    n_x, n_p = int(ens.x.gram[0, 0]), int(ens.p.gram[0, 0])
    if n_x + n_p < min_accepted:
        raise ReconstructionError(f"too few accepted records: {n_x + n_p} < {min_accepted}")
    if min(n_x, n_p) < 2:
        raise ReconstructionError(f"both Alice bases need at least 2 accepted records, "
                                  f"got {n_x} X and {n_p} P")
    to_bob = np.eye(4)[[0, 2, 3]]
    x, p, bob = (_central(g) for g in (
        ens.x.gram, ens.p.gram, _mapped(ens.x.gram, to_bob) + _mapped(ens.p.gram, to_bob)))
    root2 = np.sqrt(2.0)
    cov, se = np.zeros((4, 4)), np.zeros((4, 4))
    for (i, j), gram, (u, v), scale in (
        ((0, 0), x, (0, 0), 1.0), ((1, 1), p, (0, 0), 1.0),
        ((2, 2), bob, (0, 0), 2.0), ((3, 3), bob, (1, 1), 2.0), ((2, 3), bob, (0, 1), 2.0),
        ((0, 2), x, (0, 1), root2), ((0, 3), x, (0, 2), root2),
        ((1, 2), p, (0, 1), root2), ((1, 3), p, (0, 2), root2),
    ):
        v_ij, e_ij = _entry(gram, u, v)
        cov[i, j] = cov[j, i] = scale * v_ij
        se[i, j] = se[j, i] = scale * e_ij
    cov[2, 2] -= 1.0
    cov[3, 3] -= 1.0
    tol = reconstruction_tolerance(se)
    try:
        report = check_physical(cov, tol)
    except ValueError as exc:  # not even positive definite
        raise ReconstructionError(f"reconstructed matrix is degenerate: {exc}") from exc
    if not report:
        raise ReconstructionError(
            f"reconstructed matrix is unphysical beyond tolerance {tol:.3g}: "
            f"min symplectic eigenvalue {report.min_symplectic_eigenvalue:.6g}")
    return cov, se


def _first_order_se(grad: np.ndarray, se: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.triu(grad * se) ** 2)))


def steerability_with_se_per_matrix(cov, se, direction: str, physicality_tol: float = 1e-2):
    """Monotone value and its first-order SE through the exact gradient."""
    require_physical_stack(cov[None], physicality_tol)
    value = max(0.0, float(_signed_1p1(cov[None], direction)[0][0]))
    cond, kept, cross = (blk[0] for blk in _blocks_1p1(cov[None], direction))
    m, minus_i = inv2(cond) @ cross, -np.eye(2)
    u = np.vstack((m, minus_i) if direction == "a_to_b" else (minus_i, m))
    w = u @ inv2(schur_2x2(cond, kept, cross)) @ u.T
    return value, _first_order_se(np.diag(w.diagonal()) / 2 - w, se)


def key_rate_with_se_per_matrix(cov, se, physicality_tol: float = 1e-2):
    """Key rate and its first-order SE through the exact gradient."""
    require_physical_stack(cov[None], physicality_tol)
    v_x, v_p = _conditional_variances_stack(cov[None])
    result = KeyRateResult(float(_rate(v_x, v_p)[0]), float(v_x[0]), float(v_p[0]))
    grad = np.zeros((4, 4))
    for k, v in enumerate((result.v_x_cond, result.v_p_cond)):
        a, c, dk_dv = cov[k, k], cov[k, k + 2], -0.5 / (np.log(2.0) * v)
        grad[k, k], grad[k + 2, k + 2], grad[k, k + 2] = (
            dk_dv * c * c / (2.0 * a * a), dk_dv / 2.0, -dk_dv * c / a)
    return result, _first_order_se(grad, se)


# --- batch reduction (two passes) ----------------------------------------------

def reconstruct_covariance_two_pass(batch, min_accepted: int = MIN_ACCEPTED):
    """(covariance estimate, standard errors) of a batch's accepted records:
    a first pass over the chunks fixes each basis's centre (Alice's mean in
    that basis, Bob's over both bases, of the whole batch), a second adds
    each chunk's records of a basis to that basis's Gram matrix about it."""
    cols = (batch.alice_value, batch.bob_x, batch.bob_p)

    def masks(k: int):
        rows = slice(k * CHUNK, (k + 1) * CHUNK)
        keep = True if batch.accepted is None else batch.accepted[rows]
        return rows, [(batch.alice_basis[rows] == b) & keep for b in (BASIS_X, BASIS_P)]

    chunks = range(_n_chunks(len(batch)))
    sums = np.zeros((2, 4))  # per basis: the count, then each column's sum
    for rows, kept in map(masks, chunks):
        for total, mask in zip(sums, kept):
            total += [np.count_nonzero(mask),
                      *(np.einsum("i,i", c[rows], mask, dtype=float) for c in cols)]
    centres = sums[:, 1:] / np.maximum(sums[:, :1], 1.0)
    centres[:, 1:] = sums[:, 2:].sum(axis=0) / max(sums[:, 0].sum(), 1.0)
    grams = np.zeros((2, 10, 10))
    for rows, kept in map(masks, chunks):
        for q, centre, mask in zip(grams, centres, kept):
            rec = np.stack([c[rows][mask] for c in cols])
            _add_gram(q, rec, centre[:, None])
    return Ensemble(*map(Moments, centres, grams)).covariance(min_accepted)


def add_gram_all_pairs(q, records, center, blocks: np.ndarray | None = None) -> None:
    """``_add_gram`` forming every pair product, (0, j) included, in a block
    of (d+1)(d+4)/2 rows: y, then the products."""
    d, n = records.shape
    pairs = _pairs(d + 1)[3]
    if blocks is None:
        blocks = np.empty((d + 1 + len(pairs), min(n, _BLOCK)))
    y, prod = blocks[:d + 1], blocks[d + 1:d + 1 + len(pairs)]
    y[0] = 1.0
    for start in range(0, n, _BLOCK):
        w = min(_BLOCK, n - start)
        np.subtract(records[:, start:start + w], center, out=y[1:, :w])
        for k, (i, j) in enumerate(pairs):
            np.multiply(y[i, :w], y[j, :w], out=prod[k, :w])
        q += prod[:, :w] @ prod[:, :w].T


# --- published-table lookup, one pair at a time -------------------------------

def cutoff_from_table_per_pair(loss: float, g: float, table: dict) -> float:
    """The table's cutoff at the grid values nearest ``loss`` and ``g``, a
    tie taking the first, smaller, one of the sorted axis."""
    losses = sorted({k[0] for k in table})
    gains = sorted({k[1] for k in table})
    nearest_loss = min(losses, key=lambda x: abs(x - loss))
    nearest_g = min(gains, key=lambda x: abs(x - g))
    return table[(nearest_loss, nearest_g)]
