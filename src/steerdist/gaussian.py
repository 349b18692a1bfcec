"""Covariance-matrix algebra for zero-mean 1+1 Gaussian states.

Conventions used throughout the package:

* a state is one mode for Alice and one for Bob with zero mean, so it is
  its 4x4 covariance matrix in (x_A, p_A, x_B, p_B) order;
* quadratures x = a + a^dag, p = -i(a - a^dag), so the vacuum variance is 1;
* dB values are variance ratios, V = 10**(dB/10);
* a covariance matrix is physical iff sigma + i*Omega >= 0, i.e. every
  symplectic eigenvalue is >= 1 (up to a small numerical slack).

Functions named ``*_stack`` take a stack of matrices shaped (N, 4, 4) and
check every entry as the single-matrix function does, except the
``*_with_se_stack`` calls: they take matrices that
:func:`steerdist.measurement.covariance_stack` accepted and check no
physicality of their own, which their N = 1 calls do.  A failing entry
raises the single-matrix exception, at the first failing index, with that
index in the exception's ``cell`` attribute.  The physicality test uses the
closed form of the symplectic spectrum through the 2x2 blocks A, B, C.
With adj(X) the adjugate, -(Omega sigma)^2 is
[[alpha I, P], [Q, beta I]], alpha = det A + det C, beta = det B + det C,
P = adj(A) C + adj(C)^T B, Q = adj(C) A + adj(B) C^T, and P Q has the
double eigenvalue kappa = tr(P Q)/2, so

    nu_+^2 = (alpha + beta)/2 + sqrt(((det A - det B)/2)^2 + kappa),
    nu_-^2 = det(sigma) / nu_+^2,

after checking that sigma is positive definite (A > 0 and its Schur
complement B - C^T A^{-1} C > 0).  Unlike the textbook form through
Delta^2 - 4 det(sigma), the square root has no cancellation at degenerate
spectra (pure symmetric states), where that form loses half the digits.
:func:`symplectic_eigenvalues` is the eigenvalue route for any 2k x 2k
matrix, which the tests use as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Symmetry / physicality tolerances. Monte Carlo reconstructions are fed back
# into the analytic operations, so physicality gets a small slack; estimates
# failing by more than RECONSTRUCTION_TOL must be rejected by callers instead
# of being clipped.
SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-3


class InputError(ValueError):
    """A caller-supplied value that a rule refuses; the CLI exits with status 2."""


class NumericalError(ValueError):
    """The physics or numerics have no answer: an unphysical or degenerate
    matrix, a gain past the normalisability bound, a failed reconstruction,
    no grid point or root that meets a criterion.  The CLI exits with status
    3 on it.  A stack kernel sets ``cell`` to the failing entry."""

    cell: int | None = None


class UnphysicalStateError(NumericalError):
    """Raised when a covariance matrix violates sigma + i*Omega >= 0."""


def _raise_first(bad, make_error) -> None:
    """Raise ``make_error(i)`` at the first true entry of ``bad``, tagged with
    i unless ``bad`` is 0-d, the check of one value."""
    hits = np.flatnonzero(bad)
    if hits.size:
        i = int(hits[0])
        exc = make_error(i)
        if np.ndim(bad):
            exc.cell = i
        raise exc


# The one magnitude bound of every amplitude input (cutoff, gain, excess noise,
# 10**(|dB|/10)): the exact filtered moments' cutoff^6 term overflows a float
# near 2.4e51, and below it g^2 and products of 2x2 determinants stay finite.
MAX_CUTOFF = 1e50
MAX_GRID_POINTS = 1_000_000  # 8 MB, 2,000 x the paper's 491-point loss grid


def _require_in(values, name: str, low: float, high: float = np.inf) -> None:
    """Refuse NaN, +inf or a value outside [low, high]: one value, or an array's
    first such entry.  With no upper bound the rule reads ">= low", "finite
    and >= low" for +inf, and "<= MAX_CUTOFF" for a finite value above
    :data:`MAX_CUTOFF`."""
    v = np.asarray(values)
    rule = f"in [{low:g}, {high:g}]" if high < np.inf else f">= {low:g}"

    def error(i):
        x = v.flat[i]
        text = (f"<= {MAX_CUTOFF:g}" if high == np.inf and MAX_CUTOFF < x < np.inf
                else f"finite and {rule}" if x == high else rule)
        return InputError(f"{name} must be {text}, got {x}")

    _raise_first(~((v >= low) & (v <= min(high, MAX_CUTOFF))), error)


def _require_positive(values, name: str, high: float = np.inf) -> None:
    """The rule "finite and > 0" ("<= high" for a finite value above
    ``high``), checked as :func:`_require_in` checks its own."""
    v = np.asarray(values)
    _raise_first(~((v > 0) & (v <= high) & (v < np.inf)), lambda i: InputError(
        f"{name} must be {f'<= {high:g}' if high < v.flat[i] < np.inf else 'finite and > 0'}, "
        f"got {v.flat[i]}"))


DB_RULE = f"10**(dB/10) a finite, positive float in [{1 / MAX_CUTOFF:g}, {MAX_CUTOFF:g}]"


def db_variance_ok(db: float) -> bool:
    """Whether ``db`` keeps :data:`DB_RULE`, which is |dB| <= 500; NaN does not."""
    return bool(abs(db) <= 10.0 * np.log10(MAX_CUTOFF))


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form, block diagonal in [[0, 1], [-1, 0]]."""
    omega, even = np.zeros((2 * n_modes, 2 * n_modes)), np.arange(0, 2 * n_modes, 2)
    omega[even, even + 1], omega[even + 1, even] = 1.0, -1.0
    return omega


def _require_cov(sigma: np.ndarray) -> np.ndarray:
    return require_cov_stack(np.asarray(sigma, dtype=float)[None])[0]


def _require_symmetric(covs: np.ndarray) -> np.ndarray:
    scale = np.maximum(1.0, np.abs(covs).max(axis=(1, 2)))  # NaN or inf with such an entry
    _raise_first(~np.isfinite(scale),
                 lambda i: ValueError("covariance matrix has a non-finite entry"))
    asym = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
    _raise_first(asym > SYMMETRY_RTOL * scale,
                 lambda i: ValueError("covariance matrix is not symmetric"))
    return covs


def require_cov_stack(covs: np.ndarray) -> np.ndarray:
    """Check a (N, 4, 4) stack of covariance matrices: every matrix finite
    and symmetric."""
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3 or covs.shape[1:] != (4, 4):
        raise ValueError(f"expected 4x4 covariance matrices, got shape {covs.shape[1:]}")
    return _require_symmetric(covs)


# --- 2x2 blocks, stacked along the leading axes ----------------------------------

def det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def adj2(m: np.ndarray) -> np.ndarray:
    """Adjugate of each 2x2 matrix: adj(m) m = det(m) I."""
    adj = np.empty_like(m)
    adj[..., 0, 0] = m[..., 1, 1]
    adj[..., 1, 1] = m[..., 0, 0]
    adj[..., 0, 1] = -m[..., 0, 1]
    adj[..., 1, 0] = -m[..., 1, 0]
    return adj


def inv2(m: np.ndarray) -> np.ndarray:
    """Closed-form inverse of each 2x2 matrix; callers check invertibility."""
    return adj2(m) / det2(m)[..., None, None]


def min_eig2(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric 2x2 matrix."""
    return (0.5 * (m[..., 0, 0] + m[..., 1, 1])
            - np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1]))


def pd2(m: np.ndarray) -> np.ndarray:
    """Mask of the positive-definite symmetric 2x2 matrices."""
    return (min_eig2(m) > 0) & (det2(m) > 0)


def schur_2x2(cond: np.ndarray, kept: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """kept - cross^T cond^{-1} cross, symmetrised; ``cross`` has cond's rows."""
    out = kept - np.swapaxes(cross, -1, -2) @ inv2(cond) @ cross
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def schur_pd(cond: np.ndarray, kept: np.ndarray, cross: np.ndarray):
    """(S, ok): :func:`schur_2x2` of each stacked block triple, and the mask of
    those whose ``cond`` and S are positive definite; a ``cond`` outside it
    counts as the identity, which keeps S finite."""
    ok = pd2(cond)
    if not ok.all():
        cond = np.where(ok[..., None, None], cond, np.eye(2))
    s = schur_2x2(cond, kept, cross)
    return s, ok & pd2(s)


def _not_pd_error(mat: np.ndarray) -> NumericalError:
    eig = np.linalg.eigvalsh(mat)[0] if np.isfinite(mat).all() else np.nan  # an overflowed estimate
    return NumericalError(f"matrix is not positive definite (smallest eigenvalue {eig:.3e})")


def symplectic_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite 2k x 2k matrix.

    Returns the k moduli of the eigenvalues of i*Omega*M, each appearing
    once, sorted ascending.  For a 2x2 matrix this equals sqrt(det M).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"expected a 2k x 2k matrix, got shape {mat.shape}")
    _require_symmetric(mat[None])
    if np.linalg.eigvalsh(mat)[0] <= 0:
        raise _not_pd_error(mat)
    omega = symplectic_form(mat.shape[0] // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(omega @ mat)))
    # eigenvalues of i*Omega*M come in +/- pairs; keep one of each
    return moduli[::2].copy()


def _min_symplectic(covs: np.ndarray):
    """(smallest symplectic eigenvalues, positive-definite mask) of a (N, 4,
    4) stack of symmetric matrices; the eigenvalue of a matrix outside the
    mask is meaningless."""
    a, b, c = covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]
    det_a, det_b, det_c = det2(a), det2(b), det2(c)
    s, pd = schur_pd(a, b, c)
    p = adj2(a) @ c + adj2(c).transpose(0, 2, 1) @ b
    q = adj2(c) @ a + adj2(b) @ c.transpose(0, 2, 1)
    kappa = 0.5 * np.trace(p @ q, axis1=1, axis2=2)
    half_gap = 0.5 * (det_a - det_b)
    nu_plus2 = (0.5 * (det_a + det_b) + det_c
                + np.sqrt(np.maximum(half_gap * half_gap + kappa, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):  # only outside the mask
        return np.sqrt(det_a * np.where(pd, det2(s), 0.0) / nu_plus2), pd


def require_physical_stack(covs: np.ndarray, tol: float = PHYSICALITY_TOL) -> np.ndarray:
    """Raise at the first matrix of a stack of symmetric matrices that is not
    positive definite (:class:`NumericalError`) or whose smallest symplectic
    eigenvalue is below 1 - tol (:class:`UnphysicalStateError`); returns the
    stack."""
    nu, pd = _min_symplectic(covs)
    _raise_first(~pd | (nu < 1.0 - tol), lambda i: _not_pd_error(covs[i]) if not pd[i] else
                 UnphysicalStateError(f"state is unphysical: min symplectic eigenvalue "
                                      f"{nu[i]:.12g} < 1 (tol {tol:g})"))
    return covs


def _require_stack(covs: np.ndarray, physicality_tol: float) -> np.ndarray:
    """:func:`require_cov_stack`, then :func:`require_physical_stack`."""
    return require_physical_stack(require_cov_stack(covs), physicality_tol)


def check_physical(sigma: np.ndarray, tol: float = PHYSICALITY_TOL):
    """Bona-fide test: min symplectic eigenvalue >= 1 - tol.

    Returns a (passed, min_symplectic_eigenvalue) named tuple so callers can
    report how badly a matrix fails; raises :class:`NumericalError` on a
    matrix that is not positive definite.
    """
    sigma = _require_cov(sigma)
    nu, pd = _min_symplectic(sigma[None])
    _raise_first(~pd, lambda i: _not_pd_error(sigma))
    return PhysicalityReport(bool(nu[0] >= 1.0 - tol), float(nu[0]))


@dataclass(frozen=True)
class PhysicalityReport:
    passed: bool
    min_symplectic_eigenvalue: float

    def __bool__(self) -> bool:
        return self.passed


def purity(sigma: np.ndarray) -> float:
    """mu = 1/sqrt(det sigma); equals 1 exactly for pure states."""
    sigma = _require_cov(sigma)
    det = float(np.linalg.det(sigma))
    if det < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(f"det sigma = {det:.12g} < 1, not a physical state")
    return 1.0 / np.sqrt(det)


def _first_order_se(grad: np.ndarray, se: np.ndarray) -> np.ndarray:
    """sqrt(sum_{i<=j} (grad_ij se_ij)^2) over the last two axes, the
    first-order SE of f(sigma) with independent entries; grad_ij moves (i, j)
    and (j, i) together.  ``se`` must have the shape of ``grad``."""
    if np.shape(se) != grad.shape:
        raise ValueError(f"expected entry SEs of shape {grad.shape}, got {np.shape(se)}")
    return np.sqrt(np.sum(np.triu(grad * se) ** 2, axis=(-2, -1)))


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean 1+1 Gaussian state: its 4x4 covariance matrix in
    (x_A, p_A, x_B, p_B) order, checked and frozen on construction."""

    cov: np.ndarray

    def __post_init__(self):
        cov = _require_cov(self.cov).copy()
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)


def from_cov(cov: np.ndarray) -> GaussianState:
    return GaussianState(cov)


def tmss_standard(squeeze_db: float, antisqueeze_db: float) -> GaussianState:
    """Symmetric standard-form two-mode squeezed state from dB levels.

    Blocks are A = B = n*I and C = c*Z with Z = diag(1, -1), where
    n = (V_sq + V_anti)/2 and c = (V_anti - V_sq)/2 in variance units.
    The state is pure iff V_anti = 1/V_sq.
    """
    if not (squeeze_db <= 0 <= antisqueeze_db
            and db_variance_ok(squeeze_db) and db_variance_ok(antisqueeze_db)):
        raise InputError(f"expected squeeze_db <= 0 <= antisqueeze_db, each with {DB_RULE}, "
                         f"got ({squeeze_db}, {antisqueeze_db})")
    v_sq = 10.0 ** (squeeze_db / 10.0)
    v_anti = 10.0 ** (antisqueeze_db / 10.0)
    if v_sq * v_anti < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(f"V_sq*V_anti = {v_sq * v_anti:.6g} < 1: dB pair is unphysical")
    n, cz = (v_sq + v_anti) / 2.0, (v_anti - v_sq) / 2.0 * np.diag([1.0, -1.0])
    state = from_cov(np.block([[n * np.eye(2), cz], [cz, n * np.eye(2)]]))
    require_physical_stack(state.cov[None])
    return state

