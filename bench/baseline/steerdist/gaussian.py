"""Covariance-matrix algebra for zero-mean Gaussian states.

Conventions used throughout the package:

* quadratures x = a + a^dag, p = -i(a - a^dag), so the vacuum variance is 1;
* mode ordering is interleaved, (x1, p1, x2, p2, ...);
* dB values are variance ratios, V = 10**(dB/10);
* a covariance matrix is physical iff sigma + i*Omega >= 0, i.e. every
  symplectic eigenvalue is >= 1 (up to a small numerical slack).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

# Symmetry / physicality tolerances. Monte Carlo reconstructions are fed back
# into the analytic operations, so physicality gets a small slack; estimates
# failing by more than RECONSTRUCTION_TOL must be rejected by callers instead
# of being clipped.
SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-3


class UnphysicalStateError(ValueError):
    """Raised when a covariance matrix violates sigma + i*Omega >= 0."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form, block diagonal in [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _require_cov(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {sigma.shape}")
    if sigma.shape[0] % 2 != 0:
        raise ValueError(f"covariance matrix dimension must be even, got {sigma.shape[0]}")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_RTOL * scale:
        raise ValueError("covariance matrix is not symmetric")
    return sigma


def symplectic_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite 2k x 2k matrix.

    Returns the k moduli of the eigenvalues of i*Omega*M, each appearing
    once, sorted ascending.  For a 2x2 matrix this equals sqrt(det M).
    """
    mat = _require_cov(mat)
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise ValueError(
            f"matrix is not positive definite (smallest eigenvalue {eigs[0]:.3e})"
        )
    omega = symplectic_form(mat.shape[0] // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(omega @ mat)))
    # eigenvalues of i*Omega*M come in +/- pairs; keep one of each
    return moduli[::2].copy()


def check_physical(sigma: np.ndarray, tol: float = PHYSICALITY_TOL):
    """Bona-fide test: min symplectic eigenvalue >= 1 - tol.

    Returns a (passed, min_symplectic_eigenvalue) named tuple so callers can
    report how badly a matrix fails.
    """
    nu_min = float(symplectic_eigenvalues(sigma)[0])
    return PhysicalityReport(nu_min >= 1.0 - tol, nu_min)


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


def _mode_quadrature_indices(modes) -> list[int]:
    idx = []
    for m in modes:
        idx.extend((2 * m, 2 * m + 1))
    return idx


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean bipartite Gaussian state: covariance matrix plus partition.

    ``alice_modes`` and ``bob_modes`` are disjoint mode indices covering all
    modes. Arrays are frozen after construction; operations return new states.
    """

    mean: np.ndarray
    cov: np.ndarray
    alice_modes: tuple = (0,)
    bob_modes: tuple = (1,)

    def __post_init__(self):
        cov = _require_cov(self.cov)
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (cov.shape[0],):
            raise ValueError(
                f"mean length {mean.shape} does not match covariance dimension {cov.shape[0]}"
            )
        modes = sorted(self.alice_modes) + sorted(self.bob_modes)
        if sorted(modes) != list(range(cov.shape[0] // 2)):
            raise ValueError(
                f"partition {self.alice_modes}|{self.bob_modes} does not cover "
                f"all {cov.shape[0] // 2} modes exactly once"
            )
        cov = cov.copy()
        mean = mean.copy()
        cov.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "alice_modes", tuple(self.alice_modes))
        object.__setattr__(self, "bob_modes", tuple(self.bob_modes))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def blocks(self):
        """(A, B, C): Alice block, Bob block, and the Alice-row cross block."""
        ia = _mode_quadrature_indices(self.alice_modes)
        ib = _mode_quadrature_indices(self.bob_modes)
        return (
            self.cov[np.ix_(ia, ia)],
            self.cov[np.ix_(ib, ib)],
            self.cov[np.ix_(ia, ib)],
        )

    def with_cov(self, cov: np.ndarray) -> "GaussianState":
        return GaussianState(self.mean, cov, self.alice_modes, self.bob_modes)

    def require_physical(self, tol: float = PHYSICALITY_TOL) -> "GaussianState":
        report = check_physical(self.cov, tol)
        if not report:
            raise UnphysicalStateError(
                f"state is unphysical: min symplectic eigenvalue "
                f"{report.min_symplectic_eigenvalue:.12g} < 1"
            )
        return self


def from_cov(cov: np.ndarray, alice_modes=(0,), bob_modes=(1,)) -> GaussianState:
    cov = np.asarray(cov, dtype=float)
    return GaussianState(np.zeros(cov.shape[0]), cov, alice_modes, bob_modes)


def vacuum_state(n_modes: int = 2, alice_modes=(0,), bob_modes=(1,)) -> GaussianState:
    return from_cov(np.eye(2 * n_modes), alice_modes, bob_modes)


def tmss_standard(squeeze_db: float, antisqueeze_db: float) -> GaussianState:
    """Symmetric standard-form two-mode squeezed state from dB levels.

    Blocks are A = B = n*I and C = c*Z with Z = diag(1, -1), where
    n = (V_sq + V_anti)/2 and c = (V_anti - V_sq)/2 in variance units.
    The state is pure iff V_anti = 1/V_sq.
    """
    if squeeze_db > 0 or antisqueeze_db < 0:
        raise ValueError(
            f"expected squeeze_db <= 0 <= antisqueeze_db, got ({squeeze_db}, {antisqueeze_db})"
        )
    v_sq = 10.0 ** (squeeze_db / 10.0)
    v_anti = 10.0 ** (antisqueeze_db / 10.0)
    if v_sq * v_anti < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"V_sq*V_anti = {v_sq * v_anti:.6g} < 1: dB pair is unphysical"
        )
    n = (v_sq + v_anti) / 2.0
    c = (v_anti - v_sq) / 2.0
    z = np.diag([1.0, -1.0])
    cov = np.zeros((4, 4))
    cov[:2, :2] = n * np.eye(2)
    cov[2:, 2:] = n * np.eye(2)
    cov[:2, 2:] = c * z
    cov[2:, :2] = c * z
    return from_cov(cov).require_physical()


def schur_complement(
    sigma: np.ndarray, keep: str, alice_modes=(0,), bob_modes=(1,)
) -> np.ndarray:
    """Schur complement of one party's block.

    ``keep='b'`` conditions on Alice and returns B - C^T A^{-1} C (the matrix
    whose symplectic spectrum quantifies A->B steering); ``keep='a'`` swaps
    the roles.
    """
    state = from_cov(sigma, alice_modes, bob_modes)
    a, b, c = state.blocks()
    if keep == "b":
        cond, kept, cross = a, b, c  # cross: rows conditioning, cols kept
    elif keep == "a":
        cond, kept, cross = b, a, c.T
    else:
        raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
    eigs = np.linalg.eigvalsh(cond)
    if eigs[0] <= 0:
        raise ValueError(
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


# --- plain-text serialization ------------------------------------------------

def dump_cov(sigma: np.ndarray, fh) -> None:
    """Write ``covmatrix v1 <dim>`` followed by dim rows of decimals."""
    sigma = _require_cov(sigma)
    dim = sigma.shape[0]
    fh.write(f"covmatrix v1 {dim}\n")
    for row in sigma:
        fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_cov(fh) -> np.ndarray:
    header = fh.readline().split()
    if len(header) != 3 or header[0] != "covmatrix" or header[1] != "v1":
        raise ValueError(f"bad covmatrix header: {' '.join(header)!r}")
    dim = int(header[2])
    rows = []
    for k in range(dim):
        parts = fh.readline().split()
        if len(parts) != dim:
            raise ValueError(f"row {k + 1}: expected {dim} entries, got {len(parts)}")
        rows.append([float(x) for x in parts])
    return _require_cov(np.array(rows))


def save_cov(sigma: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        dump_cov(sigma, fh)


def read_cov(path) -> np.ndarray:
    with open(path) as fh:
        return load_cov(fh)


def cov_to_text(sigma: np.ndarray) -> str:
    buf = io.StringIO()
    dump_cov(sigma, buf)
    return buf.getvalue()


def cov_from_text(text: str) -> np.ndarray:
    return load_cov(io.StringIO(text))
