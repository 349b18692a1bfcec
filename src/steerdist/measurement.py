"""Monte Carlo pipeline: joint homodyne/heterodyne sampling, the acceptance
filter with rescaling, covariance reconstruction, and moment diagnostics.

Sampling conventions (these fix every reconstruction formula; the pair is
pinned by the pure-state key-rate threshold landing at -6.0 dB):

* Alice homodynes x or p directly: outcomes have variance A_xx resp. A_pp.
* Bob heterodynes: X_het = (x_B + x_vac)/sqrt(2), P_het = (p_B - p_vac)/sqrt(2),
  so Var(X_het) = (V_x + 1)/2 and Cov(X_het, x_A) = C_xx/sqrt(2).
* The complex heterodyne outcome is gamma = (X_het + i*P_het)/sqrt(2), i.e.
  |gamma|^2 = (X_het^2 + P_het^2)/2, which samples the Q function.

The filter accepts a raw outcome gamma with probability

    P_acc = exp((1 - g^-2)(|gamma|^2 - |beta_c|^2))   for |gamma| < |beta_c|
            1                                         otherwise

and accepted records are rescaled by 1/g (Bob's quadratures only); the
cutoff is therefore expressed in raw-outcome units.

Determinism: sampling and acceptance are partitioned into fixed-size chunks;
chunk k draws from a generator seeded by (seed, namespace, k), so results are
bit-identical for any worker count.  Acceptance uniforms use a separate
namespace from the Gaussian draws, so changing the filter never perturbs the
underlying samples.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    GaussianState,
    NumericalError,
    RECONSTRUCTION_TOL,
    check_physical,
)

CHUNK = 1 << 17  # even, so alternating bases stay aligned across chunks

# seed namespaces (spawn_key prefixes)
_NS_GAUSS = 0
_NS_ACCEPT = 2

# Relative tolerance on the entries the 1+1 closed forms take as zero:
# Alice's x-p covariance here, Bob's anisotropy in filtered_moments.
MODEL_RTOL = 1e-9

BASIS_X = 0
BASIS_P = 1


@dataclass(frozen=True)
class FilterSpec:
    """NLA gain g >= 1 and cutoff magnitude |beta_c| > 0 (raw-outcome units)."""

    gain: float
    cutoff: float

    def __post_init__(self):
        if self.gain < 1.0:
            raise ValueError(f"gain must be >= 1, got {self.gain}")
        if self.cutoff <= 0.0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")


def _acceptance(mag2, filt: FilterSpec):
    """Acceptance probability for squared outcome magnitude |gamma|^2."""
    t = 1.0 - 1.0 / (filt.gain * filt.gain)
    return np.exp(np.minimum(t * (mag2 - filt.cutoff**2), 0.0))


def acceptance_probability(beta_magnitude, filt: FilterSpec):
    """Acceptance probability for outcome magnitude |beta| (scalar or array)."""
    p = _acceptance(np.square(np.asarray(beta_magnitude, dtype=float)), filt)
    if p.ndim == 0:
        return float(p)
    return p


@dataclass(frozen=True)
class QuadratureBatch:
    """Per-shot records of one joint-measurement run.

    ``alice_basis`` holds BASIS_X/BASIS_P codes, ``accepted`` is None until
    :func:`post_select` has run.
    """

    alice_basis: np.ndarray
    alice_value: np.ndarray
    bob_x: np.ndarray
    bob_p: np.ndarray
    accepted: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.alice_basis)
        if n == 0:
            raise ValueError("batch must contain at least one record")
        for name in ("alice_value", "bob_x", "bob_p"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has mismatched length")
        if self.accepted is not None and len(self.accepted) != n:
            raise ValueError("accepted column has mismatched length")

    def __len__(self) -> int:
        return len(self.alice_basis)


def _chunk_rng(seed: int, namespace: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, chunk_index))
    return np.random.Generator(np.random.PCG64(ss))


def _joint_cholesky(state: GaussianState):
    """Cholesky factors of the (alice, X_het, P_het) joint for both bases."""
    a, b, c = state.blocks()
    het = (b + np.eye(2)) / 2.0
    mats = []
    for row, avar in ((0, a[0, 0]), (1, a[1, 1])):
        m = np.empty((3, 3))
        m[0, 0] = avar
        m[0, 1] = m[1, 0] = c[row, 0] / np.sqrt(2.0)
        m[0, 2] = m[2, 0] = c[row, 1] / np.sqrt(2.0)
        m[1:, 1:] = het
        mats.append(np.linalg.cholesky(m))
    return mats  # [L_X, L_P]


def sample_batch(
    state: GaussianState,
    count: int,
    seed: int,
    threads: int = 1,
) -> QuadratureBatch:
    """Draw ``count`` joint records from a physical zero-mean 1+1 state.

    Alice's basis alternates x, p, x, ... by record index.  Her x-p
    covariance must be 0: single-quadrature homodyne cannot observe it, so
    :func:`reconstruct_covariance` could not recover the state.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    a = state.cov[:2, :2]
    if abs(a[0, 1]) > max(1.0, abs(a[0, 0])) * MODEL_RTOL:
        raise NotImplementedError(
            "sampling requires a zero Alice x-p covariance, which homodyne "
            f"reconstruction cannot observe (got sigma[0, 1] = {a[0, 1]:.6g})")
    state.require_physical(RECONSTRUCTION_TOL)
    l_x, l_p = _joint_cholesky(state)

    n_chunks = (count + CHUNK - 1) // CHUNK

    def make_chunk(k: int):
        start = k * CHUNK
        m = min(CHUNK, count - start)
        z = _chunk_rng(seed, _NS_GAUSS, k).standard_normal((m, 3))
        basis = ((start + np.arange(m)) % 2).astype(np.uint8)
        vals = np.empty((m, 3))
        mask = basis == BASIS_X
        vals[mask] = z[mask] @ l_x.T
        vals[~mask] = z[~mask] @ l_p.T
        return basis, vals

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(make_chunk, range(n_chunks)))
    else:
        chunks = [make_chunk(k) for k in range(n_chunks)]

    basis = np.concatenate([c[0] for c in chunks])
    vals = np.concatenate([c[1] for c in chunks])
    return QuadratureBatch(basis, vals[:, 0].copy(), vals[:, 1].copy(), vals[:, 2].copy())


def post_select(batch: QuadratureBatch, filt: FilterSpec, seed: int):
    """Apply the acceptance filter to raw outcomes and rescale accepted ones.

    Returns (filtered_batch, acceptance_rate).  Accepted records have Bob's
    quadratures divided by g; Alice's values are untouched; rejected records
    keep their raw values and are flagged accepted = False.
    """
    n = len(batch)
    p = _acceptance(0.5 * (batch.bob_x**2 + batch.bob_p**2), filt)

    u = np.empty(n)
    n_chunks = (n + CHUNK - 1) // CHUNK
    for k in range(n_chunks):
        start = k * CHUNK
        m = min(CHUNK, n - start)
        u[start:start + m] = _chunk_rng(seed, _NS_ACCEPT, k).random(m)
    accepted = u < p

    bob_x = batch.bob_x.copy()
    bob_p = batch.bob_p.copy()
    bob_x[accepted] /= filt.gain
    bob_p[accepted] /= filt.gain
    out = replace(batch, bob_x=bob_x, bob_p=bob_p, accepted=accepted)
    return out, float(np.count_nonzero(accepted)) / n


class ReconstructionError(NumericalError):
    pass


def reconstruction_tolerance(se: np.ndarray) -> float:
    """Physicality slack appropriate for an estimated covariance matrix.

    Statistical fluctuation alone pushes the minimum symplectic eigenvalue a
    few standard errors below 1, so the reject gate scales with the largest
    entry SE (floor 1e-3).  Pass this to steering/key-rate calls that consume
    reconstructed matrices.
    """
    return float(max(RECONSTRUCTION_TOL, 5.0 * np.max(se)))


def propagate_se(func, cov: np.ndarray, se: np.ndarray) -> float:
    """Standard error of a function of ``cov`` by central differences, step
    1e-5*max(1, |cov_ij|), over the entries i <= j, taken as independent (as
    the reconstruction estimates them).

    ``func`` maps a (N, 4, 4) stack to N values; it is called once, on the
    stack of every entry's up and down steps.
    """
    entries = [(i, j) for i in range(4) for j in range(i, 4) if se[i, j] != 0.0]
    steps = [1e-5 * max(1.0, abs(cov[i, j])) for i, j in entries]
    stack = np.repeat(cov[None], 2 * len(entries), axis=0)
    for k, ((i, j), h) in enumerate(zip(entries, steps)):
        stack[2 * k, i, j] = stack[2 * k, j, i] = cov[i, j] + h
        stack[2 * k + 1, i, j] = stack[2 * k + 1, j, i] = cov[i, j] - h
    values = func(stack) if entries else []
    var = 0.0
    for k, ((i, j), h) in enumerate(zip(entries, steps)):
        grad = (values[2 * k] - values[2 * k + 1]) / (2.0 * h)
        var += (grad * se[i, j]) ** 2
    return float(np.sqrt(var))


def _var_se(x: np.ndarray):
    n = len(x)
    d = x - x.mean()
    d2 = d * d
    m2 = np.mean(d2)
    m4 = np.mean(d2 * d2)
    var = m2 * n / (n - 1)
    return var, np.sqrt(max(m4 - m2 * m2, 0.0) / n)


def _cov_se(x: np.ndarray, y: np.ndarray):
    n = len(x)
    dx = x - x.mean()
    dy = y - y.mean()
    cov = np.sum(dx * dy) / (n - 1)
    m22 = np.mean(dx * dx * dy * dy)
    return cov, np.sqrt(max(m22 - cov * cov, 0.0) / n)


def reconstruct_covariance(batch: QuadratureBatch, min_accepted: int = 10_000):
    """Invert the sampling conventions: (covariance estimate, standard errors).

    Bob's block comes from the heterodyne records (V = 2 Var - 1, off-diagonal
    2 Cov), cross blocks from sqrt(2) * Cov per basis sub-ensemble, Alice's
    diagonal from her homodyne sub-ensembles.  Her x-p cross moment is not
    observable with single-quadrature homodyne and is set to 0 (exact for
    every state in this study; :func:`sample_batch` refuses a state where it
    is not).  Standard errors come from fourth moments via the delta method.

    ``min_accepted`` guards statistical quality; lower it explicitly for
    strongly filtered runs where the standard errors still carry the
    uncertainty.
    """
    if batch.accepted is None:
        sel = np.ones(len(batch), dtype=bool)
    else:
        sel = batch.accepted
    n_acc = int(np.count_nonzero(sel))
    if n_acc < min_accepted:
        raise ReconstructionError(
            f"too few accepted records: {n_acc} < {min_accepted}"
        )
    mask_x = sel & (batch.alice_basis == BASIS_X)
    mask_p = sel & (batch.alice_basis == BASIS_P)
    if not mask_x.any() or not mask_p.any():
        raise ReconstructionError("both Alice bases must be present among accepted records")

    ax, bx_x, bp_x = batch.alice_value[mask_x], batch.bob_x[mask_x], batch.bob_p[mask_x]
    ap, bx_p, bp_p = batch.alice_value[mask_p], batch.bob_x[mask_p], batch.bob_p[mask_p]
    bx, bp = batch.bob_x[sel], batch.bob_p[sel]

    cov = np.zeros((4, 4))
    se = np.zeros((4, 4))

    v, e = _var_se(ax)
    cov[0, 0], se[0, 0] = v, e
    v, e = _var_se(ap)
    cov[1, 1], se[1, 1] = v, e

    v, e = _var_se(bx)
    cov[2, 2], se[2, 2] = 2 * v - 1, 2 * e
    v, e = _var_se(bp)
    cov[3, 3], se[3, 3] = 2 * v - 1, 2 * e
    v, e = _cov_se(bx, bp)
    cov[2, 3] = cov[3, 2] = 2 * v
    se[2, 3] = se[3, 2] = 2 * e

    root2 = np.sqrt(2.0)
    for (i, j), (u, w) in {
        (0, 2): (ax, bx_x),
        (0, 3): (ax, bp_x),
        (1, 2): (ap, bx_p),
        (1, 3): (ap, bp_p),
    }.items():
        v, e = _cov_se(u, w)
        cov[i, j] = cov[j, i] = root2 * v
        se[i, j] = se[j, i] = root2 * e

    tol = reconstruction_tolerance(se)
    try:
        report = check_physical(cov, tol)
    except ValueError as exc:  # not even positive definite
        raise ReconstructionError(f"reconstructed matrix is degenerate: {exc}") from exc
    if not report:
        raise ReconstructionError(
            f"reconstructed matrix is unphysical beyond tolerance {tol:.3g}: "
            f"min symplectic eigenvalue {report.min_symplectic_eigenvalue:.6g}"
        )
    return cov, se


@dataclass(frozen=True)
class MomentStats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float  # non-excess; Gaussian reference is 3


def moment_stats(values: np.ndarray) -> MomentStats:
    """Sample mean, variance m2, skewness m3/m2^1.5, kurtosis m4/m2^2 (non-excess)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values")
    mean = float(np.mean(values))
    d = values - mean
    d2 = d * d
    var = float(np.mean(d2))
    if var == 0.0:
        raise ValueError("degenerate input: zero variance")
    return MomentStats(mean=mean, variance=var,
                       skewness=float(np.mean(d2 * d) / var**1.5),
                       kurtosis=float(np.mean(d2 * d2) / (var * var)))


# --- CSV interface ------------------------------------------------------------

BATCH_HEADER = "idx,alice_basis,alice_value,bob_x,bob_p,accepted"
_BASIS_CHARS = ("X", "P")


def write_batch_csv(batch: QuadratureBatch, path) -> None:
    acc = batch.accepted if batch.accepted is not None else np.ones(len(batch), dtype=bool)
    # plain-float repr is the shortest exact round-trip representation
    basis = batch.alice_basis.tolist()
    aval = batch.alice_value.tolist()
    bx = batch.bob_x.tolist()
    bp = batch.bob_p.tolist()
    flags = acc.astype(int).tolist()
    with open(path, "w") as fh:
        fh.write(BATCH_HEADER + "\n")
        for i in range(len(basis)):
            fh.write(
                f"{i},{_BASIS_CHARS[basis[i]]},{aval[i]!r},{bx[i]!r},{bp[i]!r},{flags[i]}\n"
            )


class BatchSchemaError(ValueError):
    pass


def read_batch_csv(path) -> QuadratureBatch:
    """Read records; the ``accepted`` column is optional (raw external data).

    Every value must be finite; a failing record is named by its 0-based
    position among the records, as in the ``idx`` column
    :func:`write_batch_csv` writes.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:5] != BATCH_HEADER.split(",")[:5]:
            raise BatchSchemaError(f"line 1: bad header {header!r}")
        has_accepted = len(cols) == 6 and cols[5] == "accepted"
        if not has_accepted and len(cols) != 5:
            raise BatchSchemaError(f"line 1: bad header {header!r}")
        basis, aval, bxv, bpv, acc = [], [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise BatchSchemaError(
                    f"line {lineno}: expected {len(cols)} fields, got {len(parts)}"
                )
            try:
                if parts[1] == "X":
                    basis.append(BASIS_X)
                elif parts[1] == "P":
                    basis.append(BASIS_P)
                else:
                    raise ValueError(f"bad basis {parts[1]!r}")
                aval.append(float(parts[2]))
                bxv.append(float(parts[3]))
                bpv.append(float(parts[4]))
                if has_accepted:
                    if parts[5] not in ("0", "1"):
                        raise ValueError(f"bad accepted flag {parts[5]!r}")
                    acc.append(parts[5] == "1")
            except ValueError as exc:
                raise BatchSchemaError(f"line {lineno}: {exc}") from exc
    if not basis:
        raise BatchSchemaError("file contains no records")
    values = {"alice_value": np.array(aval), "bob_x": np.array(bxv), "bob_p": np.array(bpv)}
    for name, col in values.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise BatchSchemaError(
                f"record {bad[0]}: non-finite {name} {float(col[bad[0]])!r} "
                f"({bad.size} non-finite {name} values)")
    return QuadratureBatch(
        np.array(basis, dtype=np.uint8),
        **values,
        accepted=np.array(acc, dtype=bool) if has_accepted else None,
    )
