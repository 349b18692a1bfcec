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
cutoff is therefore expressed in raw-outcome units.  The code tests the
threshold form: a record with acceptance uniform u in [0, 1) is accepted iff

    t (|gamma|^2 - |beta_c|^2) > ln u,   t = 1 - g^-2,

which is u < P_acc, since ln u < 0 <= the left side where P_acc = 1.  The
pass takes the log of a piece's uniforms once, for every state and filter,
so a filter costs a subtract, a scale and a compare per record; u = 0 gives
ln u = -inf, and at g = 1 (t = 0) every record is accepted.

Determinism: sampling and acceptance are partitioned into fixed-size chunks;
chunk k draws from a generator seeded by (seed, namespace, k), so results are
bit-identical for any worker count.  Acceptance uniforms use a separate
namespace from the Gaussian draws, so changing the filter never perturbs the
underlying samples, and every filter sees the same uniform for a record.

Streaming reduction: :func:`sample_grid` holds at most SUB records per
worker.  A worker draws chunk k's normals z and uniforms in pieces of SUB
records from the chunk's two generators (which give the values of one
whole-chunk draw, so CHUNK alone fixes the seed partition), splits each
piece into the two Alice-basis sub-ensembles (records alternate x, p, x,
..., and CHUNK and SUB are even, so these are the strided rows ``[0::2]``
and ``[1::2]``), and adds each requested ensemble's records to its Gram
matrix of the pair products y_i y_j, y = (1, record): every co-moment sum
up to order 4 about 0.  Every state of a grid reads the same z and uniforms
(common random numbers; Glasserman 2004, ch. 4): state i's records are L_i
z, with L_i its Cholesky factor, so its raw ensemble's Gram matrix is K Q
K^T, with Q that of z and K the pair map of blockdiag(1, L_i)
(:func:`_pair_map`); only the filter step (acceptance, rescaling,
reduction of the accepted records) runs per state.

The centre 0 is exact: a state's records are L z, so it is zero-mean, and
the filter depends on |gamma|^2 alone, so each accepted ensemble is
symmetric under a sign flip and zero-mean too.  A sample mean is then
O(sigma / sqrt(n)), and :meth:`Moments.central`, K Q K^T with K the pair
map of [[1, 0], [-mean, I]], loses nothing to cancellation.  Sums
about a common centre add with no correction term (Pebay, SAND2008-6212),
so pieces, then chunks, are added in order: the result does not depend on
the thread count, nor a state's on the rest of its grid, and memory is
O(threads x (SUB + states)) at any sample count.  Every :class:`Moments` is
summed about a centre fixed before its records are read, so no sums are
ever shifted and merged: 0 in the pass, the first piece's kept means in
:func:`reconstruct_covariance`'s one pass over a recorded batch, the data's
means in :func:`moment_stats`; the last two see records of any offset.  The
batch API (:func:`sample_batch`, :func:`post_select`) sees the same records
and makes the same acceptance decisions as the pass: a recorded batch is
filtered piece by piece, with the chunk's uniforms of the same draw, by the
pass's own filter step (:func:`_batch_pieces`).  A recorded file streams
through that step: :func:`_read_pieces` parses it into the same pieces of
SUB records, and ``ingest`` filters and reduces each before the next is
read, so it too holds O(SUB) records at any record count;
:func:`read_batch_csv` is those pieces concatenated.

Each worker thread writes a piece's temporaries into one 2.7 MB
:class:`_Workspace`, reused for every piece, chunk, state and filter.
Fresh arrays per chunk leave the allocator free to map new pages for each
chunk, about 1,800 minor page faults a chunk; with the workspace a pass's
faults do not grow with its chunk count.  Only the accepted records are
allocated per piece: ``ndarray.compress`` into a fresh array is twice as
fast as ``np.compress`` into a given one.
"""

from __future__ import annotations

import itertools
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .gaussian import (
    MAX_CUTOFF,
    GaussianState,
    NumericalError,
    RECONSTRUCTION_TOL,
    _min_symplectic,
    _not_pd_error,
    _raise_first,
    _require_positive,
    require_cov_stack,
    require_physical_stack,
)
from .nla import _check_gains

CHUNK = 1 << 17  # even, so alternating bases stay aligned across chunks
SUB = 1 << 15  # records a pass draws and reduces at a time; even, divides CHUNK

# seed namespaces (spawn_key prefixes)
_NS_GAUSS = 0
_NS_ACCEPT = 2

# Relative tolerance on the entries the 1+1 closed forms take as zero:
# Alice's x-p covariance here, Bob's anisotropy in filtered_moments.
MODEL_RTOL = 1e-9

BASIS_X = 0
BASIS_P = 1

MIN_ACCEPTED = 10_000  # the records a reconstruction needs by default


@dataclass(frozen=True)
class FilterSpec:
    """NLA gain g in [1, ``MAX_CUTOFF``] and cutoff magnitude |beta_c| in
    (0, ``MAX_CUTOFF``] (raw units)."""

    gain: float
    cutoff: float

    def __post_init__(self):
        _check_filter(self.gain, self.cutoff)


def _check_filter(gains, cutoffs) -> None:
    """The gain rule, then the cutoff rule (in (0, ``MAX_CUTOFF``]), on values or arrays."""
    _check_gains(gains)
    _require_positive(cutoffs, "cutoff", MAX_CUTOFF)


def _log_uniforms(u: np.ndarray) -> np.ndarray:
    """ln u of acceptance uniforms in [0, 1), in place: -inf at u = 0, which
    every record's log acceptance exceeds."""
    with np.errstate(divide="ignore"):
        return np.log(u, out=u)


class BatchSchemaError(ValueError):
    pass


def _non_finite(name: str, record, value, count) -> BatchSchemaError:
    """The refusal of ``count`` non-finite values in column ``name``, the
    first ``value`` at 0-based ``record``."""
    return BatchSchemaError(f"record {record}: non-finite {name} {float(value)!r} "
                            f"({count} non-finite {name} values)")


@dataclass(frozen=True)
class QuadratureBatch:
    """Per-shot records of one joint-measurement run.

    Every column is 1-D: ``alice_basis`` holds BASIS_X/BASIS_P codes, the
    value columns finite float64 values, and ``accepted`` is None until
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
        for name in ("alice_basis", "accepted"):
            if getattr(self, name) is not None and getattr(self, name).ndim != 1:
                raise ValueError(f"column {name} must be 1-D")
        basis = self.alice_basis
        # one pass: viewed as unsigned, a negative code exceeds BASIS_P too
        if basis.dtype.kind not in "iu" or basis.view(f"u{basis.itemsize}").max() > BASIS_P:
            raise ValueError("alice_basis must hold only the integer codes "
                             "BASIS_X (0) and BASIS_P (1)")
        if self.accepted is not None and self.accepted.dtype != bool:
            raise ValueError(f"accepted column must be boolean, got {self.accepted.dtype}")
        for name in ("alice_value", "bob_x", "bob_p"):
            col = getattr(self, name)
            if col.dtype != np.float64 or col.ndim != 1:
                raise ValueError(f"column {name} must be 1-D float64")
            if not np.isfinite(col).all():  # a record is named only on failure
                bad = np.flatnonzero(~np.isfinite(col))
                raise _non_finite(name, bad[0], col[bad[0]], bad.size)

    def __len__(self) -> int:
        return len(self.alice_basis)


def _chunk_rng(seed: int, namespace: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, chunk_index))
    return np.random.Generator(np.random.PCG64(ss))


def _n_chunks(count: int) -> int:
    return (count + CHUNK - 1) // CHUNK


def _map_chunks(fn, n_chunks: int, threads: int):
    """Yield ``fn(k, work)`` for every chunk k in chunk order, on ``threads``
    threads, with at most 2 x threads chunks submitted and not yet yielded;
    ``work`` is the calling thread's :class:`_Workspace`, made at its first
    chunk."""
    local = threading.local()

    def run(k: int):
        if not hasattr(local, "work"):
            local.work = _Workspace()
        return fn(k, local.work)

    if threads <= 1:
        yield from map(run, range(n_chunks))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for k in range(n_chunks):
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(run, k))
        while pending:
            yield pending.popleft().result()


def _joint_cholesky(covs: np.ndarray) -> np.ndarray:
    """Cholesky factors of each matrix's (alice, X_het, P_het) joint, (N, 2,
    3, 3), x basis first."""
    m = np.empty((len(covs), 2, 3, 3))
    m[:, :, 0, 0] = covs[:, [0, 1], [0, 1]]
    m[:, :, 0, 1:] = m[:, :, 1:, 0] = covs[:, :2, 2:] / np.sqrt(2.0)
    m[:, :, 1:, 1:] = (covs[:, None, 2:, 2:] + np.eye(2)) / 2.0
    return np.linalg.cholesky(m)


def _sampler(covs: np.ndarray, count: int) -> np.ndarray:
    """The Cholesky factors for drawing ``count`` records from each matrix of
    a (N, 4, 4) stack, after the checks :func:`sample_batch` documents.  It
    raises at the first matrix that fails one, the x-p check first."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    covs = require_cov_stack(covs)
    xp = np.abs(covs[:, 0, 1]) > np.maximum(1.0, np.abs(covs[:, 0, 0])) * MODEL_RTOL
    first_xp = np.argmax(np.append(xp, True))  # N when no matrix fails the x-p check
    require_physical_stack(covs[:first_xp], RECONSTRUCTION_TOL)
    _raise_first(xp, lambda i: NotImplementedError(
        "sampling requires a zero Alice x-p covariance, which homodyne "
        f"reconstruction cannot observe (got sigma[0, 1] = {covs[i, 0, 1]:.6g})"))
    return _joint_cholesky(covs)


def _draws(seed: int, k: int, count: int, work: _Workspace, uniforms: bool,
           normals: bool = True):
    """Chunk k's standard normals and, with ``uniforms``, its acceptance
    uniforms, drawn into ``work`` in pieces of at most SUB records from the
    chunk's two generators, which give the values of one whole-chunk draw.
    Yields (start, z, u) per piece: its offset in the chunk, its (m, 3)
    normals (None without ``normals``) and its m uniforms (None without
    ``uniforms``).  Records alternate x, p, x, ... and CHUNK and SUB are
    even, so a piece's x-basis rows are ``z[0::2]``; a basis's (alice,
    X_het, P_het) records are ``chol[b] @ z[b::2].T``."""
    m = min(CHUNK, count - k * CHUNK)
    normal = _chunk_rng(seed, _NS_GAUSS, k) if normals else None
    uniform = _chunk_rng(seed, _NS_ACCEPT, k) if uniforms else None
    for start in range(0, m, SUB):
        w = min(SUB, m - start)
        yield (start, normal.standard_normal(out=work.z[:w]) if normals else None,
               uniform.random(out=work.u[:w]) if uniforms else None)


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
    chol = _sampler(state.cov[None], count)[0]
    basis = np.empty(count, dtype=np.uint8)
    basis[0::2], basis[1::2] = BASIS_X, BASIS_P
    cols = np.empty((3, count))

    def fill(k: int, work: _Workspace):
        for start, z, _ in _draws(seed, k, count, work, uniforms=False):
            start += k * CHUNK
            block = cols[:, start:start + len(z)]
            for b in (BASIS_X, BASIS_P):
                block[:, b::2] = chol[b] @ z[b::2].T

    for _ in _map_chunks(fill, _n_chunks(count), threads):
        pass
    return QuadratureBatch(basis, cols[0], cols[1], cols[2])


def _pieces(batch: QuadratureBatch):
    """Views of a batch's columns (alice_basis, alice_value, bob_x, bob_p,
    accepted), SUB records at a time in record order; accepted is None if
    the batch has none."""
    cols = batch.alice_basis, batch.alice_value, batch.bob_x, batch.bob_p, batch.accepted
    for start in range(0, len(batch), SUB):
        yield tuple(None if col is None else col[start:start + SUB] for col in cols)


def _batch_pieces(pieces, filt: FilterSpec | None, seed: int | None, work: _Workspace):
    """Yield (piece, keep) per piece of recorded records: the pieces hold
    SUB records each in record order, all but the last in full, as
    (alice_basis, alice_value, bob_x, bob_p, accepted) columns.  ``keep`` is,
    in ``work``, the mask of the records ``filt`` accepts by the pass's
    filter step on Bob's raw quadratures and the uniforms :func:`_draws`
    gives that piece; without ``filt``, the accepted column (None if there
    is none).  A piece's uniforms are the leading values of a full piece's
    draw, which the generator gives in order, so the record count need not
    be known in advance."""
    if filt is None:
        for piece in pieces:
            yield piece, piece[4]
        return
    draws = (u for k in itertools.count()
             for _, _, u in _draws(seed, k, (k + 1) * CHUNK, work, uniforms=True, normals=False))
    for piece, u in zip(pieces, draws):
        mag2 = _mag2(piece[2], piece[3], work)
        yield piece, _accepts(_log_uniforms(u[:len(mag2)]), mag2, filt, work)


def post_select(batch: QuadratureBatch, filt: FilterSpec, seed: int):
    """Apply the acceptance filter to raw outcomes and rescale accepted ones.

    Returns (filtered_batch, acceptance_rate).  Accepted records have Bob's
    quadratures divided by g; Alice's values are untouched; rejected records
    keep their raw values and are flagged accepted = False.  The output
    columns are filled piece by piece (:func:`_batch_pieces`).
    """
    out = replace(batch, bob_x=batch.bob_x.copy(), bob_p=batch.bob_p.copy(),
                  accepted=np.empty(len(batch), dtype=bool))
    for (*_, bob_x, bob_p, accepted), keep in _batch_pieces(_pieces(out), filt, seed,
                                                            _Workspace()):
        accepted[:] = keep
        for col in (bob_x, bob_p):
            np.divide(col, filt.gain, out=col, where=keep)
    return out, float(np.count_nonzero(out.accepted)) / len(batch)


class ReconstructionError(NumericalError):
    pass


def reconstruction_tolerance(se: np.ndarray):
    """Physicality slack appropriate for an estimated covariance matrix (a
    float), or for each of a stack of them (an array).

    Statistical fluctuation alone pushes the minimum symplectic eigenvalue a
    few standard errors below 1, so the reject gate scales with the largest
    entry SE (floor 1e-3).  Pass this to the N = 1 calls
    :func:`steerdist.steering.steerability_with_se` and
    :func:`steerdist.qkd.key_rate_with_se` on a reconstructed matrix.
    """
    tol = np.maximum(RECONSTRUCTION_TOL, 5.0 * np.max(se, axis=(-2, -1)))
    return float(tol) if tol.ndim == 0 else tol


# --- streaming moments ----------------------------------------------------------

_BLOCK = 8192  # records per block of products, which then stay in cache


@lru_cache(maxsize=None)
def _pairs(dim: int):
    """Index arrays (i, j) of the pairs i <= j of ``dim`` variables, in Gram
    row order, the (dim, dim) map from (i, j) or (j, i) to their row, and the
    pairs as a list of (i, j) ints."""
    i, j = np.triu_indices(dim)
    position = np.empty((dim, dim), dtype=int)
    position[i, j] = position[j, i] = np.arange(len(i))
    return i, j, position, list(zip(i.tolist(), j.tolist()))


def _pair_map(a: np.ndarray) -> np.ndarray:
    """The pair map K of each (m, d) ``a`` along the last two axes: the pair
    products of a y are K times those of y, K[(i, j), (c, e)] = a_ic a_je +
    a_ie a_jc for c < e and a_ic a_jc for c = e, so a Gram matrix Q of y's
    becomes K Q K^T."""
    (i, j, *_), (c, e, *_) = map(_pairs, a.shape[-2:])
    ai, aj = a[..., i, :], a[..., j, :]
    k = ai[..., c] * aj[..., e]
    k += (c < e) * (ai[..., e] * aj[..., c])
    return k


def _add_gram(q, records, center, blocks: np.ndarray | None = None) -> None:
    """Add to ``q`` the Gram matrix, over the columns of the (d, n)
    ``records``, of the pair products y_i y_j, i <= j, of y = (1, record -
    center): every co-moment sum about ``center`` up to order 4 (Pebay,
    SAND2008-6212).  Sums about a common centre add with no correction term,
    so records can be added in any pieces.  The products are formed
    ``_BLOCK`` records at a time, in ``blocks`` when it is given: a float
    array of at least (d+1)(d+2)/2 rows of ``_BLOCK`` values.  As y_0 = 1,
    the first d + 1 pairs (0, j) are y itself, so only the others are
    multiplied.  The sums depend only on the values, not on the array's
    layout."""
    d, n = records.shape
    pairs = _pairs(d + 1)[3]
    if blocks is None:
        blocks = np.empty((len(pairs), min(n, _BLOCK)))
    prod = blocks[:len(pairs)]  # its rows 0..d are y
    prod[0, :min(n, _BLOCK)] = 1.0
    for start in range(0, n, _BLOCK):
        w = min(_BLOCK, n - start)
        np.subtract(records[:, start:start + w], center, out=prod[1:d + 1, :w])
        for k, (i, j) in enumerate(pairs[d + 1:], d + 1):
            np.multiply(prod[i, :w], prod[j, :w], out=prod[k, :w])
        q += prod[:, :w] @ prod[:, :w].T


@dataclass(frozen=True)
class MomentStats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float  # non-excess; Gaussian reference is 3


@dataclass(frozen=True)
class Moments:
    """Co-moment sums up to order 4 of d-variate records.

    ``gram`` is the Gram matrix that :func:`_add_gram` sums, over the
    records, of the pair products y_i y_j, i <= j, of y = (1, record -
    center), in :func:`_pairs` order: entry ((i, j), (k, l)) is the sum of
    y_i y_j y_k y_l.  Row 0 is the pair (0, 0): the count, then the
    first-order sums, which carry the records' mean less ``center`` (zero up
    to rounding when ``center`` is the mean), then the second-order sums.
    ``center`` and ``gram`` may carry leading axes, one entry per record
    set; :meth:`linear`, :meth:`central` and :meth:`_sum` act on each.
    """

    center: np.ndarray
    gram: np.ndarray

    @classmethod
    def of(cls, records: np.ndarray) -> Moments:
        """Moments of the columns of ``records``, a (d, n) array; two passes:
        the mean, then :func:`_add_gram` of the centred values."""
        records = np.ascontiguousarray(records, dtype=float)
        d, n = records.shape
        center = records.mean(axis=1) if n else np.zeros(d)
        n_pairs = len(_pairs(d + 1)[0])
        q = np.zeros((n_pairs, n_pairs))
        _add_gram(q, records, center[:, None])
        return cls(center, q)

    def _sum(self, i: int, j: int, k: int, l: int):
        """The sum of y_i y_j y_k y_l over the records."""
        position = _pairs(self.center.shape[-1] + 1)[2]
        return self.gram[..., position[i, j], position[k, l]]

    @property
    def count(self) -> int:
        return int(self._sum(0, 0, 0, 0))

    def _map(self, a: np.ndarray, center: np.ndarray) -> Moments:
        """Moments of the records whose y is ``a`` y, about ``center``."""
        k = _pair_map(a)
        return Moments(center, k @ self.gram @ np.swapaxes(k, -1, -2))

    def linear(self, l: np.ndarray) -> Moments:
        """Moments of the records ``l @ r`` for a (k, d) map ``l``: y = (1, r
        - c) becomes B y with B = blockdiag(1, l).  A 0/1 map that selects
        variables selects Gram entries, so it rounds nothing."""
        b = np.zeros((len(l) + 1, l.shape[1] + 1))
        b[0, 0], b[1:, 1:] = 1.0, l
        return self._map(b, self.center @ l.T)

    def central(self) -> Moments:
        """The moments about the mean: y = (1, r - c) becomes A y with A =
        [[1, 0], [h, I]], h = c - mean, from the first-order sums."""
        d = self.center.shape[-1]
        a = np.broadcast_to(np.eye(d + 1), self.gram.shape[:-2] + (d + 1, d + 1)).copy()
        a[..., 1:, 0] = -self.gram[..., 0, 1:d + 1] / self.gram[..., :1, 0]
        return self._map(a, self.center - a[..., 1:, 0])

    def stats(self, variable: int = 0) -> MomentStats:
        """Mean, variance m2, skewness m3/m2^1.5, kurtosis m4/m2^2 (non-excess)."""
        n = self._sum(0, 0, 0, 0)
        if n < 2:
            raise ValueError("need at least two values")
        m = self.central()
        k = variable + 1
        var = m._sum(0, 0, k, k) / n
        if var == 0.0:
            raise ValueError("degenerate input: zero variance")
        return MomentStats(mean=float(m.center[variable]), variance=float(var),
                           skewness=float(m._sum(0, k, k, k) / n / var**1.5),
                           kurtosis=float(m._sum(k, k, k, k) / n / (var * var)))


def moment_stats(values: np.ndarray) -> MomentStats:
    """Sample mean, variance m2, skewness m3/m2^1.5, kurtosis m4/m2^2 (non-excess)."""
    return Moments.of(np.asarray(values, dtype=float).reshape(1, -1)).stats()


def _entry(m: Moments, u: int, v: int):
    """Estimate and SE of Cov(u, v) from moments about the mean; the variance
    SE uses the biased m2, the covariance SE the unbiased covariance."""
    n = m._sum(0, 0, 0, 0)
    u, v = u + 1, v + 1
    if u == v:
        m2 = m._sum(0, 0, u, u) / n
        return m2 * n / (n - 1), np.sqrt(np.maximum(m._sum(u, u, u, u) / n - m2 * m2, 0.0) / n)
    cov = m._sum(0, 0, u, v) / (n - 1)
    return cov, np.sqrt(np.maximum(m._sum(u, u, v, v) / n - cov * cov, 0.0) / n)


_ENSEMBLE_BLOCK = 64  # ensembles per stacked evaluation, which bounds its temporaries


def covariance_stack(ensembles, min_accepted: int = MIN_ACCEPTED):
    """Invert the sampling conventions for N :class:`Ensemble` s at once:
    (covs, ses, errors), the (N, 4, 4) covariance estimates and standard
    errors, and per ensemble the :class:`ReconstructionError` that refuses
    it, or None.  A refused ensemble gets the vacuum's matrix and zero SEs,
    which every stack kernel evaluates, so callers can blank its results.

    Bob's block comes from the heterodyne records (V = 2 Var - 1,
    off-diagonal 2 Cov), cross blocks from sqrt(2) * Cov per basis
    sub-ensemble, Alice's diagonal from her homodyne sub-ensembles.  Her x-p
    cross moment is not observable with single-quadrature homodyne and is
    set to 0 (exact for every state in this study; :func:`sample_batch`
    refuses a state where it is not).  Standard errors come from fourth
    moments via the delta method.

    An ensemble is refused with fewer than ``min_accepted`` records (a guard
    of statistical quality; lower it explicitly for strongly filtered runs
    where the standard errors still carry the uncertainty), with fewer than
    2 in a basis, or when its estimate is not positive definite or has a
    smallest symplectic eigenvalue below 1 - :func:`reconstruction_tolerance`
    of its SEs.  An accepted estimate needs no other physicality check: the
    steering and key-rate SE stacks take it with no check of their own.

    The ensembles are evaluated ``_ENSEMBLE_BLOCK`` at a time, so the
    temporaries stay small on a large grid; each result depends on its
    ensemble alone.
    """
    n = len(ensembles)
    if n > _ENSEMBLE_BLOCK:
        covs, ses, errors = np.empty((n, 4, 4)), np.empty((n, 4, 4)), []
        for k in range(0, n, _ENSEMBLE_BLOCK):
            block = slice(k, k + _ENSEMBLE_BLOCK)
            covs[block], ses[block], part = covariance_stack(ensembles[block], min_accepted)
            errors += part
        return covs, ses, errors
    stack = Ensemble(*(Moments(np.reshape([getattr(e, b).center for e in ensembles], (n, 3)),
                               np.reshape([getattr(e, b).gram for e in ensembles], (n, 10, 10)))
                       for b in ("x", "p")))
    errors = []
    for n_x, n_p in zip(*(m._sum(0, 0, 0, 0).astype(int).tolist() for m in (stack.x, stack.p))):
        if n_x + n_p < min_accepted:
            errors.append(ReconstructionError(
                f"too few accepted records: {n_x + n_p} < {min_accepted}"))
        elif min(n_x, n_p) < 2:  # a variance needs n - 1 > 0
            errors.append(ReconstructionError(f"both Alice bases need at least 2 accepted "
                                              f"records, got {n_x} X and {n_p} P"))
        else:
            errors.append(None)
    root2 = np.sqrt(2.0)
    covs, ses = np.zeros((2, n, 4, 4))
    with np.errstate(divide="ignore", invalid="ignore"):  # only in the refused cells
        x, p, bob = (m.central() for m in (stack.x, stack.p, stack.bob()))
        for (i, j), m, (u, v), scale in (
            ((0, 0), x, (0, 0), 1.0), ((1, 1), p, (0, 0), 1.0),
            ((2, 2), bob, (0, 0), 2.0), ((3, 3), bob, (1, 1), 2.0), ((2, 3), bob, (0, 1), 2.0),
            ((0, 2), x, (0, 1), root2), ((0, 3), x, (0, 2), root2),
            ((1, 2), p, (0, 1), root2), ((1, 3), p, (0, 2), root2),
        ):
            v_ij, e_ij = _entry(m, u, v)
            covs[:, i, j] = covs[:, j, i] = scale * v_ij
            ses[:, i, j] = ses[:, j, i] = scale * e_ij
    covs[:, 2, 2] -= 1.0
    covs[:, 3, 3] -= 1.0

    counted = np.array([e is None for e in errors], dtype=bool)
    tols = reconstruction_tolerance(ses)
    nu, pd = _min_symplectic(np.where(counted[:, None, None], covs, np.eye(4)))
    for i in np.flatnonzero(counted & ~(pd & (nu >= 1.0 - tols))):
        errors[i] = ReconstructionError(
            f"reconstructed matrix is degenerate: {_not_pd_error(covs[i])}" if not pd[i] else
            f"reconstructed matrix is unphysical beyond tolerance {tols[i]:.3g}: "
            f"min symplectic eigenvalue {nu[i]:.6g}")
    refused = [e is not None for e in errors]
    covs[refused], ses[refused] = np.eye(4), 0.0
    return covs, ses, errors


@dataclass(frozen=True)
class Ensemble:
    """Moments of one accepted ensemble's (alice, X_het, P_het) records, per
    Alice basis.  Both bases' sums share Bob's centre (0 in the pass, the
    mean over both bases in :func:`reconstruct_covariance`), so Bob's sums
    over both bases add with no shift."""

    x: Moments
    p: Moments

    @property
    def accepted(self) -> int:
        return self.x.count + self.p.count

    def bob(self) -> Moments:
        """Moments of Bob's (X_het, P_het) over both bases."""
        x, p = self.x.linear(np.eye(3)[1:]), self.p.linear(np.eye(3)[1:])
        return Moments(x.center, x.gram + p.gram)

    def covariance(self, min_accepted: int = MIN_ACCEPTED):
        """(covariance estimate, standard errors): :func:`covariance_stack`
        with N = 1, which raises the ensemble's :class:`ReconstructionError`."""
        covs, ses, (error,) = covariance_stack([self], min_accepted)
        if error is not None:
            raise error
        return covs[0], ses[0]


class _Workspace:
    """One worker's piece temporaries (see the module docstring): normals,
    uniforms, one basis's records, |gamma|^2, acceptance probabilities, keep
    mask and block products, 2,654,208 bytes in all: 7.5 x SUB + 10 x
    _BLOCK float64 values and SUB bools.  The pass filters one basis, half a
    piece, at a time, :func:`_batch_pieces` a whole piece."""

    def __init__(self):
        half = SUB // 2
        self.z, self.u = np.empty((SUB, 3)), np.empty(SUB)
        self.rec = np.empty(3 * half)  # flat, so that its (3, n) head is contiguous
        self.mag2, self.acc = np.empty(SUB), np.empty(SUB)
        self.keep = np.empty(SUB, dtype=bool)
        self.blocks = np.empty((10, _BLOCK))  # _add_gram of 3-variate records


def _mag2(bob_x: np.ndarray, bob_p: np.ndarray, work: _Workspace) -> np.ndarray:
    """|gamma|^2 = 0.5 * (X^2 + P^2) of Bob's heterodyne quadratures, in
    ``work``."""
    n = len(bob_x)
    mag2 = np.square(bob_x, out=work.mag2[:n])
    mag2 += np.square(bob_p, out=work.acc[:n])
    mag2 *= 0.5
    return mag2


def _accepts(log_u, mag2, filt: FilterSpec, work: _Workspace) -> np.ndarray:
    """Mask, in ``work``, of the records whose log uniform ``log_u`` is below
    their log acceptance t (|gamma|^2 - |beta_c|^2), t = 1 - g^-2:
    :func:`post_select`'s decision (see the module docstring).  At t = 0
    every record is accepted with no product formed, so a |gamma|^2 that
    overflowed to inf is not made NaN by inf * 0 and rejected."""
    n = len(mag2)
    t = 1.0 - 1.0 / (filt.gain * filt.gain)
    if t == 0.0:
        work.keep[:n] = True
        return work.keep[:n]
    log_acc = np.subtract(mag2, filt.cutoff**2, out=work.acc[:n])
    log_acc *= t
    return np.greater(log_acc, log_u, out=work.keep[:n])


def sample_grid(covs: np.ndarray, count: int, seed: int, filters, counted,
                threads: int = 1) -> tuple[list[list[Ensemble]], list[list[int]]]:
    """One streaming pass over a common draw for a (N, 4, 4) stack of
    covariance matrices, such as a grid's channel outputs.  For each matrix
    i: the moments of the records ``post_select(sample_batch(
    GaussianState(covs[i]), count, seed), filt, seed)`` accepts, for each
    entry filt of ``filters[i]`` (None for the raw ensemble), and the number
    of records each filter of ``counted[i]`` accepts, without their moments.
    Returns (ensembles, counts), one list per matrix in each.

    Per piece of :func:`_draws` and Alice basis b, a chunk adds one Gram
    matrix about 0 (:func:`_add_gram`) per output slot: that of the normals
    z when any filter is None (every raw ensemble is a :meth:`Moments.linear`
    of it), then per state i, with records chol_i[b] z, that of each filter's
    accepted, rescaled records, and the count alone, in entry [0, 0], of
    each counted filter's (:func:`_accepts`).  Chunks add in chunk order.

    Every state reads the same normals and uniforms, so a state's result does
    not depend on the rest of the grid.  Memory is O(threads x (SUB +
    states)) at any ``count``, and the result is bit-identical for any
    ``threads``.  The first matrix :func:`sample_batch` would refuse raises
    with its index as ``exc.cell``.
    """
    if not len(covs) == len(filters) == len(counted):
        raise ValueError(f"{len(covs)} states, {len(filters)} filter lists and "
                         f"{len(counted)} lists of counted filters")
    chols = _sampler(covs, count)
    raw = any(f is None for fs in filters for f in fs)
    steps = [(chol, [f for f in fs if f is not None], cs)  # states with a filter
             for chol, fs, cs in zip(chols, filters, counted) if any(fs) or cs]
    n_out = raw + sum(len(fs) + len(cs) for _, fs, cs in steps)

    def chunk(k: int, work: _Workspace) -> np.ndarray:
        sums = np.zeros((2, n_out, 10, 10))  # Gram matrices of 3-variate records
        for _, z, u in _draws(seed, k, count, work, uniforms=n_out > raw):
            log_u = None if u is None else _log_uniforms(u)  # shared by every filter
            for b in (BASIS_X, BASIS_P):
                zb, out = z[b::2].T, iter(sums[b])
                if raw:
                    _add_gram(next(out), zb, 0.0, work.blocks)
                for chol, fs, cs in steps:
                    rec = np.matmul(chol[b], zb, out=work.rec[:zb.size].reshape(zb.shape))
                    mag2 = _mag2(rec[1], rec[2], work)
                    for filt in fs:
                        kept = rec.compress(_accepts(log_u[b::2], mag2, filt, work), axis=1)
                        kept[1:] /= filt.gain
                        _add_gram(next(out), kept, 0.0, work.blocks)
                    for filt in cs:
                        keep = _accepts(log_u[b::2], mag2, filt, work)
                        next(out)[0, 0] += np.count_nonzero(keep)
        return sums

    outs = iter(zip(*sum(_map_chunks(chunk, _n_chunks(count), threads))))

    def ensemble() -> Ensemble:
        return Ensemble(*(Moments(np.zeros(3), q) for q in next(outs)))

    z = ensemble() if raw else None
    ensembles, counts = [], []
    for chol, fs, cs in zip(chols, filters, counted):
        ensembles.append([Ensemble(z.x.linear(chol[0]), z.p.linear(chol[1])) if f is None
                          else ensemble() for f in fs])
        counts.append([int(sum(q[0, 0] for q in next(outs))) for _ in cs])
    return ensembles, counts


def _batch_ensemble(pieces, filt: FilterSpec | None = None,
                    seed: int | None = None) -> Ensemble:
    """The :class:`Ensemble` of the accepted records (every record if there
    is no accepted column) of a batch's pieces, in one pass
    (:func:`_batch_pieces`); with ``filt``, of those ``post_select(batch,
    filt, seed)`` accepts, each piece's kept records compressed per Alice
    basis and Bob's divided by g.  Each piece is reduced before the next is
    read.  The first piece's kept records fix each basis's centre, Alice's
    mean in that basis and Bob's over both, summed by numpy's pairwise sum,
    whose order, unlike BLAS ``ddot``'s, does not depend on the BLAS thread
    count, so neither do the result's bytes; every piece's records are
    summed about it (:func:`_add_gram`)."""
    work = _Workspace()
    centres, grams = None, np.zeros((2, 10, 10))  # Gram matrices of 3-variate records
    for (basis, *cols, _), keep in _batch_pieces(pieces, filt, seed, work):
        kept = []
        for b in (BASIS_X, BASIS_P):
            mask = basis == b
            if keep is not None:
                mask &= keep
            rec = np.empty((3, np.count_nonzero(mask)))
            for row, col in zip(rec, cols):
                np.compress(mask, col, out=row)
            if filt is not None:
                rec[1:] /= filt.gain
            kept.append(rec)
        if centres is None:  # per basis: the count, then each column's sum
            sums = np.array([[rec.shape[1], *rec.sum(axis=1)] for rec in kept])
            centres = sums[:, 1:] / np.maximum(sums[:, :1], 1.0)
            centres[:, 1:] = sums[:, 2:].sum(axis=0) / max(sums[:, 0].sum(), 1.0)
        for q, centre, rec in zip(grams, centres, kept):
            _add_gram(q, rec, centre[:, None], work.blocks)
    return Ensemble(*map(Moments, centres, grams))


def reconstruct_covariance(batch: QuadratureBatch, min_accepted: int = MIN_ACCEPTED):
    """(covariance estimate, standard errors) from a batch's accepted records
    (every record if it has no accepted column), in any basis order; see
    :meth:`Ensemble.covariance`, from one pass over the pieces
    (:func:`_batch_ensemble`)."""
    return _batch_ensemble(_pieces(batch)).covariance(min_accepted)


# --- CSV interface ------------------------------------------------------------

BATCH_HEADER = "idx,alice_basis,alice_value,bob_x,bob_p,accepted"
_BASIS_CHARS = ("X", "P")


def write_batch_csv(batch: QuadratureBatch, path) -> None:
    acc = batch.accepted if batch.accepted is not None else np.ones(len(batch), dtype=bool)
    cols = (batch.alice_basis, batch.alice_value, batch.bob_x, batch.bob_p, acc.astype(int))
    with open(path, "w") as fh:
        fh.write(BATCH_HEADER + "\n")
        # plain-float repr is the shortest exact round-trip representation
        fh.writelines(f"{i},{_BASIS_CHARS[b]},{a!r},{x!r},{p!r},{f}\n"
                      for i, (b, a, x, p, f) in enumerate(zip(*(c.tolist() for c in cols))))


# ``idx`` is not checked.  The text columns are two bytes wide, so no
# truncation lets a longer value such as "XX" compare equal to "X".
_RECORD_DTYPE = [("idx", "U1"), ("alice_basis", "S2"), ("alice_value", "f8"),
                 ("bob_x", "f8"), ("bob_p", "f8"), ("accepted", "S2")]


def _records(source, dtype, max_rows: int | None = None) -> np.ndarray:
    """Parse a handle's next ``max_rows`` records (every one if None) or a
    list of lines with numpy's C reader and check the text columns; raises
    ValueError."""
    with warnings.catch_warnings():  # the end of the file; a skipped empty line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", "Input line .* contained no data")
        rec = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                         max_rows=max_rows, encoding="utf-8", ndmin=1)
    for name, a, b in (("alice_basis", b"X", b"P"), ("accepted", b"0", b"1")):
        if name in rec.dtype.names and not np.all((rec[name] == a) | (rec[name] == b)):
            raise ValueError(f"{name} must be {a.decode()} or {b.decode()}")
    return rec


def _line_error(path, dtype) -> BatchSchemaError | None:
    """Rescan ``path`` for the first record line that is not UTF-8, holds a
    NUL byte or that :func:`_records` refuses on its own, and name its
    1-based file line.  Blocks of lines are halved down to that line.  Only
    the error path runs this."""

    def first_bad(block):
        lines = [line for _, line in block]
        try:
            text = "".join(lines)
            text.encode("utf-8")  # bytes that are not UTF-8 were escaped
            if "\0" in text:
                raise ValueError("NUL byte")
            _records(lines, dtype)
            return None
        except ValueError as err:
            if len(block) == 1:
                return block[0], err
        half = len(block) // 2
        return first_bad(block[:half]) or first_bad(block[half:])

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = ((n, line) for n, line in enumerate(fh, start=1) if n > 1 and line != "\n")
        while block := list(itertools.islice(lines, 4096)):
            if found := first_bad(block):
                (lineno, line), err = found
                line = line.rstrip("\n")
                n_fields = line.count(",") + 1
                if isinstance(err, UnicodeError):
                    reason = "not valid UTF-8"
                elif "\0" in line:
                    reason = "contains a NUL byte"
                elif n_fields != len(dtype):
                    reason = f"expected {len(dtype)} fields, got {n_fields}"
                else:  # numpy's message, less its row within the one-line block
                    reason = str(err).split(" at row ")[0]
                return BatchSchemaError(f"line {lineno}: {reason}: {line[:80]!r}")
    return None


def _has_nul(path) -> bool:
    """Whether the file holds a NUL byte, which numpy's fixed-width strings
    would drop from the end of a basis letter or flag."""
    with open(path, "rb") as fh:
        return any(b"\0" in block for block in iter(lambda: fh.read(1 << 20), b""))


_PARSE_ROWS = 4096  # records per np.loadtxt call; divides SUB
_VALUES = ("alice_value", "bob_x", "bob_p")


def _parse_block(fh, dtype, basis, values, accepted) -> int:
    """Parse up to ``_PARSE_ROWS`` records from ``fh`` into the heads of the
    piece buffers; returns their count.  The parsed block is freed on
    return, before the piece is filtered or the next block parsed."""
    rec = _records(fh, dtype, _PARSE_ROWS)
    n = len(rec)
    np.equal(rec["alice_basis"], b"P", out=basis[:n])  # BASIS_X 0, BASIS_P 1
    for row, name in zip(values, _VALUES):
        row[:n] = rec[name]
    if accepted is not None:
        np.equal(rec["accepted"], b"1", out=accepted[:n])
    return n


def _read_pieces(path):
    """Yield a quadrature CSV's records, after the checks :func:`read_batch_csv`
    documents, in pieces of SUB records in file order, all but the last in
    full: (alice_basis, alice_value, bob_x, bob_p, accepted) views of buffers
    the next piece overwrites, accepted None without that column.  The file
    is parsed from one strict UTF-8 handle ``_PARSE_ROWS`` records at a
    time, so memory is O(SUB) at any record count.  The refusals come in a
    whole-file read's order: a refused line anywhere, "no records", then the
    value rules in ``_VALUES`` order, each naming its column's first
    non-finite record and the file's count of them.  So the last two are
    checked after the last line, and no piece is yielded from the first
    non-finite value on."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
    cols = header.split(",")
    if cols not in (BATCH_HEADER.split(",")[:5], BATCH_HEADER.split(",")):
        raise BatchSchemaError(f"line 1: bad header {header!r}")
    dtype = _RECORD_DTYPE[:len(cols)]
    basis, values = np.empty(SUB, dtype=np.uint8), np.empty((len(_VALUES), SUB))
    accepted = np.empty(SUB, dtype=bool) if len(cols) == 6 else None
    n, bad = 0, {}  # column -> [first non-finite record, its value, count]
    try:
        if _has_nul(path):
            raise ValueError("NUL byte")
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            m = SUB
            while m == SUB:  # until a piece comes out short
                m = 0
                while m < SUB and (k := _parse_block(fh, dtype, basis[m:], values[:, m:],
                                                     None if accepted is None else accepted[m:])):
                    m += k
                for row, name in zip(values[:, :m], _VALUES):
                    if not np.isfinite(row).all():
                        where = np.flatnonzero(~np.isfinite(row))
                        bad.setdefault(name, [n + where[0], row[where[0]], 0])[2] += where.size
                if m and not bad:
                    yield (basis[:m], *values[:, :m], None if accepted is None else accepted[:m])
                n += m
    except ValueError as exc:  # UnicodeDecodeError is one
        raise _line_error(path, dtype) or BatchSchemaError(str(exc)) from exc
    if not n:
        raise BatchSchemaError("file contains no records")
    for name in _VALUES:
        if name in bad:
            raise _non_finite(name, *bad[name])


def read_batch_csv(path) -> QuadratureBatch:
    """Read records; the ``accepted`` column is optional (raw external data).

    Checks: the file is UTF-8 text (any line ends) without NUL bytes; line 1
    is the header ``idx,alice_basis,alice_value,bob_x,bob_p[,accepted]``;
    every other line is empty (skipped) or a record of exactly the header's
    fields, with basis ``X`` or ``P``, values in numpy's float syntax
    (Python's, without underscores or non-ASCII digits; spaces around a value
    are allowed) and flag ``0`` or ``1``; there is no comment character.  A
    refused line is named by its 1-based file line.  The file must hold a
    record, and a non-finite value is refused, named by its record's 0-based
    position, as in the ``idx`` column :func:`write_batch_csv` writes.

    The batch is the pieces of :func:`_read_pieces` concatenated, the one
    reader ``ingest`` streams its file through.
    """
    pieces = [[None if col is None else col.copy() for col in piece]
              for piece in _read_pieces(path)]
    return QuadratureBatch(*(None if col[0] is None else np.concatenate(col)
                             for col in zip(*pieces)))
