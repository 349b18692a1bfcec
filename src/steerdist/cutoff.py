"""Optimal-cutoff search: the smallest |beta_c| whose accepted ensemble is
Gaussian and whose steering matches the ideal amplifier.

The two published conditions -- accepted data Gaussian (skewness near 0,
kurtosis near 3) and steering of the accepted data close to that of the
ideally amplified state -- are evaluated on the exact accepted-ensemble
statistics (:mod:`steerdist.filtered_moments`) rather than on a finite
sample.  A sampled run cannot certify them in the low-loss/high-gain corner:
at loss 0, g = 1.25 the acceptance rate at the published optimum is about
8e-6, so 1e6 raw samples leave ~8 accepted records.  The exact criteria are
deterministic and reproduce the published 5x5 cutoff table within one half
grid step in every cell.  The whole cutoff grid of a cell is evaluated in
one pass of the stack kernels; the trace keeps the points up to and
including the first that passes, as a point-by-point scan would.

The accepted ensemble of a Gaussian state is symmetric about zero, so its
exact skewness is 0 and only the kurtosis can fail the Gaussianity
condition.  The search samples nothing; the sampled pipeline is checked
against these exact moments by the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .channels import ChannelSpec
from .filtered_moments import filtered_ensemble_stack
from .gaussian import (
    MAX_GRID_POINTS,
    GaussianState,
    InputError,
    NumericalError,
    _raise_first,
    _require_positive,
    require_cov_stack,
)
from .nla import _check_gains, nla_single_mode_stack
from .steering import DIRECTIONS, _signed_1p1, steerability_stack

# Calibrated defaults: with the exact criteria, (kurt_tol, steering_tol) =
# (0.05, 0.005) lands every cell of the published table within +-0.5 and
# keeps both monotone trends; looser pairs push the low-gain column down.
DEFAULT_KURT_TOL = 0.05
DEFAULT_STEERING_TOL = 0.005


@dataclass(frozen=True)
class CutoffCriteria:
    kurt_tol: float = DEFAULT_KURT_TOL
    steering_tol: float = DEFAULT_STEERING_TOL
    grid_step: float = 0.25
    grid_min: float = 1.0
    grid_max: float = 10.0

    def __post_init__(self):
        for name in ("kurt_tol", "steering_tol", "grid_step"):
            _require_positive(getattr(self, name), name)
        if not 0 < self.grid_min <= self.grid_max < np.inf:  # written to refuse NaN
            raise InputError(f"need 0 < grid_min <= grid_max < inf, got {self.grid_min}, "
                             f"{self.grid_max}")
        if not (self.grid_max - self.grid_min) / self.grid_step < MAX_GRID_POINTS - 0.5:
            raise InputError(f"cutoff grid has more than {MAX_GRID_POINTS} points, got {self}")


class CutoffSearchError(NumericalError):
    """No cutoff on the grid meets the criteria; ``trace`` holds the scan."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass
class CutoffDiagnostics:
    beta_c: float
    acceptance_rate: float
    kurtosis: float
    steering_err_a_to_b: float
    steering_err_b_to_a: float
    trace: list = field(default_factory=list)  # one dict per scanned grid point


@dataclass(frozen=True)
class CutoffScan:
    """The cutoff grid of every cell of a stack, evaluated in one pass.

    ``beta_c`` has one entry per cell (NaN where no cutoff passes), as do
    ``ref_a_to_b`` and ``ref_b_to_a``, the steering of the ideally amplified
    cell that the steering errors are measured against; the other arrays
    are (cells, grid points).  A steering error is inf where the accepted
    ensemble is not evaluable.
    """

    criteria: CutoffCriteria
    gains: np.ndarray
    grid: np.ndarray
    beta_c: np.ndarray
    ref_a_to_b: np.ndarray
    ref_b_to_a: np.ndarray
    rates: np.ndarray
    kurtosis: np.ndarray
    err_a_to_b: np.ndarray
    err_b_to_a: np.ndarray
    passed: np.ndarray

    def trace(self, i: int) -> list:
        """Cell i's scan up to and including its first passing point (the
        whole grid when none passes), one dict per point."""
        last = int(np.argmax(self.passed[i])) if self.passed[i].any() else len(self.grid) - 1
        return [
            {"beta_c": float(self.grid[j]), "acceptance_rate": float(self.rates[i, j]),
             "kurtosis": float(self.kurtosis[i, j]), "skewness": 0.0,
             "steering_err_a_to_b": float(self.err_a_to_b[i, j]),
             "steering_err_b_to_a": float(self.err_b_to_a[i, j]),
             "passed": bool(self.passed[i, j])}
            for j in range(last + 1)
        ]

    def require(self, losses) -> None:
        """Raise :class:`CutoffSearchError` for the first cell with no passing
        cutoff, tagged as ``exc.cell``; ``losses[i]`` names cell i."""
        _raise_first(np.isnan(self.beta_c), lambda i: CutoffSearchError(
            f"no cutoff in [{self.criteria.grid_min}, {self.criteria.grid_max}] meets the "
            f"criteria for loss={losses[i]}, g={self.gains[i]}",
            self.trace(i),
        ))


def select_cutoff_stack(outs: np.ndarray, gains,
                        criteria: CutoffCriteria = CutoffCriteria()) -> CutoffScan:
    """Cutoff scan of a (N, 4, 4) stack of channel outputs; ``gains`` is a
    scalar or a length-N array.

    Every (cell, cutoff) pair is one row of a single
    :func:`filtered_ensemble_stack` call.  A cell whose checks fail raises,
    tagged with its index; a cell with no passing cutoff does not (see
    :meth:`CutoffScan.require`).
    """
    outs = require_cov_stack(outs)
    n = len(outs)
    gains = np.asarray(gains, dtype=float)
    _check_gains(gains)
    _raise_first(gains == 1.0, lambda i: InputError(
        f"cutoff selection needs g > 1, got {gains.flat[i]}"))
    gains = np.broadcast_to(gains, (n,))
    gab_ref, gba_ref = steerability_stack(nla_single_mode_stack(outs, gains))

    grid = np.arange(criteria.grid_min, criteria.grid_max + 1e-9, criteria.grid_step)
    size = len(grid)
    try:
        rates, covs, kurts = filtered_ensemble_stack(
            np.repeat(outs, size, axis=0), np.repeat(gains, size), np.tile(grid, n))
    except Exception as exc:  # name the cell, not its row
        if getattr(exc, "cell", None) is not None:
            exc.cell //= size
        raise
    # a heavily truncated ensemble can fail the bona-fide condition outright;
    # evaluate steering as a plain moment functional and count non-evaluable
    # points as failures
    (gab, _, ok_ab), (gba, _, ok_ba) = (_signed_1p1(covs, d) for d in DIRECTIONS)
    evaluable = (ok_ab & ok_ba).reshape(n, size)
    err_ab = np.where(evaluable, np.abs(np.maximum(gab, 0.0).reshape(n, size)
                                        - gab_ref[:, None]), np.inf)
    err_ba = np.where(evaluable, np.abs(np.maximum(gba, 0.0).reshape(n, size)
                                        - gba_ref[:, None]), np.inf)
    kurts = kurts.reshape(n, size)
    passed = (evaluable & (np.abs(kurts - 3.0) < criteria.kurt_tol)
              & (err_ab < criteria.steering_tol) & (err_ba < criteria.steering_tol))
    beta_c = np.where(passed.any(axis=1), grid[np.argmax(passed, axis=1)], np.nan)
    return CutoffScan(criteria, gains, grid, beta_c, gab_ref, gba_ref, rates.reshape(n, size),
                      kurts, err_ab, err_ba, passed)


def select_cutoff(
    state: GaussianState,
    channel: ChannelSpec,
    g: float,
    criteria: CutoffCriteria = CutoffCriteria(),
):
    """Smallest grid cutoff meeting the Gaussianity and steering criteria.

    Returns (beta_c, diagnostics).  Raises :class:`CutoffSearchError` with
    the full scan trace when no grid point passes.
    """
    scan = select_cutoff_stack(channel.apply(state).cov[None], g, criteria)
    scan.require([channel.loss])
    trace = scan.trace(0)
    chosen = {k: v for k, v in trace[-1].items() if k not in ("skewness", "passed")}
    return chosen["beta_c"], CutoffDiagnostics(**chosen, trace=trace)


def reference_cutoff_table() -> dict:
    """Published 5x5 optimal-cutoff table as {(loss, g): beta_c}."""
    table = {}
    ref = resources.files("steerdist.data").joinpath("table_s1_reference.csv")
    with ref.open() as fh:
        for row in csv.DictReader(fh):
            table[(float(row["loss"]), float(row["g"]))] = float(row["beta_c"])
    return table


def cutoff_from_table(loss, g, table: dict | None = None):
    """Nearest-grid lookup in the reference table (no interpolation), a
    float for one (loss, g) pair or an array for broadcast arrays of them.
    Each value snaps to the nearest grid value in floating point (0.3 to
    0.2); only an exact float tie takes the smaller.  ``table`` maps every
    (loss, g) of its grid to a cutoff."""
    loss, g = np.broadcast_arrays(np.asarray(loss, dtype=float), np.asarray(g, dtype=float))
    _raise_first(~(np.isfinite(loss) & np.isfinite(g)), lambda i: InputError(
        f"loss and gain must be finite, got loss {loss.flat[i]}, gain {g.flat[i]}"))
    if table is None:
        table = reference_cutoff_table()
    axes = [sorted({k[a] for k in table}) for a in (0, 1)]
    i, j = (np.argmin(np.abs(v[..., None] - axis), axis=-1) for v, axis in zip((loss, g), axes))
    out = np.array([[table[(x, y)] for y in axes[1]] for x in axes[0]])[i, j]
    return float(out) if out.ndim == 0 else out
