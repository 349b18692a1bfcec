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
from .gaussian import GaussianState
from .nla import nla_single_mode
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class CutoffSearchError(RuntimeError):
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
    if g <= 1.0:
        raise ValueError(f"cutoff selection needs g > 1, got {g}")
    out = channel.apply(state)
    ideal = nla_single_mode(out.cov, g)
    gab_ref, gba_ref = (float(v[0]) for v in steerability_stack(ideal[None]))

    grid = np.arange(criteria.grid_min, criteria.grid_max + 1e-9, criteria.grid_step)
    rates, covs, kurts = filtered_ensemble_stack(
        np.broadcast_to(out.cov, (len(grid), 4, 4)), g, grid)
    # a heavily truncated ensemble can fail the bona-fide condition outright;
    # evaluate steering as a plain moment functional and count non-evaluable
    # points as failures
    (gab, ok_ab), (gba, ok_ba) = (_signed_1p1(covs, d) for d in DIRECTIONS)
    evaluable = ok_ab & ok_ba
    err_ab = np.where(evaluable, np.abs(np.maximum(gab, 0.0) - gab_ref), np.inf)
    err_ba = np.where(evaluable, np.abs(np.maximum(gba, 0.0) - gba_ref), np.inf)
    passed = (evaluable & (np.abs(kurts - 3.0) < criteria.kurt_tol)
              & (err_ab < criteria.steering_tol) & (err_ba < criteria.steering_tol))
    last = int(np.argmax(passed)) if passed.any() else len(grid) - 1
    trace = [
        {"beta_c": float(grid[i]), "acceptance_rate": float(rates[i]),
         "kurtosis": float(kurts[i]), "skewness": 0.0,
         "steering_err_a_to_b": float(err_ab[i]), "steering_err_b_to_a": float(err_ba[i]),
         "passed": bool(passed[i])}
        for i in range(last + 1)
    ]
    if not passed.any():
        raise CutoffSearchError(
            f"no cutoff in [{criteria.grid_min}, {criteria.grid_max}] meets the "
            f"criteria for loss={channel.loss}, g={g}",
            trace,
        )
    chosen = trace[-1]
    return chosen["beta_c"], CutoffDiagnostics(
        beta_c=chosen["beta_c"],
        acceptance_rate=chosen["acceptance_rate"],
        kurtosis=chosen["kurtosis"],
        steering_err_a_to_b=chosen["steering_err_a_to_b"],
        steering_err_b_to_a=chosen["steering_err_b_to_a"],
        trace=trace,
    )


def reference_cutoff_table() -> dict:
    """Published 5x5 optimal-cutoff table as {(loss, g): beta_c}."""
    table = {}
    ref = resources.files("steerdist.data").joinpath("table_s1_reference.csv")
    with ref.open() as fh:
        for row in csv.DictReader(fh):
            table[(float(row["loss"]), float(row["g"]))] = float(row["beta_c"])
    return table


def cutoff_from_table(loss: float, g: float, table: dict | None = None) -> float:
    """Nearest-grid lookup in the reference table (no interpolation)."""
    if table is None:
        table = reference_cutoff_table()
    losses = sorted({k[0] for k in table})
    gains = sorted({k[1] for k in table})
    nearest_loss = min(losses, key=lambda x: abs(x - loss))
    nearest_g = min(gains, key=lambda x: abs(x - g))
    return table[(nearest_loss, nearest_g)]
