"""Output checks run on the CSVs of every benchmark repetition.

* Analytic columns and region labels are compared with a reference recorded
  from the program (``bench/reference``): labels exactly, numbers within
  ``RTOL * |ref| + ATOL``.  That admits the exact one-sided amplifier, which
  moves these outputs by at most 3.1e-10 absolute, and is tighter than the
  acceptance gate's 1e-6.
* Monte Carlo and ingest values must lie within ``K_SE`` standard errors of
  the exact finite-cutoff target that the harness computes with
  ``filtered_ensemble``; acceptance rates use the binomial standard error.
  The ideal-amplifier columns are not a target: at a finite cutoff the
  sampled ensemble converges elsewhere.
* A filtered Monte Carlo value may be left empty only where a correct
  program plausibly fails to reconstruct it (``may_be_empty``); any other
  empty value, and any empty unfiltered value, is an extra empty point and
  fails.

The targets, like the ingest input (``workloads.make_ingest_input``), come
from the frozen copy of the package in ``bench/baseline``, never from the
program under test: a bug in the program must not move its own target.

A grid point fails when any of its checks fails.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np
import steerdist
from steerdist.experiments import MC_MIN_ACCEPTED
from steerdist.gaussian import symplectic_eigenvalues

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_SRC = os.path.join(HERE, "baseline")
REFERENCE_DIR = os.path.join(HERE, "reference")

if not os.path.abspath(steerdist.__file__).startswith(BASELINE_SRC + os.sep):
    raise ImportError(f"the output checks need the frozen copy in {BASELINE_SRC} "
                      f"first on sys.path, not {steerdist.__file__}")

RTOL = 1e-6
ATOL = 1e-9
K_SE = 6.0
Z_EMPTY = 4.0

# (workload, output file) -> columns kept in the recorded reference
REFERENCE_COLUMNS = {
    ("analytic_sweep", "regions_c.csv"): ("g", "loss", "region"),
    ("analytic_sweep", "fig3a.csv"): ("loss", "g_a2b_raw", "g_b2a_raw", "g_a2b_nla",
                                      "g_b2a_nla", "acceptance_rate"),
    ("mc_sweep", "fig3a.csv"): ("loss", "g_a2b_raw", "g_b2a_raw", "g_a2b_nla",
                                "g_b2a_nla", "acceptance_rate"),
    ("mc_refilter", "fig4.csv"): ("g", "key_rate", "v_x_cond", "v_p_cond",
                                  "acceptance_rate", "key_rate_pure_6db"),
}


@dataclass
class CheckResult:
    attempted: int = 0
    failed: set = field(default_factory=set)   # indices of failed grid points
    empty: int = 0                             # points left empty, as allowed
    problems: list = field(default_factory=list)

    def fail(self, point: int, message: str) -> None:
        self.failed.add(point)
        if len(self.problems) < 20:
            self.problems.append(message)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close_to(got: str, ref: str) -> bool:
    if ref == "" or got == "":
        return got == ref
    g, r = float(got), float(ref)
    return abs(g - r) <= RTOL * abs(r) + ATOL


def compare_reference(result: CheckResult, rows: list[dict], workload: str,
                      name: str, offset: int = 0) -> int:
    """Check the recorded columns of ``rows`` against the reference file;
    returns the number of reference rows."""
    ref_rows = read_rows(os.path.join(REFERENCE_DIR, workload, name))
    if len(rows) != len(ref_rows):
        for i in range(len(ref_rows)):
            result.fail(offset + i, f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
        return len(ref_rows)
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, want in ref.items():
            got = row.get(col)
            ok = got == want if col == "region" else got is not None and close_to(got, want)
            if not ok:
                result.fail(offset + i, f"{name} row {i + 1} {col}: {got!r} vs reference {want!r}")
    return len(ref_rows)


def within_se(got: str, target: float, se: float) -> bool:
    if got == "" or not math.isfinite(se):
        return False
    return abs(float(got) - target) <= K_SE * se


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def may_be_empty(cov: np.ndarray, rate: float, n: int) -> bool:
    """Whether a correct program may leave a filtered Monte Carlo value empty.

    The runners leave it empty on a ``ReconstructionError``: fewer than
    ``MC_MIN_ACCEPTED`` accepted records, or an estimate that is not positive
    definite or is unphysical beyond the tolerance of 5 entry standard errors.
    So an empty value is allowed where the expected accepted count is within
    ``K_SE`` Poisson standard errors of the minimum, or where the exact
    covariance ``cov`` lies within ``Z_EMPTY`` entry standard errors of either
    boundary.  The entry standard error is taken as the largest variance times
    2 / sqrt(expected accepted count), its order for a Gaussian sample.
    """
    expected = rate * n
    if expected - K_SE * math.sqrt(expected) < MC_MIN_ACCEPTED:
        return True
    se = 2.0 * float(np.max(np.diag(cov))) / math.sqrt(expected)
    if float(np.linalg.eigvalsh(cov)[0]) < Z_EMPTY * se:
        return True
    return float(symplectic_eigenvalues(cov)[0]) < 1.0 - 5.0 * se + Z_EMPTY * se


# --- targets from the exact filtered ensemble ----------------------------------

def _state(config):
    from steerdist.experiments import model_state
    return model_state(config)


def fig3a_targets(config, loss: float) -> dict:
    from steerdist.channels import ChannelSpec
    from steerdist.cutoff import cutoff_from_table
    from steerdist.filtered_moments import filtered_ensemble
    from steerdist.gaussian import from_cov
    from steerdist.measurement import FilterSpec
    from steerdist.steering import steerability

    out = ChannelSpec(loss, 0.0, config.noise_model).apply(_state(config))
    filt = FilterSpec(config.gain, cutoff_from_table(loss, config.gain))
    ens = filtered_ensemble(out, filt)
    accepted = from_cov(ens.cov)
    return {
        "mc_g_a2b_raw": steerability(out, "a_to_b"),
        "mc_g_b2a_raw": steerability(out, "b_to_a"),
        # the truncated ensemble need not be a bona fide state
        "mc_g_a2b_nla": steerability(accepted, "a_to_b", physicality_tol=np.inf),
        "mc_g_b2a_nla": steerability(accepted, "b_to_a", physicality_tol=np.inf),
        "mc_acceptance_rate": ens.acceptance_rate,
        "cov": ens.cov,
    }


def fig4_targets(config, g: float) -> dict:
    from steerdist.channels import ChannelSpec
    from steerdist.filtered_moments import filtered_ensemble
    from steerdist.measurement import FilterSpec
    from steerdist.qkd import key_rate

    out = _state(config)
    if config.loss > 0:
        out = ChannelSpec(config.loss, config.excess_noise, config.noise_model).apply(out)
    if g == 1.0:
        return {"mc_key_rate": key_rate(out.cov).key_rate, "mc_acceptance_rate": 1.0,
                "cov": out.cov}
    ens = filtered_ensemble(out, FilterSpec(g, config.cutoff))
    return {"mc_key_rate": key_rate(ens.cov, physicality_tol=np.inf).key_rate,
            "mc_acceptance_rate": ens.acceptance_rate, "cov": ens.cov}


# --- per-workload checks -------------------------------------------------------

def check_analytic_sweep(out_dir: str, config) -> CheckResult:
    result = CheckResult()
    for name in ("regions_c.csv", "fig3a.csv"):
        result.attempted += compare_reference(
            result, read_rows(os.path.join(out_dir, name)), "analytic_sweep", name,
            result.attempted)
    return result


def check_mc_sweep(out_dir: str, config) -> CheckResult:
    rows = read_rows(os.path.join(out_dir, "fig3a.csv"))
    result = CheckResult(attempted=len(config.loss_grid))
    compare_reference(result, rows, "mc_sweep", "fig3a.csv")
    if len(rows) != result.attempted:
        return result
    n = config.samples
    # targets use the config's grid values: the CSV's rounded text can fall on
    # the other side of a cutoff-table midpoint
    for i, row in enumerate(rows):
        target = fig3a_targets(config, float(config.loss_grid[i]))
        rate = target["mc_acceptance_rate"]
        if not within_se(row["mc_acceptance_rate"], rate, binomial_se(rate, n)):
            result.fail(i, f"fig3a row {i + 1} mc_acceptance_rate "
                           f"{row['mc_acceptance_rate']!r}, exact {rate:.6g}")
        allow_nla_empty = may_be_empty(target["cov"], rate, n)
        empty = False
        for direction in ("a2b", "b2a"):
            for kind, allow_empty in (("raw", False), ("nla", allow_nla_empty)):
                col = f"mc_g_{direction}_{kind}"
                got, se = row[col], row[f"se_g_{direction}_{kind}"]
                if got == "" and se == "" and allow_empty:
                    empty = True
                    continue
                if got == "" or se == "" or not within_se(got, target[col], float(se)):
                    result.fail(i, f"fig3a row {i + 1} {col} {got!r} +- {se!r}, "
                                   f"exact {target[col]:.6g}")
        result.empty += empty
    return result


def check_mc_refilter(out_dir: str, config) -> CheckResult:
    rows = read_rows(os.path.join(out_dir, "fig4.csv"))
    result = CheckResult(attempted=len(config.fig4_g_grid))
    compare_reference(result, rows, "mc_refilter", "fig4.csv")
    if len(rows) != result.attempted:
        return result
    n = config.samples
    for i, row in enumerate(rows):
        target = fig4_targets(config, float(config.fig4_g_grid[i]))
        rate = target["mc_acceptance_rate"]
        if not within_se(row["mc_acceptance_rate"], rate, binomial_se(rate, n)):
            result.fail(i, f"fig4 row {i + 1} mc_acceptance_rate "
                           f"{row['mc_acceptance_rate']!r}, exact {rate:.6g}")
        got, se = row["mc_key_rate"], row["se_key_rate"]
        if got == "" and se == "" and may_be_empty(target["cov"], rate, n):
            result.empty += 1
        elif got == "" or se == "" or not within_se(got, target["mc_key_rate"], float(se)):
            result.fail(i, f"fig4 row {i + 1} mc_key_rate {got!r} +- {se!r}, "
                           f"exact {target['mc_key_rate']:.6g}")
    return result


def check_ingest_file(out_dir: str, config) -> CheckResult:
    from steerdist.filtered_moments import filtered_ensemble
    from steerdist.gaussian import from_cov
    from steerdist.measurement import FilterSpec
    from steerdist.qkd import key_rate
    from steerdist.steering import steerability
    from workloads import INGEST_RECORDS, ingest_state

    result = CheckResult(attempted=1)
    report = {r["quantity"]: r for r in read_rows(os.path.join(out_dir, "ingest_report.csv"))}
    if not os.path.exists(os.path.join(out_dir, "ingest_cov.txt")):
        result.fail(0, "ingest_cov.txt missing")
    ens = filtered_ensemble(ingest_state(), FilterSpec(config.gain, config.cutoff))
    accepted = from_cov(ens.cov)
    targets = {
        "g_a_to_b": steerability(accepted, "a_to_b", physicality_tol=np.inf),
        "g_b_to_a": steerability(accepted, "b_to_a", physicality_tol=np.inf),
        "key_rate": key_rate(ens.cov, physicality_tol=np.inf).key_rate,
    }
    try:
        n = int(report["n_records"]["value"])
        n_acc = int(report["n_accepted"]["value"])
        rate = float(report["acceptance_rate"]["value"])
        if n != INGEST_RECORDS or n_acc != round(rate * n):
            result.fail(0, f"counts: n_records {n} (file {INGEST_RECORDS}), "
                           f"n_accepted {n_acc}, rate {rate}")
        p = ens.acceptance_rate
        if not within_se(report["acceptance_rate"]["value"], p, binomial_se(p, INGEST_RECORDS)):
            result.fail(0, f"acceptance_rate {rate}, exact {p:.6g}")
        for quantity, target in targets.items():
            got, se = report[quantity]["value"], report[quantity]["se"]
            if se == "" or not within_se(got, target, float(se)):
                result.fail(0, f"{quantity} {got!r} +- {se!r}, exact {target:.6g}")
    except (KeyError, ValueError) as exc:
        result.fail(0, f"ingest report unreadable: {exc!r}")
    return result


CHECKS = {
    "analytic_sweep": check_analytic_sweep,
    "mc_sweep": check_mc_sweep,
    "mc_refilter": check_mc_refilter,
    "ingest_file": check_ingest_file,
}


def check_outputs(workload: str, out_dir: str, config) -> CheckResult:
    """Run the workload's check; a missing or unreadable output fails every point."""
    try:
        return CHECKS[workload](out_dir, config)
    except (OSError, KeyError, ValueError) as exc:
        result = CheckResult(attempted=expected_points(workload, config))
        for i in range(result.attempted):
            result.fail(i, f"outputs unreadable: {exc!r}")
        return result


def expected_points(workload: str, config) -> int:
    if workload == "analytic_sweep":
        return sum(len(read_rows(os.path.join(REFERENCE_DIR, workload, name)))
                   for name in ("regions_c.csv", "fig3a.csv"))
    if workload == "mc_sweep":
        return len(config.loss_grid)
    if workload == "mc_refilter":
        return len(config.fig4_g_grid)
    return 1
