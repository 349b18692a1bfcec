"""Figure/table reproduction runners with CSV output.

Column conventions across runners:

* ``analytic`` mode fills the main columns from the covariance pipeline
  (exact acceptance rates from the filtered-ensemble engine); SE columns are
  left empty.
* ``monte_carlo`` mode fills the main columns from the sampling pipeline and
  appends standard-error columns.
* ``both`` keeps analytic values in the main columns and adds ``mc_*`` and
  ``se_*`` columns, which is what the analytic/Monte-Carlo regression gate
  consumes.

Every runner is deterministic given (config, seed): re-running writes
byte-identical CSVs.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from . import svgplot
from .channels import ChannelSpec, channel_stack
from .config import ExperimentConfig
from .cutoff import cutoff_from_table, reference_cutoff_table, select_cutoff_stack
from .filtered_moments import filtered_ensemble, filtered_ensemble_stack
from .gaussian import (
    GaussianState,
    InputError,
    NumericalError,
    _raise_first,
    save_cov,
    tmss_standard,
)
from .measurement import (
    BatchSchemaError,
    FilterSpec,
    _batch_ensemble,
    covariance_stack,
    read_batch_csv,
    reconstruct_covariance,
    sample_batch,
    sample_grid,
)
from .nla import nla_single_mode, nla_single_mode_stack
from .qkd import _filtered_key_rate_stack, key_rate, key_rate_with_se_stack, min_gain_for_key
from .steering import classify_stack, steerability_stack, steerability_with_se_stack

TABLE_GAINS = (1.05, 1.10, 1.15, 1.20, 1.25)
TABLE_LOSSES = (0.0, 0.2, 0.4, 0.6, 0.8)

# Monte Carlo points keep working below the analytic reconstruction contract;
# the standard errors carry the (large) uncertainty there.
MC_MIN_ACCEPTED = 200

# fig-s2 samples a cell's higher moments only when at least this many
# records are expected to pass its filter.
FIG_S2_MIN_EXPECTED = 2000


def derive_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def _write_output(config: ExperimentConfig, name: str, header, rows) -> str:
    """Write the CSV ``name`` into the output directory; returns its path."""
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    return path


def model_state(config: ExperimentConfig) -> GaussianState:
    return tmss_standard(config.squeeze_db, config.antisqueeze_db)


def _noisy_excess(config: ExperimentConfig, command: str) -> float:
    """The excess noise of the noisy channel, which ``command`` requires > 0."""
    if config.excess_noise <= 0.0:
        raise InputError(f"{command} requires channel.excess_noise > 0")
    return config.excess_noise


def _in_grid_order(chain, n_cells: int):
    """Run ``chain(n)``, which evaluates the first n cells of a grid with the
    stack kernels, on all cells.

    A kernel raises at the first cell it rejects, tagged as ``exc.cell``, but
    a later stage may reject an earlier cell.  Re-running the cells in front
    of the failing one raises that earlier failure instead, so the error is
    the one a cell-by-cell loop meets first.
    """
    try:
        return chain(n_cells)
    except Exception as exc:
        if getattr(exc, "cell", None):
            _in_grid_order(chain, exc.cell)
        raise


def _table_cutoffs(losses, gains) -> list:
    """The published cutoff of each (loss, gain) cell."""
    table = reference_cutoff_table()
    return [cutoff_from_table(loss, g, table) for loss, g in zip(losses, gains)]


def _fig3_cutoffs(config, outs, losses):
    """(cutoffs, (G_A->B, G_B->A) of the ideally amplified outputs,
    acceptance rates at the cutoffs) of fig3's cells.  The last two are None
    unless the cutoff search computed them on its way."""
    if config.cutoff_source == "config":
        return [config.cutoff] * len(losses), None, None
    if config.cutoff_source == "table":
        return _table_cutoffs(losses, [config.gain] * len(losses)), None, None
    scan = select_cutoff_stack(outs, config.gain)
    scan.require(losses)
    chosen = np.argmax(scan.passed, axis=1)
    return (scan.beta_c.tolist(), (scan.ref_a_to_b, scan.ref_b_to_a),
            scan.rates[np.arange(len(losses)), chosen])


def _left_empty(where: str, reason) -> None:
    print(f"{where} Monte Carlo value left empty: {reason}", file=sys.stderr)


def _mc_values(points, kernel, where, raw: bool = False):
    """The Monte Carlo values of a grid's points, each a tuple of equally
    many ensembles (with ``raw``, the raw ensemble first), from one
    :func:`covariance_stack` call and one stack ``kernel`` call: per point,
    the kernel's values of each of its ensembles in turn, None in place of
    those of a refused ensemble, with one line on standard error per refused
    ensemble, in grid order.  A refused raw ensemble, or a matrix the kernel
    refuses, raises tagged with its point as ``cell``."""
    flat = [e for point in points for e in point]
    width = len(flat) // max(len(points), 1)
    covs, ses, errors = covariance_stack(flat, MC_MIN_ACCEPTED)
    if raw:
        _raise_first([e is not None for e in errors[::width]], lambda i: errors[width * i])
    try:
        vals = np.column_stack(kernel(covs, ses)).tolist()
    except NumericalError as exc:  # matrices in point order
        exc.cell //= width
        raise
    for j, error in enumerate(errors):
        if error is not None:
            _left_empty(where(j // width), error)
            vals[j] = [None] * len(vals[j])
    return [sum(vals[width * i:width * (i + 1)], []) for i in range(len(points))]


def run_fig3(variant: str, config: ExperimentConfig):
    """Steering vs loss, without and with measurement-based amplification.

    Variant 'a' uses the pure lossy channel, 'b' the noisy channel (needs
    excess_noise > 0).  Returns (csv_path, rows).
    """
    if variant not in ("a", "b"):
        raise InputError(f"fig3 variant must be 'a' or 'b', got {variant!r}")
    excess = 0.0 if variant == "a" else _noisy_excess(config, "fig3b")
    state = model_state(config)
    g = config.gain
    losses = [float(x) for x in config.loss_grid]

    header = ["loss", "g_a2b_raw", "g_b2a_raw", "g_a2b_nla", "g_b2a_nla",
              "acceptance_rate"]
    if config.mode == "monte_carlo":
        header += ["se_g_a2b_raw", "se_g_b2a_raw", "se_g_a2b_nla", "se_g_b2a_nla"]
    elif config.mode == "both":
        header += ["mc_g_a2b_raw", "mc_g_b2a_raw", "mc_g_a2b_nla", "mc_g_b2a_nla",
                   "mc_acceptance_rate",
                   "se_g_a2b_raw", "se_g_b2a_raw", "se_g_a2b_nla", "se_g_b2a_nla"]

    def chain(n):
        outs = channel_stack(state.cov, losses[:n], excess, config.noise_model)
        beta_c, ideal, rates = _fig3_cutoffs(config, outs, losses[:n])
        cols = []
        if config.mode in ("analytic", "both"):
            if ideal is None:
                ideal = steerability_stack(nla_single_mode_stack(outs, g))
                rates = filtered_ensemble_stack(outs, g, beta_c)[0]
            cols = [v.tolist() for v in (*steerability_stack(outs), *ideal, rates)]
        mc = []
        if config.mode in ("monte_carlo", "both"):
            filters = [(None, FilterSpec(g, bc)) for bc in beta_c]
            ens = sample_grid(outs, config.samples, derive_seed(config.seed, 3),
                              filters, [()] * n, config.threads)[0]
            mc = _mc_values(ens, steerability_with_se_stack,
                            lambda i: f"fig3{variant}: loss={losses[i]:g}", raw=True)
        rows = []
        for i in range(n):
            row = [losses[i], *(col[i] for col in cols)]
            if mc:
                rab, seab, rba, seba, nab, senab, nba, senba = mc[i]
                row += [rab, rba, nab, nba, ens[i][1].accepted / config.samples,
                        seab, seba, senab, senba]
            rows.append(row)
        return rows

    rows = _in_grid_order(chain, len(losses))
    path = _write_output(config, f"fig3{variant}.csv", header, rows)
    if config.svg:
        series = {
            "A->B raw": [r[1] for r in rows],
            "B->A raw": [r[2] for r in rows],
            "A->B amplified": [r[3] for r in rows],
            "B->A amplified": [r[4] for r in rows],
        }
        svgplot.line_chart(losses, series, os.path.splitext(path)[0] + ".svg",
                           title=f"steering vs loss ({'lossy' if variant == 'a' else 'noisy'} channel)",
                           xlabel="loss", ylabel="steering (nats)")
    return path, rows


def run_regions(variant: str, config: ExperimentConfig):
    """Steering region map over (gain, loss); analytic pipeline only."""
    if variant not in ("c", "d"):
        raise InputError(f"regions variant must be 'c' or 'd', got {variant!r}")
    excess = 0.0 if variant == "c" else _noisy_excess(config, "regions-d")
    state = model_state(config)
    gains = [float(g) for g in config.g_grid]
    losses = [float(x) for x in config.loss_grid]

    def chain(n):
        # cells in (g, loss) row-major order: the first row holds every loss
        i_g, i_loss = np.divmod(np.arange(n), len(losses))
        outs = channel_stack(state.cov, losses[:n], excess, config.noise_model)
        amp = nla_single_mode_stack(outs[i_loss], np.take(gains, i_g))
        return classify_stack(amp)[2].tolist()

    flat = _in_grid_order(chain, len(gains) * len(losses))
    labels = [flat[k:k + len(losses)] for k in range(0, len(flat), len(losses))]
    rows = [[g, loss, region]
            for g, row in zip(gains, labels) for loss, region in zip(losses, row)]
    path = _write_output(config, f"regions_{variant}.csv", ["g", "loss", "region"], rows)
    if config.svg:
        svgplot.region_map(
            gains, losses, labels, os.path.splitext(path)[0] + ".svg",
            title=f"steering regions ({'lossy' if variant == 'c' else 'noisy'} channel)",
        )
    return path, rows


def run_fig4(config: ExperimentConfig):
    """Key-rate sweep over gain at fixed cutoff, with pure -6 dB reference;
    one stack call gives the analytic columns of both states."""
    state = model_state(config)
    pure_ref = tmss_standard(-6.0, 6.0)
    beta_c = config.cutoff
    gains = [float(g) for g in config.fig4_g_grid]
    filters = [FilterSpec(g, beta_c) for g in gains]  # refuses a gain below 1

    header = ["g", "key_rate", "v_x_cond", "v_p_cond", "acceptance_rate",
              "se_key_rate", "key_rate_pure_6db"]
    if config.mode == "both":
        header += ["mc_key_rate", "mc_acceptance_rate"]

    # rows 0..n-1 hold the model state, rows n..2n-1 the reference
    n = len(gains)
    covs = np.repeat(np.stack([state.cov, pure_ref.cov]), n, axis=0)
    key, v_x, v_p, acc = (v.tolist() for v in _filtered_key_rate_stack(covs, gains * 2, beta_c))
    mc = accepted = None
    if config.mode in ("monte_carlo", "both"):
        sampled, ens, accepted = _fig4_sample(config, state, gains, filters, acc[:n])
        mc = dict(zip(sampled, _mc_values([(e,) for e in ens], key_rate_with_se_stack,
                                          lambda j: f"fig4: g={gains[sampled[j]]:g}")))

    rows = []
    for i, g in enumerate(gains):
        ana, ref = [key[i], v_x[i], v_p[i], acc[i]], key[n + i]
        if mc is None:
            rows.append([g, *ana, None, ref])
            continue
        k, vx, vp, se_k = mc.get(i, (None,) * 4)
        rate = accepted[i] / config.samples
        if config.mode == "monte_carlo":
            rows.append([g, k, vx, vp, rate, se_k, ref])
        else:
            rows.append([g, *ana, se_k, ref, k, rate])

    path = _write_output(config, "fig4.csv", header, rows)
    if config.svg:
        svgplot.line_chart(
            gains,
            {"model state": [r[1] for r in rows],
             "pure -6 dB": [r[6] for r in rows],
             "zero": [0.0 for _ in rows]},
            os.path.splitext(path)[0] + ".svg",
            title=f"1sDI key rate vs gain (cutoff {beta_c})",
            xlabel="gain", ylabel="key rate (bits)",
        )
    return path, rows


def _fig4_sample(config, state, gains, filters, rates):
    """One pass over the model state's records: (sampled gains' indices,
    their ensembles, {gain index: accepted count}).  A gain whose exact
    expected accepted count is more than 6 sd (its square root) below
    ``MC_MIN_ACCEPTED`` is only counted, with one line on standard error."""
    sampled, counted = [], []
    for i, (g, rate) in enumerate(zip(gains, rates)):
        expected = rate * config.samples
        if expected + 6.0 * np.sqrt(expected) >= MC_MIN_ACCEPTED:
            sampled.append(i)
        else:
            counted.append(i)
            _left_empty(f"fig4: g={g:g}", f"too few accepted records: expected {expected:.0f}, "
                                          f"more than 6 sd below {MC_MIN_ACCEPTED}")
    (ens,), (counts,) = sample_grid(
        state.cov[None], config.samples, derive_seed(config.seed, 4),
        [[filters[i] for i in sampled]], [[filters[i] for i in counted]], config.threads)
    accepted = dict(zip(counted, counts))
    accepted.update((i, e.accepted) for i, e in zip(sampled, ens))
    return sampled, ens, accepted


def _appendix_grid(config):
    """The published 5x5 grid, loss-major: (losses, gains, channel outputs of
    the model state), one entry per cell."""
    losses = [float(loss) for loss in TABLE_LOSSES for _ in TABLE_GAINS]
    gains = [float(g) for _ in TABLE_LOSSES for g in TABLE_GAINS]
    outs = channel_stack(model_state(config).cov, losses, 0.0, config.noise_model)
    return losses, gains, outs


def run_appendix(item: str, config: ExperimentConfig):
    """Supplementary items: fig_s1, fig_s2, fig_s4, table_s1."""
    runner = {"fig_s1": _run_fig_s1, "fig_s2": _run_fig_s2,
              "fig_s4": _run_fig_s4, "table_s1": _run_table_s1}.get(item)
    if runner is None:
        raise InputError(f"unknown appendix item {item!r}")
    return runner(config)


def _run_fig_s1(config):
    """Pure-state distillation curves (analytic), lossy and noisy channels."""
    pure = tmss_standard(config.squeeze_db, -config.squeeze_db)
    g = config.gain
    cells = [(name, excess, float(loss))
             for name, excess in (("lossy", 0.0), ("noisy", config.excess_noise))
             for loss in config.loss_grid]

    def chain(n):
        names, excess, losses = zip(*cells[:n])
        outs = channel_stack(pure.cov, losses, excess, config.noise_model)
        amp = nla_single_mode_stack(outs, g)
        cols = [v.tolist() for v in (*steerability_stack(outs), *steerability_stack(amp))]
        return [[names[i], losses[i], *(col[i] for col in cols)] for i in range(n)]

    rows = _in_grid_order(chain, len(cells))
    path = _write_output(config, "fig_s1.csv", ["channel", "loss", "g_a2b_raw", "g_b2a_raw",
                                                "g_a2b_nla", "g_b2a_nla"], rows)
    return path, rows


def _run_fig_s2(config):
    """Skewness/kurtosis of accepted ensembles at the per-cell optimal cutoffs.

    In the sampling modes, cells whose expected accepted count at the
    configured sample size is below ``FIG_S2_MIN_EXPECTED`` fall back to the
    exact ensemble moments (skewness exactly 0), with one line on standard
    error per such cell.
    """
    losses, gains, outs = _appendix_grid(config)
    cutoffs = _table_cutoffs(losses, gains)
    rates, _, kurts = (v.tolist() for v in filtered_ensemble_stack(outs, gains, cutoffs))
    rows = [[g, loss, 0.0, kurt] for loss, g, kurt in zip(losses, gains, kurts)]
    sampled = []
    for i, (loss, g) in enumerate(zip(losses, gains) if config.mode != "analytic" else ()):
        expected = rates[i] * config.samples
        if expected >= FIG_S2_MIN_EXPECTED:
            sampled.append(i)
        else:
            print(f"fig-s2: g={g:g} loss={loss:g} Monte Carlo value replaced by the "
                  f"exact moments: expected accepted count {expected:.0f} < "
                  f"{FIG_S2_MIN_EXPECTED}", file=sys.stderr)
    if sampled:
        ens = sample_grid(outs[sampled], config.samples, derive_seed(config.seed, 5),
                          [[FilterSpec(gains[i], cutoffs[i])] for i in sampled],
                          [()] * len(sampled), config.threads)[0]
        for i, (amp,) in zip(sampled, ens):
            bob = amp.bob()
            sx, sp = bob.stats(0), bob.stats(1)
            rows[i][2:] = [0.5 * (sx.skewness + sp.skewness), 0.5 * (sx.kurtosis + sp.kurtosis)]
    path = _write_output(config, "fig_s2.csv", ["g", "loss", "skewness", "kurtosis"], rows)
    return path, rows


def _run_fig_s4(config):
    """Success probability of the filter over the (g, loss) grid."""
    losses, gains, outs = _appendix_grid(config)
    cutoffs = _table_cutoffs(losses, gains)
    if config.mode == "analytic":
        rates = filtered_ensemble_stack(outs, gains, cutoffs)[0].tolist()
    else:
        counts = sample_grid(outs, config.samples, derive_seed(config.seed, 6), [()] * len(outs),
                             [[FilterSpec(g, bc)] for g, bc in zip(gains, cutoffs)],
                             config.threads)[1]
        rates = [n / config.samples for (n,) in counts]
    rows = [[g, loss, rate] for loss, g, rate in zip(losses, gains, rates)]
    path = _write_output(config, "fig_s4.csv", ["g", "loss", "acceptance_rate"], rows)
    return path, rows


def _run_table_s1(config):
    """Reproduce the optimal-cutoff table by a fresh search of every cell."""
    losses, gains, outs = _appendix_grid(config)

    def chain(n):
        scan = select_cutoff_stack(outs[:n], gains[:n])
        scan.require(losses[:n])
        return [[loss, g, bc] for loss, g, bc in zip(losses, gains, scan.beta_c.tolist())]

    rows = _in_grid_order(chain, len(losses))
    path = _write_output(config, "table_s1.csv", ["loss", "g", "beta_c"], rows)
    return path, rows


def run_selfcheck(config: ExperimentConfig):
    """Fast battery of internal identities; returns (all_passed, report lines)."""
    from .gaussian import purity, symplectic_eigenvalues
    from .steering import steering_loss_threshold

    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    s = tmss_standard(-4.2, 7.3)
    n, c = s.cov[0, 0], s.cov[0, 2]
    check("tmss blocks", abs(n - 2.87525368) < 1e-6 and abs(c - 2.49506428) < 1e-6,
          f"n={n:.8f} c={c:.8f}")
    check("purity", abs(purity(s.cov) - 0.48977882) < 1e-6)
    pure = tmss_standard(-6.0, 6.0)
    nu = symplectic_eigenvalues(pure.cov)
    check("pure symplectic spectrum", np.allclose(nu, 1.0, atol=1e-9), f"nu={nu}")

    thr = steering_loss_threshold(s, ChannelSpec(0.0), "b_to_a")
    check("lossy B->A threshold", abs(thr - 0.3077101) < 1e-6, f"{thr:.6f}")
    thr = steering_loss_threshold(s, ChannelSpec(0.0, 0.12), "a_to_b")
    check("noisy A->B threshold", abs(thr - 0.7072406) < 1e-6, f"{thr:.6f}")

    near = nla_single_mode(s.cov, 1 + 1e-6)
    check("amplifier identity limit", np.max(np.abs(near - s.cov)) < 1e-4)
    lam = 1.0 / 3.0
    tm_in = tmss_standard(10 * np.log10((1 - lam) / (1 + lam)),
                          10 * np.log10((1 + lam) / (1 - lam)))
    got = nla_single_mode(tm_in.cov, 1.5)
    want = tmss_standard(10 * np.log10(1.0 / 3.0), 10 * np.log10(3.0)).cov
    check("TMSS eigen-relation", np.max(np.abs(got - want)) < 1e-6)
    thermal = np.diag([1.0, 1.0, 2.0, 2.0])
    got = nla_single_mode(thermal, 1.2)
    check("thermal-block oracle", abs(got[2, 2] - 37.0 / 13.0) < 1e-6)

    out = ChannelSpec(0.2).apply(s)
    ideal = nla_single_mode(out.cov, 1.2)
    ens = filtered_ensemble(out, FilterSpec(1.2, 40.0))
    check("filter integral vs amplifier map", np.max(np.abs(ens.cov - ideal)) < 1e-8)

    batch = sample_batch(tmss_standard(0.0, 0.0), 200_000, derive_seed(config.seed, 7))
    cov, se = reconstruct_covariance(batch)
    dev = np.max(np.abs(cov - np.eye(4)) / np.where(se > 0, se, 1.0))
    check("vacuum roundtrip", dev < 6.0, f"max dev {dev:.2f} SE")

    check("key rate of model state", abs(key_rate(s.cov).key_rate + 0.2167817) < 1e-4)
    gstar = min_gain_for_key(s, 4.5, np.arange(1.0, 1.56, 0.02))
    check("minimum gain for positive key", 1.3 <= gstar <= 1.5, f"g*={gstar:.2f}")

    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
             for name, ok, detail in checks]
    return all(ok for _, ok, _ in checks), lines


def run_ingest(path: str, config: ExperimentConfig, min_accepted: int = 10_000):
    """Externally recorded quadrature CSV -> filter -> reconstruction report.

    The records must be raw: a file with any ``accepted = 0`` row has been
    post-selected already and is refused.
    """
    batch = read_batch_csv(path)
    if batch.accepted is not None and not batch.accepted.all():
        raise BatchSchemaError(
            f"{path}: {len(batch) - int(np.count_nonzero(batch.accepted))} of "
            f"{len(batch)} records have accepted = 0; ingest takes raw records "
            "and applies the configured filter itself")
    ens = _batch_ensemble(batch, FilterSpec(config.gain, config.cutoff), config.seed)
    cov, se = ens.covariance(min_accepted)
    covs, ses = cov[None], se[None]  # checked for physicality by the reconstruction
    gab, se_ab, gba, se_ba = (float(v[0]) for v in steerability_with_se_stack(covs, ses))
    kr, vx, vp, se_k = (float(v[0]) for v in key_rate_with_se_stack(covs, ses))
    rows = [
        ["n_records", len(batch), None],
        ["n_accepted", ens.accepted, None],
        ["acceptance_rate", ens.accepted / len(batch), None],
        ["g_a_to_b", gab, se_ab],
        ["g_b_to_a", gba, se_ba],
        ["key_rate", kr, se_k],
        ["v_x_cond", vx, None],
        ["v_p_cond", vp, None],
    ]
    out_path = _write_output(config, "ingest_report.csv", ["quantity", "value", "se"], rows)
    save_cov(cov, os.path.join(config.out_dir, "ingest_cov.txt"))
    return out_path, rows
