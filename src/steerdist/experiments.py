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

import numpy as np

from . import svgplot
from .channels import ChannelSpec, channel_stack
from .config import ExperimentConfig
from .cutoff import CutoffCriteria, cutoff_from_table, reference_cutoff_table, select_cutoff
from .filtered_moments import acceptance_rate_exact, filtered_ensemble, filtered_ensemble_stack
from .gaussian import GaussianState, from_cov, save_cov, tmss_standard
from .measurement import (
    FilterSpec,
    ReconstructionError,
    moment_stats,
    post_select,
    read_batch_csv,
    reconstruct_covariance,
    reconstruction_tolerance,
    sample_batch,
)
from .nla import nla_single_mode, nla_single_mode_stack
from .qkd import key_rate, key_rate_filtered, key_rate_with_se
from .steering import classify_stack, steerability_stack, steerability_with_se

TABLE_GAINS = (1.05, 1.10, 1.15, 1.20, 1.25)
TABLE_LOSSES = (0.0, 0.2, 0.4, 0.6, 0.8)

# Monte Carlo points keep working below the analytic reconstruction contract;
# the standard errors carry the (large) uncertainty there.
MC_MIN_ACCEPTED = 200


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


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def model_state(config: ExperimentConfig) -> GaussianState:
    return tmss_standard(config.squeeze_db, config.antisqueeze_db)


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


def _each_cell(fn, n: int) -> list:
    """``[fn(i) for i in range(n)]``, tagging a failure with its cell."""
    out = []
    for i in range(n):
        try:
            out.append(fn(i))
        except Exception as exc:
            exc.cell = i
            raise
    return out


def _fig3_cutoff(config, state, loss, excess, table):
    if config.cutoff_source == "config":
        return config.cutoff
    if config.cutoff_source == "table":
        return cutoff_from_table(loss, config.gain, table)
    bc, _ = select_cutoff(
        state, ChannelSpec(loss, excess, config.noise_model), config.gain,
        CutoffCriteria(sample_count=config.samples), seed=config.seed, verify=False,
    )
    return bc


def _mc_steering_point(out, filt, samples, seed, threads):
    """(raw +- se, nla +- se, rate) for one channel-output state, or Nones."""
    batch = sample_batch(out, samples, seed, threads=threads)
    cov, se = reconstruct_covariance(batch, MC_MIN_ACCEPTED)
    tol = reconstruction_tolerance(se)
    raw_ab, se_ab = steerability_with_se(cov, se, "a_to_b", tol)
    raw_ba, se_ba = steerability_with_se(cov, se, "b_to_a", tol)
    filtered, rate = post_select(batch, filt, seed)
    try:
        cov_f, se_f = reconstruct_covariance(filtered, MC_MIN_ACCEPTED)
        tol_f = reconstruction_tolerance(se_f)
        nla_ab, se_nab = steerability_with_se(cov_f, se_f, "a_to_b", tol_f)
        nla_ba, se_nba = steerability_with_se(cov_f, se_f, "b_to_a", tol_f)
    except ReconstructionError:
        nla_ab = nla_ba = se_nab = se_nba = None
    return (raw_ab, se_ab, raw_ba, se_ba, nla_ab, se_nab, nla_ba, se_nba, rate)


def run_fig3(variant: str, config: ExperimentConfig):
    """Steering vs loss, without and with measurement-based amplification.

    Variant 'a' uses the pure lossy channel, 'b' the noisy channel (needs
    excess_noise > 0).  Returns (csv_path, rows).
    """
    if variant not in ("a", "b"):
        raise ValueError(f"fig3 variant must be 'a' or 'b', got {variant!r}")
    excess = 0.0 if variant == "a" else config.excess_noise
    if variant == "b" and excess <= 0.0:
        raise ValueError("fig3b requires channel.excess_noise > 0")
    state = model_state(config)
    table = reference_cutoff_table()
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
        beta_c = _each_cell(
            lambda i: _fig3_cutoff(config, state, losses[i], excess, table), n)
        cols = []
        if config.mode in ("analytic", "both"):
            amp = nla_single_mode_stack(outs, g)
            cols = [v.tolist() for v in (*steerability_stack(outs), *steerability_stack(amp),
                                         filtered_ensemble_stack(outs, g, beta_c)[0])]
        mc = []
        if config.mode in ("monte_carlo", "both"):
            mc = _each_cell(lambda i: _mc_steering_point(
                from_cov(outs[i]), FilterSpec(g, beta_c[i]), config.samples,
                derive_seed(config.seed, 3, i), config.threads), n)
        rows = []
        for i in range(n):
            row = [losses[i], *(col[i] for col in cols)]
            if mc:
                (rab, seab, rba, seba, nab, senab, nba, senba, rate) = mc[i]
                row += [rab, rba, nab, nba, rate, seab, seba, senab, senba]
            rows.append(row)
        return rows

    rows = _in_grid_order(chain, len(losses))
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"fig3{variant}.csv")
    write_csv(path, header, rows)
    if config.svg:
        series = {
            "A->B raw": [r[1] for r in rows],
            "B->A raw": [r[2] for r in rows],
            "A->B amplified": [r[3] for r in rows],
            "B->A amplified": [r[4] for r in rows],
        }
        svgplot.line_chart(losses, series, path.replace(".csv", ".svg"),
                           title=f"steering vs loss ({'lossy' if variant == 'a' else 'noisy'} channel)",
                           xlabel="loss", ylabel="steering (nats)")
    return path, rows


def run_regions(variant: str, config: ExperimentConfig):
    """Steering region map over (gain, loss); analytic pipeline only."""
    if variant not in ("c", "d"):
        raise ValueError(f"regions variant must be 'c' or 'd', got {variant!r}")
    excess = 0.0 if variant == "c" else config.excess_noise
    if variant == "d" and excess <= 0.0:
        raise ValueError("regions-d requires channel.excess_noise > 0")
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
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"regions_{variant}.csv")
    write_csv(path, ["g", "loss", "region"], rows)
    if config.svg:
        svgplot.region_map(
            gains, losses, labels, path.replace(".csv", ".svg"),
            title=f"steering regions ({'lossy' if variant == 'c' else 'noisy'} channel)",
        )
    return path, rows


def run_fig4(config: ExperimentConfig):
    """Key-rate sweep over gain at fixed cutoff, with pure -6 dB reference."""
    state = model_state(config)
    out = state
    if config.loss > 0:  # the published sweep has no channel; allow one anyway
        out = ChannelSpec(config.loss, config.excess_noise, config.noise_model).apply(state)
    pure_ref = tmss_standard(-6.0, 6.0)
    beta_c = config.cutoff

    header = ["g", "key_rate", "v_x_cond", "v_p_cond", "acceptance_rate",
              "se_key_rate", "key_rate_pure_6db"]
    if config.mode == "both":
        header += ["mc_key_rate", "mc_acceptance_rate"]

    batch = None
    if config.mode in ("monte_carlo", "both"):
        batch = sample_batch(out, config.samples, derive_seed(config.seed, 4),
                             threads=config.threads)

    rows = []
    for g in config.fig4_g_grid:
        g = float(g)
        ana = key_rate_filtered(out, g, beta_c)
        acc = 1.0 if g == 1.0 else acceptance_rate_exact(out, FilterSpec(g, beta_c))
        ref = key_rate_filtered(pure_ref, g, beta_c).key_rate
        mc_vals = (None, None, None, None, None)
        if batch is not None:
            if g == 1.0:
                filtered, rate = batch, 1.0
            else:
                filtered, rate = post_select(batch, FilterSpec(g, beta_c),
                                             derive_seed(config.seed, 4))
            try:
                cov, se = reconstruct_covariance(filtered, MC_MIN_ACCEPTED)
                res, se_k = key_rate_with_se(cov, se, reconstruction_tolerance(se))
                mc_vals = (res.key_rate, res.v_x_cond, res.v_p_cond, rate, se_k)
            except ReconstructionError:
                mc_vals = (None, None, None, rate, None)
        if config.mode == "analytic":
            rows.append([g, ana.key_rate, ana.v_x_cond, ana.v_p_cond, acc, None, ref])
        elif config.mode == "monte_carlo":
            k, vx, vp, rate, se_k = mc_vals
            rows.append([g, k, vx, vp, rate, se_k, ref])
        else:
            k, vx, vp, rate, se_k = mc_vals
            rows.append([g, ana.key_rate, ana.v_x_cond, ana.v_p_cond, acc,
                         se_k, ref, k, rate])

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "fig4.csv")
    write_csv(path, header, rows)
    if config.svg:
        gs = [r[0] for r in rows]
        svgplot.line_chart(
            gs,
            {"model state": [r[1] for r in rows],
             "pure -6 dB": [r[6] for r in rows],
             "zero": [0.0 for _ in rows]},
            path.replace(".csv", ".svg"),
            title=f"1sDI key rate vs gain (cutoff {beta_c})",
            xlabel="gain", ylabel="key rate (bits)",
        )
    return path, rows


def _appendix_grid():
    """(i_loss, i_g, loss, g) over the published 5x5 grid, loss-major."""
    for i_loss, loss in enumerate(TABLE_LOSSES):
        for i_g, g in enumerate(TABLE_GAINS):
            yield i_loss, i_g, float(loss), float(g)


def run_appendix(item: str, config: ExperimentConfig):
    """Supplementary items: fig_s1, fig_s2, fig_s4, table_s1."""
    os.makedirs(config.out_dir, exist_ok=True)
    if item == "fig_s1":
        return _run_fig_s1(config)
    if item == "fig_s2":
        return _run_fig_s2(config)
    if item == "fig_s4":
        return _run_fig_s4(config)
    if item == "table_s1":
        return _run_table_s1(config)
    raise ValueError(f"unknown appendix item {item!r}")


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
    path = os.path.join(config.out_dir, "fig_s1.csv")
    write_csv(path, ["channel", "loss", "g_a2b_raw", "g_b2a_raw",
                     "g_a2b_nla", "g_b2a_nla"], rows)
    return path, rows


def _run_fig_s2(config):
    """Skewness/kurtosis of accepted ensembles at the per-cell optimal cutoffs.

    Cells whose expected accepted count at the configured sample size is too
    small for a meaningful sampled estimate fall back to the exact ensemble
    moments (skewness exactly 0).
    """
    state = model_state(config)
    table = reference_cutoff_table()
    rows = []
    for i_loss, i_g, loss, g in _appendix_grid():
        beta_c = cutoff_from_table(loss, g, table)
        out = ChannelSpec(loss, 0.0, config.noise_model).apply(state)
        filt = FilterSpec(g, beta_c)
        ens = filtered_ensemble(out, filt)
        use_mc = (config.mode != "analytic"
                  and ens.acceptance_rate * config.samples >= 2000)
        if use_mc:
            seed = derive_seed(config.seed, 5, i_loss, i_g)
            batch = sample_batch(out, config.samples, seed, threads=config.threads)
            filtered, _ = post_select(batch, filt, seed)
            sel = filtered.accepted
            sx = moment_stats(filtered.bob_x[sel])
            sp = moment_stats(filtered.bob_p[sel])
            skew = 0.5 * (sx.skewness + sp.skewness)
            kurt = 0.5 * (sx.kurtosis + sp.kurtosis)
        else:
            skew, kurt = ens.bob_skewness, ens.bob_kurtosis
        rows.append([g, loss, skew, kurt])
    path = os.path.join(config.out_dir, "fig_s2.csv")
    write_csv(path, ["g", "loss", "skewness", "kurtosis"], rows)
    return path, rows


def _run_fig_s4(config):
    """Success probability of the filter over the (g, loss) grid."""
    state = model_state(config)
    table = reference_cutoff_table()
    rows = []
    for i_loss, i_g, loss, g in _appendix_grid():
        beta_c = cutoff_from_table(loss, g, table)
        out = ChannelSpec(loss, 0.0, config.noise_model).apply(state)
        filt = FilterSpec(g, beta_c)
        if config.mode == "analytic":
            rate = acceptance_rate_exact(out, filt)
        else:
            seed = derive_seed(config.seed, 6, i_loss, i_g)
            batch = sample_batch(out, config.samples, seed, threads=config.threads)
            _, rate = post_select(batch, filt, seed)
        rows.append([g, loss, rate])
    path = os.path.join(config.out_dir, "fig_s4.csv")
    write_csv(path, ["g", "loss", "acceptance_rate"], rows)
    return path, rows


def _run_table_s1(config):
    """Reproduce the optimal-cutoff table by a fresh search per cell."""
    state = model_state(config)
    criteria = CutoffCriteria(sample_count=config.samples)
    rows = []
    for i_loss, i_g, loss, g in _appendix_grid():
        bc, _ = select_cutoff(state, ChannelSpec(loss, 0.0, config.noise_model),
                              g, criteria, seed=config.seed, verify=False)
        rows.append([loss, g, bc])
    path = os.path.join(config.out_dir, "table_s1.csv")
    write_csv(path, ["loss", "g", "beta_c"], rows)
    return path, rows


def run_selfcheck(config: ExperimentConfig):
    """Fast battery of internal identities; returns (all_passed, report lines)."""
    from .gaussian import purity, symplectic_eigenvalues
    from .nla import GainPair, nla_cov_two_mode
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
    check("lossy B->A threshold", abs(thr - 0.3077101) < 2e-4, f"{thr:.6f}")
    thr = steering_loss_threshold(s, ChannelSpec(0.0, 0.12), "a_to_b")
    check("noisy A->B threshold", abs(thr - 0.7072406) < 2e-4, f"{thr:.6f}")

    eps = 1e-6
    near = nla_cov_two_mode(s.cov, GainPair(1 + eps, 1 + eps))
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
    from .qkd import min_gain_for_key
    gstar = min_gain_for_key(s, 4.5, np.arange(1.0, 1.56, 0.02))
    check("minimum gain for positive key", 1.3 <= gstar <= 1.5, f"g*={gstar:.2f}")

    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
             for name, ok, detail in checks]
    return all(ok for _, ok, _ in checks), lines


def run_ingest(path: str, config: ExperimentConfig, min_accepted: int = 10_000):
    """Externally recorded quadrature CSV -> filter -> reconstruction report."""
    batch = read_batch_csv(path)
    filt = FilterSpec(config.gain, config.cutoff)
    filtered, rate = post_select(batch, filt, config.seed)
    cov, se = reconstruct_covariance(filtered, min_accepted)
    tol = reconstruction_tolerance(se)
    gab, se_ab = steerability_with_se(cov, se, "a_to_b", tol)
    gba, se_ba = steerability_with_se(cov, se, "b_to_a", tol)
    kr, se_k = key_rate_with_se(cov, se, tol)
    rows = [
        ["n_records", len(batch), None],
        ["n_accepted", int(np.count_nonzero(filtered.accepted)), None],
        ["acceptance_rate", rate, None],
        ["g_a_to_b", gab, se_ab],
        ["g_b_to_a", gba, se_ba],
        ["key_rate", kr.key_rate, se_k],
        ["v_x_cond", kr.v_x_cond, None],
        ["v_p_cond", kr.v_p_cond, None],
    ]
    os.makedirs(config.out_dir, exist_ok=True)
    out_path = os.path.join(config.out_dir, "ingest_report.csv")
    write_csv(out_path, ["quantity", "value", "se"], rows)
    save_cov(cov, os.path.join(config.out_dir, "ingest_cov.txt"))
    return out_path, rows
