import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from steerdist import (
    FilterSpec,
    InputError,
    apply_lossy,
    classify,
    cutoff_from_table,
    key_rate_with_se,
    post_select,
    reconstruct_covariance,
    sample_batch,
    steerability_with_se,
    tmss_standard,
    write_batch_csv,
)
from steerdist.cli import main
from steerdist.config import load_config
from steerdist.experiments import (
    run_fig3,
    run_fig4,
    run_ingest,
    run_regions,
    run_selfcheck,
)
from steerdist.measurement import reconstruction_tolerance, sample_grid


def _config(tmp_path, **kw):
    overrides = {"out_dir": str(tmp_path / "out")}
    overrides.update(kw)
    return load_config(None, env={}, overrides=overrides)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _zero_crossing(rows, key):
    """Loss bracket where a steering column first reaches zero."""
    prev = None
    for row in rows:
        val = float(row[key])
        loss = float(row["loss"])
        if prev is not None and prev[1] > 0 and val <= 1e-12:
            return prev[0], loss
        prev = (loss, val)
    raise AssertionError(f"{key} never reached zero")


# --- fig3 -----------------------------------------------------------------------

def test_fig3a_analytic_thresholds(tmp_path):
    config = _config(tmp_path)
    path, _ = run_fig3("a", config)
    rows = _read_rows(path)
    lo, hi = _zero_crossing(rows, "g_b2a_raw")
    assert lo <= 0.3077 <= hi and hi - lo <= 0.0021
    lo, hi = _zero_crossing(rows, "g_b2a_nla")
    assert 0.38 <= 0.5 * (lo + hi) <= 0.48  # reported extension to ~0.43
    # A->B monotone survives the whole grid in a lossy channel
    assert all(float(r["g_a2b_raw"]) > 0 for r in rows)


def test_fig3b_analytic_thresholds(tmp_path):
    config = _config(tmp_path)
    path, _ = run_fig3("b", config)
    rows = _read_rows(path)
    lo, hi = _zero_crossing(rows, "g_a2b_raw")
    assert lo <= 0.7072 <= hi and hi - lo <= 0.0021
    lo, hi = _zero_crossing(rows, "g_b2a_raw")
    assert lo <= 0.2841 <= hi
    lo, hi = _zero_crossing(rows, "g_b2a_nla")
    assert 0.35 <= 0.5 * (lo + hi) <= 0.45  # reported: improved to 0.40


def test_fig3b_requires_excess_noise(tmp_path):
    config = _config(tmp_path, excess_noise=0.0)
    with pytest.raises(ValueError, match="excess_noise"):
        run_fig3("b", config)


@pytest.mark.parametrize("runner, variant, message", [
    (run_fig3, "c", "fig3 variant must be 'a' or 'b', got 'c'"),
    (run_regions, "a", "regions variant must be 'c' or 'd', got 'a'"),
])
def test_runners_refuse_an_unknown_variant(tmp_path, runner, variant, message):
    with pytest.raises(InputError) as err:
        runner(variant, _config(tmp_path))
    assert str(err.value) == message
    assert not (tmp_path / "out").exists()  # refused before any output


def test_fig3_monte_carlo_consistency(tmp_path):
    config = _config(tmp_path, mode="both", samples=400_000,
                     loss_grid=np.array([0.1, 0.25]), seed=5)
    path, _ = run_fig3("a", config)
    rows = _read_rows(path)
    for row in rows:
        for name in ("g_a2b_raw", "g_b2a_raw"):
            se = float(row["se_" + name])
            assert abs(float(row["mc_" + name]) - float(row[name])) < 3 * se
        if row["mc_g_a2b_nla"]:
            se = float(row["se_g_a2b_nla"])
            assert abs(float(row["mc_g_a2b_nla"]) - float(row["g_a2b_nla"])) < 3 * se


def test_fig3_deterministic_output(tmp_path):
    config = _config(tmp_path, mode="both", samples=200_000,
                     loss_grid=np.array([0.2]), threads=1)
    path, _ = run_fig3("a", config)
    first = open(path).read()
    config4 = _config(tmp_path, mode="both", samples=200_000,
                      loss_grid=np.array([0.2]), threads=4)
    path, _ = run_fig3("a", config4)
    assert open(path).read() == first


def test_fig3_point_does_not_depend_on_its_grid(tmp_path):
    # every loss shares the grid's draw, so one loss run alone writes its row
    # of the full grid byte for byte
    lines = []
    for grid in ([0.3, 0.55, 0.8], [0.55]):
        config = _config(tmp_path, mode="both", samples=200_000, loss_grid=np.array(grid))
        path, _ = run_fig3("a", config)
        lines.append(open(path).read().splitlines())
    full, single = lines
    assert single[0] == full[0] and single[1:] == [full[2]]


# --- regions ---------------------------------------------------------------------

def test_regions_c_two_way_grows_with_gain(tmp_path):
    config = _config(tmp_path, loss_grid=np.arange(0.0, 0.981, 0.02),
                     g_grid=np.array([1.0, 1.05, 1.25]))
    path, rows = run_regions("c", config)
    table = {}
    for g, loss, region in rows:
        table.setdefault(g, []).append((loss, region))

    def two_way_extent(g):
        return max((loss for loss, r in table[g] if r == "two_way"), default=-1.0)

    assert two_way_extent(1.25) > two_way_extent(1.05) > two_way_extent(1.0)


def test_regions_d_none_boundary_gain_independent(tmp_path):
    config = _config(tmp_path, loss_grid=np.arange(0.5, 0.981, 0.02),
                     g_grid=np.array([1.0, 1.1, 1.25]))
    _, rows = run_regions("d", config)
    onset = {}
    for g, loss, region in rows:
        if region == "none" and g not in onset:
            onset[g] = loss
    values = list(onset.values())
    assert len(values) == 3
    assert max(values) - min(values) < 1e-9  # same grid point for every gain


def test_regions_unit_gain_matches_classify(tmp_path, model_state):
    from steerdist import apply_noisy

    config = _config(tmp_path, loss_grid=np.array([0.2, 0.6, 0.9]),
                     g_grid=np.array([1.0]))
    _, rows = run_regions("d", config)
    for g, loss, region in rows:
        out = apply_noisy(model_state, loss, config.excess_noise, config.noise_model)
        assert region == classify(out).region


# --- fig4 ------------------------------------------------------------------------

def test_fig4_analytic_curve(tmp_path):
    config = _config(tmp_path)
    path, _ = run_fig4(config)
    rows = _read_rows(path)
    by_g = {round(float(r["g"]), 4): r for r in rows}
    assert float(by_g[1.0]["key_rate"]) == pytest.approx(-0.2168, abs=1e-3)
    assert by_g[1.0]["se_key_rate"] == ""  # empty in analytic mode
    # pure -6 dB reference crosses at unit gain
    assert abs(float(by_g[1.0]["key_rate_pure_6db"])) < 2e-3
    assert float(by_g[1.06]["key_rate_pure_6db"]) > 0
    # model-state crossing lands within the reported window 1.4 +- 0.1
    crossing = next(float(r["g"]) for r in rows if float(r["key_rate"]) > 0)
    assert 1.3 <= crossing <= 1.5
    # acceptance rate decreases with gain
    rates = [float(r["acceptance_rate"]) for r in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_fig4_unit_gain_row_is_the_unfiltered_state(tmp_path, model_state):
    from steerdist import key_rate

    _, rows = run_fig4(_config(tmp_path, fig4_g_grid=np.array([1.0, 1.2])))
    want = key_rate(model_state.cov)
    pure = key_rate(tmss_standard(-6.0, 6.0).cov)
    assert rows[0] == [1.0, want.key_rate, want.v_x_cond, want.v_p_cond, 1.0, None,
                       pure.key_rate]
    assert rows[1][4] < 1.0


@pytest.mark.parametrize("ini", ["[grids]\nfig4_g_grid = nan,1.1\n",
                                 "[filter]\ncutoff = nan\n"])
def test_fig4_refuses_nan_input(tmp_path, capsys, ini):
    path = tmp_path / "nan.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main(["fig4", "--config", str(path), "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "fig4.csv").exists()


@pytest.mark.parametrize("cutoff", ["36", "50"])
def test_fig4_runs_at_cutoffs_whose_filter_factor_underflows(tmp_path, cutoff):
    path = tmp_path / "cutoff.ini"
    path.write_text(f"[filter]\ncutoff = {cutoff}\n")
    out = tmp_path / "o"
    assert main(["fig4", "--config", str(path), "--out", str(out)]) == 0
    rows = _read_rows(out / "fig4.csv")
    assert all(np.isfinite(float(row["key_rate"])) for row in rows)


@pytest.mark.parametrize("cutoff", ["1e10", "1e25", "1e50"])
def test_fig4_conditional_variances_reach_their_limits_at_huge_cutoffs(tmp_path, model_state,
                                                                       cutoff):
    # the ensemble's entries grow like cutoff^2 above the gain bound; V is
    # formed without subtracting them, so each V is its infinite-cutoff
    # limit: the ideal amplifier's below the bound, with w = <u>/s2 -> inf
    # (s2/g^2)(2 a s2 - c^2)/c^2 above it, and no warning is raised
    import warnings

    from steerdist import key_rate, max_single_mode_gain, nla_single_mode

    path = tmp_path / "cutoff.ini"
    path.write_text(f"[filter]\ncutoff = {cutoff}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig4", "--config", str(path), "--out", str(out)]) == 0
    a, c = model_state.cov[0, 0], model_state.cov[0, 2]
    s2 = (model_state.cov[2, 2] + 1.0) / 2.0
    bound = max_single_mode_gain(model_state.cov)
    for row in _read_rows(out / "fig4.csv"):
        g = float(row["g"])
        want = (key_rate(nla_single_mode(model_state.cov, g)).v_x_cond if g < bound
                else s2 / g**2 * (2.0 * a * s2 - c * c) / (c * c))
        for name in ("v_x_cond", "v_p_cond"):
            assert float(row[name]) == pytest.approx(want, rel=1e-9), (g, name)
        assert np.isfinite(float(row["key_rate_pure_6db"]))


@pytest.mark.parametrize("text, needle", [
    (b"seed = 3\n", "{path}: File contains no section headers"),
    (b"[run]\nseed = 3\nseed = 4\n", "{path}: While reading from"),
    (b"[run]\nout = a\xff\xfeb\n", "{path}: 'utf-8' codec can't decode byte 0xff"),
    (b"[filter]\ncutoff = 1e300\n", "filter.cutoff must be finite, > 0 and <= 1e+50, got 1e+300"),
    (b"[state]\nantisqueeze_db = 4000\n", "state.antisqueeze_db must be >= 0 with 10**(dB/10)"),
    (b"[state]\nsqueeze_db = -4000\n", "state.squeeze_db must be <= 0 with 10**(dB/10)"),
])
def test_fig4_refuses_unusable_config_files(tmp_path, capsys, text, needle):
    # a file configparser cannot parse is named in the message
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    out = tmp_path / "o"
    assert main(["fig4", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert needle.format(path=f"cannot parse config file {str(path)!r}") in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["analytic", "both"])
def test_fig4_refuses_gain_below_one(tmp_path, capsys, mode):
    ini = tmp_path / "gains.ini"
    ini.write_text("[grids]\nfig4_g_grid = 0.9,1.0,1.1\n")
    out = tmp_path / "o"
    assert main(["fig4", "--config", str(ini), "--out", str(out), "--mode", mode,
                 "--samples", "20000"]) == 2
    assert "gain must be >= 1, got 0.9" in capsys.readouterr().err
    assert not (out / "fig4.csv").exists()


def test_fig4_monte_carlo_matches_analytic(tmp_path):
    config = _config(tmp_path, mode="both", samples=2_000_000,
                     fig4_g_grid=np.array([1.0, 1.2, 1.3]), seed=9)
    path, _ = run_fig4(config)
    for row in _read_rows(path):
        if row["mc_key_rate"] and row["se_key_rate"]:
            diff = abs(float(row["mc_key_rate"]) - float(row["key_rate"]))
            assert diff < 3.5 * float(row["se_key_rate"])


def test_monte_carlo_empty_cells_are_reported(tmp_path, capsys):
    config = _config(tmp_path, mode="monte_carlo", samples=20_000,
                     fig4_g_grid=np.array([1.0, 1.5]), loss_grid=np.array([0.0]))
    path, _ = run_fig4(config)
    fig4 = _read_rows(path)
    path, _ = run_fig3("a", config)
    fig3 = _read_rows(path)
    err = capsys.readouterr().err
    assert fig4[0]["key_rate"] and not fig4[1]["key_rate"]
    assert "fig4: g=1.5 Monte Carlo value left empty: too few accepted records: " in err
    assert fig3[0]["g_a2b_raw"] and not fig3[0]["g_a2b_nla"]
    assert "fig3a: loss=0 Monte Carlo value left empty: too few accepted records: " in err
    assert len(err.splitlines()) == 2


def test_fig3_empty_amplified_cells_keep_their_lines_in_grid_order(tmp_path, capsys):
    # One stacked reconstruction serves every point; a refused amplified
    # ensemble still empties its cells and prints its line in grid order.
    # The CSV's bytes are the golden file fig3a_both_empty_cells.csv.
    config = _config(tmp_path, mode="both", samples=20_000,
                     loss_grid=np.array([0.97, 0.2, 0.74, 0.4, 0.9]))
    _, rows = run_fig3("a", config)
    assert capsys.readouterr().err.splitlines() == [
        "fig3a: loss=0.2 Monte Carlo value left empty: too few accepted records: 44 < 200",
        "fig3a: loss=0.4 Monte Carlo value left empty: too few accepted records: 84 < 200"]
    assert [row[8] is None for row in rows] == [False, True, False, True, False]


def test_mc_steering_tags_a_failure_with_its_point(model_state, capsys):
    # A refused raw ensemble, or a matrix the steering stack refuses, raises
    # with its point as ``cell``, for ``_in_grid_order`` to re-run the points
    # before it, which print their lines then.
    import steerdist.experiments as experiments
    from steerdist import NumericalError, ReconstructionError

    losses = (0.74, 0.2)
    filters = [(None, FilterSpec(1.2, cutoff_from_table(loss, 1.2))) for loss in losses]
    covs = np.stack([apply_lossy(model_state, loss).cov for loss in losses])
    # small's amplified ensemble is refused
    big, small = sample_grid(covs, 20_000, 3, filters, [(), ()])[0]
    refusal = f"too few accepted records: {small[1].accepted} < 200"
    points = [big, small, (small[1], big[1]), small]
    kernel = experiments.steerability_with_se_stack
    with pytest.raises(ReconstructionError, match=refusal) as exc:
        experiments._mc_values(points, kernel, lambda i: f"point {i}", raw=True)
    assert exc.value.cell == 2 and capsys.readouterr().err == ""
    assert experiments._mc_values(points[:2], kernel, lambda i: f"point {i}",
                                  raw=True)[1][4:] == [None] * 4
    assert capsys.readouterr().err.splitlines() == [
        f"point 1 Monte Carlo value left empty: {refusal}"]

    def refuse(covs, ses):  # the amplified matrix of point 1
        error = NumericalError("refused")
        error.cell = 3
        raise error

    with pytest.raises(NumericalError, match="refused") as exc:
        experiments._mc_values(points[:2], refuse, lambda i: f"point {i}", raw=True)
    assert exc.value.cell == 1


def test_fig4_empty_cells_follow_the_reconstruction_rule(tmp_path, capsys, monkeypatch):
    # Every gain is a filter of the one pass; covariance_stack alone decides
    # which key rates are left empty, as in fig3, and says why in grid order.
    import steerdist.experiments as experiments

    calls, passes = [], []
    sample_grid = experiments.sample_grid

    def spy(covs, count, seed, filters, counted, threads=1):
        calls.append(([f.gain for f in filters[0]], [list(c) for c in counted]))
        passes.append(sample_grid(covs, count, seed, filters, counted, threads))
        return passes[-1]

    monkeypatch.setattr(experiments, "sample_grid", spy)
    config = _config(tmp_path, mode="both", samples=400_000,
                     fig4_g_grid=np.array([1.2, 1.42, 1.44, 1.5]))
    _, rows = run_fig4(config)
    assert calls == [([1.2, 1.42, 1.44, 1.5], [[]])]
    (ens,), _ = passes[0]
    assert [e.accepted for e in ens[1:]] == [145, 126, 94]
    assert capsys.readouterr().err.splitlines() == [
        f"fig4: g={g} Monte Carlo value left empty: too few accepted records: {n} < 200"
        for g, n in ((1.42, 145), (1.44, 126), (1.5, 94))]
    assert rows[0][-2] is not None and all(row[-2] is None for row in rows[1:])
    for row, e in zip(rows, ens):
        assert row[-1] == e.accepted / 400_000


def test_fig4_monte_carlo_memory_is_bounded(tmp_path):
    import tracemalloc

    def traced_peak(samples):
        tracemalloc.start()
        try:
            run_fig4(_config(tmp_path, mode="monte_carlo", samples=samples))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(1 << 20), traced_peak(1 << 22)
    assert large < 1.25 * small, f"peak {small / 1e6:.1f} MB -> {large / 1e6:.1f} MB"


# --- appendix --------------------------------------------------------------------

def test_fig_s1_pure_state_ordering(tmp_path):
    from steerdist.experiments import run_fig_s1

    config = _config(tmp_path, loss_grid=np.arange(0.0, 0.81, 0.05))
    path, rows = run_fig_s1(config)
    assert all(r[5] <= r[4] + 1e-9 for r in rows)  # B->A never surpasses A->B
    lossy_rows = [r for r in rows if r[0] == "lossy"]
    assert lossy_rows[0][2] == pytest.approx(lossy_rows[0][3], abs=1e-9)


def test_fig_s4_trend(tmp_path):
    from steerdist.experiments import run_fig_s4

    config = _config(tmp_path)
    path, rows = run_fig_s4(config)
    rates = {(g, loss): rate for g, loss, rate in rows}
    assert rates[(1.05, 0.8)] > rates[(1.25, 0.0)]
    for loss in (0.0, 0.4, 0.8):
        col = [rates[(g, loss)] for g in (1.05, 1.10, 1.15, 1.20, 1.25)]
        assert all(a > b for a, b in zip(col, col[1:]))


def test_appendix_seeds_derive_from_grid_indices(tmp_path, monkeypatch):
    import steerdist.experiments as exp

    keys = []
    real = exp.derive_seed

    def recording(master, *key):
        keys.append(key)
        return real(master, *key)

    monkeypatch.setattr(exp, "derive_seed", recording)
    config = _config(tmp_path, mode="monte_carlo", samples=10_000)
    exp.run_fig_s4(config)
    assert keys == [(6,)]  # one seed per grid: its cells share the draw
    keys.clear()
    exp.run_fig_s2(_config(tmp_path, mode="monte_carlo", samples=40_000))
    assert keys == [(5,)]


def test_fig_s4_counts_are_the_single_state_counts(tmp_path):
    import steerdist.experiments as exp
    config = _config(tmp_path, mode="monte_carlo", samples=40_000)
    _, rows = exp.run_fig_s4(config)
    losses, gains, outs = exp._appendix_grid(config)
    cutoffs = cutoff_from_table(losses, gains)
    seed = exp.derive_seed(config.seed, 6)
    for row, g, bc, out in zip(rows, gains, cutoffs, outs):
        counts = sample_grid(out[None], 40_000, seed, [()], [[FilterSpec(g, bc)]])[1]
        assert row[2] == counts[0][0] / 40_000


def test_fig_s2_gaussianity(tmp_path):
    from steerdist.experiments import run_fig_s2

    config = _config(tmp_path)
    path, rows = run_fig_s2(config)
    assert len(rows) == 25
    for g, loss, skew, kurt in rows:
        assert abs(skew) < 0.05
        assert abs(kurt - 3.0) < 0.1


def test_fig_s2_reports_exact_moment_cells(tmp_path, capsys):
    import re

    from steerdist.experiments import run_fig_s2

    path, rows = run_fig_s2(_config(tmp_path, mode="monte_carlo",
                                                samples=400_000))
    pattern = re.compile(r"fig-s2: g=(\S+) loss=(\S+) Monte Carlo value replaced by the "
                         r"exact moments: expected accepted count (\d+) < 2000$")
    matches = [pattern.match(line) for line in capsys.readouterr().err.splitlines()]
    assert all(matches)
    reported = {(float(m[1]), float(m[2])) for m in matches}
    assert len(reported) == len(matches) == 8
    assert reported == {(1.15, 0.0), (1.2, 0.0), (1.25, 0.0), (1.2, 0.2), (1.25, 0.2),
                        (1.2, 0.4), (1.25, 0.4), (1.25, 0.6)}
    # the exact skewness is 0; a sampled one is not
    assert reported == {(g, loss) for g, loss, skew, _ in rows if skew == 0.0}
    assert all(int(m[3]) < 2000 for m in matches)


# --- ingest ----------------------------------------------------------------------

def test_ingest_reproduces_in_memory_pipeline(tmp_path, multi_chunk_file):
    # ingest filters and reduces chunk by chunk in one pass; across chunk
    # boundaries it must still equal the whole-batch calls exactly
    batch, csv_path = multi_chunk_file
    config = _config(tmp_path, gain=1.1, cutoff=4.0, seed=33)
    report_path, rows = run_ingest(str(csv_path), config)
    report = {name: (value, se) for name, value, se in rows}

    filtered, rate = post_select(batch, FilterSpec(1.1, 4.0), seed=33)
    cov, se = reconstruct_covariance(filtered, 1_000)
    tol = reconstruction_tolerance(se)
    want_ab, want_se = steerability_with_se(cov, se, "a_to_b", tol)
    assert report["acceptance_rate"][0] == rate
    assert report["n_accepted"][0] == np.count_nonzero(filtered.accepted)
    assert report["g_a_to_b"][0] == want_ab
    assert report["g_a_to_b"][1] == want_se
    kr, se_k = key_rate_with_se(cov, se, tol)
    assert report["key_rate"][0] == kr.key_rate
    # the reconstructed covariance is persisted in the text format
    path = os.path.join(config.out_dir, "ingest_cov.txt")
    with open(path) as fh:
        assert fh.readline() == "covmatrix v1 4\n"
    assert np.array_equal(np.loadtxt(path, skiprows=1), cov)


def test_ingest_vacuum_file(tmp_path):
    v = tmss_standard(0.0, 0.0)
    batch = sample_batch(v, 150_000, seed=35)
    csv_path = tmp_path / "vac.csv"
    write_batch_csv(batch, csv_path)
    config = _config(tmp_path, gain=1.0)
    _, rows = run_ingest(str(csv_path), config)
    report = {name: (value, se) for name, value, se in rows}
    for key in ("g_a_to_b", "g_b_to_a"):
        value, se = report[key]
        assert value <= max(3 * se, 1e-9)


def test_ingest_synthetic_model_state(tmp_path, model_state):
    batch = sample_batch(model_state, 1_000_000, seed=36)
    csv_path = tmp_path / "tmss.csv"
    write_batch_csv(batch, csv_path)
    config = _config(tmp_path, gain=1.0)
    _, rows = run_ingest(str(csv_path), config)
    report = {name: (value, se) for name, value, se in rows}
    for key in ("g_a_to_b", "g_b_to_a"):
        value, se = report[key]
        assert abs(value - 0.342340) < 3 * se


# --- selfcheck and CLI -------------------------------------------------------------

def test_selfcheck_passes(tmp_path):
    ok, lines = run_selfcheck(_config(tmp_path))
    assert ok, "\n".join(lines)
    assert len(lines) >= 10


def test_cli_fig3a_and_svg(tmp_path):
    out = tmp_path / "cli_out"
    code = main(["fig3a", "--out", str(out), "--svg", "--mode", "analytic"])
    assert code == 0
    assert (out / "fig3a.csv").exists()
    assert (out / "fig3a.svg").exists()
    svg = (out / "fig3a.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("command, name", [
    ("fig3a", "fig3a"), ("regions-c", "regions_c"), ("fig4", "fig4")])
def test_cli_svg_goes_next_to_the_csv_in_a_directory_named_like_a_csv(tmp_path, command, name):
    out = tmp_path / "run.csv.d"
    assert main([command, "--out", str(out), "--svg", "--mode", "analytic"]) == 0
    assert (out / f"{name}.svg").read_text().startswith("<svg")


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmode = quantum\n")
    assert main(["fig4", "--config", str(bad)]) == 2
    assert main(["fig4", "--config", str(tmp_path / "missing.ini")]) == 2

    # numerical failure: ingest with far too few accepted records
    v = tmss_standard(0.0, 0.0)
    batch = sample_batch(v, 20_000, seed=37)
    csv_path = tmp_path / "few.csv"
    write_batch_csv(batch, csv_path)
    assert main(["ingest", str(csv_path), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("source", ["flag", "env", "ini"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, source):
    # analytic fig3a never seeds a generator, so only validation can refuse it
    out = tmp_path / "o"
    argv = ["fig3a", "--out", str(out)]
    if source == "flag":
        argv += ["--seed", "-3"]
    elif source == "env":
        monkeypatch.setenv("STEERDIST_RUN_SEED", "-3")
    else:
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = -3\n")
        argv += ["--config", str(ini)]
    assert main(argv) == 2
    assert "run.seed must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ingest_refuses_post_selected_file(tmp_path, model_state, capsys):
    # an export after post-selection carries accepted = 0 rows; ingesting it
    # would filter already-filtered data, so the command refuses it
    out = apply_lossy(model_state, 0.3)
    filtered, _ = post_select(sample_batch(out, 20_000, seed=38), FilterSpec(1.1, 4.0), seed=39)
    rejected = len(filtered) - int(np.count_nonzero(filtered.accepted))
    assert rejected > 0
    csv_path = tmp_path / "filtered.csv"
    write_batch_csv(filtered, csv_path)
    assert main(["ingest", str(csv_path), "--out", str(tmp_path / "o")]) == 3
    assert f"{rejected} of 20000 records have accepted = 0" in capsys.readouterr().err
    assert not (tmp_path / "o" / "ingest_report.csv").exists()


@pytest.mark.parametrize("bad_row", [b"7,X,0.5,\xff,-1.0", b"7,X,0.5,1.0", b"7,X\0,0.5,1.0,-1.0"])
def test_cli_ingest_unreadable_row_exits_3(tmp_path, capsys, bad_row):
    # an undecodable byte or a malformed row is a schema error naming its line
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(b"idx,alice_basis,alice_value,bob_x,bob_p\n"
                         b"0,X,0.5,1.0,-1.0\n\n" + bad_row + b"\n")
    assert main(["ingest", str(csv_path), "--out", str(tmp_path / "o")]) == 3
    assert "line 4: " in capsys.readouterr().err


def test_cli_numerical_errors_exit_3(tmp_path, monkeypatch):
    import steerdist.experiments as exp
    from reference import schur_complement
    from steerdist import NumericalError

    def singular(variant, config):
        return schur_complement(np.diag([0.0, 0.0, 2.0, 2.0]), "b")

    monkeypatch.setattr(exp, "run_regions", singular)
    with pytest.raises(NumericalError, match="singular"):
        singular("c", None)
    assert main(["regions-c", "--out", str(tmp_path / "s")]) == 3


@pytest.mark.parametrize("error", [ValueError("boom"), np.linalg.LinAlgError("singular"),
                                   RuntimeError("bug")])
def test_cli_lets_a_defect_propagate(tmp_path, monkeypatch, error):
    # only an input refusal (2) or a numerical failure (3) has an exit code of
    # its own; anything else is a defect and reaches the console script
    import steerdist.experiments as exp

    def broken(variant, config):
        raise error

    monkeypatch.setattr(exp, "run_regions", broken)
    with pytest.raises(type(error), match=str(error)):
        main(["regions-c", "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command, ini, message", [
    ("fig3a", "[grids]\nloss_grid = 0,1.5\n", "loss must be in [0, 1], got 1.5"),
    ("fig3a", "[filter]\ncutoff_source = search\ngain = 1.0\n[grids]\nloss_grid = 0,0.2\n",
     "cutoff selection needs g > 1, got 1.0"),
    ("fig3b", "[channel]\nexcess_noise = 0\n", "fig3b requires channel.excess_noise > 0"),
    ("regions-c", "[grids]\ng_grid = 0.9,1.0\nloss_grid = 0,0.2\n",
     "gain must be >= 1, got 0.9"),
], ids=["loss", "search-gain", "fig3b-noise", "regions-gain"])
def test_cli_input_refusals_exit_2(tmp_path, capsys, command, ini, message):
    import steerdist.experiments as exp
    from steerdist import InputError
    from steerdist.cli import COMMANDS

    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
    runner, lead = COMMANDS[command]
    config = load_config(str(path), env={}, overrides={"out_dir": str(out)})
    with pytest.raises(InputError) as exc:
        getattr(exp, runner)(*lead, config)
    assert str(exc.value) == message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the records' squares overflow
def test_cli_ingest_overflowing_records_exit_3(tmp_path, capsys):
    # an estimate that overflows is refused as a degenerate reconstruction,
    # not by a linear-algebra error from its refusal message
    csv_path = tmp_path / "huge.csv"
    rows = (f"{i},{'XP'[i % 2]},1e200,1e200,-1e200\n" for i in range(20_000))
    csv_path.write_text("idx,alice_basis,alice_value,bob_x,bob_p\n" + "".join(rows))
    assert main(["ingest", str(csv_path), "--out", str(tmp_path / "o")]) == 3
    assert "reconstructed matrix is degenerate" in capsys.readouterr().err


def test_cli_gain_past_bound_exits_3(tmp_path, capsys):
    ini = tmp_path / "gain.ini"
    ini.write_text("[grids]\ng_grid = 1.0,1.5\nloss_grid = 0:0.5:0.25\n")
    out = tmp_path / "o"
    assert main(["regions-c", "--config", str(ini), "--out", str(out)]) == 3
    assert "too large" in capsys.readouterr().err
    assert not (out / "regions_c.csv").exists()


@pytest.mark.parametrize("argv", [
    ["fig3z"],                            # unknown command
    ["ingest"],                           # ingest without a path
    ["fig3a", "stray"],                   # a positional after another command
    ["selfcheck", "--seed", "1", "stray"],
    ["ingest", "a.csv", "b.csv"],
])
def test_cli_usage_errors_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, ini, status, message", [
    (["selfcheck"], None, 0, None),
    (["fig4"], "[run]\nbogus = 1\n", 2, "config error: unknown config key [run] bogus"),
    (["regions-c"], "[grids]\ng_grid = 1.0,1.5\nloss_grid = 0:0.5:0.25\n", 3,
     "numerical failure: gain 1.5 too large"),
], ids=["ok", "config", "numerical"])
def test_cli_module_exit_status_of_a_real_process(tmp_path, argv, ini, status, message):
    # the status reaches the shell only through the module's sys.exit(main())
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        argv = [*argv, "--config", "run.ini"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "steerdist.cli", *argv, "--out", "o"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == status, proc.stderr
    if status:
        assert proc.stderr.startswith(message)
    else:
        assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout and proc.stderr == ""


def test_cli_selfcheck(tmp_path, capsys):
    assert main(["selfcheck", "--out", str(tmp_path / "s")]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_cli_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("STEERDIST_GRIDS_FIG4_G_GRID", "1.0:1.1:0.05")
    out = tmp_path / "env_out"
    assert main(["fig4", "--out", str(out)]) == 0
    rows = _read_rows(out / "fig4.csv")
    assert len(rows) == 3


def _loaded_by_cli(package: str, argvs=()) -> str:
    """The modules of ``package`` loaded in a fresh interpreter that imports
    the CLI and runs ``main(argv)`` for each of ``argvs`` (each must exit 0),
    as a printed sorted list."""
    code = ("import sys, steerdist.cli, steerdist.experiments\n"
            f"for argv in {list(argvs)!r}:\n"
            "    assert steerdist.cli.main(argv) == 0, argv\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return out.stdout.splitlines()[-1]


def test_cli_import_does_not_load_scipy():
    assert _loaded_by_cli("scipy") == "[]"


def test_cli_import_does_not_load_numpy_polynomial():
    # the filter integrals are closed forms: no Gauss-Legendre node table,
    # whose eigenproblem cost every start-up ~25 ms
    assert _loaded_by_cli("numpy.polynomial") == "[]"


def test_analytic_commands_do_not_load_numpy_random(tmp_path):
    # numpy.random is imported lazily, when a sampling command or ingest
    # first seeds a generator; its import costs a fresh worker about 25 ms
    # and 9 MB
    out = str(tmp_path / "out")
    argvs = [[cmd, "--out", out] for cmd in ("regions-c", "fig-s1", "table-s1")]
    for source in ("table", "search", "config"):
        ini = tmp_path / f"{source}.ini"
        ini.write_text(f"[filter]\ncutoff_source = {source}\n")
        argvs.append(["fig3a", "--config", str(ini), "--out", out])
    assert _loaded_by_cli("numpy.random", argvs) == "[]"


def test_published_table_is_read_only_where_a_cutoff_comes_from_it(tmp_path, monkeypatch):
    import steerdist.experiments as exp

    def ini(source):
        path = tmp_path / f"{source}.ini"
        path.write_text(f"[filter]\ncutoff_source = {source}\n")
        return ["--config", str(path)]

    def refuse():
        raise AssertionError("the published cutoff table was read")

    calls = []

    def counting():
        calls.append(1)
        return real()

    real = exp.reference_cutoff_table
    for name, argv in (("fig3a.csv", ["fig3a", *ini("search")]),
                       ("fig3a.csv", ["fig3a", *ini("config")]),
                       ("table_s1.csv", ["table-s1"])):
        monkeypatch.setattr(exp, "reference_cutoff_table", real)
        assert main([*argv, "--out", str(tmp_path / "with")]) == 0
        monkeypatch.setattr(exp, "reference_cutoff_table", refuse)
        assert main([*argv, "--out", str(tmp_path / "without")]) == 0
        assert ((tmp_path / "without" / name).read_bytes()
                == (tmp_path / "with" / name).read_bytes()), argv
    monkeypatch.setattr(exp, "reference_cutoff_table", counting)
    for argv in (["fig3a", *ini("table")], ["fig-s2"], ["fig-s4"]):
        calls.clear()
        assert main([*argv, "--out", str(tmp_path / "table")]) == 0
        assert len(calls) == 1, argv


def test_fig4_key_rate_at_huge_gains_has_no_cancellation(tmp_path):
    # V comes from w = <u>/s2 of the filter integrals, not from the Bob
    # entry 2<u>/g^2 - 1 of the ensemble, which cancels as g grows: V g^2
    # tends to one limit and no warning is raised on the way
    import warnings

    path = tmp_path / "gains.ini"
    path.write_text("[grids]\nfig4_g_grid = 1e10,1e20,1e50\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig4", "--config", str(path), "--out", str(out)]) == 0
    rows = _read_rows(out / "fig4.csv")
    scaled = [float(row[name]) * float(row["g"]) ** 2
              for row in rows for name in ("v_x_cond", "v_p_cond")]
    assert len(scaled) == 6 and all(np.isfinite(float(row["key_rate"])) for row in rows)
    assert scaled == pytest.approx([scaled[0]] * 6, rel=1e-12)


@pytest.mark.parametrize("command, ini, message", [
    ("fig4", "[grids]\nfig4_g_grid = 1.2,1e100\n", "gain must be <= 1e+50, got 1e+100"),
    ("fig4", "[grids]\nfig4_g_grid = 1.2,1e200\n", "gain must be <= 1e+50, got 1e+200"),
    ("fig3a", "[filter]\ngain = 1e200\n",
     "filter.gain must be finite, >= 1 and <= 1e+50, got 1e+200"),
    ("regions-c", "[grids]\ng_grid = 1,1e200\nloss_grid = 0,0.5\n",
     "gain must be <= 1e+50, got 1e+200"),
    *[(command, f"[channel]\nexcess_noise = {eps}\n",
       f"channel.excess_noise must be finite, >= 0 and <= 1e+50, got {float(eps)}")
      for command in ("fig3b", "regions-d", "fig-s1") for eps in ("1e150", "1e200", "1e300")],
    *[(command, "[state]\nantisqueeze_db = 3000\n",
       "state.antisqueeze_db must be >= 0 with 10**(dB/10) a finite, positive float in "
       "[1e-50, 1e+50], got 3000.0")
      for command in ("fig3a", "regions-c", "fig4", "fig-s2", "table-s1")],
])
def test_amplitudes_above_the_magnitude_bound_exit_2(tmp_path, capsys, command, ini, message):
    # each of these overflowed on its way to the covariance algebra: exit 1
    # with warnings as errors, a NaN eigenvalue or a NaN key rate without
    import warnings

    path = tmp_path / "big.ini"
    path.write_text(ini)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


_AT_THE_BOUND = {
    "amplitudes": "[filter]\ngain = 1e50\ncutoff = 1e50\n[channel]\nexcess_noise = 1e50\n",
    "pure-500dB": "[state]\nsqueeze_db = -500\nantisqueeze_db = 500\n",
    "mixed-500dB": "[state]\nantisqueeze_db = 500\n",
}


@pytest.mark.parametrize("ini", _AT_THE_BOUND.values(), ids=_AT_THE_BOUND)
def test_amplitudes_at_the_magnitude_bound_are_evaluated(tmp_path, ini):
    # at the bound itself the rules accept, and the algebra ends in a value
    # or a numerical refusal (exit 3), never in an overflow; the Monte Carlo
    # runs sample one chunk at the 10,000-sample floor
    import warnings

    path = tmp_path / "edge.ini"
    path.write_text(ini + "[grids]\nloss_grid = 0,0.5\ng_grid = 1,1.2\nfig4_g_grid = 1,1.3\n")
    runs = [[command] for command in ("fig3a", "fig3b", "regions-c", "regions-d", "fig4",
                                      "fig-s1", "fig-s2", "fig-s4", "table-s1")]
    runs += [[command, "--mode", "monte_carlo", "--samples", "10000"]
             for command in ("fig4", "fig-s2", "fig-s4", "fig3b")]
    for k, argv in enumerate(runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(path), "--out", str(tmp_path / str(k))])
        assert code in (0, 3), argv


def test_region_map_above_the_cell_cap_is_refused(tmp_path, capsys):
    # each grid is under the per-grid cap, their product is not: refused
    # before the 1,001,000-cell map is built
    from steerdist.config import MAX_GRID_POINTS

    path = tmp_path / "map.ini"
    path.write_text("[grids]\ng_grid = 1:2:0.001\nloss_grid = 0:0.999:0.001\n")
    out = tmp_path / "o"
    assert main(["regions-c", "--config", str(path), "--out", str(out)]) == 2
    assert (f"config error: regions-c: a map of 1001 gains x 1000 losses has more than "
            f"{MAX_GRID_POINTS} cells") in capsys.readouterr().err
    assert not out.exists()


def test_region_map_at_the_cell_cap_is_built(tmp_path, monkeypatch):
    import steerdist.experiments as exp

    monkeypatch.setattr(exp, "MAX_GRID_POINTS", 6)
    path = tmp_path / "map.ini"
    path.write_text("[grids]\ng_grid = 1,1.1\nloss_grid = 0,0.1,0.2\n")
    assert main(["regions-d", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert len(_read_rows(tmp_path / "a" / "regions_d.csv")) == 6
    path.write_text("[grids]\ng_grid = 1,1.1\nloss_grid = 0,0.1,0.2,0.3\n")
    assert main(["regions-d", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b").exists()
