import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from steerdist import (
    FilterSpec,
    classify,
    key_rate_with_se,
    post_select,
    read_cov,
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
from steerdist.measurement import reconstruction_tolerance


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


def test_fig4_monte_carlo_matches_analytic(tmp_path):
    config = _config(tmp_path, mode="both", samples=2_000_000,
                     fig4_g_grid=np.array([1.0, 1.2, 1.3]), seed=9)
    path, _ = run_fig4(config)
    for row in _read_rows(path):
        if row["mc_key_rate"] and row["se_key_rate"]:
            diff = abs(float(row["mc_key_rate"]) - float(row["key_rate"]))
            assert diff < 3.5 * float(row["se_key_rate"])


# --- appendix --------------------------------------------------------------------

def test_fig_s1_pure_state_ordering(tmp_path):
    from steerdist.experiments import run_appendix

    config = _config(tmp_path, loss_grid=np.arange(0.0, 0.81, 0.05))
    path, rows = run_appendix("fig_s1", config)
    assert all(r[5] <= r[4] + 1e-9 for r in rows)  # B->A never surpasses A->B
    lossy_rows = [r for r in rows if r[0] == "lossy"]
    assert lossy_rows[0][2] == pytest.approx(lossy_rows[0][3], abs=1e-9)


def test_fig_s4_trend(tmp_path):
    from steerdist.experiments import run_appendix

    config = _config(tmp_path)
    path, rows = run_appendix("fig_s4", config)
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
    exp.run_appendix("fig_s4", config)
    cells = {(6, i_loss, i_g) for i_loss in range(5) for i_g in range(5)}
    assert len(keys) == 25 and set(keys) == cells  # distinct: 1.15 is not 1.14
    keys.clear()
    exp.run_appendix("fig_s2", _config(tmp_path, mode="monte_carlo", samples=40_000))
    assert keys and len(set(keys)) == len(keys)
    assert set(keys) <= {(5, i_loss, i_g) for _, i_loss, i_g in cells}


def test_fig_s2_gaussianity(tmp_path):
    from steerdist.experiments import run_appendix

    config = _config(tmp_path)
    path, rows = run_appendix("fig_s2", config)
    assert len(rows) == 25
    for g, loss, skew, kurt in rows:
        assert abs(skew) < 0.05
        assert abs(kurt - 3.0) < 0.1


# --- ingest ----------------------------------------------------------------------

def test_ingest_reproduces_in_memory_pipeline(tmp_path, model_state):
    batch = sample_batch(model_state, 120_000, seed=31)
    csv_path = tmp_path / "ext.csv"
    write_batch_csv(batch, csv_path)
    config = _config(tmp_path, gain=1.1, cutoff=4.0, seed=33)
    report_path, rows = run_ingest(str(csv_path), config, min_accepted=1_000)
    report = {name: (value, se) for name, value, se in rows}

    filtered, rate = post_select(batch, FilterSpec(1.1, 4.0), seed=33)
    cov, se = reconstruct_covariance(filtered, 1_000)
    tol = reconstruction_tolerance(se)
    want_ab, want_se = steerability_with_se(cov, se, "a_to_b", tol)
    assert report["acceptance_rate"][0] == rate
    assert report["g_a_to_b"][0] == want_ab
    assert report["g_a_to_b"][1] == want_se
    kr, se_k = key_rate_with_se(cov, se, tol)
    assert report["key_rate"][0] == kr.key_rate
    # the reconstructed covariance is persisted in the text format
    stored = read_cov(os.path.join(config.out_dir, "ingest_cov.txt"))
    assert np.array_equal(stored, cov)


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


def test_cli_numerical_errors_exit_3(tmp_path, monkeypatch):
    import steerdist.experiments as exp
    from steerdist import NumericalError, schur_complement

    def singular(variant, config):
        return schur_complement(np.diag([0.0, 0.0, 2.0, 2.0]), "b")

    monkeypatch.setattr(exp, "run_regions", singular)
    with pytest.raises(NumericalError, match="singular"):
        singular("c", None)
    assert main(["regions-c", "--out", str(tmp_path / "s")]) == 3


def test_cli_gain_past_bound_exits_3(tmp_path, capsys):
    ini = tmp_path / "gain.ini"
    ini.write_text("[grids]\ng_grid = 1.0,1.5\nloss_grid = 0:0.5:0.25\n")
    out = tmp_path / "o"
    assert main(["regions-c", "--config", str(ini), "--out", str(out)]) == 3
    assert "too large" in capsys.readouterr().err
    assert not (out / "regions_c.csv").exists()


def test_cli_selfcheck(tmp_path, capsys):
    assert main(["selfcheck", "--out", str(tmp_path / "s")]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_cli_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("STEERDIST_GRIDS_FIG4_G_GRID", "1.0:1.1:0.05")
    out = tmp_path / "env_out"
    assert main(["fig4", "--out", str(out)]) == 0
    rows = _read_rows(out / "fig4.csv")
    assert len(rows) == 3


def test_cli_import_does_not_load_scipy():
    code = ("import sys, steerdist.cli, steerdist.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
