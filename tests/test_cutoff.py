import numpy as np
import pytest
from reference import cutoff_from_table_per_pair

import steerdist.cutoff
import steerdist.qkd
import steerdist.steering
from steerdist import (
    ChannelSpec,
    CutoffCriteria,
    CutoffSearchError,
    channel_stack,
    cutoff_from_table,
    reference_cutoff_table,
    select_cutoff,
    select_cutoff_stack,
)
from steerdist.cli import main
from steerdist.config import load_config, parse_grid
from steerdist.experiments import run_fig3
from steerdist.filtered_moments import filtered_ensemble_stack
from steerdist.nla import nla_single_mode_stack
from steerdist.steering import steerability_stack

PAPER_GAINS = (1.05, 1.10, 1.15, 1.20, 1.25)
PAPER_LOSSES = (0.0, 0.2, 0.4, 0.6, 0.8)


def test_reference_table_contents():
    table = reference_cutoff_table()
    assert len(table) == 25
    assert table[(0.0, 1.20)] == 5.50
    assert table[(0.8, 1.05)] == 3.00


def test_nearest_grid_lookup():
    assert cutoff_from_table(0.0, 1.2) == 5.50
    assert cutoff_from_table(0.07, 1.19) == 5.50  # snaps to (0.0, 1.20)
    assert cutoff_from_table(0.71, 1.06) == 3.00  # snaps to (0.8, 1.05)
    for loss, g in ((0.0, 1.2), (np.float64(0.3), 1.1), (np.array(0.5), np.array(1.25))):
        assert type(cutoff_from_table(loss, g)) is float  # one pair gives a float


@pytest.mark.parametrize("loss, g", [(np.nan, 1.2), (0.3, np.nan), (np.inf, 1.2), (0.3, -np.inf)])
def test_table_lookup_refuses_a_non_finite_loss_or_gain(loss, g):
    with pytest.raises(ValueError, match="loss and gain must be finite"):
        cutoff_from_table(loss, g)


def test_grid_lookup_matches_the_per_pair_rule():
    table = reference_cutoff_table()
    halfway_losses = [0.1, 0.3, 0.5, 0.7]
    halfway_gains = [1.075, 1.125, 1.175, 1.225]
    losses = [*PAPER_LOSSES, *halfway_losses, -0.5, 0.9, 1.5, *parse_grid("0:0.98:0.002")]
    gains = [*PAPER_GAINS, *halfway_gains, 0.5, 1.0, 1.3, 2.0]
    # the default loss grid holds 0.1, 0.3 and 0.5 exactly, 0.7 one rounding off
    assert np.isin(halfway_losses[:3], parse_grid("0:0.98:0.002")).all()
    loss, g = np.meshgrid(losses, gains, indexing="ij")
    got = cutoff_from_table(loss, g, table)
    assert got.shape == loss.shape
    want = [[cutoff_from_table_per_pair(x, y, table) for y in gains] for x in losses]
    assert np.array_equal(got, want)
    # in floats, losses 0.1 and 0.5 and gain 1.125 are exact ties, which take
    # the smaller grid value
    assert cutoff_from_table([0.1, 0.5], 1.125).tolist() == [table[(0.0, 1.10)],
                                                             table[(0.4, 1.10)]]
    # other halfway values are not ties in floats and snap to the nearer value
    grid_07 = parse_grid("0:0.98:0.002")[350]
    assert grid_07 == 0.7000000000000001
    assert cutoff_from_table([0.3, 0.7, grid_07], 1.10).tolist() == [
        table[(0.2, 1.10)], table[(0.6, 1.10)], table[(0.8, 1.10)]]
    assert cutoff_from_table(0.0, [1.075, 1.175, 1.225]).tolist() == [
        table[(0.0, 1.05)], table[(0.0, 1.20)], table[(0.0, 1.25)]]


def test_grid_lookup_refuses_the_first_non_finite_pair():
    loss = np.array([0.0, 0.2, np.inf, 0.6])
    g = np.array([1.1, np.nan, 1.2, 1.3])
    with pytest.raises(ValueError, match=r"^loss and gain must be finite, got loss 0\.2, "
                                         r"gain nan$") as info:
        cutoff_from_table(loss, g)
    assert info.value.cell == 1
    with pytest.raises(ValueError, match="got loss inf, gain 1.2") as info:
        cutoff_from_table(loss[[0, 2]], 1.2)
    assert info.value.cell == 1
    with pytest.raises(ValueError, match="got loss nan, gain 1.2") as info:
        cutoff_from_table(np.nan, 1.2)
    assert not hasattr(info.value, "cell")  # one pair names no cell


def test_selected_cutoffs_match_published_corners(model_state):
    # published: (0, 1.20) -> 5.50 and (0.8, 1.05) -> 3.00, tolerance half a step
    bc, diag = select_cutoff(model_state, ChannelSpec(0.0), 1.20)
    assert abs(bc - 5.50) <= 0.5
    assert diag.kurtosis == pytest.approx(3.0, abs=0.05)
    bc, _ = select_cutoff(model_state, ChannelSpec(0.8), 1.05)
    assert abs(bc - 3.00) <= 0.5


def test_full_table_within_half_step_and_monotone(model_state):
    ref = reference_cutoff_table()
    table = {}
    for loss in PAPER_LOSSES:
        for g in PAPER_GAINS:
            bc, _ = select_cutoff(model_state, ChannelSpec(loss), g)
            table[(loss, g)] = bc
            assert abs(bc - ref[(loss, g)]) <= 0.5, (loss, g, bc)
    # non-increasing in loss at fixed g, non-decreasing in g at fixed loss
    for g in PAPER_GAINS:
        col = [table[(loss, g)] for loss in PAPER_LOSSES]
        assert all(a >= b for a, b in zip(col, col[1:]))
    for loss in PAPER_LOSSES:
        row = [table[(loss, g)] for g in PAPER_GAINS]
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_scan_trace_records_failures(model_state):
    bc, diag = select_cutoff(model_state, ChannelSpec(0.2), 1.2)
    assert diag.trace[-1]["beta_c"] == bc
    assert all(not row["passed"] for row in diag.trace[:-1])
    assert diag.trace[0]["beta_c"] == 1.0


def test_acceptance_rate_at_optimum_decreases_with_gain(model_state):
    for loss in (0.0, 0.4, 0.8):
        rates = []
        for g in PAPER_GAINS:
            _, diag = select_cutoff(model_state, ChannelSpec(loss), g)
            rates.append(diag.acceptance_rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))


def test_search_failure_reports_trace(model_state):
    criteria = CutoffCriteria(steering_tol=1e-9, grid_max=3.0)
    with pytest.raises(CutoffSearchError) as err:
        select_cutoff(model_state, ChannelSpec(0.0), 1.2, criteria)
    assert len(err.value.trace) == 9  # 1.0 .. 3.0 in quarter steps


def test_gain_must_exceed_one(model_state):
    with pytest.raises(ValueError):
        select_cutoff(model_state, ChannelSpec(0.0), 1.0)


def test_criteria_validation():
    with pytest.raises(ValueError):
        CutoffCriteria(kurt_tol=0.0)
    # NaN would make every cutoff fail, an empty grid fail inside np.argmax
    nan, inf = float("nan"), float("inf")
    for name in ("kurt_tol", "steering_tol", "grid_step"):
        for value in (nan, inf, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                CutoffCriteria(**{name: value})
    for bounds in ((nan, 10.0), (1.0, nan), (1.0, inf), (0.0, 10.0), (5.0, 4.0)):
        with pytest.raises(ValueError, match="grid_min <= grid_max"):
            CutoffCriteria(grid_min=bounds[0], grid_max=bounds[1])
    assert len(select_cutoff_stack(np.eye(4)[None], 1.1, CutoffCriteria(
        grid_min=2.0, grid_max=2.0)).grid) == 1
    # parse_grid's point cap, refused before a grid is allocated
    for kwargs in ({"grid_step": 1e-12}, {"grid_max": 1e300}):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            CutoffCriteria(**kwargs)


def test_search_modules_bind_no_sampler(model_state):
    # the cutoff search and the key-rate gain search are exact: neither module
    # reaches the Monte Carlo pipeline
    sampler = {"sample_batch", "post_select", "reconstruct_covariance",
               "reconstruction_tolerance", "moment_stats"}
    for module in (steerdist.cutoff, steerdist.qkd):
        assert sampler.isdisjoint(vars(module)), module.__name__
    bc, _ = select_cutoff(model_state, ChannelSpec(0.4), 1.1)
    assert bc == 3.75


def test_steering_binds_nothing_from_measurement():
    # the steering monotone and its SE are covariance algebra, so the module
    # that the cutoff search imports reaches nothing in the Monte Carlo module
    bound = [name for name, value in vars(steerdist.steering).items()
             if getattr(value, "__module__", None) == "steerdist.measurement"]
    assert not bound


# --- the batched search ------------------------------------------------------------

def test_stack_search_is_bit_equal_to_scalar_search(model_state):
    # the published 5x5 grid, then fig3a's 491-point loss grid at g = 1.2,
    # in one stack with a gain per cell
    cells = [(loss, g) for loss in PAPER_LOSSES for g in PAPER_GAINS]
    cells += [(float(loss), 1.2) for loss in parse_grid("0:0.98:0.002")]
    losses, gains = zip(*cells)
    scan = select_cutoff_stack(channel_stack(model_state.cov, losses), gains)
    assert scan.passed.shape == (len(cells), 37)
    for i, (loss, g) in enumerate(cells):
        bc, diag = select_cutoff(model_state, ChannelSpec(loss), g)
        j = int(np.argmax(scan.passed[i]))
        assert scan.beta_c[i] == bc == scan.grid[j]
        assert (scan.rates[i, j], scan.kurtosis[i, j],
                scan.err_a_to_b[i, j], scan.err_b_to_a[i, j]) == (
            diag.acceptance_rate, diag.kurtosis,
            diag.steering_err_a_to_b, diag.steering_err_b_to_a)
        if i < 25:
            assert scan.trace(i) == diag.trace


@pytest.mark.parametrize("g", [1.2, 1.4])
def test_fig3a_search_columns_are_the_scan_references(tmp_path, model_state, g):
    # the search-mode runner takes its amplified steering and acceptance
    # rates from the cutoff scan: bit for bit the direct kernel calls.  At
    # g = 1.4 no cutoff passes below loss 0.2, so the runner gets the cells
    # of the default grid that have one.
    losses = parse_grid("0:0.98:0.002")
    outs = channel_stack(model_state.cov, losses)
    beta_c = select_cutoff_stack(outs, g).beta_c
    keep = ~np.isnan(beta_c)
    losses, outs, beta_c = losses[keep], outs[keep], beta_c[keep]
    config = load_config(None, env={}, overrides={
        "out_dir": str(tmp_path), "gain": g, "cutoff_source": "search", "loss_grid": losses})
    _, rows = run_fig3("a", config)
    cols = np.array(rows)[:, 3:6].T
    assert (cols[:2] == steerability_stack(nla_single_mode_stack(outs, g))).all()
    assert (cols[2] == filtered_ensemble_stack(outs, g, beta_c)[0]).all()
    # one cell's rows of an 8-cell scan (8 x 37 rows) against an 8-row call
    scan = select_cutoff_stack(outs[:8], g)
    chosen = scan.rates[np.arange(8), np.argmax(scan.passed, axis=1)]
    assert (chosen == filtered_ensemble_stack(outs[:8], g, scan.beta_c)[0]).all()
    assert (chosen == cols[2, :8]).all()


def test_stack_search_marks_cells_without_cutoff(model_state):
    # at g = 1.4 no grid cutoff passes below loss 0.2 (see test_stack_kernels)
    losses = (0.6, 0.1, 0.0)
    scan = select_cutoff_stack(channel_stack(model_state.cov, losses), 1.4)
    assert scan.beta_c[0] > 0 and np.isnan(scan.beta_c[1:]).all()
    with pytest.raises(CutoffSearchError) as err:
        scan.require(losses)
    with pytest.raises(CutoffSearchError) as want:
        select_cutoff(model_state, ChannelSpec(0.1), 1.4)
    assert err.value.cell == 1
    assert str(err.value) == str(want.value) and err.value.trace == want.value.trace


def test_stack_search_names_the_refused_cell_not_its_row(model_state):
    # filtered_ensemble_stack sees N x 37 (cell, cutoff) rows and tags the
    # first refused row; the search re-tags it with that row's cell
    anisotropic = np.diag([2.0, 2.0, 1.5, 2.5])
    outs = np.stack([model_state.cov, anisotropic, model_state.cov])
    with pytest.raises(NotImplementedError, match="isotropic") as exc:
        select_cutoff_stack(outs, 1.2)
    assert exc.value.cell == 1


def test_fig3a_search_reports_first_cell_without_cutoff(tmp_path, model_state, capsys):
    # the middle cell (loss 0.1) is the first with no passing cutoff; loss 0
    # after it fails too
    ini = tmp_path / "search.ini"
    ini.write_text("[filter]\ngain = 1.4\ncutoff_source = search\n"
                   "[grids]\nloss_grid = 0.8,0.4,0.1,0.0,0.6\n")
    config = load_config(str(ini), env={}, overrides={"out_dir": str(tmp_path / "run")})
    with pytest.raises(CutoffSearchError) as err:
        run_fig3("a", config)
    with pytest.raises(CutoffSearchError) as want:
        select_cutoff(model_state, ChannelSpec(0.1), 1.4)
    assert err.value.cell == 2
    assert str(err.value) == str(want.value) and err.value.trace == want.value.trace
    assert main(["fig3a", "--config", str(ini), "--out", str(tmp_path / "cli")]) == 3
    assert str(want.value) in capsys.readouterr().err
    assert not (tmp_path / "run" / "fig3a.csv").exists()
    assert not (tmp_path / "cli" / "fig3a.csv").exists()


def test_shared_rules_and_failure_types(model_state):
    from steerdist import FilterSpec, InputError, NoPositiveKeyError, NumericalError

    # one "finite and > 0" rule for the filter's cutoff and the criteria
    with pytest.raises(InputError, match=r"^kurt_tol must be finite and > 0, got nan$"):
        CutoffCriteria(kurt_tol=float("nan"))
    with pytest.raises(InputError, match=r"^cutoff must be finite and > 0, got 0.0$"):
        FilterSpec(1.2, 0.0)
    # the gain rule first, then the search's own g > 1
    outs = np.stack([model_state.cov] * 2)
    with pytest.raises(InputError, match=r"^gain must be finite and >= 1, got inf$") as exc:
        select_cutoff_stack(outs, [1.2, np.inf])
    assert exc.value.cell == 1
    with pytest.raises(InputError, match=r"^gain must be >= 1, got 0.5$"):
        select_cutoff_stack(outs, 0.5)
    with pytest.raises(InputError, match=r"^cutoff selection needs g > 1, got 1.0$"):
        select_cutoff_stack(outs, 1.0)
    # no grid point meeting the criteria is a numerical failure (exit 3)
    assert issubclass(CutoffSearchError, NumericalError)
    assert issubclass(NoPositiveKeyError, NumericalError)
