"""Parity of the batched 1+1 analytic core with the general route.

The stack kernels (channel, amplifier, log-det steering, region label,
filtered moments, cutoff scan) are checked against the Schur/symplectic
route of :func:`steering_signed_general` and against independent block
formulas for the channel and the amplifier.
"""

import numpy as np
import pytest

from reference import random_physical_state, signed_stack, steering_signed_general
from steerdist import (
    ChannelSpec,
    CutoffCriteria,
    CutoffSearchError,
    FilterSpec,
    GainTooLargeError,
    InputError,
    NumericalError,
    UnphysicalStateError,
    apply_lossy,
    channel_stack,
    check_physical,
    filtered_ensemble,
    filtered_ensemble_stack,
    from_cov,
    max_single_mode_gain,
    min_gain_for_key,
    nla_single_mode,
    nla_single_mode_stack,
    region_labels,
    select_cutoff,
    steerability,
    steerability_stack,
    steerability_with_se_stack,
    symplectic_eigenvalues,
    tmss_standard,
)
from steerdist import steering
from steerdist.config import load_config
from steerdist.experiments import _in_grid_order, run_regions
from steerdist.gaussian import (
    _min_symplectic,
    require_cov_stack,
    require_physical_stack,
)

PAPER_GAINS = (1.05, 1.10, 1.15, 1.20, 1.25)
PAPER_LOSSES = (0.0, 0.2, 0.4, 0.6, 0.8)


def _general_signed(cov, direction):
    return steering_signed_general(from_cov(cov), direction)


def _general_labels(covs):
    gab = [max(0.0, _general_signed(c, "a_to_b")) for c in covs]
    gba = [max(0.0, _general_signed(c, "b_to_a")) for c in covs]
    return region_labels(gab, gba).tolist()


def _random_stack(seed, n=240):
    rng = np.random.default_rng(seed)
    # nu_max near 1 gives nearly pure, strongly steerable states; larger
    # values give mixed states on both sides of the steering boundary
    return np.array([random_physical_state(rng, nu_max=1.0 + 3.0 * k / n).cov
                     for k in range(n)])


def test_stack_matches_general_route_on_random_states():
    covs = _random_stack(20230817)
    for d in ("a_to_b", "b_to_a"):
        got = signed_stack(covs, d)
        want = np.array([_general_signed(c, d) for c in covs])
        assert np.max(np.abs(got - want)) < 1e-12
        # the scalar call is the N = 1 kernel call
        assert [steerability(from_cov(c), d) for c in covs] == np.maximum(got, 0.0).tolist()
    labels = region_labels(*steerability_stack(covs))
    assert labels.tolist() == _general_labels(covs)
    assert len(set(labels.tolist())) >= 3  # the stack covers several regions


def test_symplectic_closed_form_matches_eigenvalues():
    covs = _random_stack(7)
    pure = [tmss_standard(db, -db).cov for db in np.linspace(-12.0, 0.0, 25)]
    covs = np.concatenate([covs, pure])
    want = np.array([symplectic_eigenvalues(c)[0] for c in covs])
    got, pd = _min_symplectic(covs)
    assert pd.all() and np.max(np.abs(got - want)) < 1e-12
    # degenerate spectra (pure symmetric states) keep full precision
    assert np.max(np.abs(_min_symplectic(np.array(pure))[0] - 1.0)) < 1e-12
    # the scalar call is the N = 1 kernel call
    assert check_physical(covs[7]).min_symplectic_eigenvalue == got[7]


def _ref_channel(cov, loss, excess):
    """Loss then loss-scaled excess noise on Bob's mode, block by block."""
    t = 1.0 - loss
    out = cov.copy()
    out[2:, 2:] = t * cov[2:, 2:] + (1.0 - t + excess * loss) * np.eye(2)
    out[:2, 2:] = np.sqrt(t) * cov[:2, 2:]
    out[2:, :2] = out[:2, 2:].T
    return out


def _ref_amplifier(cov, g):
    """One-sided amplifier with an LAPACK inverse and the 4D^2 M - 2B I form."""
    if g == 1.0:
        return cov
    b = (g * g + 1.0) / (2.0 * (g * g - 1.0))
    d = g / (1.0 - g * g)
    k, l, x = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    m = np.linalg.inv(2.0 * b * np.eye(2) - l)
    out = np.empty((4, 4))
    out[:2, :2] = k + x @ m @ x.T
    out[:2, 2:] = -2.0 * d * x @ m
    out[2:, :2] = out[:2, 2:].T
    out[2:, 2:] = 4.0 * d * d * m - 2.0 * b * np.eye(2)
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("variant", ["c", "d"])
def test_regions_full_grid_matches_general_route(variant, tmp_path):
    config = load_config(None, env={}, overrides={"out_dir": str(tmp_path)})
    excess = 0.0 if variant == "c" else config.excess_noise
    assert config.noise_model == "loss_scaled"
    _, rows = run_regions(variant, config)
    n_loss = len(config.loss_grid)
    assert len(rows) == len(config.g_grid) * n_loss
    state = tmss_standard(config.squeeze_db, config.antisqueeze_db)
    picked = [rows[i_g * n_loss + i_loss]
              for i_g in range(0, len(config.g_grid), 2)
              for i_loss in range(0, n_loss, 13)]
    covs = [_ref_amplifier(_ref_channel(state.cov, loss, excess), g)
            for g, loss, _ in picked]
    assert [r[2] for r in picked] == _general_labels(covs)


def _point_by_point_scan(state, loss, g, criteria):
    """The cutoff scan one grid point at a time, on the general route."""
    out = ChannelSpec(loss).apply(state)
    ideal = nla_single_mode(out.cov, g)
    ref = {d: max(0.0, _general_signed(ideal, d)) for d in ("a_to_b", "b_to_a")}
    grid = np.arange(criteria.grid_min, criteria.grid_max + 1e-9, criteria.grid_step)
    rows = []
    for bc in grid:
        ens = filtered_ensemble(out, FilterSpec(g, float(bc)))
        row = {"beta_c": float(bc), "acceptance_rate": ens.acceptance_rate,
               "kurtosis": ens.bob_kurtosis}
        try:
            err = {d: abs(max(0.0, _general_signed(ens.cov, d)) - ref[d]) for d in ref}
        except NumericalError:
            err = {d: np.inf for d in ref}
        row.update(steering_err_a_to_b=err["a_to_b"], steering_err_b_to_a=err["b_to_a"])
        row["passed"] = (abs(ens.bob_kurtosis - 3.0) < criteria.kurt_tol
                         and max(err.values()) < criteria.steering_tol)
        rows.append(row)
        if row["passed"]:
            break
    return rows


def test_cutoff_scan_matches_point_by_point(model_state):
    criteria = CutoffCriteria()
    for loss in PAPER_LOSSES:
        for g in PAPER_GAINS:
            bc, diag = select_cutoff(model_state, ChannelSpec(loss), g, criteria)
            want = _point_by_point_scan(model_state, loss, g, criteria)
            assert bc == want[-1]["beta_c"]
            _assert_same_trace(diag.trace, want)


def _assert_same_trace(trace, want):
    assert len(trace) == len(want)
    for got, ref in zip(trace, want):
        assert got["beta_c"] == ref["beta_c"]
        assert got["passed"] == ref["passed"]
        assert got["skewness"] == 0.0
        for key in ("acceptance_rate", "kurtosis",
                    "steering_err_a_to_b", "steering_err_b_to_a"):
            if np.isinf(ref[key]):
                assert np.isinf(got[key])
            else:
                assert got[key] == pytest.approx(ref[key], abs=1e-12)


def test_cutoff_scan_counts_non_evaluable_points(model_state):
    # at loss 0 and g = 1.4 the ensembles truncated at cutoffs up to 1.5 have
    # a Schur complement that is not positive definite: those rows fail
    # instead of raising, and no cutoff on the grid passes
    criteria = CutoffCriteria()
    with pytest.raises(CutoffSearchError) as err:
        select_cutoff(model_state, ChannelSpec(0.0), 1.4, criteria)
    trace = err.value.trace
    assert len(trace) == 37  # the full grid 1.0 .. 10.0
    assert [row["beta_c"] for row in trace[:3]] == [1.0, 1.25, 1.5]
    for row in trace[:3]:
        assert np.isinf(row["steering_err_a_to_b"]) and row["passed"] is False
    _assert_same_trace(trace, _point_by_point_scan(model_state, 0.0, 1.4, criteria))


# --- a bad cell in a stack -------------------------------------------------------

def _stack_with(model_state, bad_cov, at=3, n=6):
    covs = np.repeat(model_state.cov[None], n, axis=0)
    covs[at] = bad_cov
    return covs


def test_bad_gain_cell_raises_scalar_class(model_state):
    g_max = max_single_mode_gain(model_state.cov)
    gains = np.full(6, 1.2)
    gains[4] = g_max * 1.01
    with pytest.raises(GainTooLargeError) as stack_err:
        nla_single_mode_stack(np.repeat(model_state.cov[None], 6, axis=0), gains)
    assert stack_err.value.cell == 4
    with pytest.raises(GainTooLargeError):
        nla_single_mode(model_state.cov, gains[4])


@pytest.mark.parametrize("gain, cutoff, message", [
    (0.5, 3.0, "gain must be >= 1, got 0.5"),
    (np.nan, 3.0, "gain must be >= 1, got nan"),
    (np.inf, 3.0, "gain must be finite and >= 1, got inf"),
    (1.2, 0.0, "cutoff must be finite and > 0, got 0.0"),
    (1.2, -1.0, "cutoff must be finite and > 0, got -1.0"),
    (1.2, np.nan, "cutoff must be finite and > 0, got nan"),
    (1.2, np.inf, "cutoff must be finite and > 0, got inf"),
])
def test_filter_kernel_refuses_what_filter_spec_refuses(model_state, gain, cutoff, message):
    gains, cutoffs = np.full(6, 1.2), np.full(6, 3.0)
    gains[3], cutoffs[3] = gain, cutoff
    with pytest.raises(ValueError) as stack_err:
        filtered_ensemble_stack(np.repeat(model_state.cov[None], 6, axis=0), gains, cutoffs)
    assert (str(stack_err.value), stack_err.value.cell) == (message, 3)
    with pytest.raises(ValueError) as spec_err:
        FilterSpec(gain, cutoff)
    assert str(spec_err.value) == message


def test_amplifier_and_channel_kernels_refuse_an_infinite_value(model_state):
    covs = np.repeat(model_state.cov[None], 6, axis=0)
    gains = np.full(6, 1.2)
    gains[3] = np.inf
    with pytest.raises(ValueError, match="gain must be finite and >= 1, got inf") as err:
        nla_single_mode_stack(covs, gains)
    assert err.value.cell == 3
    excess = np.full(6, 0.1)
    excess[4] = np.inf
    with pytest.raises(ValueError, match="excess_noise must be finite and >= 0") as err:
        channel_stack(covs, 0.2, excess)
    assert err.value.cell == 4


@pytest.mark.parametrize("call, message", [
    (lambda s: select_cutoff(s, ChannelSpec(0.2), np.nan), "gain must be >= 1, got nan"),
    (lambda s: min_gain_for_key(s, -1.0, [0.5, 1.2]), "cutoff must be finite and > 0, got -1.0"),
    (lambda s: nla_single_mode(s.cov, 0.5), "gain must be >= 1, got 0.5"),
    (lambda s: apply_lossy(s, 1.5), "loss must be in [0, 1], got 1.5"),
], ids=["select_cutoff", "min_gain_for_key", "nla_single_mode", "apply_lossy"])
def test_a_refused_single_value_names_no_cell(model_state, call, message):
    # the kernels check a scalar argument as passed, before broadcasting it
    # to the stack, so its refusal carries no row's cell
    with pytest.raises(InputError) as err:
        call(model_state)
    assert str(err.value) == message
    assert getattr(err.value, "cell", None) is None


def test_unphysical_amplifier_output_raises_scalar_class(model_state):
    # the amplifier does not check its input; an unphysical input gives an
    # unphysical output, which the output check rejects
    bad = 0.9 * tmss_standard(-3.0, 3.0).cov
    gains = np.array([1.0, 1.2, 1.2, 1.2, 1.2, 1.2])
    with pytest.raises(UnphysicalStateError, match="amplified") as stack_err:
        nla_single_mode_stack(_stack_with(model_state, bad), gains)
    assert stack_err.value.cell == 3
    with pytest.raises(UnphysicalStateError, match="amplified"):
        nla_single_mode(bad, 1.2)
    # gain 1 returns the entry unchanged, unchecked, like the scalar call
    unit = nla_single_mode_stack(_stack_with(model_state, bad, at=0), gains)
    assert np.array_equal(unit[0], bad)


def test_unphysical_cell_raises_scalar_class(model_state):
    bad = 0.4 * np.eye(4)
    covs = _stack_with(model_state, bad)
    with pytest.raises(UnphysicalStateError) as stack_err:
        steerability_stack(covs)
    assert stack_err.value.cell == 3
    with pytest.raises(UnphysicalStateError):
        steerability(from_cov(bad), "a_to_b")
    with pytest.raises(UnphysicalStateError) as stack_err:
        channel_stack(covs, 0.1)
    assert stack_err.value.cell == 3
    with pytest.raises(UnphysicalStateError):
        ChannelSpec(0.1).apply(from_cov(bad))


def test_singular_conditioning_block_raises_general_class(model_state, monkeypatch):
    bad = np.diag([0.0, 0.0, 2.0, 2.0])
    covs = _stack_with(model_state, bad)
    # the SE stack has no physicality gate, which refuses cell 3 first
    with pytest.raises(NumericalError, match="conditioning block is singular") as stack_err:
        steerability_with_se_stack(covs, np.zeros_like(covs))
    assert stack_err.value.cell == 3
    with pytest.raises(NumericalError, match="conditioning block is singular"):
        _general_signed(bad, "a_to_b")

    def singular(a, b):  # det sigma = 0 up to rounding
        c = np.sqrt(a * b) * np.diag([1.0, -1.0])
        return np.block([[a * np.eye(2), c], [c, b * np.eye(2)]])

    # rounding leaves cell 3 evaluable in A->B only and cell 5 in B->A only
    covs = _stack_with(model_state, singular(1.2, 1.1))
    covs[5] = singular(1.1, 1.2)
    with pytest.raises(NumericalError, match="not positive definite") as want:
        steerability_with_se_stack(covs[3:4], np.zeros_like(covs[3:4]))
    # the physicality gate would refuse cell 5 first, whose A->B Schur
    # complement is its positive-definiteness test; lifted, the first cell
    # wins whichever direction fails there, in every stack
    monkeypatch.setattr(steering, "_require_stack", lambda covs, tol: require_cov_stack(covs))
    for stack in (steerability_stack, lambda c: steerability_with_se_stack(c, np.zeros_like(c))):
        with pytest.raises(NumericalError) as got:
            stack(covs)
        assert (type(got.value), str(got.value), got.value.cell) == (
            NumericalError, str(want.value), 3)


def test_unphysical_cell_wins_over_a_later_singular_one(model_state):
    # one physicality pass: cell 2 (positive definite, unphysical) comes
    # before cell 4 (not positive definite), so cell 2's error is raised
    covs = _stack_with(model_state, 0.4 * np.eye(4), at=2)
    covs[4] = np.diag([0.0, 0.0, 2.0, 2.0])
    for stack in (require_physical_stack, steerability_stack, lambda c: channel_stack(c, 0.1)):
        with pytest.raises(UnphysicalStateError) as err:
            stack(covs)
        assert err.value.cell == 2
    with pytest.raises(NumericalError, match="not positive definite") as err:
        require_physical_stack(covs[3:])
    assert type(err.value) is NumericalError and err.value.cell == 1


def test_anisotropic_cell_raises_scalar_class(model_state):
    bad = np.diag([2.0, 2.0, 1.5, 2.5])
    with pytest.raises(NotImplementedError) as stack_err:
        filtered_ensemble_stack(_stack_with(model_state, bad), 1.1, 4.0)
    assert stack_err.value.cell == 3
    with pytest.raises(NotImplementedError):
        filtered_ensemble(from_cov(bad), FilterSpec(1.1, 4.0))


def test_asymmetric_cell_raises_scalar_class(model_state):
    bad = model_state.cov.copy()
    bad[0, 2] += 1e-6
    with pytest.raises(ValueError, match="symmetric") as stack_err:
        steerability_stack(_stack_with(model_state, bad))
    assert stack_err.value.cell == 3
    with pytest.raises(ValueError, match="symmetric"):
        from_cov(bad)


def test_first_failing_cell_wins_across_stages():
    calls = []

    def failing(stage, cell, n):
        if n > cell:
            exc = NumericalError(f"{stage} fails at {cell}")
            exc.cell = cell
            raise exc

    def chain(n):
        calls.append(n)
        failing("channel", 5, n)  # the earlier stage rejects a later cell
        failing("amplifier", 2, n)
        return list(range(n))

    with pytest.raises(NumericalError, match="amplifier fails at 2"):
        _in_grid_order(chain, 8)
    assert calls == [8, 5, 2]
    assert _in_grid_order(chain, 2) == [0, 1]


def test_regions_stops_at_first_failing_cell(tmp_path):
    config = load_config(None, env={}, overrides={
        "out_dir": str(tmp_path), "g_grid": np.array([1.0, 1.2, 1.5]),
        "loss_grid": np.array([0.0, 0.5, 0.9])})
    # g = 1.5 is past the bound at loss 0 (1.44) and 0.5 (1.78 > 1.5 is fine)
    with pytest.raises(GainTooLargeError, match="gain 1.5 ") as err:
        run_regions("c", config)
    assert err.value.cell == 6
    assert not (tmp_path / "regions_c.csv").exists()
