import numpy as np
import pytest

from steerdist import (
    BASIS_P,
    BASIS_X,
    FilterSpec,
    ReconstructionError,
    acceptance_probability,
    acceptance_rate_exact,
    apply_lossy,
    cutoff_from_table,
    moment_stats,
    nla_single_mode,
    post_select,
    read_batch_csv,
    reconstruct_covariance,
    sample_batch,
    steerability_with_se,
    tmss_standard,
    vacuum_state,
    write_batch_csv,
)
from steerdist.measurement import BatchSchemaError, reconstruction_tolerance


def _se_units(got, want, se):
    return np.max(np.abs(got - want) / np.where(se > 0, se, np.inf))


# --- acceptance probability ---------------------------------------------------

def test_acceptance_probability_at_cutoff_is_one():
    f = FilterSpec(1.2, 4.5)
    assert acceptance_probability(4.5, f) == 1.0
    assert acceptance_probability(6.0, f) == 1.0


def test_acceptance_probability_unit_gain():
    f = FilterSpec(1.0, 4.5)
    for b in (0.0, 1.0, 4.49, 10.0):
        assert acceptance_probability(b, f) == 1.0


def test_acceptance_probability_origin_value():
    # direct evaluation of exp(-(1-g^-2) |beta_c|^2)
    f = FilterSpec(1.2, 4.5)
    want = np.exp(-(1 - 1 / 1.44) * 20.25)
    assert acceptance_probability(0.0, f) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(2.055e-3, abs=2e-6)


def test_acceptance_probability_continuous_at_cutoff():
    f = FilterSpec(1.3, 3.0)
    assert acceptance_probability(3.0 - 1e-9, f) == pytest.approx(1.0, abs=1e-8)


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(0.99, 4.5)
    with pytest.raises(ValueError):
        FilterSpec(1.2, 0.0)


# --- sampling -------------------------------------------------------------------

def test_vacuum_heterodyne_variance():
    batch = sample_batch(vacuum_state(), 1_000_000, seed=101)
    se = np.sqrt(2.0 / len(batch))  # SE of a unit-variance estimate
    assert abs(np.var(batch.bob_x) - 1.0) < 3 * se
    assert abs(np.var(batch.bob_p) - 1.0) < 3 * se


def test_model_state_heterodyne_moments(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    batch = sample_batch(model_state, 1_000_000, seed=102)
    want_var = (n + 1) / 2
    assert want_var == pytest.approx(1.93763, abs=1e-5)
    se = want_var * np.sqrt(2.0 / len(batch))
    assert abs(np.var(batch.bob_x) - want_var) < 3 * se

    mask = batch.alice_basis == BASIS_X
    got = np.cov(batch.bob_x[mask], batch.alice_value[mask])[0, 1]
    want_cov = c / np.sqrt(2)
    assert want_cov == pytest.approx(1.76428, abs=1e-5)
    assert abs(got - want_cov) < 3 * 2.6 * np.sqrt(1.0 / mask.sum())


def test_alternating_schedule_is_half_half():
    batch = sample_batch(vacuum_state(), 1000, seed=1)
    assert np.array_equal(batch.alice_basis[:4], [BASIS_X, BASIS_P, BASIS_X, BASIS_P])


def test_random_schedule_deterministic():
    a = sample_batch(vacuum_state(), 50_000, seed=5, basis_schedule="random")
    b = sample_batch(vacuum_state(), 50_000, seed=5, basis_schedule="random")
    assert np.array_equal(a.alice_basis, b.alice_basis)
    frac = np.mean(a.alice_basis == BASIS_X)
    assert abs(frac - 0.5) < 0.01


def test_sampling_determinism_under_threads(model_state):
    one = sample_batch(model_state, 300_000, seed=7, threads=1)
    four = sample_batch(model_state, 300_000, seed=7, threads=4)
    for name in ("alice_basis", "alice_value", "bob_x", "bob_p"):
        assert np.array_equal(getattr(one, name), getattr(four, name))


def test_sampling_rejects_bad_inputs(model_state):
    with pytest.raises(ValueError):
        sample_batch(model_state, 0, seed=1)
    with pytest.raises(ValueError, match="schedule"):
        sample_batch(model_state, 10, seed=1, basis_schedule="spiral")


# --- post-selection -------------------------------------------------------------

def test_unit_gain_accepts_everything(model_state):
    batch = sample_batch(model_state, 50_000, seed=9)
    out, rate = post_select(batch, FilterSpec(1.0, 4.5), seed=3)
    assert rate == 1.0
    assert np.array_equal(out.bob_x, batch.bob_x)
    assert np.array_equal(out.alice_value, batch.alice_value)


def test_acceptance_rate_decreases_with_gain(model_state):
    batch = sample_batch(model_state, 400_000, seed=10)
    rates = [post_select(batch, FilterSpec(g, 4.0), seed=3)[1]
             for g in (1.05, 1.1, 1.15, 1.2)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    exact = [acceptance_rate_exact(model_state, FilterSpec(g, 4.0))
             for g in (1.05, 1.1, 1.15, 1.2)]
    assert all(a > b for a, b in zip(exact, exact[1:]))


def test_acceptance_rate_increases_with_loss_at_table_cutoffs(model_state):
    # published behavior with the per-cell optimal cutoffs
    rates = []
    for loss in (0.0, 0.2, 0.4, 0.6, 0.8):
        out = apply_lossy(model_state, loss)
        filt = FilterSpec(1.1, cutoff_from_table(loss, 1.1))
        rates.append(acceptance_rate_exact(out, filt))
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_rescaling_applies_only_to_accepted(model_state):
    batch = sample_batch(model_state, 100_000, seed=11)
    filt = FilterSpec(1.2, 2.0)
    out, rate = post_select(batch, filt, seed=4)
    acc = out.accepted
    assert 0 < rate < 1
    assert np.allclose(out.bob_x[acc] * 1.2, batch.bob_x[acc])
    assert np.array_equal(out.bob_x[~acc], batch.bob_x[~acc])
    assert np.array_equal(out.alice_value, batch.alice_value)


def test_post_select_deterministic(model_state):
    batch = sample_batch(model_state, 100_000, seed=12)
    a, _ = post_select(batch, FilterSpec(1.2, 4.0), seed=5)
    b, _ = post_select(batch, FilterSpec(1.2, 4.0), seed=5)
    assert np.array_equal(a.accepted, b.accepted)


def test_acceptance_stream_independent_of_filter(model_state):
    # same seed, different filters: the records (Gaussian stream) are shared
    batch = sample_batch(model_state, 50_000, seed=13)
    a, _ = post_select(batch, FilterSpec(1.1, 3.0), seed=6)
    b, _ = post_select(batch, FilterSpec(1.25, 5.0), seed=6)
    assert np.array_equal(a.alice_value, b.alice_value)
    assert np.array_equal(a.bob_x[~a.accepted & ~b.accepted],
                          b.bob_x[~a.accepted & ~b.accepted])


# --- reconstruction -------------------------------------------------------------

def test_vacuum_roundtrip():
    batch = sample_batch(vacuum_state(), 1_000_000, seed=20)
    cov, se = reconstruct_covariance(batch)
    assert _se_units(cov, np.eye(4), se) < 5.0


def test_model_state_roundtrip(model_state):
    batch = sample_batch(model_state, 1_000_000, seed=21)
    cov, se = reconstruct_covariance(batch)
    assert _se_units(cov, model_state.cov, se) < 5.0


def test_filtered_roundtrip_matches_ideal_amplifier(model_state):
    # the module's central equivalence at desk scale
    out = apply_lossy(model_state, 0.2)
    batch = sample_batch(out, 2_000_000, seed=22)
    filtered, _ = post_select(batch, FilterSpec(1.2, 4.75), seed=23)
    cov, se = reconstruct_covariance(filtered, min_accepted=2_000)
    ideal = nla_single_mode(out.cov, 1.2)
    assert _se_units(cov, ideal, se) < 5.0
    # steering consistent within propagated error bars
    tol = reconstruction_tolerance(se)
    from steerdist import from_cov, steerability
    for d in ("a_to_b", "b_to_a"):
        val, err = steerability_with_se(cov, se, d, tol)
        assert abs(val - steerability(from_cov(ideal), d)) < 3 * err


def _se_per_matrix(func, cov, se):
    """The finite-difference SE evaluated one perturbed matrix at a time."""
    var = 0.0
    for i in range(4):
        for j in range(i, 4):
            if se[i, j] == 0.0:
                continue
            h = 1e-5 * max(1.0, abs(cov[i, j]))
            up, dn = cov.copy(), cov.copy()
            up[i, j] = up[j, i] = cov[i, j] + h
            dn[i, j] = dn[j, i] = cov[i, j] - h
            var += ((func(up) - func(dn)) / (2.0 * h) * se[i, j]) ** 2
    return float(np.sqrt(var))


def test_stacked_se_equals_per_matrix_loop(model_state):
    from steerdist import from_cov, key_rate, key_rate_with_se, steering_signed

    batch = sample_batch(apply_lossy(model_state, 0.3), 200_000, seed=31)
    filtered, _ = post_select(batch, FilterSpec(1.2, 3.0), seed=32)
    cov, se = reconstruct_covariance(filtered, min_accepted=1_000)
    assert se[0, 1] == 0.0  # Alice's x-p entry is skipped
    tol = reconstruction_tolerance(se)
    for d in ("a_to_b", "b_to_a"):
        _, err = steerability_with_se(cov, se, d, tol)
        assert err > 0.0
        assert err == _se_per_matrix(
            lambda c: steering_signed(from_cov(c), d, np.inf), cov, se)
    _, err = key_rate_with_se(cov, se, tol)
    assert err > 0.0
    assert err == _se_per_matrix(lambda c: key_rate(c, np.inf).key_rate, cov, se)


def test_error_scaling_with_sample_count(model_state):
    errs = []
    for count, seed in ((250_000, 30), (1_000_000, 31)):
        batch = sample_batch(model_state, count, seed=seed)
        cov, _ = reconstruct_covariance(batch)
        errs.append(np.linalg.norm(cov - model_state.cov))
    ratio = errs[1] / errs[0]  # expect ~1/2 at 4x the samples
    assert 0.5 * 0.7 < ratio < 0.5 * 1.3


def test_reconstruction_requires_both_bases(model_state):
    batch = sample_batch(model_state, 40_000, seed=24)
    crippled = type(batch)(
        alice_basis=np.full(len(batch), BASIS_X, dtype=np.uint8),
        alice_value=batch.alice_value,
        bob_x=batch.bob_x,
        bob_p=batch.bob_p,
    )
    with pytest.raises(ReconstructionError, match="bases"):
        reconstruct_covariance(crippled)


def test_reconstruction_requires_enough_records(model_state):
    batch = sample_batch(model_state, 5_000, seed=25)
    with pytest.raises(ReconstructionError, match="too few"):
        reconstruct_covariance(batch)
    reconstruct_covariance(batch, min_accepted=1_000)  # explicit opt-down works


# --- moments ---------------------------------------------------------------------

def test_moment_stats_gaussian(rng):
    stats = moment_stats(rng.standard_normal(1_000_000))
    assert abs(stats.skewness) < 0.01
    assert abs(stats.kurtosis - 3.0) < 0.03


def test_moment_stats_exponential(rng):
    stats = moment_stats(rng.exponential(1.0, 1_000_000))
    assert stats.skewness == pytest.approx(2.0, abs=0.05)
    assert stats.kurtosis == pytest.approx(9.0, abs=0.5)


def test_moment_stats_match_scipy(rng):
    from scipy import stats  # test oracle only

    for values in (rng.standard_normal(10_000), rng.exponential(2.0, 10_000),
                   3.0 + rng.gamma(0.5, 1.0, 777)):
        got = moment_stats(values)
        assert got.skewness == pytest.approx(stats.skew(values), rel=1e-12)
        assert got.kurtosis == pytest.approx(stats.kurtosis(values, fisher=False), rel=1e-12)


def test_moment_stats_degenerate():
    with pytest.raises(ValueError):
        moment_stats(np.ones(10))
    with pytest.raises(ValueError):
        moment_stats(np.array([1.0]))


# --- CSV -------------------------------------------------------------------------

def test_batch_csv_roundtrip_bit_exact(model_state, tmp_path):
    batch = sample_batch(model_state, 20_000, seed=40)
    filtered, _ = post_select(batch, FilterSpec(1.2, 4.0), seed=41)
    path = tmp_path / "batch.csv"
    write_batch_csv(filtered, path)
    back = read_batch_csv(path)
    for name in ("alice_basis", "alice_value", "bob_x", "bob_p", "accepted"):
        assert np.array_equal(getattr(filtered, name), getattr(back, name))


def test_batch_csv_accepts_missing_accepted_column(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(
        "idx,alice_basis,alice_value,bob_x,bob_p\n"
        "0,X,0.5,1.0,-1.0\n"
        "1,P,-0.25,0.125,2.0\n"
    )
    batch = read_batch_csv(path)
    assert batch.accepted is None
    assert batch.alice_value[1] == -0.25


def test_batch_csv_schema_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "idx,alice_basis,alice_value,bob_x,bob_p,accepted\n"
        "0,X,0.5,1.0,-1.0,1\n"
        "1,Q,0.5,1.0,-1.0,1\n"
    )
    with pytest.raises(BatchSchemaError, match="line 3"):
        read_batch_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(BatchSchemaError, match="line 1"):
        read_batch_csv(path)
