import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from reference import (
    add_gram_all_pairs,
    covariance_per_matrix,
    key_rate_with_se_per_matrix,
    random_physical_state,
    reconstruct_covariance_two_pass,
    steerability_with_se_per_matrix,
)
from steerdist import (
    BASIS_P,
    BASIS_X,
    FilterSpec,
    QuadratureBatch,
    ReconstructionError,
    UnphysicalStateError,
    acceptance_rate_exact,
    apply_lossy,
    cutoff_from_table,
    from_cov,
    moment_stats,
    nla_single_mode,
    post_select,
    read_batch_csv,
    reconstruct_covariance,
    sample_batch,
    steerability_with_se,
    tmss_standard,
    write_batch_csv,
)
from steerdist.measurement import (
    CHUNK,
    SUB,
    BatchSchemaError,
    Ensemble,
    Moments,
    _add_gram,
    _chunk_rng,
    _draws,
    _joint_cholesky,
    _map_chunks,
    _NS_ACCEPT,
    _NS_GAUSS,
    _Workspace,
    _accepts,
    _log_uniforms,
    covariance_stack,
    reconstruction_tolerance,
    sample_grid,
)


def _se_units(got, want, se):
    return np.max(np.abs(got - want) / np.where(se > 0, se, np.inf))


# --- acceptance probability ---------------------------------------------------

def _acceptance_at(beta, f):
    """The acceptance probability at outcome magnitude |beta|, exp of the
    log acceptance :func:`_accepts` leaves in its workspace where that is
    negative and 1 elsewhere."""
    work = _Workspace()
    _accepts(np.zeros(1), np.array([beta * beta]), f, work)
    return float(np.exp(min(work.acc[0], 0.0)))


def test_acceptance_probability_at_cutoff_is_one():
    f = FilterSpec(1.2, 4.5)
    assert _acceptance_at(4.5, f) == 1.0
    assert _acceptance_at(6.0, f) == 1.0


def test_acceptance_probability_unit_gain():
    f = FilterSpec(1.0, 4.5)
    for b in (0.0, 1.0, 4.49, 10.0):
        assert _acceptance_at(b, f) == 1.0


def test_acceptance_probability_origin_value():
    # direct evaluation of exp(-(1-g^-2) |beta_c|^2)
    f = FilterSpec(1.2, 4.5)
    want = np.exp(-(1 - 1 / 1.44) * 20.25)
    assert _acceptance_at(0.0, f) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(2.055e-3, abs=2e-6)


def test_acceptance_probability_continuous_at_cutoff():
    f = FilterSpec(1.3, 3.0)
    assert _acceptance_at(3.0 - 1e-9, f) == pytest.approx(1.0, abs=1e-8)


def test_threshold_acceptance_at_a_zero_uniform_and_at_unit_gain():
    # ln 0 = -inf lies below every log acceptance, with no warning; at g = 1
    # the log acceptance is 0, above the log of every uniform in [0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_u = _log_uniforms(np.array([0.0, 0.25, 1.0 - 2.0**-53]))
    assert log_u[0] == -np.inf
    mag2, work = np.array([0.0, 100.0, 0.0]), _Workspace()
    assert _accepts(log_u, mag2, FilterSpec(1.0, 4.5), work).all()
    assert _accepts(log_u, mag2, FilterSpec(1.3, 4.5), work).tolist() == [True, True, False]


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(0.99, 4.5)
    with pytest.raises(ValueError):
        FilterSpec(1.2, 0.0)


@pytest.mark.parametrize("gain, cutoff", [(np.nan, 3.0), (1.2, np.nan), (1.2, np.inf),
                                          (np.inf, 3.0)])
def test_filter_spec_refuses_nan_and_inf(gain, cutoff):
    with pytest.raises(ValueError):
        FilterSpec(gain, cutoff)


# --- sampling -------------------------------------------------------------------

def test_vacuum_heterodyne_variance():
    batch = sample_batch(from_cov(np.eye(4)), 1_000_000, seed=101)
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
    batch = sample_batch(from_cov(np.eye(4)), 1000, seed=1)
    assert np.array_equal(batch.alice_basis[:4], [BASIS_X, BASIS_P, BASIS_X, BASIS_P])


def test_sampling_determinism_under_threads(model_state):
    one = sample_batch(model_state, 300_000, seed=7, threads=1)
    four = sample_batch(model_state, 300_000, seed=7, threads=4)
    for name in ("alice_basis", "alice_value", "bob_x", "bob_p"):
        assert np.array_equal(getattr(one, name), getattr(four, name))


def _masked_sample_reference(state, count, seed):
    """Each chunk's records through boolean basis masks, one chunk at a time."""
    l_x, l_p = _joint_cholesky(state.cov[None])[0]
    vals = []
    for start in range(0, count, CHUNK):
        m = min(CHUNK, count - start)
        z = _chunk_rng(seed, _NS_GAUSS, start // CHUNK).standard_normal((m, 3))
        mask = (start + np.arange(m)) % 2 == BASIS_X
        chunk = np.empty((m, 3))
        chunk[mask] = z[mask] @ l_x.T
        chunk[~mask] = z[~mask] @ l_p.T
        vals.append(chunk)
    return np.concatenate(vals)


@pytest.mark.parametrize("length", [CHUNK, 118_929, 7], ids=["full", "short-final", "odd"])
def test_sub_chunk_draws_are_the_whole_chunk_stream(length):
    # The Monte Carlo pass draws a chunk in pieces of SUB records from the
    # chunk's two generators; numpy must give the values of one whole draw.
    k = 3
    pieces = [(start, z.copy(), u.copy())
              for start, z, u in _draws(5, k, k * CHUNK + length, _Workspace(), uniforms=True)]
    assert [start for start, _, _ in pieces] == list(range(0, length, SUB))
    z = np.concatenate([z for _, z, _ in pieces])
    u = np.concatenate([u for _, _, u in pieces])
    assert np.array_equal(z, _chunk_rng(5, _NS_GAUSS, k).standard_normal((length, 3)))
    assert np.array_equal(u, _chunk_rng(5, _NS_ACCEPT, k).random(length))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_sampling_matches_masked_reference(model_state, threads):
    state = apply_lossy(model_state, 0.3)
    batch = sample_batch(state, 300_001, seed=8, threads=threads)
    want = _masked_sample_reference(state, 300_001, seed=8)
    assert np.array_equal(batch.alice_basis, np.arange(300_001) % 2)
    for k, name in enumerate(("alice_value", "bob_x", "bob_p")):
        assert np.array_equal(getattr(batch, name), want[:, k])


def test_sampling_rejects_bad_inputs(model_state):
    with pytest.raises(ValueError):
        sample_batch(model_state, 0, seed=1)


def test_sampling_rejects_alice_xp_correlation(model_state):
    # a local rotation and squeeze on Alice gives her block an x-p covariance
    # that homodyne reconstruction cannot observe; sampling refuses the state
    # before drawing anything
    theta, r = 0.4, 0.3
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    local = np.eye(4)
    local[:2, :2] = rot @ np.diag([np.exp(r), np.exp(-r)])
    cov = local @ apply_lossy(model_state, 0.2).cov @ local.T
    state = from_cov((cov + cov.T) / 2)
    with pytest.raises(NotImplementedError, match=r"Alice x-p .* sigma\[0, 1\] = -1.313"):
        sample_batch(state, 1_000_000, seed=1)


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


@pytest.mark.parametrize("gain, cutoff", [(1.2, 3.0), (1.1, 4.0)])
def test_post_select_matches_whole_chunk_reference(multi_chunk_file, gain, cutoff):
    # Each chunk's uniforms are one whole-chunk draw, a record is accepted
    # iff t (|gamma|^2 - |beta_c|^2) > ln u, and only Bob's accepted values
    # are divided by g; the filter works piece by piece, the reference here
    # on whole chunks.
    batch, _ = multi_chunk_file
    seed = 35
    out, rate = post_select(batch, FilterSpec(gain, cutoff), seed)
    t = 1.0 - 1.0 / (gain * gain)
    for k in range(3):
        rows = slice(k * CHUNK, (k + 1) * CHUNK)
        x, p = batch.bob_x[rows], batch.bob_p[rows]
        u = _chunk_rng(seed, _NS_ACCEPT, k).random(len(x))
        with np.errstate(divide="ignore"):
            accepted = (0.5 * (x**2 + p**2) - cutoff**2) * t > np.log(u)
        assert np.array_equal(out.accepted[rows], accepted)
        assert np.array_equal(out.bob_x[rows], np.where(accepted, x / gain, x))
        assert np.array_equal(out.bob_p[rows], np.where(accepted, p / gain, p))
    assert np.array_equal(out.alice_value, batch.alice_value)
    assert rate == np.count_nonzero(out.accepted) / len(batch)


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
    batch = sample_batch(from_cov(np.eye(4)), 1_000_000, seed=20)
    cov, se = reconstruct_covariance(batch)
    assert _se_units(cov, np.eye(4), se) < 5.0


def test_model_state_roundtrip(model_state):
    batch = sample_batch(model_state, 1_000_000, seed=21)
    cov, se = reconstruct_covariance(batch)
    assert _se_units(cov, model_state.cov, se) < 5.0


def test_reconstruction_across_chunks_matches_two_pass_reference(multi_chunk_file):
    # one pass sums about the first piece's means, the reference about the
    # whole batch's: the two differ by rounding only
    batch, _ = multi_chunk_file
    assert len(batch) > 2 * CHUNK
    filtered, _ = post_select(batch, FilterSpec(1.1, 4.0), seed=33)
    for source, n_min in ((batch, 10_000), (filtered, 1_000)):
        cov, se = reconstruct_covariance(source, n_min)
        want_cov, want_se = reconstruct_covariance_two_pass(source, n_min)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-12, atol=0)
        np.testing.assert_allclose(se, want_se, rtol=1e-12, atol=0)


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
    """The SE by central differences, step 1e-5*max(1, |cov_ij|), over the
    entries i <= j taken as independent, one perturbed matrix at a time: the
    reference for the exact-gradient SEs."""
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


def test_exact_se_matches_finite_difference_loop(model_state):
    from steerdist import key_rate_with_se, qkd, steering

    batch = sample_batch(apply_lossy(model_state, 0.3), 200_000, seed=31)
    filtered, _ = post_select(batch, FilterSpec(1.2, 3.0), seed=32)
    cov, se = reconstruct_covariance(filtered, min_accepted=1_000)
    assert se[0, 1] == 0.0  # Alice's x-p entry is skipped
    cases = [(cov, se, reconstruction_tolerance(se))]
    rng = np.random.default_rng(33)
    for _ in range(50):
        scale = rng.uniform(1e-3, 1e-2, (4, 4))
        cases.append((random_physical_state(rng).cov, scale + scale.T, 1e-2))
    steerable = set()
    for sigma, s, tol in cases:
        for d in ("a_to_b", "b_to_a"):
            value, err = steerability_with_se(sigma, s, d, tol)
            assert err > 0.0
            assert err == pytest.approx(_se_per_matrix(
                lambda c: steering._signed_1p1(c[None], d)[0][0], sigma, s), rel=1e-6)
            steerable.add(value > 0.0)
        _, err = key_rate_with_se(sigma, s, tol)
        assert err > 0.0
        assert err == pytest.approx(_se_per_matrix(
            lambda c: qkd._rate(*qkd._conditional_variances_stack(c[None]))[0], sigma, s),
            rel=1e-6)
    assert steerable == {True, False}  # the clipped directions are covered too


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


def test_reconstruction_refuses_a_basis_with_one_record(model_state):
    import warnings

    batch = sample_batch(model_state, 20_000, seed=24)
    basis = np.full(len(batch), BASIS_X, dtype=np.uint8)
    basis[-1] = BASIS_P
    crippled = type(batch)(
        alice_basis=basis,
        alice_value=batch.alice_value,
        bob_x=batch.bob_x,
        bob_p=batch.bob_p,
    )
    # one record gives no variance: refused before any division by n - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError, match="bases") as exc:
            reconstruct_covariance(crippled)
    assert "19999" in str(exc.value) and " 1 " in str(exc.value)


def test_reconstruction_requires_enough_records(model_state):
    batch = sample_batch(model_state, 5_000, seed=25)
    with pytest.raises(ReconstructionError, match="too few"):
        reconstruct_covariance(batch)
    reconstruct_covariance(batch, min_accepted=1_000)  # explicit opt-down works


# --- streaming moments -----------------------------------------------------------

def _two_pass_covariance(batch):
    """Covariance and SEs entry by entry from masked columns, two passes each."""
    def var_se(x):
        d = x - x.mean()
        m2, m4 = np.mean(d * d), np.mean(d**4)
        return m2 * len(x) / (len(x) - 1), np.sqrt(max(m4 - m2 * m2, 0.0) / len(x))

    def cov_se(x, y):
        dx, dy = x - x.mean(), y - y.mean()
        cov = np.sum(dx * dy) / (len(x) - 1)
        return cov, np.sqrt(max(np.mean(dx * dx * dy * dy) - cov * cov, 0.0) / len(x))

    sel = batch.accepted
    cols = (batch.alice_value, batch.bob_x, batch.bob_p)
    x, p = ([c[sel & (batch.alice_basis == b)] for c in cols] for b in (BASIS_X, BASIS_P))
    bx, bp = batch.bob_x[sel], batch.bob_p[sel]
    entries = {(0, 0): var_se(x[0]), (1, 1): var_se(p[0]), (2, 2): var_se(bx),
               (3, 3): var_se(bp), (2, 3): cov_se(bx, bp), (0, 2): cov_se(x[0], x[1]),
               (0, 3): cov_se(x[0], x[2]), (1, 2): cov_se(p[0], p[1]),
               (1, 3): cov_se(p[0], p[2])}
    cov, se = np.zeros((4, 4)), np.zeros((4, 4))
    for (i, j), (v, e) in entries.items():
        k = 1.0 if i < 2 and j < 2 else 2.0 if i >= 2 else np.sqrt(2.0)
        cov[i, j] = cov[j, i] = k * v - (1.0 if i == j >= 2 else 0.0)
        se[i, j] = se[j, i] = k * e
    return cov, se


def test_reconstruction_matches_two_pass_definitions(model_state):
    # ingest takes records of any offset and in any basis order: each case
    # moves the centres off 0 or gives the 3 chunks unequal basis counts
    batch = sample_batch(apply_lossy(model_state, 0.3), 300_001, seed=19)
    filtered, _ = post_select(batch, FilterSpec(1.2, 3.0), seed=20)
    order = np.random.default_rng(23).permutation(len(filtered))
    for offset, rows in itertools.product((0.0, 1e4), (slice(None), order)):
        case = QuadratureBatch(filtered.alice_basis[rows], filtered.alice_value[rows] + offset,
                               filtered.bob_x[rows] + offset, filtered.bob_p[rows] + offset,
                               filtered.accepted[rows])
        cov, se = reconstruct_covariance(case, 1_000)
        want_cov, want_se = _two_pass_covariance(case)
        label = f"offset {offset}, {'shuffled' if rows is order else 'alternating'}"
        np.testing.assert_allclose(cov, want_cov, rtol=1e-12, atol=0, err_msg=label)
        np.testing.assert_allclose(se, want_se, rtol=1e-12, atol=0, err_msg=label)


def _moment_arrays(ensembles):
    return [a for e in ensembles for m in (e.x, e.p) for a in (m.center, m.gram)]


def test_sample_moments_bit_identical_across_threads(model_state):
    filters = (None, FilterSpec(1.2, 3.0), FilterSpec(1.0, 3.0))
    one = _moment_arrays(sample_grid(model_state.cov[None], 300_001, 17, [filters], [()], 1)[0][0])
    for threads in (2, 4):
        other = _moment_arrays(
            sample_grid(model_state.cov[None], 300_001, 17, [filters], [()], threads)[0][0])
        assert all(np.array_equal(a, b) for a, b in zip(one, other))


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_accepted_counts_the_moment_pass(model_state, threads):
    state = apply_lossy(model_state, 0.2)
    filt = FilterSpec(1.2, 3.0)
    want = sample_grid(state.cov[None], 300_001, 19, [[filt]], [()])[0][0][0].accepted
    assert 0 < want < 300_001
    assert sample_grid(state.cov[None], 300_001, 19, [()], [[filt]], threads)[1][0][0] == want


def _grid(model_state):
    covs = np.stack([apply_lossy(model_state, loss).cov for loss in (0.0, 0.3, 0.6)])
    filters = [(None, FilterSpec(1.2, 3.0)), (FilterSpec(1.1, 4.0), None, FilterSpec(1.0, 3.0)),
               (FilterSpec(1.25, 2.5),)]
    return covs, filters


def test_sample_grid_moments_bit_identical_across_threads(model_state):
    covs, filters = _grid(model_state)
    counted = [()] * len(covs)
    one = [_moment_arrays(e) for e in sample_grid(covs, 300_001, 21, filters, counted, 1)[0]]
    for threads in (2, 4):
        other = [_moment_arrays(e)
                 for e in sample_grid(covs, 300_001, 21, filters, counted, threads)[0]]
        assert all(np.array_equal(a, b) for x, y in zip(one, other) for a, b in zip(x, y))


def test_grid_points_are_the_single_state_passes(model_state):
    # common random numbers: a state's ensembles do not depend on its grid
    covs, filters = _grid(model_state)
    grid = sample_grid(covs, 300_001, 22, filters, [()] * len(covs), threads=2)[0]
    for cov, fs, got in zip(covs, filters, grid):
        want = sample_grid(cov[None], 300_001, 22, [fs], [()])[0][0]
        assert all(np.array_equal(a, b)
                   for a, b in zip(_moment_arrays(got), _moment_arrays(want)))
    counts = [n for (n,) in sample_grid(covs, 300_001, 22, [()] * len(covs),
                                        [[fs[-1]] for fs in filters])[1]]
    assert counts == [e[-1].accepted for e in grid]
    assert counts == [sample_grid(cov[None], 300_001, 22, [()], [[fs[-1]]])[1][0][0]
                      for cov, fs in zip(covs, filters)]


def test_grid_sampler_tags_the_refused_state(model_state):
    bad = np.diag([1.0, 1.0, 0.5, 0.5])  # unphysical
    covs = np.stack([model_state.cov, apply_lossy(model_state, 0.5).cov, bad])
    with pytest.raises(ValueError) as info:
        sample_grid(covs, 20_000, 1, [[None]] * 3, [()] * 3)
    assert info.value.cell == 2
    with pytest.raises(ValueError) as info:
        sample_grid(covs, 20_000, 1, [()] * 3, [[FilterSpec(1.2, 3.0)]] * 3)
    assert info.value.cell == 2


def test_grid_sampler_refuses_lists_of_different_lengths(model_state):
    covs = np.stack([model_state.cov] * 2)
    with pytest.raises(ValueError, match="2 states, 1 filter lists and 2 lists"):
        sample_grid(covs, 20_000, 1, [[None]], [()] * 2)


def test_grid_sampler_refuses_the_first_failing_state(model_state):
    # each state is checked for its Alice x-p covariance, then physicality;
    # the first state that fails a check raises, whichever check it is
    xp = model_state.cov.copy()
    xp[0, 1] = xp[1, 0] = 0.1  # physical
    unphysical = 0.4 * np.eye(4)
    both = unphysical.copy()
    both[0, 1] = both[1, 0] = 0.1
    for error, cells in ((UnphysicalStateError, (unphysical, xp)),
                         (NotImplementedError, (xp, unphysical)),
                         (NotImplementedError, (both, unphysical))):
        covs = np.stack([model_state.cov, cells[0], model_state.cov, cells[1]])
        with pytest.raises(error) as info:
            sample_grid(covs, 20_000, 1, [[None]] * 4, [()] * 4)
        assert info.value.cell == 1


def test_map_chunks_bounds_the_chunks_in_flight():
    import threading
    import time

    lock = threading.Lock()
    started = yielded = most = 0

    def fn(k, work):
        nonlocal started, most
        with lock:
            started += 1
            most = max(most, started - yielded)
        return k

    out = []
    for k in _map_chunks(fn, 50, 2):
        time.sleep(0.002)  # a consumer slower than the workers
        with lock:
            yielded += 1
            out.append(k)
    assert out == list(range(50))
    assert most <= 4


def test_map_chunks_makes_one_workspace_per_thread(model_state, monkeypatch):
    import steerdist.measurement as measurement

    made = []

    class Counted(_Workspace):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(measurement, "_Workspace", Counted)

    def run(threads):  # 9 chunks: (moment arrays, workspaces made)
        made.clear()
        ens = sample_grid(model_state.cov[None], 8 * CHUNK + 1, 31,
                          [(None, FilterSpec(1.2, 3.0))], [()], threads)[0][0]
        return _moment_arrays(ens), len(made)

    (one, made_one), (two, made_two) = run(1), run(2)
    assert made_one == 1
    assert 1 <= made_two <= 2
    assert all(np.array_equal(a, b) for a, b in zip(one, two))


def test_sample_moments_match_batch_pipeline(model_state):
    state = apply_lossy(model_state, 0.2)
    filt = FilterSpec(1.2, 3.0)
    raw, amp = sample_grid(state.cov[None], 300_001, 18, [(None, filt)], [()], threads=2)[0][0]
    batch = sample_batch(state, 300_001, 18)
    filtered, rate = post_select(batch, filt, 18)
    assert amp.accepted == np.count_nonzero(filtered.accepted) == round(rate * 300_001)
    assert raw.accepted == 300_001
    for ens, source, n_min in ((raw, batch, 10_000), (amp, filtered, 1_000)):
        cov, se = ens.covariance(n_min)
        want_cov, want_se = reconstruct_covariance(source, n_min)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-12, atol=0)
        np.testing.assert_allclose(se, want_se, rtol=1e-12, atol=0)


# --- stacked reconstruction and SEs ----------------------------------------------

def _seeded_ensembles(model_state):
    """Raw and filtered ensembles of three channel outputs: one pass."""
    covs = np.stack([apply_lossy(model_state, loss).cov for loss in (0.2, 0.5, 0.8)])
    filters = [(None, FilterSpec(1.2, 3.0), FilterSpec(1.1, 4.5))] * len(covs)
    ens = sample_grid(covs, 120_001, 41, filters, [()] * len(covs))[0]
    return [e for point in ens for e in point]


def test_se_stacks_refuse_ses_of_another_shape(model_state):
    from steerdist import key_rate_with_se_stack, steerability_with_se_stack

    covs = model_state.cov[None]
    for ses in (np.zeros((2, 4, 4)), np.zeros((4, 4)), np.zeros((1, 4, 3))):
        for stack in (steerability_with_se_stack, key_rate_with_se_stack):
            with pytest.raises(ValueError, match="expected entry SEs of shape"):
                stack(covs, ses)


def test_stacks_equal_the_per_matrix_code_within_one_ulp(model_state):
    from steerdist import (key_rate_with_se, key_rate_with_se_stack, steerability_stack,
                           steerability_with_se_stack)

    ensembles = _seeded_ensembles(model_state)
    covs, ses, errors = covariance_stack(ensembles, 1_000)
    assert errors == [None] * len(ensembles)
    many = covariance_stack(ensembles * 8, 1_000)  # more than one block of ensembles
    assert np.array_equal(many[0], np.tile(covs, (8, 1, 1)))
    assert np.array_equal(many[1], np.tile(ses, (8, 1, 1))) and many[2] == errors * 8
    ab, se_ab, ba, se_ba = steerability_with_se_stack(covs, ses)
    assert all(np.array_equal(got, want) for got, want in zip((ab, ba), steerability_stack(covs)))
    rate, v_x, v_p, se_rate = key_rate_with_se_stack(covs, ses)
    for i, ens in enumerate(ensembles):
        cov, se = covariance_per_matrix(ens, 1_000)
        np.testing.assert_array_max_ulp(covs[i], cov, 1)
        np.testing.assert_array_max_ulp(ses[i], se, 1)
        tol = reconstruction_tolerance(se)
        for d, value, err in (("a_to_b", ab, se_ab), ("b_to_a", ba, se_ba)):
            want = steerability_with_se_per_matrix(cov, se, d, tol)
            np.testing.assert_array_max_ulp(np.array([value[i], err[i]]), np.array(want), 1)
            assert steerability_with_se(cov, se, d, tol) == (value[i], err[i])  # N = 1
        want, want_se = key_rate_with_se_per_matrix(cov, se, tol)
        np.testing.assert_array_max_ulp(
            np.array([rate[i], v_x[i], v_p[i], se_rate[i]]),
            np.array([want.key_rate, want.v_x_cond, want.v_p_cond, want_se]), 1)
        got, got_se = key_rate_with_se(cov, se, tol)
        assert (got.key_rate, got_se) == (rate[i], se_rate[i])
    both = np.concatenate([ab, ba])
    assert (both > 0).any() and (both == 0).any()  # clipped values are covered too


def _ensemble_of(records_x, records_p):
    """An ensemble of (3, n) records per basis, summed about 0 as the pass does."""
    def moments(records):
        q = np.zeros((10, 10))
        _add_gram(q, np.asarray(records, dtype=float), 0.0)
        return Moments(np.zeros(3), q)

    return Ensemble(moments(records_x), moments(records_p))


def test_stacked_reconstruction_refuses_each_cell_as_the_per_matrix_code(model_state):
    rng = np.random.default_rng(42)
    good = _seeded_ensembles(model_state)[:2]

    def normal(n, alice_scale=1.0):
        return np.array([[alice_scale], [1.0], [1.0]]) * rng.standard_normal((3, n))

    degenerate = normal(3_000)
    degenerate[0] = 0.0  # Alice's variance is 0: not positive definite
    cells = [
        good[0],
        _ensemble_of(normal(400), normal(400)),                  # too few records
        good[1],
        _ensemble_of(normal(3_000), normal(1)),                  # one P record
        _ensemble_of(degenerate, normal(3_000)),                 # degenerate
        _ensemble_of(normal(3_000, 0.5), normal(3_000, 0.5)),    # unphysical
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refused cells divide by n - 1 = 0 and the like
        covs, ses, errors = covariance_stack(cells, 1_000)
    messages = []
    for i, ens in enumerate(cells):
        try:
            cov, se = covariance_per_matrix(ens, 1_000)
        except ReconstructionError as exc:
            assert isinstance(errors[i], ReconstructionError)
            assert str(errors[i]) == str(exc)
            assert np.array_equal(covs[i], np.eye(4)) and not ses[i].any()  # evaluable
            with pytest.raises(ReconstructionError) as single:
                ens.covariance(1_000)
            assert str(single.value) == str(exc)
            messages.append(str(exc))
        else:
            assert errors[i] is None
            np.testing.assert_array_max_ulp(covs[i], cov, 1)
            np.testing.assert_array_max_ulp(ses[i], se, 1)
            messages.append("")
    assert [m.split(":")[0] for m in messages] == [
        "", "too few accepted records", "",
        "both Alice bases need at least 2 accepted records, got 3000 X and 1 P",
        "reconstructed matrix is degenerate", messages[5].split(":")[0]]
    assert messages[5].startswith("reconstructed matrix is unphysical beyond tolerance")


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


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 8_191, 8_193, 16_384])
@pytest.mark.parametrize("centred", [False, True])
def test_gram_without_constant_products_is_bit_identical(d, n, centred):
    # the pairs (0, j) are y itself: the BLAS input is the same matrix
    rng = np.random.default_rng(n + d)
    records = 0.5 + rng.standard_normal((d, n))
    center = records.mean(axis=1)[:, None] if centred else 0.0
    pairs = (d + 1) * (d + 2) // 2
    got, want = np.zeros((2, pairs, pairs))
    _add_gram(got, records, center)
    add_gram_all_pairs(want, records, center)
    assert got.tobytes() == want.tobytes()
    if d == 3:  # in the pass's workspace block too
        got[:] = 0.0
        _add_gram(got, records, center, _Workspace().blocks)
        assert got.tobytes() == want.tobytes()


def test_pair_map_matches_records_mapped_directly():
    # sums about a centre 0.3 off the mean, as the pass's 0 is, then mapped
    rng = np.random.default_rng(29)
    chol = np.array([[1.2, 0.0, 0.0], [0.5, 0.9, 0.0], [-0.4, 0.3, 0.7]])
    r = 1e4 + np.array([[0.3], [-0.2], [0.1]]) + chol @ rng.standard_normal((3, 4001))
    about = np.full(3, 1e4)
    q = np.zeros((10, 10))
    _add_gram(q, r, about[:, None])
    m = Moments(about, q)

    def close(got, want):
        np.testing.assert_allclose(got.center, want.center, rtol=1e-12, atol=0)
        scale = np.abs(want.gram).max()  # first-order sums about the mean are ~0
        np.testing.assert_allclose(got.gram, want.gram, rtol=1e-12, atol=1e-12 * scale)

    close(m.central(), Moments.of(r))
    l = np.array([[1.5, 0.0, 0.0], [0.4, 0.8, 0.0], [-0.3, 0.2, 1.1]])
    close(m.linear(l).central(), Moments.of(l @ r))
    position = {pair: k for k, pair in enumerate(zip(*(a.tolist() for a in np.triu_indices(4))))}
    for variables in ((1, 2), (2,), (2, 0)):
        marginal = m.linear(np.eye(3)[list(variables)])
        close(marginal.central(), Moments.of(r[list(variables)]))
        # a 0/1 map: the marginal's Gram matrix is a plain sub-block of Q
        idx = [0, *(v + 1 for v in variables)]
        rows = [position[min(idx[a], idx[b]), max(idx[a], idx[b])]
                for a, b in zip(*np.triu_indices(len(idx)))]
        assert np.array_equal(marginal.gram, q[np.ix_(rows, rows)])


# --- CSV -------------------------------------------------------------------------

def test_batch_csv_roundtrip_bit_exact(model_state, tmp_path):
    batch = sample_batch(model_state, 20_000, seed=40)
    filtered, _ = post_select(batch, FilterSpec(1.2, 4.0), seed=41)
    path = tmp_path / "batch.csv"
    write_batch_csv(filtered, path)
    back = read_batch_csv(path)
    for name in ("alice_basis", "alice_value", "bob_x", "bob_p", "accepted"):
        assert np.array_equal(getattr(filtered, name), getattr(back, name))


@pytest.mark.parametrize("filtered", [False, True])
def test_batch_csv_writes_one_line_per_record(model_state, tmp_path, filtered):
    batch = sample_batch(model_state, 5_000, seed=42)
    if filtered:
        batch, _ = post_select(batch, FilterSpec(1.2, 4.0), seed=43)
    path = tmp_path / "batch.csv"
    write_batch_csv(batch, path)
    flags = np.ones(len(batch), bool) if batch.accepted is None else batch.accepted
    want = "idx,alice_basis,alice_value,bob_x,bob_p,accepted\n" + "".join(
        f"{i},{'XP'[int(batch.alice_basis[i])]},{float(batch.alice_value[i])!r},"
        f"{float(batch.bob_x[i])!r},{float(batch.bob_p[i])!r},{int(flags[i])}\n"
        for i in range(len(batch)))
    assert path.read_bytes() == want.encode()


def test_batch_refuses_no_records_and_mismatched_columns():
    col = np.zeros(3)
    with pytest.raises(ValueError, match="at least one record"):
        QuadratureBatch(np.zeros(0, dtype=np.int8), col[:0], col[:0], col[:0])
    basis = np.zeros(3, dtype=np.int8)
    with pytest.raises(ValueError, match="column bob_x has mismatched length"):
        QuadratureBatch(basis, col, col[:2], col)
    with pytest.raises(ValueError, match="accepted column has mismatched length"):
        QuadratureBatch(basis, col, col, col, np.ones(4, dtype=bool))
    # the reconstruction would drop a code other than BASIS_X/BASIS_P, which
    # write_batch_csv cannot write, and cannot mask with a uint8 flag column
    for codes in (np.array([0, 1, 7], dtype=np.uint8), np.array([0, -1, 1], dtype=np.int8),
                  np.array([0.0, 1.0, 0.5])):
        with pytest.raises(ValueError, match="only the integer codes BASIS_X"):
            QuadratureBatch(codes, col, col, col)
    with pytest.raises(ValueError, match="accepted column must be boolean, got uint8"):
        QuadratureBatch(basis, col, col, col, np.ones(3, dtype=np.uint8))


def test_batch_refuses_value_columns_that_are_not_finite_1d_float64(model_state):
    # a float32 column fails the reconstruction's cast, and a NaN reaches it
    # as a degenerate estimate, so the batch refuses both at construction
    basis, col = np.zeros(200, dtype=np.uint8), np.zeros(200)
    with pytest.raises(ValueError, match="^column alice_value must be 1-D float64$"):
        QuadratureBatch(basis, col.astype(np.float32), col, col)
    with pytest.raises(ValueError, match="^column bob_x must be 1-D float64$"):
        QuadratureBatch(basis, col, np.zeros((200, 2)), col)
    batch = sample_batch(model_state, 200, seed=3)
    bad = batch.alice_value.copy()
    bad[[123, 150]] = np.nan
    with pytest.raises(BatchSchemaError, match=r"^record 123: non-finite alice_value nan "
                                               r"\(2 non-finite alice_value values\)$"):
        replace(batch, alice_value=bad)


def test_batch_refuses_basis_and_accepted_columns_that_are_not_1d(model_state):
    # an (n, 1) column passes the length and code checks but fails inside
    # numpy in the reconstruction, so the batch refuses it at construction
    batch = sample_batch(model_state, 200, seed=3)
    with pytest.raises(ValueError, match="^column alice_basis must be 1-D$"):
        replace(batch, alice_basis=batch.alice_basis[:, None])
    with pytest.raises(ValueError, match="^column accepted must be 1-D$"):
        replace(batch, accepted=np.ones((len(batch), 1), dtype=bool))


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


@pytest.mark.parametrize("column, value", [("bob_x", "nan"), ("alice_value", "inf"),
                                           ("bob_p", "-inf")])
def test_batch_csv_rejects_non_finite_values(tmp_path, column, value):
    rows = [["0", "X", "0.5", "1.0", "-1.0"], ["1", "P", "-0.25", "0.125", "2.0"]]
    rows[1][("alice_value", "bob_x", "bob_p").index(column) + 2] = value
    path = tmp_path / "nonfinite.csv"
    path.write_text("idx,alice_basis,alice_value,bob_x,bob_p\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(BatchSchemaError, match=f"record 1: non-finite {column} {value}"):
        read_batch_csv(path)


_HEADER = "idx,alice_basis,alice_value,bob_x,bob_p,accepted\n"
_ROWS = "0,X,0.5,1.0,-1.0,1\n1,P,-0.25,0.125,2.0,1\n"


@pytest.mark.parametrize("body, error", [
    # skipped empty lines still count as file lines
    ("0,X,0.5,1.0,-1.0,1\n\n\n1,P,0.5,1.0,-1.0,1,7\n", "line 5: expected 6 fields, got 7"),
    ("0,X,0.5,1.0,-1.0,1\n1,P,0.5,1.0,-1.0,2\n", "line 3: accepted must be 0 or 1"),
    ("0,X,0.5,1.0,-1.0,1\n1,P,0.5,1.0,-1.0,11\n", "line 3: accepted must be 0 or 1"),
    ("0,XX,0.5,1.0,-1.0,1\n", "line 2: alice_basis must be X or P"),
    ("0,XXX,0.5,1.0,-1.0,1\n", "line 2: alice_basis must be X or P"),
    ("# exported by the scope\n0,X,0.5,1.0,-1.0,1\n", "line 2: expected 6 fields, got 1"),
    # Python's float() and str.strip() take these; the reader does not
    ("0,X,0.5,1.0,-1.0,1\n1,P,1_0,1.0,-1.0,1\n", "line 3: .*'1_0'"),
    ("0,X,0.5,1.0,-1.0,1\n1,P,\u0661,1.0,-1.0,1\n", "line 3: .*'\u0661'"),
    ("0,X,0.5,1.0,-1.0,1\n \n1,P,0.5,1.0,-1.0,1\n", "line 3: expected 6 fields, got 1"),
    ("0,X,0.5,1.0,-1.0,1 \n", "line 2: accepted must be 0 or 1"),
])
def test_batch_csv_refused_lines_name_their_file_line(tmp_path, body, error):
    path = tmp_path / "bad.csv"
    path.write_text(_HEADER + body)
    with pytest.raises(BatchSchemaError, match=error):
        read_batch_csv(path)


@pytest.mark.parametrize("data, error", [
    (_HEADER.encode() + _ROWS.encode() + b"2,X,0.5,\xff,-1.0,1\n", "line 4: not valid UTF-8"),
    (b"idx,alice_basis,\xe9\n" + _ROWS.encode(), "line 1: bad header"),
    (_HEADER.encode(), "file contains no records"),
    (_HEADER.encode() + b"\n\n", "file contains no records"),
    # numpy's fixed-width strings would drop a NUL after a basis letter or flag
    (_HEADER.encode() + _ROWS.encode() + b"2,X\0,0.5,1.0,-1.0,1\n", "line 4: contains a NUL byte"),
    (_HEADER.encode() + b"0,X,0.5,1.0,-1.0,1\0\n" + _ROWS.encode(), "line 2: contains a NUL byte"),
])
def test_batch_csv_refuses_unreadable_files(tmp_path, data, error):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(BatchSchemaError, match=error):
        read_batch_csv(path)


@pytest.mark.parametrize("data", [
    (_HEADER + _ROWS).replace("\n", "\r\n").encode(),
    (_HEADER + _ROWS).replace("\n", "\r").encode(),
    (_HEADER + _ROWS).rstrip("\n").encode(),  # no final newline
])
def test_batch_csv_line_ends(tmp_path, data):
    (tmp_path / "lf.csv").write_text(_HEADER + _ROWS)
    (tmp_path / "other.csv").write_bytes(data)
    want, got = (read_batch_csv(tmp_path / name) for name in ("lf.csv", "other.csv"))
    assert len(got) == 2
    for name in ("alice_basis", "alice_value", "bob_x", "bob_p", "accepted"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux's getrusage reports them")
def test_monte_carlo_page_faults_do_not_grow_with_chunks():
    # Each chunk's temporaries live in its worker's reused workspace.  Made
    # fresh per chunk, they were mapped afresh too: ~1,700 faults a chunk.
    code = """
import resource
from steerdist import FilterSpec, apply_lossy, tmss_standard
from steerdist.measurement import CHUNK, sample_grid

state = apply_lossy(tmss_standard(-6.0, 6.0), 0.3)
filters = [None, FilterSpec(1.1, 4.5), FilterSpec(1.2, 4.5)]

def faults(chunks):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sample_grid(state.cov[None], chunks * CHUNK, 1, [filters], [()], threads=1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults(8), faults(40))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=300)
    short, long = map(int, out.stdout.split())
    assert (long - short) / 32 < 200, (short, long)


def _peak_growth_kib(setup: str, call: str) -> int:
    """Growth, in KiB, of a fresh interpreter's peak RSS over ``call``, after
    ``setup``.  It reads the process's own high-water mark, VmHWM: a child's
    ru_maxrss starts at its parent's RSS, so under pytest it hid any growth
    smaller than pytest's own resident set."""
    code = f"""
{setup}
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = peak_kib()
{call}
print(peak_kib() - before)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=300)
    return int(out.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_monte_carlo_pass_peak_memory_is_small():
    # Each worker draws and reduces SUB records at a time in a 2.7 MB
    # workspace.  numpy.random is imported lazily and grows the peak RSS by
    # about 6,300 KiB on its own, so it is imported before the baseline
    # reading; a first BLAS call adds under 1,000 KiB.  Measured this way on
    # a 2-vCPU VM (numpy 2.4.6), the call grows the peak RSS by 5,400-5,650
    # KiB, as with the 2.4 MB workspaces before, and by 16,500 KiB with
    # whole chunks in 7.6 MB ones (read from ru_maxrss outside pytest).
    growth_kib = _peak_growth_kib("""
import numpy.random
from steerdist import FilterSpec, apply_lossy, tmss_standard
from steerdist.measurement import CHUNK, sample_grid

state = apply_lossy(tmss_standard(-6.0, 6.0), 0.3)
filters = [None, FilterSpec(1.1, 4.5), FilterSpec(1.2, 4.5)]
""", "sample_grid(state.cov[None], 16 * CHUNK, 1, [filters], [()], threads=2)")
    assert growth_kib < 9_000, growth_kib


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_recorded_batch_reduction_peak_memory_is_small():
    # A recorded batch is filtered and reduced piece by piece in one
    # workspace.  The batch is made without temporaries, and numpy.random and
    # a first BLAS call come before the baseline reading (see the test
    # above).  Measured this way on a 2-vCPU VM (numpy 2.4.6), the call on
    # three chunks grows the peak RSS by 1,480-1,570 KiB, and by 7,100-8,100
    # KiB when each chunk was filtered whole into eight fresh arrays.
    growth_kib = _peak_growth_kib("""
import numpy as np
import numpy.random
from steerdist import FilterSpec
from steerdist.measurement import CHUNK, QuadratureBatch, _batch_ensemble, _pieces

n = 3 * CHUNK
cols = np.random.default_rng(5).standard_normal((3, n))
cols *= 2.0
basis = np.empty(n, dtype=np.uint8)
basis[0::2], basis[1::2] = 0, 1
batch = QuadratureBatch(basis, *cols)
np.ones((4, 4)) @ np.ones((4, 4))
""", "_batch_ensemble(_pieces(batch), FilterSpec(1.2, 3.0), 7)")
    assert growth_kib < 4_000, growth_kib


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_ingest_peak_memory_does_not_grow_with_records(tmp_path, model_state):
    # ingest parses, filters and reduces its file one piece at a time.  When
    # it held the file's columns through the filter, 10**6 records grew the
    # peak RSS by about 52,000 KiB more than 10**5 did; streamed, the two
    # differ by under 100 KiB.  The large file repeats the small one's body,
    # which is much faster than writing 10**6 records.
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    write_batch_csv(sample_batch(model_state, 100_000, seed=38), small)
    header, body = small.read_text().split("\n", 1)
    with open(large, "w") as fh:
        fh.write(header + "\n")
        for _ in range(10):
            fh.write(body)
    setup = f"""
import numpy.random
from steerdist.config import load_config
from steerdist.experiments import run_ingest
config = load_config(None, env={{}}, overrides={{"out_dir": {str(tmp_path / "out")!r},
                                               "gain": 1.2, "cutoff": 3.0}})
"""
    small_kib, large_kib = (_peak_growth_kib(setup, f"run_ingest({str(path)!r}, config)")
                            for path in (small, large))
    assert abs(large_kib - small_kib) < 4_000, (small_kib, large_kib)
