import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerdist import (
    ChannelSpec,
    apply_lossy,
    apply_noisy,
    check_physical,
    random_physical_state,
    steerability,
)


def test_zero_loss_is_identity(model_state):
    assert np.array_equal(apply_lossy(model_state, 0.0).cov, model_state.cov)


def test_full_loss_replaces_bob_with_vacuum(model_state):
    out = apply_lossy(model_state, 1.0)
    assert np.allclose(out.cov[2:, 2:], np.eye(2))
    assert np.allclose(out.cov[:2, 2:], 0.0)
    assert np.array_equal(out.cov[:2, :2], model_state.cov[:2, :2])


def test_loss_outside_range_rejected(model_state):
    with pytest.raises(ValueError):
        apply_lossy(model_state, -0.1)
    with pytest.raises(ValueError):
        apply_lossy(model_state, 1.1)


def test_zero_excess_noise_matches_lossy(model_state):
    for model in ("fixed", "loss_scaled"):
        a = apply_noisy(model_state, 0.3, 0.0, model)
        b = apply_lossy(model_state, 0.3)
        assert np.allclose(a.cov, b.cov, atol=1e-15)


def test_loss_scaled_noise_vanishes_at_zero_loss(model_state):
    out = apply_noisy(model_state, 0.0, 0.12, "loss_scaled")
    assert np.array_equal(out.cov, model_state.cov)


def test_fixed_noise_acts_at_zero_loss(model_state):
    out = apply_noisy(model_state, 0.0, 0.12, "fixed")
    assert np.allclose(out.cov[2:, 2:], model_state.cov[2:, 2:] + 0.12 * np.eye(2))


def test_unknown_noise_model_rejected(model_state):
    with pytest.raises(ValueError, match="noise_model"):
        apply_noisy(model_state, 0.1, 0.1, "thermal")
    with pytest.raises(ValueError, match="noise_model"):
        ChannelSpec(0.1, 0.1, "thermal")


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(loss=1.5)
    with pytest.raises(ValueError):
        ChannelSpec(loss=0.5, excess_noise=-0.1)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=0.999),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_loss_composition_identity(l1, l2, seed):
    state = random_physical_state(np.random.default_rng(seed))
    twice = apply_lossy(apply_lossy(state, l1), l2)
    combined = apply_lossy(state, 1.0 - (1.0 - l1) * (1.0 - l2))
    assert np.allclose(twice.cov, combined.cov, atol=1e-12)


def test_loss_composition_near_total_loss(rng):
    # at l -> 1 the combined transmission cancels catastrophically and
    # sqrt(T) amplifies the rounding to ~sqrt(eps); only a loose identity
    # survives in float64
    state = random_physical_state(rng)
    l2 = np.nextafter(1.0, 0.0)
    twice = apply_lossy(apply_lossy(state, 0.5), l2)
    combined = apply_lossy(state, 1.0 - 0.5 * (1.0 - l2))
    assert np.allclose(twice.cov, combined.cov, atol=1e-6)
    exact = apply_lossy(state, 1.0)
    assert np.allclose(exact.cov[:2, 2:], 0.0)


def test_channels_preserve_physicality(rng):
    for _ in range(60):
        state = random_physical_state(rng)
        loss = rng.uniform(0, 1)
        eps = rng.uniform(0, 0.5)
        model = "fixed" if rng.random() < 0.5 else "loss_scaled"
        out = apply_noisy(state, loss, eps, model)
        assert check_physical(out.cov).passed


@pytest.mark.parametrize("model", ["fixed", "loss_scaled"])
@pytest.mark.parametrize("direction", ["a_to_b", "b_to_a"])
def test_steering_monotone_in_loss(model_state, model, direction):
    values = [
        steerability(apply_noisy(model_state, loss, 0.12, model), direction)
        for loss in np.linspace(0.0, 0.95, 20)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_lossy_threshold_closed_form(model_state):
    # at T* = (n-1)/(c^2-(n-1)^2) the B->A complement reaches the vacuum line
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    t_star = (n - 1) / (c * c - (n - 1) ** 2)
    out = apply_lossy(model_state, 1.0 - t_star)
    assert steerability(out, "b_to_a") == pytest.approx(0.0, abs=1e-12)
    assert 1.0 - t_star == pytest.approx(0.30771, abs=1e-5)


def test_noisy_threshold_closed_forms(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    eps = 0.12
    t_ba = (1 + eps) * (n - 1) / (c * c - (n - 1) ** 2 + eps * (n - 1))
    out = apply_noisy(model_state, 1.0 - t_ba, eps, "loss_scaled")
    assert steerability(out, "b_to_a") == pytest.approx(0.0, abs=1e-12)
    assert 1.0 - t_ba == pytest.approx(0.28411, abs=1e-5)

    t_ab = eps / (1 + eps - (n * n - c * c) / n)
    out = apply_noisy(model_state, 1.0 - t_ab, eps, "loss_scaled")
    assert steerability(out, "a_to_b") == pytest.approx(0.0, abs=1e-12)
    assert 1.0 - t_ab == pytest.approx(0.70724, abs=1e-5)


def test_fixed_model_thresholds_differ(model_state):
    # the fixed-noise variant vanishes earlier; these values justify the
    # loss_scaled default
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    eps = 0.12
    t_ba = (n - 1) * (1 + eps) / (c * c - (n - 1) ** 2)
    assert 1.0 - t_ba == pytest.approx(0.2246, abs=1e-4)
    t_ab = eps / (1 - (n * n - c * c) / n)
    assert 1.0 - t_ab == pytest.approx(0.5861, abs=1e-4)
