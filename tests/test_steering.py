import numpy as np
import pytest
from reference import loss_threshold_bisection, random_physical_state

from steerdist import (
    ChannelSpec,
    GainTooLargeError,
    NoThresholdError,
    apply_lossy,
    classify,
    from_cov,
    nla_single_mode,
    steerability,
    steering_loss_threshold,
    steering_signed_stack,
    tmss_standard,
)

# oracle: for the symmetric standard form, G = -ln((n^2-c^2)/n) in both
# directions when positive
def _standard_form_steering(n, c):
    return max(0.0, -np.log((n * n - c * c) / n))


def test_vacuum_not_steerable():
    v = from_cov(np.eye(4))
    assert steerability(v, "a_to_b") == 0.0
    assert steerability(v, "b_to_a") == 0.0


def test_model_state_value(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    want = _standard_form_steering(n, c)
    assert want == pytest.approx(0.342340, abs=1e-6)
    assert steerability(model_state, "a_to_b") == pytest.approx(want, rel=1e-12)
    assert steerability(model_state, "b_to_a") == pytest.approx(want, rel=1e-12)


def test_pure_state_value():
    s = tmss_standard(-6.0, 6.0)
    n = s.cov[0, 0]
    # pure: n^2 - c^2 = 1, so G = ln n
    assert steerability(s, "a_to_b") == pytest.approx(np.log(n), rel=1e-9)
    assert np.log(n) == pytest.approx(0.749589, abs=1e-5)


def test_local_symplectic_invariance(model_state, rng):
    base_ab = steerability(model_state, "a_to_b")
    base_ba = steerability(model_state, "b_to_a")
    for _ in range(20):
        sp = np.eye(4)
        for side in (0, 2):
            theta = rng.uniform(0, 2 * np.pi)
            r = rng.uniform(-0.6, 0.6)
            rot = np.array([[np.cos(theta), np.sin(theta)],
                            [-np.sin(theta), np.cos(theta)]])
            sp[side:side + 2, side:side + 2] = rot @ np.diag([np.exp(r), np.exp(-r)])
        cov = sp @ model_state.cov @ sp.T
        state = from_cov((cov + cov.T) / 2)
        assert steerability(state, "a_to_b") == pytest.approx(base_ab, abs=1e-9)
        assert steerability(state, "b_to_a") == pytest.approx(base_ba, abs=1e-9)


def test_classification_regions(model_state):
    assert classify(apply_lossy(model_state, 0.2)).region == "two_way"
    # 0.35 sits above the B->A threshold 0.3077 while A->B survives any loss
    assert classify(apply_lossy(model_state, 0.35)).region == "one_way_a_to_b"
    amplified = nla_single_mode(apply_lossy(model_state, 0.35).cov, 1.2)
    assert classify(from_cov(amplified)).region == "two_way"


def test_a_to_b_robust_against_loss(model_state):
    # holds whenever n^2 - c^2 < n, true for the model state
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    assert n * n - c * c < n
    for loss in np.linspace(0.0, 0.99, 34):
        assert steerability(apply_lossy(model_state, loss), "a_to_b") > 0


def test_threshold_lossy_b_to_a(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    want = 1.0 - (n - 1) / (c * c - (n - 1) ** 2)
    got = steering_loss_threshold(model_state, ChannelSpec(0.0), "b_to_a")
    assert got == pytest.approx(want, abs=1e-4)


def test_threshold_noisy_a_to_b(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    eps = 0.12
    want = 1.0 - eps / (eps + (n - (n * n - c * c)) / n)
    got = steering_loss_threshold(model_state, ChannelSpec(0.0, eps), "a_to_b")
    assert got == pytest.approx(want, abs=1e-4)
    # reported experimental vanishing point was 0.73
    assert abs(got - 0.73) < 0.05


def test_threshold_with_amplification(model_state):
    got = steering_loss_threshold(model_state, ChannelSpec(0.0), "b_to_a", nla_gain=1.2)
    assert abs(got - 0.43) < 0.05  # reported: extended from 0.32 to 0.43


def test_threshold_refuses_gain_below_one(model_state):
    with pytest.raises(ValueError, match=r"gain must be >= 1, got 0\.5"):
        steering_loss_threshold(model_state, ChannelSpec(0.0), "b_to_a", nla_gain=0.5)


def test_threshold_unsteerable_direction_raises(model_state):
    dead = apply_lossy(model_state, 0.35)  # B->A already gone
    with pytest.raises(NoThresholdError):
        steering_loss_threshold(dead, ChannelSpec(0.0), "b_to_a")


# (channel, direction, gain) of the thresholds the paper reports
PUBLISHED = [
    (ChannelSpec(0.0), "b_to_a", None),
    (ChannelSpec(0.0, 0.12), "a_to_b", None),
    (ChannelSpec(0.0), "b_to_a", 1.2),
    (ChannelSpec(0.0, 0.12), "b_to_a", None),
    (ChannelSpec(0.0, 0.12), "b_to_a", 1.2),
]


@pytest.mark.parametrize("channel, direction, gain", PUBLISHED,
                         ids=["lossy-b_to_a", "noisy-a_to_b", "lossy-b_to_a-g1.2",
                              "noisy-b_to_a", "noisy-b_to_a-g1.2"])
def test_threshold_is_a_root_of_the_signed_quantity(model_state, channel, direction, gain):
    loss = steering_loss_threshold(model_state, channel, direction, nla_gain=gain)
    out = ChannelSpec(loss, channel.excess_noise, channel.noise_model).apply(model_state)
    if gain is not None:
        out = from_cov(nla_single_mode(out.cov, gain))
    assert abs(steering_signed_stack(out.cov[None], direction)[0]) <= 1e-12


def test_threshold_closed_forms_are_exact(model_state):
    n, c = model_state.cov[0, 0], model_state.cov[0, 2]
    lossy = steering_loss_threshold(model_state, ChannelSpec(0.0), "b_to_a")
    assert lossy == pytest.approx(1.0 - (n - 1) / (c * c - (n - 1) ** 2), abs=1e-12)
    noisy = steering_loss_threshold(model_state, ChannelSpec(0.0, 0.12), "a_to_b")
    assert noisy == pytest.approx(1.0 - 0.12 / (0.12 + (n - (n * n - c * c)) / n), abs=1e-12)


def test_threshold_agrees_with_fine_bisection_on_random_states():
    rng = np.random.default_rng(20230817)
    channels = [ChannelSpec(0.0), ChannelSpec(0.0, 0.1, "loss_scaled"),
                ChannelSpec(0.0, 0.1, "fixed")]
    compared = []
    for _ in range(5):
        state = random_physical_state(rng, nu_max=1.2)
        for channel in channels:
            for direction in ("a_to_b", "b_to_a"):
                for gain in (None, 1.1, 1.3):
                    try:
                        want = loss_threshold_bisection(state, channel, direction, gain, 1e-12)
                    except (NoThresholdError, GainTooLargeError):
                        with pytest.raises((NoThresholdError, GainTooLargeError)):
                            steering_loss_threshold(state, channel, direction, gain)
                        continue
                    got = steering_loss_threshold(state, channel, direction, gain)
                    assert got == pytest.approx(want, abs=1e-9)
                    compared.append(got)
    assert len(compared) >= 30 and min(compared) < 0.5


def test_threshold_is_exactly_one_where_a_to_b_survives_pure_loss(model_state):
    assert steering_loss_threshold(model_state, ChannelSpec(0.0), "a_to_b") == 1.0
    assert steering_loss_threshold(model_state, ChannelSpec(0.0), "a_to_b", nla_gain=1.2) == 1.0


def test_threshold_checks_the_gain_bound_at_both_ends(model_state):
    # amplified B->A is gone at zero loss, but the gain bound fails at full loss
    dead = apply_lossy(model_state, 0.6)
    with pytest.raises(GainTooLargeError):
        steering_loss_threshold(dead, ChannelSpec(0.0, 5.0), "b_to_a", nla_gain=1.2)


def test_signed_quantity_is_continuous_through_zero(model_state):
    thr = 0.30771011021372685
    lo, hi = steering_signed_stack(np.stack([apply_lossy(model_state, thr + dl).cov
                                             for dl in (-1e-4, 1e-4)]), "b_to_a")
    assert lo > 0 > hi
    assert abs(lo) < 1e-3 and abs(hi) < 1e-3


def test_pure_state_symmetric_at_zero_loss(pure_state):
    assert steerability(pure_state, "a_to_b") == pytest.approx(
        steerability(pure_state, "b_to_a"), abs=1e-12
    )


def test_unphysical_input_rejected():
    bad = from_cov(0.4 * np.eye(4))
    with pytest.raises(Exception, match="unphysical"):
        steerability(bad, "a_to_b")


def test_bad_direction_rejected(model_state):
    with pytest.raises(ValueError, match="direction"):
        steerability(model_state, "sideways")


@pytest.mark.parametrize("channel, want", [(ChannelSpec(0.0), 1.0),
                                           (ChannelSpec(0.0, 0.12), 0.7072406)])
def test_a_to_b_threshold_does_not_depend_on_the_gain(model_state, channel, want):
    # Bob's conditional matrix is isotropic here, S = lambda I, and the map
    # sends it to (S - sI)(I - sS)^{-1}: A->B steering vanishes where
    # lambda = 1, at every s, so one loss serves every gain of the grid
    from steerdist.config import ExperimentConfig

    gains = ExperimentConfig().g_grid
    assert len(gains) == 21
    got = np.array([steering_loss_threshold(model_state, channel, "a_to_b", float(g))
                    for g in gains])
    assert got == pytest.approx(np.full(len(gains), want), abs=5e-8)
    assert np.ptp(got) <= 1e-12
