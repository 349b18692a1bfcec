"""The Gaussian EPR-steering monotone, direction classification, and
loss-threshold root finding.

For an (n_A + m_B)-mode state the A->B monotone is

    G = max(0, -sum_{nu_j < 1} ln nu_j)

over the symplectic eigenvalues nu_j of the Schur complement B - C^T A^{-1} C;
B->A swaps the roles.  For 1+1 modes this reduces to
max(0, ln(det A / det sigma) / 2), kept as a cross-check fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, apply_noisy
from .gaussian import (
    GaussianState,
    UnphysicalStateError,
    check_physical,
    from_cov,
    schur_complement,
    symplectic_eigenvalues,
)
from .measurement import propagate_se

# Monotone values below this are reported as exactly "not steerable".
STEERING_POSITIVITY_TOL = 1e-9

DIRECTIONS = ("a_to_b", "b_to_a")


@dataclass(frozen=True)
class SteeringResult:
    g_a_to_b: float
    g_b_to_a: float
    region: str  # two_way | one_way_a_to_b | one_way_b_to_a | none


def _validate(state: GaussianState, tol: float) -> None:
    report = check_physical(state.cov, tol)
    if not report:
        raise UnphysicalStateError(
            f"state is unphysical: min symplectic eigenvalue "
            f"{report.min_symplectic_eigenvalue:.12g} < 1 (tol {tol:g})"
        )


def steering_signed(state: GaussianState, direction: str,
                    physicality_tol: float = 1e-3) -> float:
    """Signed pre-max steering quantity; positive iff steerable.

    Equals -sum_{nu<1} ln nu when any Schur symplectic eigenvalue is below 1
    and -ln(nu_min) (negative) otherwise, so it crosses zero continuously.
    Bisection in :func:`steering_loss_threshold` brackets on this quantity
    because the monotone itself has a kink at zero.

    ``physicality_tol`` is loose by default so that Monte Carlo
    reconstructions (accepted up to 1e-3 below the vacuum bound) can be
    evaluated.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if not np.isinf(physicality_tol):
        _validate(state, physicality_tol)
    keep = "b" if direction == "a_to_b" else "a"
    comp = schur_complement(state.cov, keep, state.alice_modes, state.bob_modes)
    nu = symplectic_eigenvalues(comp)
    below = nu[nu < 1.0]
    if below.size:
        return float(-np.sum(np.log(below)))
    return float(-np.log(nu[0]))


def steerability(state: GaussianState, direction: str,
                 physicality_tol: float = 1e-3) -> float:
    """Gaussian steering monotone in the given direction, in nats."""
    return max(0.0, steering_signed(state, direction, physicality_tol))


def steerability_1p1(state: GaussianState, direction: str) -> float:
    """Determinant fast path for 1+1 modes: max(0, ln(det cond / det sigma)/2)."""
    if len(state.alice_modes) != 1 or len(state.bob_modes) != 1:
        raise ValueError("fast path requires exactly one mode per side")
    a, b, _ = state.blocks()
    cond = a if direction == "a_to_b" else b
    val = 0.5 * (np.log(np.linalg.det(cond)) - np.log(np.linalg.det(state.cov)))
    return max(0.0, float(val))


def classify(state: GaussianState, tol: float = STEERING_POSITIVITY_TOL) -> SteeringResult:
    """Both monotone values plus the region label used in the steering maps."""
    gab = steerability(state, "a_to_b")
    gba = steerability(state, "b_to_a")
    ab, ba = gab > tol, gba > tol
    if ab and ba:
        region = "two_way"
    elif ab:
        region = "one_way_a_to_b"
    elif ba:
        region = "one_way_b_to_a"
    else:
        region = "none"
    return SteeringResult(gab, gba, region)


def steerability_with_se(cov: np.ndarray, se: np.ndarray, direction: str,
                         physicality_tol: float = 1e-2):
    """Monotone value and its standard error from an estimated covariance.

    Propagates the per-entry standard errors through the signed steering
    quantity with :func:`steerdist.measurement.propagate_se`.
    """
    value = steerability(from_cov(cov), direction, physicality_tol)
    return value, propagate_se(
        lambda c: steering_signed(from_cov(c), direction, np.inf), cov, se)


class NoThresholdError(ValueError):
    """The requested direction is already unsteerable at zero loss."""


def steering_loss_threshold(
    state: GaussianState,
    channel_template: ChannelSpec,
    direction: str,
    nla_gain: float | None = None,
    xtol: float = 1e-4,
) -> float:
    """Loss value where the monotone first reaches zero, by bisection.

    The channel template supplies excess noise and noise model; its own loss
    value is ignored.  When ``nla_gain`` is given, the channel output is
    amplified analytically on Bob's side before evaluating.
    """
    from .nla import nla_single_mode  # local import; nla depends on gaussian only

    def signed(loss: float) -> float:
        out = apply_noisy(state, loss, channel_template.excess_noise,
                          channel_template.noise_model, channel_template.target_mode)
        if nla_gain is not None and nla_gain > 1.0:
            out = out.with_cov(nla_single_mode(out.cov, nla_gain, side="b"))
        return steering_signed(out, direction)

    lo, hi = 0.0, 1.0
    f_lo = signed(lo)
    if f_lo <= STEERING_POSITIVITY_TOL:
        raise NoThresholdError(
            f"direction {direction} is not steerable at zero loss "
            f"(signed value {f_lo:.3e})"
        )
    f_hi = signed(hi)
    if f_hi > 0.0:
        # steerable even at full loss cannot happen for these channels, but
        # guard the bisection anyway
        return 1.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if signed(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
