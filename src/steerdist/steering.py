"""The Gaussian EPR-steering monotone, direction classification, and
loss-threshold root finding.

The A->B monotone is

    G = max(0, -sum_{nu_j < 1} ln nu_j)

over the symplectic eigenvalues nu_j of the Schur complement
S = B - C^T A^{-1} C; B->A swaps the roles.  With one mode per side S is
2x2, its one symplectic eigenvalue is sqrt(det S) and
det S = det sigma / det sigma_cond, so the signed quantity is

    -ln nu = (ln det sigma_cond - ln det sigma) / 2 = -(ln det S) / 2.

The stack kernels :func:`steering_signed_stack`, :func:`steerability_stack`
and :func:`classify_stack` evaluate it through the closed-form 2x2 Schur
complement on (N, 4, 4) stacks; :func:`steering_signed`,
:func:`steerability` and :func:`classify` call them with N = 1.
:func:`steering_signed_general`, the route through the symplectic spectrum
of the Schur complement, is the reference the kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, apply_noisy
from .gaussian import (
    GaussianState,
    NumericalError,
    _not_pd_error,
    _raise_first,
    det2,
    from_cov,
    pd2,
    require_cov_stack,
    require_physical_stack,
    schur_2x2,
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


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def _blocks_1p1(covs: np.ndarray, direction: str):
    """(conditioning, kept, cross) 2x2 blocks; ``cross`` has the conditioning rows."""
    if direction == "a_to_b":
        return covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]
    return covs[:, 2:, 2:], covs[:, :2, :2], covs[:, 2:, :2]


def _signed_1p1(covs: np.ndarray, direction: str):
    """-(ln det S)/2 for each matrix, and the mask of evaluable ones: those
    whose conditioning block and Schur complement S are positive definite.
    Entries outside the mask are 0."""
    cond, kept, cross = _blocks_1p1(covs, direction)
    ok = pd2(cond)
    sub = slice(None) if ok.all() else ok.copy()
    comp = schur_2x2(cond[sub], kept[sub], cross[sub])
    det = det2(comp)
    ok[sub] = pd2(comp)
    value = np.zeros(len(covs))
    value[ok] = -0.5 * np.log(det[ok[sub]])
    return value, ok


def _evaluation_error(cov: np.ndarray, direction: str) -> NumericalError:
    """The error the general route raises on a non-evaluable 1+1 matrix."""
    cond, kept, cross = (blk[0] for blk in _blocks_1p1(cov[None], direction))
    eig = np.linalg.eigvalsh(cond)[0]
    if not pd2(cond):
        return NumericalError(f"conditioning block is singular (smallest eigenvalue {eig:.3e})")
    return _not_pd_error(schur_2x2(cond, kept, cross))


def _require_stack(covs: np.ndarray, physicality_tol: float) -> np.ndarray:
    covs = require_cov_stack(covs)
    if not np.isinf(physicality_tol):
        require_physical_stack(covs, physicality_tol)
    return covs


def steering_signed_stack(covs: np.ndarray, direction: str,
                          physicality_tol: float = 1e-3) -> np.ndarray:
    """:func:`steering_signed` on a (N, 4, 4) stack."""
    _check_direction(direction)
    covs = _require_stack(covs, physicality_tol)
    value, ok = _signed_1p1(covs, direction)
    _raise_first(~ok, lambda i: _evaluation_error(covs[i], direction))
    return value


def steerability_stack(covs: np.ndarray, physicality_tol: float = 1e-3):
    """(G_A->B, G_B->A) monotone arrays of a (N, 4, 4) stack; each matrix is
    checked for physicality once, at ``physicality_tol``."""
    covs = _require_stack(covs, physicality_tol)
    (ab, ok_ab), (ba, ok_ba) = (_signed_1p1(covs, d) for d in DIRECTIONS)
    _raise_first(~(ok_ab & ok_ba), lambda i: _evaluation_error(
        covs[i], "a_to_b" if not ok_ab[i] else "b_to_a"))
    _raise_first(~(np.isfinite(ab) & np.isfinite(ba)),
                 lambda i: NumericalError(f"steering value is not finite: {ab[i]}, {ba[i]}"))
    return np.maximum(ab, 0.0), np.maximum(ba, 0.0)


def region_labels(g_a_to_b, g_b_to_a, tol: float = STEERING_POSITIVITY_TOL) -> np.ndarray:
    """Region label of each (G_A->B, G_B->A) pair: a direction counts when
    its monotone exceeds ``tol``."""
    ab, ba = np.asarray(g_a_to_b) > tol, np.asarray(g_b_to_a) > tol
    return np.select([ab & ba, ab, ba],
                     ["two_way", "one_way_a_to_b", "one_way_b_to_a"], "none")


def classify_stack(covs: np.ndarray, tol: float = STEERING_POSITIVITY_TOL):
    """(G_A->B, G_B->A, labels) of a (N, 4, 4) stack."""
    gab, gba = steerability_stack(covs)
    return gab, gba, region_labels(gab, gba, tol)


def steering_signed_general(state: GaussianState, direction: str) -> float:
    """Signed steering quantity through the symplectic spectrum of the Schur
    complement; no physicality check.  The tests' reference for the kernels."""
    _check_direction(direction)
    keep = "b" if direction == "a_to_b" else "a"
    comp = schur_complement(state.cov, keep)
    nu = symplectic_eigenvalues(comp)
    below = nu[nu < 1.0]
    if below.size:
        return float(-np.sum(np.log(below)))
    return float(-np.log(nu[0]))


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
    return float(steering_signed_stack(state.cov[None], direction, physicality_tol)[0])


def steerability(state: GaussianState, direction: str,
                 physicality_tol: float = 1e-3) -> float:
    """Gaussian steering monotone in the given direction, in nats."""
    return max(0.0, steering_signed(state, direction, physicality_tol))


def classify(state: GaussianState, tol: float = STEERING_POSITIVITY_TOL) -> SteeringResult:
    """Both monotone values plus the region label used in the steering maps."""
    gab, gba, labels = classify_stack(state.cov[None], tol)
    return SteeringResult(float(gab[0]), float(gba[0]), str(labels[0]))


def steerability_with_se(cov: np.ndarray, se: np.ndarray, direction: str,
                         physicality_tol: float = 1e-2):
    """Monotone value and its standard error from an estimated covariance.

    Propagates the per-entry standard errors through the signed steering
    quantity with :func:`steerdist.measurement.propagate_se`.
    """
    value = steerability(from_cov(cov), direction, physicality_tol)
    return value, propagate_se(
        lambda covs: steering_signed_stack(covs, direction, np.inf), cov, se)


class NoThresholdError(NumericalError):
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
                          channel_template.noise_model)
        if nla_gain is not None and nla_gain > 1.0:
            out = GaussianState(nla_single_mode(out.cov, nla_gain, side="b"))
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
