"""The Gaussian EPR-steering monotone, direction classification, and
closed-form loss thresholds.

The A->B monotone is

    G = max(0, -sum_{nu_j < 1} ln nu_j)

over the symplectic eigenvalues nu_j of the Schur complement
S = B - C^T A^{-1} C; B->A swaps the roles.  With one mode per side S is
2x2, its one symplectic eigenvalue is sqrt(det S) and
det S = det sigma / det sigma_cond, so the signed quantity is

    -ln nu = (ln det sigma_cond - ln det sigma) / 2 = -(ln det S) / 2.

The stack kernel :func:`steerability_stack` evaluates it in both directions
through the closed-form 2x2 Schur complement on (N, 4, 4) stacks, and
:func:`region_labels` labels its values; :func:`steerability`,
:func:`classify` and :func:`steering_loss_threshold` read the signed
quantity from the same kernel.
The tests check the kernels against the general route through the
symplectic spectrum of the Schur complement, kept in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, channel_stack
from .gaussian import (
    GaussianState,
    InputError,
    NumericalError,
    RECONSTRUCTION_TOL,
    _first_order_se,
    _not_pd_error,
    _raise_first,
    _require_stack,
    adj2,
    det2,
    inv2,
    pd2,
    require_cov_stack,
    schur_2x2,
    schur_pd,
)
from .nla import _amplifier_s, nla_single_mode_stack

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
        raise InputError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def _blocks_1p1(covs: np.ndarray, direction: str):
    """(conditioning, kept, cross) 2x2 blocks; ``cross`` has the conditioning rows."""
    if direction == "a_to_b":
        return covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]
    return covs[:, 2:, 2:], covs[:, :2, :2], covs[:, 2:, :2]


def _signed_1p1(covs: np.ndarray, direction: str):
    """(-(ln det S)/2, S, ok) for each matrix, with ok the mask of evaluable
    ones: those whose conditioning block and Schur complement S are positive
    definite.  Values outside the mask are 0."""
    comp, ok = schur_pd(*_blocks_1p1(covs, direction))
    value = np.zeros(len(covs))
    value[ok] = -0.5 * np.log(det2(comp)[ok])
    return value, comp, ok


def _evaluation_error(cov: np.ndarray, comp: np.ndarray, direction: str) -> NumericalError:
    """The error the general route raises on a non-evaluable 1+1 matrix whose
    Schur complement in ``direction`` is ``comp``."""
    cond = _blocks_1p1(cov[None], direction)[0][0]
    eig = np.linalg.eigvalsh(cond)[0]
    if not pd2(cond):
        return NumericalError(f"conditioning block is singular (smallest eigenvalue {eig:.3e})")
    return _not_pd_error(comp)


def _signed_both(covs: np.ndarray):
    """:func:`_signed_1p1` in both directions, raising at the first matrix not
    evaluable in one (A->B checked first) or with a non-finite value."""
    (ab, comp_ab, ok_ab), (ba, comp_ba, ok_ba) = both = [_signed_1p1(covs, d) for d in DIRECTIONS]
    _raise_first(~(ok_ab & ok_ba), lambda i: _evaluation_error(covs[i], comp_ab[i], "a_to_b")
                 if not ok_ab[i] else _evaluation_error(covs[i], comp_ba[i], "b_to_a"))
    _raise_first(~(np.isfinite(ab) & np.isfinite(ba)),
                 lambda i: NumericalError(f"steering value is not finite: {ab[i]}, {ba[i]}"))
    return both


def steerability_stack(covs: np.ndarray):
    """(G_A->B, G_B->A) monotone arrays of a (N, 4, 4) stack; each matrix is
    checked for physicality once, at ``RECONSTRUCTION_TOL``."""
    return tuple(np.maximum(value, 0.0)
                 for value, _, _ in _signed_both(_require_stack(covs, RECONSTRUCTION_TOL)))


def region_labels(g_a_to_b, g_b_to_a) -> np.ndarray:
    """Region label of each (G_A->B, G_B->A) pair: a direction counts when
    its monotone exceeds ``STEERING_POSITIVITY_TOL``."""
    ab, ba = (np.asarray(g) > STEERING_POSITIVITY_TOL for g in (g_a_to_b, g_b_to_a))
    return np.select([ab & ba, ab, ba],
                     ["two_way", "one_way_a_to_b", "one_way_b_to_a"], "none")


def steerability(state: GaussianState, direction: str) -> float:
    """Gaussian steering monotone in the given direction, in nats, checked
    for physicality at ``RECONSTRUCTION_TOL``; an estimate goes to
    :func:`steerability_with_se`."""
    _check_direction(direction)
    return float(steerability_stack(state.cov[None])[DIRECTIONS.index(direction)][0])


def classify(state: GaussianState) -> SteeringResult:
    """Both monotone values plus the region label used in the steering maps."""
    gab, gba = steerability_stack(state.cov[None])
    return SteeringResult(float(gab[0]), float(gba[0]), str(region_labels(gab, gba)[0]))


def steerability_with_se_stack(covs: np.ndarray, ses: np.ndarray):
    """(G_A->B, its SE, G_B->A, its SE) arrays of a (N, 4, 4) stack of
    estimated covariances and their entry SEs.  It takes matrices that
    :func:`steerdist.measurement.covariance_stack` accepted, so it checks
    their symmetry and evaluability but not their physicality; it refuses as
    :func:`steerability_stack` does.

    The SE is first order through the exact gradient of the signed quantity
    (nonzero where the monotone is clipped to 0), -U S^-1 U^T / 2 with
    U = [cond^-1 cross; -I] in (conditioning, kept) rows.  The entries count
    as independent, though they come from the same records, which
    overstates the seed-to-seed spread 2.08-2.51x (300 seeds at loss 0.2)."""
    covs, out = require_cov_stack(covs), []
    for direction, (value, comp, _) in zip(DIRECTIONS, _signed_both(covs)):
        cond, _, cross = _blocks_1p1(covs, direction)
        m, minus_i = inv2(cond) @ cross, np.broadcast_to(-np.eye(2), cross.shape)
        u = np.concatenate((m, minus_i) if direction == "a_to_b" else (minus_i, m), axis=1)
        w = u @ inv2(comp) @ u.transpose(0, 2, 1)
        # an off-diagonal entry moves at (i, j) and (j, i), which doubles it
        grad = w.diagonal(axis1=1, axis2=2)[:, :, None] * np.eye(4) / 2 - w
        out += [np.maximum(value, 0.0), _first_order_se(grad, ses)]
    return tuple(out)


def steerability_with_se(cov: np.ndarray, se: np.ndarray, direction: str,
                         physicality_tol: float = 1e-2):
    """Monotone value and its first-order standard error from an estimated
    covariance: :func:`steerability_with_se_stack` with N = 1, after a
    physicality check at ``physicality_tol``."""
    _check_direction(direction)
    covs = _require_stack(np.asarray(cov, dtype=float)[None], physicality_tol)
    values = steerability_with_se_stack(covs, np.asarray(se, dtype=float)[None])
    k = 2 * DIRECTIONS.index(direction)
    return float(values[k][0]), float(values[k + 1][0])


class NoThresholdError(NumericalError):
    """The requested direction is already unsteerable at zero loss."""


def _det_poly(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Coefficients, highest power first, of det(m0 + T m1) for 2x2 m0, m1."""
    return np.array([det2(m1), np.trace(adj2(m0) @ m1), det2(m0)])


def steering_loss_threshold(state: GaussianState, channel_template: ChannelSpec,
                            direction: str, nla_gain: float | None = None) -> float:
    """Loss value where the monotone first reaches zero, in closed form.

    The channel template supplies excess noise and noise model; its own loss
    value is ignored.  With ``nla_gain``, Bob's channel output is amplified
    analytically before evaluating; a gain below 1 is refused.

    With T = 1 - loss, the channel keeps Alice's block A, scales the cross
    block X by sqrt(T) and makes Bob's block N + T (B - N), with A, B, X the
    zero-loss output's blocks and N Bob's block at full loss.  So
    S_{B|A} = N + T D with D = S - N, S = ``schur_2x2(A, B, X)``, and with
    the amplifier map's s = (g^2 - 1)/(g^2 + 1) (0 without the amplifier;
    see :mod:`steerdist.nla`) each threshold condition is a quadratic in T:

        A->B:  det((N - sI) + T D) - det((I - sN) - sT D) = 0,
        B->A:  det A det((N - sI) + T D) - det((N - sI) + T (B - N)) = 0.

    The threshold is 1 - the largest root T in [0, 1]: pure loss also has
    the root T = 0 in A->B, where Bob's output is vacuum.
    """
    outs = channel_stack(state.cov, [0.0, 1.0], channel_template.excess_noise,
                         channel_template.noise_model)
    gain = 1.0 if nla_gain is None else nla_gain
    amp = nla_single_mode_stack(outs, gain)
    _check_direction(direction)
    signed = _signed_both(_require_stack(amp, RECONSTRUCTION_TOL))
    f_lo, f_hi = signed[DIRECTIONS.index(direction)][0]
    if f_lo <= STEERING_POSITIVITY_TOL:
        raise NoThresholdError(f"direction {direction} is not steerable at zero loss "
                               f"(signed value {f_lo:.3e})")
    if f_hi > 0.0:  # steerable even at full loss cannot happen for these channels
        return 1.0
    s = _amplifier_s(gain)
    (a, _), (b, n), (x, _) = _blocks_1p1(outs, "a_to_b")
    d, eye = schur_2x2(a, b, x) - n, np.eye(2)
    if direction == "a_to_b":
        poly = _det_poly(n - s * eye, d) - _det_poly(eye - s * n, -s * d)
    else:
        poly = det2(a) * _det_poly(n - s * eye, d) - _det_poly(n - s * eye, b - n)
    roots = np.roots(poly)
    return float(1.0 - roots.real[np.isreal(roots) & (roots.real <= 1.0)].max())
