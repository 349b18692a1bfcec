"""Gaussian lossy and noisy channels acting on Bob's mode.

The lossy channel is the beam-splitter map with transmission T = 1 - loss:
B -> T*B + (1-T)*I, C -> sqrt(T)*C, Alice untouched.  Excess noise is added
symmetrically to both of Bob's quadratures, either as a fixed variance
(``fixed``) or scaled by the loss (``loss_scaled``).  The default is
``loss_scaled``: with the standard-form model state it reproduces both
quoted experimental vanishing thresholds (B->A at 0.284 vs 0.28 reported,
A->B at 0.707 vs 0.73), whereas ``fixed`` gives 0.225 and 0.586.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    InputError,
    _require_in,
    require_cov_stack,
    require_physical_stack,
)

NOISE_MODELS = ("fixed", "loss_scaled")
DEFAULT_NOISE_MODEL = "loss_scaled"


@dataclass(frozen=True)
class ChannelSpec:
    """Loss fraction, excess-noise variance (vacuum units) and noise model."""

    loss: float
    excess_noise: float = 0.0
    noise_model: str = DEFAULT_NOISE_MODEL

    def __post_init__(self):
        _check_channel(self.loss, self.excess_noise, self.noise_model)

    def apply(self, state: GaussianState) -> GaussianState:
        return apply_noisy(state, self.loss, self.excess_noise, self.noise_model)


def _check_channel(losses, excess_noise, noise_model: str) -> None:
    """Refuse a loss outside [0, 1], an excess noise below 0 or above
    ``MAX_CUTOFF``, NaN or infinite, or an unknown noise model; an array at
    its first failing entry."""
    _require_in(losses, "loss", 0.0, 1.0)
    _require_in(excess_noise, "excess_noise", 0.0)
    if noise_model not in NOISE_MODELS:
        raise InputError(f"unknown noise_model {noise_model!r}, expected one of {NOISE_MODELS}")


def channel_stack(covs: np.ndarray, losses, excess_noise=0.0,
                  noise_model: str = DEFAULT_NOISE_MODEL) -> np.ndarray:
    """Lossy channel, then symmetric excess noise, on Bob's mode of every matrix.

    ``covs`` is one (4, 4) matrix or a (N, 4, 4) stack; ``losses`` and
    ``excess_noise`` are scalars or length-N arrays, broadcast against it.
    Every output is checked for physicality at ``PHYSICALITY_TOL`` after the
    loss and again after the noise.
    """
    covs = np.asarray(covs, dtype=float)
    losses, excess = np.asarray(losses, dtype=float), np.asarray(excess_noise, dtype=float)
    _check_channel(losses, excess, noise_model)
    # N by NumPy's broadcast rule, so an empty loss grid or stack gives N = 0
    n = np.broadcast_shapes((1,), losses.shape, excess.shape, covs.shape[:-2])[-1]
    losses, excess = np.broadcast_to(losses, (n,)), np.broadcast_to(excess, (n,))
    cov = np.array(np.broadcast_to(covs, (n, *covs.shape[-2:])))
    require_cov_stack(cov)
    b = slice(2, 4)
    t = 1.0 - losses
    block = t[:, None, None] * cov[:, b, b] + (1.0 - t)[:, None, None] * np.eye(2)
    root_t = np.sqrt(t)[:, None, None]
    cov[:, :, b] *= root_t
    cov[:, b, :] *= root_t
    cov[:, b, b] = block
    cov = require_physical_stack(0.5 * (cov + cov.transpose(0, 2, 1)))
    eps_add = excess if noise_model == "fixed" else excess * losses
    if np.any(eps_add != 0.0):
        cov[:, b, b] += eps_add[:, None, None] * np.eye(2)
        require_physical_stack(cov)
    return cov


def apply_lossy(state: GaussianState, loss: float) -> GaussianState:
    """Pure-loss beam-splitter channel on Bob's mode."""
    return apply_noisy(state, loss, 0.0, "fixed")


def apply_noisy(state: GaussianState, loss: float, excess_noise: float,
                noise_model: str = DEFAULT_NOISE_MODEL) -> GaussianState:
    """Lossy channel followed by symmetric excess noise on Bob's mode."""
    return GaussianState(channel_stack(state.cov, loss, excess_noise, noise_model)[0])
