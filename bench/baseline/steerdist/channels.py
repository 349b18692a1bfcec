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

from .gaussian import GaussianState, _mode_quadrature_indices

NOISE_MODELS = ("fixed", "loss_scaled")
DEFAULT_NOISE_MODEL = "loss_scaled"


@dataclass(frozen=True)
class ChannelSpec:
    """Loss fraction, excess-noise variance (vacuum units) and noise model."""

    loss: float
    excess_noise: float = 0.0
    noise_model: str = DEFAULT_NOISE_MODEL
    target_mode: int | None = None  # default: Bob's (single) mode

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if self.excess_noise < 0.0:
            raise ValueError(f"excess_noise must be >= 0, got {self.excess_noise}")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(
                f"unknown noise_model {self.noise_model!r}, expected one of {NOISE_MODELS}"
            )

    def apply(self, state: GaussianState) -> GaussianState:
        return apply_noisy(state, self.loss, self.excess_noise, self.noise_model,
                           self.target_mode)


def _bob_quadrature_indices(state: GaussianState, target_mode: int | None):
    if target_mode is None:
        if len(state.bob_modes) != 1:
            raise ValueError(
                f"state must have a single Bob mode, has {len(state.bob_modes)}"
            )
        target_mode = state.bob_modes[0]
    return _mode_quadrature_indices([target_mode])


def apply_lossy(state: GaussianState, loss: float,
                target_mode: int | None = None) -> GaussianState:
    """Pure-loss beam-splitter channel on Bob's mode."""
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss must be in [0, 1], got {loss}")
    ib = _bob_quadrature_indices(state, target_mode)
    t = 1.0 - loss
    cov = state.cov.copy()
    cov[np.ix_(ib, ib)] = t * cov[np.ix_(ib, ib)] + (1.0 - t) * np.eye(2)
    others = [k for k in range(cov.shape[0]) if k not in ib]
    cov[np.ix_(others, ib)] *= np.sqrt(t)
    cov[np.ix_(ib, others)] *= np.sqrt(t)
    return state.with_cov((cov + cov.T) / 2.0).require_physical()


def apply_noisy(state: GaussianState, loss: float, excess_noise: float,
                noise_model: str = DEFAULT_NOISE_MODEL,
                target_mode: int | None = None) -> GaussianState:
    """Lossy channel followed by symmetric excess noise on Bob's mode."""
    if excess_noise < 0.0:
        raise ValueError(f"excess_noise must be >= 0, got {excess_noise}")
    if noise_model not in NOISE_MODELS:
        raise ValueError(
            f"unknown noise_model {noise_model!r}, expected one of {NOISE_MODELS}"
        )
    out = apply_lossy(state, loss, target_mode)
    eps_add = excess_noise if noise_model == "fixed" else excess_noise * loss
    if eps_add == 0.0:
        return out
    ib = _bob_quadrature_indices(state, target_mode)
    cov = out.cov.copy()
    cov[np.ix_(ib, ib)] += eps_add * np.eye(2)
    return state.with_cov(cov).require_physical()
