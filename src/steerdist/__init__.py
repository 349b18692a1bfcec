"""Distillation of Gaussian EPR steering by measurement-based noiseless
linear amplification, at desk scale: analytic covariance pipeline, Monte
Carlo post-selection pipeline, cutoff selection, and the 1sDI-QKD key rate.
"""

from .gaussian import (
    GaussianState,
    InputError,
    NumericalError,
    PhysicalityReport,
    UnphysicalStateError,
    check_physical,
    from_cov,
    purity,
    symplectic_eigenvalues,
    symplectic_form,
    tmss_standard,
)
from .channels import ChannelSpec, apply_lossy, apply_noisy, channel_stack
from .steering import (
    NoThresholdError,
    SteeringResult,
    classify,
    region_labels,
    steerability,
    steerability_stack,
    steerability_with_se,
    steerability_with_se_stack,
    steering_loss_threshold,
    steering_signed_stack,
)
from .nla import (
    GainTooLargeError,
    max_single_mode_gain,
    nla_single_mode,
    nla_single_mode_stack,
)
from .measurement import (
    BASIS_P,
    BASIS_X,
    FilterSpec,
    MomentStats,
    QuadratureBatch,
    ReconstructionError,
    covariance_stack,
    moment_stats,
    post_select,
    read_batch_csv,
    reconstruct_covariance,
    reconstruction_tolerance,
    sample_batch,
    write_batch_csv,
)
from .filtered_moments import (
    FilteredEnsemble,
    acceptance_rate_exact,
    filtered_ensemble,
    filtered_ensemble_stack,
)
from .cutoff import (
    CutoffCriteria,
    CutoffSearchError,
    cutoff_from_table,
    reference_cutoff_table,
    select_cutoff,
    select_cutoff_stack,
)
from .qkd import (
    KeyRateResult,
    NoPositiveKeyError,
    key_rate,
    key_rate_filtered,
    key_rate_with_se,
    key_rate_with_se_stack,
    min_gain_for_key,
)

__version__ = "0.1.0"
