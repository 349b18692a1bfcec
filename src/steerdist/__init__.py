"""Distillation of Gaussian EPR steering by measurement-based noiseless
linear amplification, at desk scale: analytic covariance pipeline, Monte
Carlo post-selection pipeline, cutoff selection, and the 1sDI-QKD key rate.
"""

from .gaussian import (
    GaussianState,
    NumericalError,
    PhysicalityReport,
    UnphysicalStateError,
    check_physical,
    cov_from_text,
    cov_to_text,
    from_cov,
    purity,
    random_physical_state,
    read_cov,
    save_cov,
    schur_complement,
    symplectic_eigenvalues,
    symplectic_form,
    tmss_standard,
    vacuum_state,
)
from .channels import ChannelSpec, apply_lossy, apply_noisy, channel_stack
from .steering import (
    NoThresholdError,
    SteeringResult,
    classify,
    classify_stack,
    region_labels,
    steerability,
    steerability_stack,
    steerability_with_se,
    steering_loss_threshold,
    steering_signed,
    steering_signed_general,
    steering_signed_stack,
)
from .nla import (
    GainPair,
    GainTooLargeError,
    build_gain_matrices,
    max_single_mode_gain,
    nla_cov_two_mode,
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
    acceptance_probability,
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
)
from .qkd import (
    KeyRateResult,
    NoPositiveKeyError,
    conditional_variances,
    key_rate,
    key_rate_filtered,
    key_rate_with_se,
    min_gain_for_key,
)

__version__ = "0.1.0"
