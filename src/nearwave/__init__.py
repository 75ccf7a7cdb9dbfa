"""Near-field LOS MIMO channels: synthesis, polynomial wavefront estimation,
and maximum-likelihood baselines."""

__version__ = "0.1.0"

from .geometry import (
    SPEED_OF_LIGHT,
    ArraySpec,
    GeometryPose,
    antenna_positions,
    antenna_positions_alt,
    geometric_parameter_count,
    pairwise_distance,
    rotation_from_euler,
    rotation_from_tangent,
    sample_pose,
    synth,
)
from .ppe import circular_average, diff, diff_multi, estimate, reconstruct, weights
from .sim import (
    ExperimentConfig,
    ExperimentReport,
    add_noise,
    crb_asymptote,
    per_entry_mse,
    pilot_subsample,
    run_mse_sweep,
    run_trajectory_experiment,
)
from .wavefront import (
    PolyPhaseModel,
    approx_channel,
    build_degree_set,
    coefficients_from_geometry,
    fraunhofer_distance,
    legendre,
    normalized_offset,
    range_factor_taylor,
    sqrt_series_coeff,
    truncation_bound,
)
