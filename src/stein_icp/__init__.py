"""Probabilistic point-cloud registration.

Stochastic-gradient ICP with a particle extension that keeps a whole set
of pose hypotheses coupled through kernel attraction and repulsion, so the
result is a sample-based posterior over the 6-DoF alignment instead of a
single estimate. Includes posterior-quality metrics, trajectory error
metrics, uncertainty-propagating odometry, synthetic benchmark scenes,
and a batch CLI.
"""

from .cloud import (
    FORMATS,
    PointCloud,
    estimate_normals,
    load_cloud,
    transform_cloud,
    write_cloud,
)
from .errors import (
    CloudParseError,
    DivergedError,
    InputError,
    MatchRejectionError,
    NumericalError,
    RegistrationError,
)
from .evaluation import (
    DIMENSION_NAMES,
    PoseDistribution,
    fit_gaussian,
    kde_1d,
    kl_gaussian,
    kl_rotation,
    kl_translation,
    mc_ground_truth,
    metrics_report,
    ovl_coefficient,
    pose_summary,
    relative_pose_error,
)
from .correspondence import NeighborIndex, build_index, match_stacked
from .geometry import (
    Pose6D,
    invert,
    matrix_to_pose,
    pose_array,
    pose_to_matrix,
    rotation_from_euler,
    rotation_partials,
    se3_adjoint,
    skew,
    transform_points,
    transform_stacked,
    wrap_angle,
)
from .odometry import (
    TrajectoryEstimate,
    build_trajectory,
    compound_covariance,
    confidence_ellipse,
    ellipse_rows,
    trajectory_rows,
)
from .sgd import (
    AdamState,
    IcpConfig,
    adam_step,
    run_sgd_icp,
    stacked_cost_gradients,
)
from .stein import (
    UNIFORM_PRIOR,
    EngineResult,
    PriorConfig,
    SteinConfig,
    median_bandwidth,
    prior_gradient,
    run_particle_engine,
    run_stein_icp,
    sample_initial_particles,
    stein_direction,
)
from .synthetic import BLOCK_GAP, SCENES, blob_scene, block_scene, make_scene, ring_scene

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BLOCK_GAP",
    "CloudParseError",
    "DIMENSION_NAMES",
    "DivergedError",
    "EngineResult",
    "FORMATS",
    "IcpConfig",
    "InputError",
    "MatchRejectionError",
    "NeighborIndex",
    "NumericalError",
    "PointCloud",
    "Pose6D",
    "PoseDistribution",
    "PriorConfig",
    "RegistrationError",
    "SCENES",
    "SteinConfig",
    "TrajectoryEstimate",
    "UNIFORM_PRIOR",
    "adam_step",
    "blob_scene",
    "block_scene",
    "build_index",
    "build_trajectory",
    "compound_covariance",
    "confidence_ellipse",
    "ellipse_rows",
    "estimate_normals",
    "fit_gaussian",
    "invert",
    "kde_1d",
    "kl_gaussian",
    "kl_rotation",
    "kl_translation",
    "load_cloud",
    "make_scene",
    "match_stacked",
    "matrix_to_pose",
    "mc_ground_truth",
    "median_bandwidth",
    "metrics_report",
    "ovl_coefficient",
    "pose_array",
    "pose_summary",
    "pose_to_matrix",
    "prior_gradient",
    "relative_pose_error",
    "ring_scene",
    "rotation_from_euler",
    "rotation_partials",
    "run_particle_engine",
    "run_sgd_icp",
    "run_stein_icp",
    "sample_initial_particles",
    "se3_adjoint",
    "skew",
    "stacked_cost_gradients",
    "stein_direction",
    "trajectory_rows",
    "transform_cloud",
    "transform_points",
    "transform_stacked",
    "wrap_angle",
    "write_cloud",
]
