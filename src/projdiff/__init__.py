"""Compressive recovery with denoiser-defined time-varying projections.

The library couples exact MMSE denoisers of structured priors (low-rank
Gaussian mixtures on unions of subspaces, uniform laws on boxes) with a
projected-gradient iteration whose projection sharpens along a noise
schedule, plus the measurement-side analysis (restricted isometry and
restricted Lipschitz constants) that predicts when the iteration contracts.
"""

from .checks import CheckResult, report_csv, report_table, run_checks
from .config import (
    ConfigError,
    ExperimentConfig,
    PriorSpec,
    SensingSpec,
    load_config,
    parse_config,
    serialize_config,
)
from .convex_prior import (
    McEstimate,
    box_denoiser,
    convex_gap_curve,
    mc_denoiser,
    sample_box,
    truncated_normal_mean,
)
from .diagnostics import (
    ProjectionGap,
    RateFit,
    detect_burn_in,
    fit_convex_rate,
    fit_linear_rate,
    projection_gap,
)
from .errors import (
    DegenerateWeightsError,
    DivergenceError,
    FrontierError,
    InsufficientDataError,
    NumericFailureError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .lrgmm_prior import (
    DenoiserEval,
    LrGmmPrior,
    denoiser,
    limiting_projection,
    lrgmm_from_pi,
    random_lrgmm,
    sample,
    score,
    sparse_gmm,
    uniform_lrgmm,
    weights,
)
from .model_sets import (
    BoxSet,
    Subspace,
    UnionOfSubspaces,
    coordinate_subspace,
    frontier_gap,
    hard_threshold,
    project_box,
    project_union,
    random_subspace,
    random_union,
    squared_projection_norms,
)
from .modelio import load_model, save_model
from .recovery_engine import (
    NoiseSchedule,
    RecoveryTrace,
    gpgd_step,
    kadkhodaie_step,
    problem_hash,
    run_recoveries,
    run_recovery,
    schedule_sigma,
)
from .sensing_analysis import (
    SensingProblem,
    gaussian_operator,
    restricted_lipschitz_estimate,
    ric_union,
    spectral_norm,
)

__version__ = "0.1.0"
