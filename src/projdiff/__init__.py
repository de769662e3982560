"""Compressive recovery with denoiser-defined time-varying projections.

The library couples exact MMSE denoisers of structured priors (low-rank
Gaussian mixtures on unions of subspaces, uniform laws on boxes) with a
projected-gradient iteration whose projection sharpens along a noise
schedule, plus the measurement-side analysis (restricted isometry and
restricted Lipschitz constants) that predicts when the iteration contracts.

``import projdiff`` loads no submodule: each public name below is imported
from its submodule the first time it is read (PEP 562), so a command pays
only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    "checks": ("CheckResult", "report_csv", "report_table", "run_checks"),
    "config": ("ExperimentConfig", "PriorSpec", "SensingSpec", "load_config", "parse_config",
               "serialize_config"),
    "convex_prior": ("BoxSet", "McEstimate", "box_denoiser", "convex_gap_curve", "mc_denoiser",
                     "project_box", "sample_box", "truncated_normal_mean"),
    "diagnostics": ("RateFit", "detect_burn_in", "fit_convex_rate", "fit_linear_rate"),
    "errors": ("ConfigError", "DegenerateWeightsError", "DivergenceError", "FrontierError",
               "InsufficientDataError", "NumericFailureError", "ResourceLimitError",
               "UnwritableError"),
    "lrgmm_prior": ("DenoiserEval", "LrGmmPrior", "ProjectionGap", "denoiser", "projection_gap",
                    "random_lrgmm", "sample", "score", "sparse_gmm", "weights"),
    "model_sets": ("UnionOfSubspaces", "coordinate_subspace", "frontier_gap", "hard_threshold",
                   "project_union", "random_subspace", "random_union",
                   "squared_projection_norms"),
    "modelio": ("load_model", "save_model"),
    "recovery_engine": ("NoiseSchedule", "SensingProblem", "kadkhodaie_step", "run_recoveries",
                        "run_recovery", "schedule_sigma"),
    "sensing_analysis": ("gaussian_operator", "restricted_lipschitz_estimate", "ric_union",
                         "spectral_norm"),
    "traces": ("RecoveryTrace",),
}
_SUBMODULE = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
