"""Kernel quadrature by Nystrom subsampling with optimal weights."""

from .errors import InputError, NumericalError
from .kernels import (
    KernelSpec,
    evaluate,
    gaussian,
    gram,
    laplacian,
    median_heuristic,
    parse_kernel,
    periodic_sobolev,
)
from .numerics import pinv_apply
from .sampling import (
    LeverageScores,
    approx_rls_pilot,
    exact_rls,
    sample_proportional,
    uniform_subsample,
)
from .quadrature import (
    QuadratureRule,
    TargetMeasure,
    compress,
    compress_grid,
    integrate,
    optimal_weights,
    target_embedding,
    target_moments,
    target_self_product,
    worst_case_error,
)
from .greedy import GreedyState, greedy_select
from .spectral import (
    DecayModel,
    RatePrediction,
    check_decay_bounds,
    effective_dimension,
    empirical_covariance_spectrum,
    rate_slope,
    theoretical_rate_curve,
)
from .bench import (
    Dataset,
    ExperimentConfig,
    ExperimentResult,
    gen_synthetic,
    load_csv,
    load_rule,
    run_experiment,
    save_rule,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "NumericalError",
    "KernelSpec",
    "evaluate",
    "gaussian",
    "gram",
    "laplacian",
    "median_heuristic",
    "parse_kernel",
    "periodic_sobolev",
    "pinv_apply",
    "LeverageScores",
    "approx_rls_pilot",
    "exact_rls",
    "sample_proportional",
    "uniform_subsample",
    "QuadratureRule",
    "TargetMeasure",
    "compress",
    "compress_grid",
    "integrate",
    "optimal_weights",
    "target_embedding",
    "target_moments",
    "target_self_product",
    "worst_case_error",
    "GreedyState",
    "greedy_select",
    "DecayModel",
    "RatePrediction",
    "check_decay_bounds",
    "effective_dimension",
    "empirical_covariance_spectrum",
    "rate_slope",
    "theoretical_rate_curve",
    "Dataset",
    "ExperimentConfig",
    "ExperimentResult",
    "gen_synthetic",
    "load_csv",
    "load_rule",
    "run_experiment",
    "save_rule",
    "summarize",
]
