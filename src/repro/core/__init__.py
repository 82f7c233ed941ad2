"""SMD-JE core: Jarzynski estimators, PMF reconstruction, error analysis,
and the (kappa, v) parameter optimizer — the paper's primary algorithmic
contribution."""

from .jarzynski import (
    exponential_estimator,
    cumulant_estimator,
    block_estimator,
)
from .fr import (
    FRProfile,
    default_group_size,
    forward_reverse_pmf,
    fr_estimator,
    parallel_pull_estimator,
)
from .pmf import (
    PMFEstimate,
    available_estimators,
    check_estimator,
    estimate_pmf,
    register_estimator,
)
from .error_analysis import (
    BootstrapError,
    bootstrap_error,
    cost_normalization_factor,
    cost_normalized_error,
    pmf_error,
    pairwise_consistency,
    ErrorBudget,
    analyze_ensemble,
)
from .optimizer import ParameterStudyResult, run_parameter_study, select_optimal
from .ti import TIProtocol, TIResult, run_thermodynamic_integration
from .wham import UmbrellaProtocol, WHAMResult, run_umbrella_sampling, wham

__all__ = [
    "exponential_estimator",
    "cumulant_estimator",
    "block_estimator",
    "available_estimators",
    "check_estimator",
    "register_estimator",
    "FRProfile",
    "default_group_size",
    "forward_reverse_pmf",
    "fr_estimator",
    "parallel_pull_estimator",
    "PMFEstimate",
    "estimate_pmf",
    "BootstrapError",
    "bootstrap_error",
    "cost_normalization_factor",
    "cost_normalized_error",
    "pmf_error",
    "pairwise_consistency",
    "ErrorBudget",
    "analyze_ensemble",
    "ParameterStudyResult",
    "run_parameter_study",
    "select_optimal",
    "TIProtocol",
    "TIResult",
    "run_thermodynamic_integration",
    "UmbrellaProtocol",
    "WHAMResult",
    "run_umbrella_sampling",
    "wham",
]
