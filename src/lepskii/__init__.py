"""Adaptive regularization-parameter selection for spectral kernel methods.

Balancing-principle selection of the regularization parameter over a
geometric grid, driven by the empirical effective dimension, together with
synthetic ground-truth models and a Monte-Carlo harness that checks the
concentration, oracle and rate properties the selector is supposed to have.
"""

from .balancing import (
    BalancingConfig,
    BalancingDiagnostics,
    balancing_select,
    empirical_sample_error,
    estimate_sigma,
    select_one_for_all,
)
from .effdim import (
    SampleErrorParams,
    TwoSidedCheck,
    effdim_clamped,
    empirical_effdim,
    model_effdim,
    model_sample_error,
    sample_error,
    two_sided_check,
)
from .errors import LepskiiError
from .estimators import (
    FILTERS,
    LANDWEBER,
    SPECTRAL_CUTOFF,
    TIKHONOV,
    EstimatorCoefficients,
    FilterMethod,
    filter_value,
    fit,
    fit_from_decomposition,
    predict,
    weighted_diff_norm,
)
from .experiments import (
    ConcentrationSummary,
    ExperimentConfig,
    ExperimentRow,
    RateFit,
    bernstein_bound,
    concentration_experiment,
    fit_rate,
    holdout_select,
    loglog_fit,
    run_experiment,
)
from .grid import (
    Grid,
    GridValidation,
    geometric_grid,
    heuristic_lambda0,
    lambda0_from_effdim,
    validate_grid_conditions,
)
from .kernels import (
    Dataset,
    ExplicitSpectrumKernel,
    GaussianKernel,
    PolynomialKernel,
    gram_decomposition,
    gram_eigenvalues,
    gram_scale,
    kappa_squared,
    kernel_eval,
    normalized_gram,
)
from .linalg import (
    SpectralDecomposition,
    sym_eigendecompose,
)
from .synthetic import (
    ApproxErrorOracle,
    HolderSource,
    IndexFunctionSource,
    SyntheticModel,
    approx_error,
    custom_spectrum_model,
    estimator_basis_coefficients,
    generate,
    lambda_star,
    oracle_lambda_balance,
    oracle_lambda_regular,
    polynomial_spectrum_model,
    rate_exponent,
    true_error_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
