"""Adaptive regularization-parameter selection for spectral kernel methods.

Balancing-principle selection of the regularization parameter over a
geometric grid, driven by the empirical effective dimension, together with
synthetic ground-truth models and a Monte-Carlo harness that checks the
concentration, oracle and rate properties the selector is supposed to have.
"""

# The top-level surface is what README's library sketch uses, plus predict,
# estimator_basis_coefficients, estimate_sigma and the error base class; everything
# else is reached through its submodule (lepskii.experiments, lepskii.kernels, ...).
from .balancing import BalancingConfig, balancing_select, estimate_sigma
from .effdim import model_effdim
from .errors import LepskiiError
from .estimators import TIKHONOV, fit_from_decomposition, predict
from .grid import geometric_grid, lambda0_from_effdim
from .kernels import gram_decomposition
from .synthetic import estimator_basis_coefficients, generate, polynomial_spectrum_model

__all__ = [
    "BalancingConfig",
    "LepskiiError",
    "TIKHONOV",
    "balancing_select",
    "estimate_sigma",
    "estimator_basis_coefficients",
    "fit_from_decomposition",
    "generate",
    "geometric_grid",
    "gram_decomposition",
    "lambda0_from_effdim",
    "model_effdim",
    "polynomial_spectrum_model",
    "predict",
]
__version__ = "0.1.0"
