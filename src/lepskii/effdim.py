"""Effective dimension (model and empirical) and the sample-error bound S(n, lambda).

N(lambda) = tr((B + lambda)^{-1} B) for the normalized covariance, computed as
the exact finite sum over a declared spectrum; N_x(lambda) is the same
functional of the normalized Gram spectrum. The two-sided concentration check
compares them at scale delta = 2 log(4/eta) / sqrt(n lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolationError,
    EmptySpectrumError,
    InvalidEtaError,
    InvalidLambdaError,
)
from .linalg import SpectralDecomposition


def check_lambda(lam: float) -> float:
    """lam as a float, after checking that it lies in (0, 1]."""
    lam = float(lam)
    if not (0.0 < lam <= 1.0) or not np.isfinite(lam):
        raise InvalidLambdaError(f"lambda must lie in (0, 1], got {lam}")
    return lam


@dataclass(frozen=True)
class SampleErrorParams:
    """Noise level sigma, Bernstein constant M, and sample size n."""

    sigma: float
    M_bound: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainViolationError("n must be >= 1")
        if not (np.isfinite(self.sigma) and np.isfinite(self.M_bound)):
            raise DomainViolationError("sigma and M must be finite")
        if self.sigma < 0 or self.M_bound < 0:
            raise DomainViolationError("sigma and M must be nonnegative")


def empirical_effdim(spectrum: SpectralDecomposition | np.ndarray, lam: float) -> float:
    """N_x(lambda) = sum_i mu_i / (mu_i + lambda) over all n Gram eigenvalues."""
    lam = check_lambda(lam)
    mu = spectrum.eigenvalues if isinstance(spectrum, SpectralDecomposition) else np.asarray(spectrum, dtype=float)
    return float(np.sum(mu / (mu + lam)))


def model_effdim(t_bar: np.ndarray, lam: float) -> float:
    """N(lambda) for a declared normalized spectrum t_bar (exact finite sum)."""
    lam = check_lambda(lam)
    t = np.asarray(t_bar, dtype=float)
    if t.size == 0:
        raise EmptySpectrumError("model spectrum is empty")
    return float(np.sum(t / (t + lam)))


def effdim_clamped(value: float) -> float:
    """max(N, 1), the clamped effective dimension entering S(n, lambda)."""
    if value < 0:
        raise DomainViolationError("effective dimension cannot be negative")
    return max(float(value), 1.0)


def sample_error(p: SampleErrorParams, effdim_clamped_val: float, lam: float) -> float:
    """S(n, lambda) = sigma sqrt(clamped_N / (n lambda)) + M / (n lambda)."""
    lam = check_lambda(lam)
    if effdim_clamped_val < 1.0:
        raise DomainViolationError("clamped effective dimension must be >= 1")
    return float(p.sigma * np.sqrt(effdim_clamped_val / (p.n * lam)) + p.M_bound / (p.n * lam))


def model_sample_error(p: SampleErrorParams, t_bar: np.ndarray, lam: float) -> float:
    """S(n, lambda) for a declared model spectrum."""
    return sample_error(p, effdim_clamped(model_effdim(t_bar, lam)), lam)


@dataclass(frozen=True)
class TwoSidedCheck:
    delta: float
    general_holds: bool
    factor5_applicable: bool
    factor5_holds: bool


def two_sided_check(N_model: float, N_emp: float, n: int, lam: float, eta: float) -> TwoSidedCheck:
    """Evaluate the two-sided effective-dimension comparison at one (n, lambda, eta).

    general: sqrt(max(N,1)) <= (1 + 4 delta) sqrt(max(N_x,1)) and
             sqrt(max(N_x,1)) <= (1 + 4 (sqrt(delta) v delta^2)) sqrt(max(N,1)).
    factor5 (applicable iff delta <= 1):
             (1/5) sqrt(max(N,1)) <= sqrt(max(N_x,1)) <= 5 sqrt(max(N,1)).
    """
    if not (0.0 < eta < 1.0):
        raise InvalidEtaError(f"eta must lie in (0, 1), got {eta}")
    lam = check_lambda(lam)
    delta = 2.0 * np.log(4.0 / eta) / np.sqrt(n * lam)
    a = np.sqrt(max(N_model, 1.0))
    b = np.sqrt(max(N_emp, 1.0))
    general = (a <= (1.0 + 4.0 * delta) * b) and (
        b <= (1.0 + 4.0 * max(np.sqrt(delta), delta**2)) * a
    )
    applicable = delta <= 1.0
    factor5 = (a / 5.0 <= b) and (b <= 5.0 * a)
    return TwoSidedCheck(
        delta=float(delta),
        general_holds=bool(general),
        factor5_applicable=bool(applicable),
        factor5_holds=bool(factor5),
    )
