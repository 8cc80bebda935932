"""Effective dimension (model and empirical) and the sample-error bound S(n, lambda).

N(lambda) = tr((B + lambda)^{-1} B) for the normalized covariance, computed as
the exact finite sum over a declared spectrum; N_x(lambda) is the same
functional of the normalized Gram spectrum. The two-sided concentration check
compares them at scale delta = 2 log(4/eta) / sqrt(n lambda).

Each function takes lambda as a scalar or as a 1-d array over a grid, and gives
one value per lambda (a scalar for a scalar). Lambda is the leading axis, so
every entry is summed over the contiguous spectrum as the scalar call sums it,
and equals that call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    EmptySpectrumError,
    InvalidEtaError,
    InvalidLambdaError,
)

Values = float | np.ndarray  # one value, or one per lambda of a 1-d array


def scalar_or_array(x, kind=float):
    """x itself if it holds one value per lambda, else the scalar kind(x)."""
    return x if np.ndim(x) else kind(x)


def check_lambda(lam: Values) -> np.ndarray:
    """lam as a float array, 0-d for a scalar, after checking that it has at most one axis
    and that each entry lies in (0, 1]."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise DimensionMismatchError("lambda must be a scalar or a 1-d array")
    bad = lam[~((lam > 0.0) & (lam <= 1.0))]
    if bad.size:
        raise InvalidLambdaError(f"lambda must lie in (0, 1], got {float(bad[0])}")
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


def _effdim(spectrum: np.ndarray, lam: Values) -> Values:
    """sum_i t_i / (t_i + lambda) over the spectrum, one sum per lambda."""
    return scalar_or_array(np.sum(spectrum / (spectrum + check_lambda(lam)[..., None]), axis=-1))


def empirical_effdim(eigenvalues: np.ndarray, lam: Values) -> Values:
    """N_x(lambda) = sum_i mu_i / (mu_i + lambda) over all n Gram eigenvalues."""
    return _effdim(np.asarray(eigenvalues, dtype=float), lam)


def model_effdim(t_bar: np.ndarray, lam: Values) -> Values:
    """N(lambda) for a declared normalized spectrum t_bar (exact finite sum)."""
    t = np.asarray(t_bar, dtype=float)
    if t.size == 0:
        raise EmptySpectrumError("model spectrum is empty")
    return _effdim(t, lam)


def effdim_clamped(value: Values) -> Values:
    """max(N, 1), the clamped effective dimension entering S(n, lambda)."""
    if np.any(np.asarray(value) < 0):
        raise DomainViolationError("effective dimension cannot be negative")
    return scalar_or_array(np.maximum(value, 1.0))


def sample_error(p: SampleErrorParams, effdim_clamped_val: Values, lam: Values) -> Values:
    """S(n, lambda) = sigma sqrt(clamped_N / (n lambda)) + M / (n lambda)."""
    nlam = p.n * check_lambda(lam)
    if np.any(np.asarray(effdim_clamped_val) < 1.0):
        raise DomainViolationError("clamped effective dimension must be >= 1")
    return scalar_or_array(p.sigma * np.sqrt(effdim_clamped_val / nlam) + p.M_bound / nlam)


@dataclass(frozen=True)
class TwoSidedCheck:
    """The comparison at one lambda (scalars), or at each lambda of a grid (arrays)."""

    delta: Values
    general_holds: bool | np.ndarray
    factor5_applicable: bool | np.ndarray
    factor5_holds: bool | np.ndarray


def two_sided_check(N_model: Values, N_emp: Values, n: int, lam: Values, eta: float) -> TwoSidedCheck:
    """Evaluate the two-sided effective-dimension comparison at (n, lambda, eta).

    general: sqrt(max(N,1)) <= (1 + 4 delta) sqrt(max(N_x,1)) and
             sqrt(max(N_x,1)) <= (1 + 4 (sqrt(delta) v delta^2)) sqrt(max(N,1)).
    factor5 (applicable iff delta <= 1):
             (1/5) sqrt(max(N,1)) <= sqrt(max(N_x,1)) <= 5 sqrt(max(N,1)).
    """
    if not (0.0 < eta < 1.0):
        raise InvalidEtaError(f"eta must lie in (0, 1), got {eta}")
    delta = 2.0 * np.log(4.0 / eta) / np.sqrt(n * check_lambda(lam))
    a = np.sqrt(np.maximum(N_model, 1.0))
    b = np.sqrt(np.maximum(N_emp, 1.0))
    # delta * delta, not delta**2: numpy squares an array by multiplying but raises a
    # scalar to the power 2 through pow, and the two differ in the last bit on some values
    general = (a <= (1.0 + 4.0 * delta) * b) & (
        b <= (1.0 + 4.0 * np.maximum(np.sqrt(delta), delta * delta)) * a
    )
    factor5 = (a / 5.0 <= b) & (b <= 5.0 * a)
    return TwoSidedCheck(
        delta=scalar_or_array(delta),
        general_holds=scalar_or_array(general, bool),
        factor5_applicable=scalar_or_array(delta <= 1.0, bool),
        factor5_holds=scalar_or_array(factor5, bool),
    )
