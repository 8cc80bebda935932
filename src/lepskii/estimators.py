"""Spectral-filter estimators and the weighted empirical norms used by balancing.

A filter g_lam approximates t -> 1/t on the spectrum of the normalized Gram
matrix G; the regularized coefficients are c = g_lam(G) y / (n kappa^2). All
three filters satisfy sup_t t g_lam(t) <= 1 on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effdim import check_lambda
from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    InvalidLambdaError,
)
from .kernels import Dataset, KernelSpec, ExplicitSpectrumKernel, cross_gram, feature_matrix, gram_decomposition, gram_scale
from .linalg import SpectralDecomposition

_CUTOFF_VARIANTS = ("tikhonov", "spectral_cutoff", "landweber")
INFINITE_QUALIFICATION = float("inf")


@dataclass(frozen=True)
class FilterMethod:
    """A spectral regularization scheme plus its qualification (metadata only)."""

    variant: str
    qualification: float

    def __post_init__(self):
        if self.variant not in _CUTOFF_VARIANTS:
            raise DomainViolationError(f"unknown filter variant {self.variant!r}")


TIKHONOV = FilterMethod("tikhonov", 1.0)
SPECTRAL_CUTOFF = FilterMethod("spectral_cutoff", INFINITE_QUALIFICATION)
LANDWEBER = FilterMethod("landweber", INFINITE_QUALIFICATION)

FILTERS = {f.variant: f for f in (TIKHONOV, SPECTRAL_CUTOFF, LANDWEBER)}


def filter_value(m: FilterMethod, lam: float, t):
    """g_lam(t) for scalar or array t in [0, 1].

    tikhonov: 1/(t + lam). spectral_cutoff: 1/t for t >= lam (inclusive), else 0.
    landweber: sum_{i<nu} (1-t)^i with nu = ceil(1/lam), evaluated in closed form
    (1 - (1-t)^nu)/t for t > 1e-12 and as nu below that.
    """
    lam = check_lambda(lam)
    t_arr = np.asarray(t, dtype=float)
    if m.variant == "tikhonov":
        out = 1.0 / (t_arr + lam)
    elif m.variant == "spectral_cutoff":
        with np.errstate(divide="ignore"):
            out = np.where(t_arr >= lam, 1.0 / np.maximum(t_arr, 1e-300), 0.0)
    else:
        nu = int(np.ceil(1.0 / lam))
        small = t_arr <= 1e-12
        safe_t = np.where(small, 1.0, t_arr)
        out = np.where(small, float(nu), (1.0 - (1.0 - safe_t) ** nu) / safe_t)
    return out if np.ndim(t) else float(out)


def fit_from_decomposition(
    dec: SpectralDecomposition,
    kscale: float,
    ys: np.ndarray,
    method: FilterMethod,
    lam: float | np.ndarray,
) -> np.ndarray:
    """Coefficients c = g_lam(G) y / (n kappa^2) of f = sum_j c_j K(x_j, .), using a
    precomputed decomposition of G. A 1-d array of lambdas gives one coefficient
    column per lambda, in order; a scalar lambda gives one vector."""
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise DimensionMismatchError("lambda must be a scalar or a 1-d array")
    cols = [check_lambda(v) for v in lams.ravel()]
    ys = np.asarray(ys, dtype=float)
    if ys.shape[0] != dec.dim:
        raise DimensionMismatchError("ys length does not match decomposition dimension")
    mu = dec.eigenvalues[: dec.rank]
    g_mu = np.column_stack([filter_value(method, v, mu) for v in cols])
    g0 = np.array([filter_value(method, v, 0.0) for v in cols])
    # g_lam(G) y = V diag(g(mu) - g(0)) V^T y + g(0) y, exact also for truncated V
    z = dec.project(ys)
    c = dec.expand((g_mu - g0) * z[:, None])
    # accumulated in place: each extra n x |lambdas| temporary moves the heap layout, and
    # at n = 4096 the two it saves cost 8 MB of the benchmark's peak RSS
    c += ys[:, None] * g0
    c /= kscale
    if not np.all(np.isfinite(c)):
        raise DomainViolationError("coefficients contain non-finite values")
    return c if lams.ndim else c[:, 0]


def fit(data: Dataset, k: KernelSpec, method: FilterMethod, lam: float) -> np.ndarray:
    """Fit a spectral-filter estimator on a dataset."""
    dec = gram_decomposition(k, data.xs)
    return fit_from_decomposition(dec, gram_scale(k, data.n), data.ys, method, lam)


def predict(c: np.ndarray, k: KernelSpec, train_xs: np.ndarray, xs_new: np.ndarray) -> np.ndarray:
    """Evaluate f(x) = sum_j c_j K(x_j, x) at query points; a coefficient matrix
    (one estimator per column) gives one column of values per estimator."""
    c = np.asarray(c, dtype=float)
    train_xs = np.asarray(train_xs, dtype=float)
    if c.shape[0] != train_xs.shape[0]:
        raise DimensionMismatchError("coefficient length does not match training points")
    if isinstance(k, ExplicitSpectrumKernel):
        # feature route avoids the n_new x n_train kernel matrix
        w = feature_matrix(k, train_xs).T @ c
        return feature_matrix(k, np.asarray(xs_new, dtype=float)) @ w
    return cross_gram(k, np.asarray(xs_new, dtype=float), train_xs) @ c


def weighted_diff_norm(
    c1: np.ndarray,
    c2: np.ndarray,
    dec: SpectralDecomposition,
    kscale: float,
    lambda_prime: float,
    s: float,
) -> float:
    """|| (G + lambda')^s (f_1 - f_2) ||_H for coefficient vectors c1, c2.

    Computed as sqrt(d^T K (G + lambda')^{2s} d) with d = c1 - c2 in the shared
    eigenbasis of K = kscale * G; s = 0 gives the plain RKHS norm. lambda' = 0
    is admitted (used by the interpolation-inequality checks).
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.shape != c2.shape or c1.shape[0] != dec.dim:
        raise DimensionMismatchError("coefficient vectors must match the decomposition dimension")
    if not (0.0 <= lambda_prime <= 1.0):
        raise InvalidLambdaError(f"lambda' must lie in [0, 1], got {lambda_prime}")
    if not (0.0 <= s <= 0.5):
        raise DomainViolationError(f"norm parameter s must lie in [0, 1/2], got {s}")
    e = dec.project(c1 - c2)
    return float(np.sqrt(max(_projected_norm_sq(e, dec, kscale, lambda_prime, s), 0.0)))


def _projected_norm_sq(
    e: np.ndarray, dec: SpectralDecomposition, kscale: float, lambda_prime: float, s: float
) -> float:
    # null-space modes carry zero K-weight, so truncated coordinates are exact
    mu = dec.eigenvalues[: dec.rank]
    weights = kscale * mu * (mu + lambda_prime) ** (2.0 * s)
    return float(np.dot(weights, e * e))
