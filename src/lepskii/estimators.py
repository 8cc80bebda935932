"""Spectral-filter estimators: fitting coefficients and predicting from them.

A filter g_lam approximates t -> 1/t on the spectrum of the normalized Gram
matrix G; the regularized coefficients are c = g_lam(G) y / (n kappa^2). All
three filters satisfy sup_t t g_lam(t) <= 1 on [0, 1]. The norm in which
balancing compares fits lives in :mod:`lepskii.balancing`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effdim import Values, check_lambda, scalar_or_array
from .errors import DimensionMismatchError, DomainViolationError
from .kernels import KernelSpec, ExplicitSpectrumKernel, cross_gram, feature_matrix
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


def filter_value(m: FilterMethod, lam: Values, t):
    """g_lam(t) for scalar or array t in [0, 1]; a 1-d lambda array gives one row per lambda.

    tikhonov: 1/(t + lam). spectral_cutoff: 1/t for t >= lam (inclusive), else 0.
    landweber: sum_{i<nu} (1-t)^i with nu = ceil(1/lam), evaluated in closed form
    (1 - (1-t)^nu)/t for t > 1e-12 and as nu below that.
    """
    t_arr = np.asarray(t, dtype=float)
    lams = check_lambda(lam)
    # lambda on the leading axis, broadcast against every axis of t
    lam = lams.reshape(lams.shape + (1,) * t_arr.ndim)
    if m.variant == "tikhonov":
        out = 1.0 / (t_arr + lam)
    elif m.variant == "spectral_cutoff":
        with np.errstate(divide="ignore"):
            out = np.where(t_arr >= lam, 1.0 / np.maximum(t_arr, 1e-300), 0.0)
    else:
        nu = np.ceil(1.0 / lam)
        small = t_arr <= 1e-12
        safe_t = np.where(small, 1.0, t_arr)
        # (1-t)^nu one lambda at a time, with a scalar integer exponent: numpy's power with
        # an array of exponents differs in the last bit from it (and from x**2 for nu = 2)
        power = np.reshape([(1.0 - safe_t) ** int(v) for v in nu.flat], lams.shape + t_arr.shape)
        out = np.where(small, nu, (1.0 - power) / safe_t)
    return scalar_or_array(out)


def fit_from_decomposition(
    dec: SpectralDecomposition, ys: np.ndarray, method: FilterMethod, lam: Values
) -> np.ndarray:
    """Coefficients c = g_lam(G) y / (n kappa^2) of f = sum_j c_j K(x_j, .), using a
    precomputed decomposition of G that carries n kappa^2 as dec.kscale. A 1-d array
    of lambdas gives one coefficient column per lambda, in order; a scalar lambda
    gives one vector."""
    lams = np.atleast_1d(check_lambda(lam))
    ys = np.asarray(ys, dtype=float)
    if ys.shape[0] != dec.dim:
        raise DimensionMismatchError("ys length does not match decomposition dimension")
    mu = dec.eigenvalues[: dec.rank]
    g0 = filter_value(method, lams, 0.0)
    # g_lam(G) y = V diag(g(mu) - g(0)) V^T y + g(0) y, exact also for truncated V; a row
    # per lambda, multiplied out into one C-ordered column per lambda
    z = dec.project(ys)
    c = dec.expand(np.multiply((filter_value(method, lams, mu) - g0[:, None]).T, z[:, None], order="C"))
    # accumulated in place: each extra n x |lambdas| temporary moves the heap layout, and
    # at n = 4096 the two it saves cost 8 MB of the benchmark's peak RSS
    c += ys[:, None] * g0
    c /= dec.kscale
    if not np.all(np.isfinite(c)):
        raise DomainViolationError("coefficients contain non-finite values")
    return c if np.ndim(lam) else c[:, 0]


def fitted_values(dec: SpectralDecomposition, c: np.ndarray) -> np.ndarray:
    """Values K c of f = sum_j c_j K(x_j, .) at the points x_j whose Gram matrix `dec`
    decomposes, evaluated spectrally as kscale * G c: O(n r) on a factor route, never
    forming K."""
    mu = dec.eigenvalues[: dec.rank]
    return dec.kscale * dec.expand(mu * dec.project(c))


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
