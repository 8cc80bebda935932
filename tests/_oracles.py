"""Independent test oracles: brute-force re-implementations kept deliberately
separate from the library code paths they check. Also the test-only helpers
built on library internals (weighted_diff_norm, model_sample_error,
bernstein_bound, fit, trig_basis), which the library itself has no use for."""

import numpy as np
import scipy.linalg

from lepskii.effdim import effdim_clamped, model_effdim, sample_error
from lepskii.errors import (
    DimensionMismatchError,
    DomainViolationError,
    InsufficientDataError,
    InvalidEtaError,
    InvalidLambdaError,
)
from lepskii.estimators import fit_from_decomposition
from lepskii.kernels import _trig_fill, gram_decomposition


def dense_weighted_norm(d, g_dense, kmat, lam_p, s):
    """|| (G + lambda')^s d ||_H = sqrt(d^T K (G + lambda')^{2s} d) for a coefficient
    vector d, from the dense G and K with a scipy fractional power."""
    power = scipy.linalg.fractional_matrix_power(g_dense + lam_p * np.eye(len(d)), 2 * s)
    return float(np.sqrt(max(d @ kmat @ np.real(power) @ d, 0.0)))


def brute_force_jplus(coeffs, lams, g_dense, kscale, cfg, n):
    """Accepted-set enumeration from the definition: dense matrices, scipy
    fractional powers, direct linear solves for the effective dimension."""
    kmat = kscale * g_dense
    size = len(lams)
    mult = cfg.bal_factor
    if cfg.use_theoretical_constant:
        mult *= np.log(16.0 * size / cfg.eta) ** 2

    def n_x(lam):
        return np.trace(np.linalg.solve(g_dense + lam * np.eye(n), g_dense))

    def s_x(lam):
        return cfg.sigma * np.sqrt(max(n_x(lam), 1.0) / (n * lam)) + cfg.M_bound / (n * lam)

    accepted = []
    for lam in lams:
        ok = True
        for lam_p in lams:
            if lam_p > lam:
                continue
            norm = dense_weighted_norm(coeffs[lam] - coeffs[lam_p], g_dense, kmat, lam_p, cfg.s)
            if norm > mult * lam_p**cfg.s * s_x(lam_p):
                ok = False
                break
        if ok:
            accepted.append(lam)
    return max(accepted), accepted


def oracle_lambda_regular(model, n, b):
    """Closed-form balance point of the regular case (Caponnetto & De Vito 2007) for a
    Holder source and raw spectrum i^{-b}: lambda_n = (sigma^2 / (R^2 n))^{b / (2 b r + b + 1)}."""
    r = model.source.r
    ratio = model.noise.sigma**2 / (model.source.R**2 * n)
    return float(ratio ** (b / (2.0 * b * r + b + 1.0)))


def explicit_kernel_matrix(t, xs_a, xs_b):
    """K(a, b) = sum_i t_i e_i(a) e_i(b) by direct summation over the trigonometric
    basis e_1 = 1, e_{2k} = sqrt(2) cos(2 pi k x), e_{2k+1} = sqrt(2) sin(2 pi k x)."""

    def basis(x):
        cols = [np.ones_like(x)]
        for i in range(2, len(t) + 1):
            trig = np.cos if i % 2 == 0 else np.sin
            cols.append(np.sqrt(2.0) * trig(2.0 * np.pi * (i // 2) * x))
        return np.column_stack(cols)

    return (basis(xs_a) * t) @ basis(xs_b).T


def holdout_tikhonov_lambda(t, kappa2, xs, ys, lams, split_fraction=0.5):
    """Hold-out choice from its definition: for each lambda a direct Tikhonov solve
    c = (K_tr + n_tr kappa^2 lambda I)^{-1} y_tr on the head of the data, scored by
    validation MSE on the tail; ties go to the larger lambda."""
    n_tr = int(np.ceil(split_fraction * len(xs)))
    k_tr = explicit_kernel_matrix(t, xs[:n_tr], xs[:n_tr])
    k_va = explicit_kernel_matrix(t, xs[n_tr:], xs[:n_tr])
    mse = []
    for lam in lams:
        c = np.linalg.solve(k_tr + n_tr * kappa2 * lam * np.eye(n_tr), ys[:n_tr])
        mse.append(np.mean((ys[n_tr:] - k_va @ c) ** 2))
    mse = np.array(mse)
    return float(lams[np.flatnonzero(mse == mse.min())[-1]])


def weighted_diff_norm(c1, c2, dec, lambda_prime, s):
    """|| (G + lambda')^s (f_1 - f_2) ||_H for coefficient vectors c1, c2.

    Computed as sqrt(d^T K (G + lambda')^{2s} d) with d = c1 - c2 in the shared
    eigenbasis of K = dec.kscale * G; s = 0 gives the plain RKHS norm. lambda' = 0
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
    # the weights written out here, not taken from the selector, which this checks
    mu = dec.eigenvalues[: dec.rank]
    return float(np.sqrt(max(np.sum(dec.kscale * mu * (mu + lambda_prime) ** (2.0 * s) * e * e), 0.0)))


def model_sample_error(p, t_bar, lam):
    """S(n, lambda) for a declared model spectrum."""
    return sample_error(p, effdim_clamped(model_effdim(t_bar, lam)), lam)


def bernstein_bound(n, L, sigma, eta):
    """High-probability deviation bound 2 log(2/eta) (L/n + sigma/sqrt(n))."""
    if not (0.0 < eta < 1.0):
        raise InvalidEtaError(f"eta must lie in (0, 1), got {eta}")
    if n < 1 or L < 0 or sigma < 0:
        raise InsufficientDataError("need n >= 1 and L, sigma >= 0")
    return float(2.0 * np.log(2.0 / eta) * (L / n + sigma / np.sqrt(n)))


def fit(data, k, method, lam):
    """Coefficients of a spectral-filter estimator fitted on a dataset at one lambda."""
    return fit_from_decomposition(gram_decomposition(k, data.xs), data.ys, method, lam)


def trig_basis(xs, size):
    """The first `size` trigonometric basis functions at xs through the library's fill;
    shape (n, size)."""
    return _trig_fill(np.asarray(xs, dtype=float), np.ones(size))
