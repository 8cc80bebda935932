"""Independent test oracles: brute-force re-implementations kept deliberately
separate from the library code paths they check."""

import numpy as np
import scipy.linalg


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

    def weighted(d, lam_p):
        power = scipy.linalg.fractional_matrix_power(g_dense + lam_p * np.eye(n), 2 * cfg.s)
        return float(np.sqrt(max(d @ kmat @ np.real(power) @ d, 0.0)))

    accepted = []
    for lam in lams:
        ok = True
        for lam_p in lams:
            if lam_p > lam:
                continue
            if weighted(coeffs[lam] - coeffs[lam_p], lam_p) > mult * lam_p**cfg.s * s_x(lam_p):
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
