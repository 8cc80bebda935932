import dataclasses

import numpy as np
import pytest

from _oracles import brute_force_jplus
from lepskii.balancing import (
    BalancingConfig,
    balancing_select,
    empirical_sample_error,
    estimate_sigma,
    select_one_for_all,
)
from lepskii.errors import DomainViolationError, IncompleteFamilyError
from lepskii.estimators import TIKHONOV, fit_from_decomposition
from lepskii.grid import geometric_grid, heuristic_lambda0
from lepskii.kernels import gram, gram_decomposition, gram_scale, normalized_gram
from lepskii.linalg import truncated_decomposition
from lepskii.synthetic import generate, polynomial_spectrum_model


def test_empirical_sample_error_clamping_active():
    cfg = BalancingConfig(sigma=1.0, M_bound=0.0)
    # single eigenvalue 1 at n = 1: N_x(1) = 0.5 clamps to 1
    dec = truncated_decomposition(np.array([1.0]), np.array([[1.0]]), dim=1)
    assert empirical_sample_error(dec, cfg, 1, 1.0) == pytest.approx(1.0)


def test_empirical_sample_error_noiseless():
    cfg = BalancingConfig(sigma=0.0, M_bound=0.0)
    dec = truncated_decomposition(np.array([0.7, 0.2]), np.eye(2), dim=2)
    for lam in (0.05, 0.3, 1.0):
        assert empirical_sample_error(dec, cfg, 10, lam) == 0.0


def test_empirical_sample_error_arithmetic():
    cfg = BalancingConfig(sigma=2.0, M_bound=1.0)
    val = empirical_sample_error(np.array([0.5, 0.25, 0.0]), cfg, 100, 0.25)
    # N_x = 7/6: 2 sqrt((7/6)/25) + 1/25
    assert val == pytest.approx(2 * 0.21602 + 0.04, abs=2e-5)


def _instance(seed, n=30, d=12, sigma=0.3):
    model = polynomial_spectrum_model(b=2.0, size=d, sigma=sigma)
    sample = generate(model, n, seed=seed)
    kernel = model.kernel()
    dec = gram_decomposition(kernel, sample.data.xs)
    kscale = gram_scale(kernel, n)
    return model, sample, kernel, dec, kscale


def _fit_family(dec, kscale, ys, lams):
    return {float(lam): fit_from_decomposition(dec, kscale, ys, TIKHONOV, float(lam)) for lam in lams}


def test_singleton_grid_returns_lambda0():
    model, sample, kernel, dec, kscale = _instance(0)
    fits = _fit_family(dec, kscale, sample.data.ys, [1.0])
    diag = balancing_select(fits, [1.0], dec, kscale, BalancingConfig(sigma=0.3), 30)
    assert diag.lambda_hat == 1.0 and diag.jplus == (1.0,)


def test_identical_fits_select_top():
    model, sample, kernel, dec, kscale = _instance(1)
    grid = geometric_grid(0.01, 2.0)
    one = fit_from_decomposition(dec, kscale, sample.data.ys, TIKHONOV, 0.5)
    fits = {float(lam): one for lam in grid.lambdas}
    diag = balancing_select(fits, grid, dec, kscale, BalancingConfig(sigma=0.3), 30)
    assert diag.lambda_hat == 1.0
    assert diag.jplus == tuple(float(v) for v in grid.lambdas)


def test_lambda0_always_accepted():
    for seed in range(5):
        model, sample, kernel, dec, kscale = _instance(seed)
        grid = geometric_grid(0.02, 2.0)
        fits = _fit_family(dec, kscale, sample.data.ys, grid.lambdas)
        diag = balancing_select(fits, grid, dec, kscale, BalancingConfig(sigma=0.3), 30)
        assert float(grid.lambdas[0]) in diag.jplus
        assert diag.lambda_hat == max(diag.jplus)


def test_incomplete_family_rejected():
    model, sample, kernel, dec, kscale = _instance(2)
    grid = geometric_grid(0.1, 2.0)
    fits = _fit_family(dec, kscale, sample.data.ys, grid.lambdas[:-1])
    with pytest.raises(IncompleteFamilyError):
        balancing_select(fits, grid, dec, kscale, BalancingConfig(sigma=0.3), 30)


@pytest.mark.slow
def test_balancing_matches_brute_force_oracle():
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        model, sample, kernel, dec, kscale = _instance(seed, n=30, d=12, sigma=0.4)
        grid = geometric_grid(0.04, 2.0)  # 6 grid points: 2^-5 .. 1
        assert grid.size == 6
        fits = _fit_family(dec, kscale, sample.data.ys, grid.lambdas)
        s = float(rng.uniform(0.0, 0.5))
        bal = float(rng.choice([1.0, 5.0, 20.0]))
        cfg = BalancingConfig(s=s, sigma=0.4, M_bound=0.1, bal_factor=bal)
        diag = balancing_select(fits, grid, dec, kscale, cfg, 30)
        g_dense = normalized_gram(kernel, sample.data.xs).values
        lams = [float(v) for v in grid.lambdas]
        coeffs = {lam: fits[lam].c for lam in lams}
        hat, accepted = brute_force_jplus(coeffs, lams, g_dense, kscale, cfg, 30)
        assert diag.lambda_hat == hat
        assert list(diag.jplus) == accepted
        mismatches += int(diag.lambda_hat != hat)
    assert mismatches == 0


def test_one_for_all_is_s_half():
    model, sample, kernel, dec, kscale = _instance(3)
    grid = geometric_grid(0.02, 2.0)
    fits = _fit_family(dec, kscale, sample.data.ys, grid.lambdas)
    cfg = BalancingConfig(s=0.2, sigma=0.3)
    via_one = select_one_for_all(fits, grid, dec, kscale, cfg, 30)
    direct = balancing_select(fits, grid, dec, kscale, dataclasses.replace(cfg, s=0.5), 30)
    assert via_one.lambda_hat == direct.lambda_hat
    assert via_one.s == 0.5
    single = select_one_for_all(
        _fit_family(dec, kscale, sample.data.ys, [1.0]), [1.0], dec, kscale, cfg, 30
    )
    assert single.lambda_hat == 1.0


def test_selection_deterministic():
    model, sample, kernel, dec, kscale = _instance(4)
    grid = geometric_grid(0.02, 2.0)
    fits = _fit_family(dec, kscale, sample.data.ys, grid.lambdas)
    cfg = BalancingConfig(sigma=0.3)
    a = balancing_select(fits, grid, dec, kscale, cfg, 30)
    b = balancing_select(fits, grid, dec, kscale, cfg, 30)
    assert a.lambda_hat == b.lambda_hat and a.jplus == b.jplus
    assert a.pairwise_norms == b.pairwise_norms and a.thresholds == b.thresholds


def test_empirical_threshold_curve_strictly_decreasing():
    # lambda' -> lambda'^s * S_x(n, lambda') strictly decreasing (M > 0 keeps the
    # s = 1/2 case strict where the clamped effective dimension plateaus)
    model, sample, kernel, dec, kscale = _instance(6, n=60, d=30)
    cfg = BalancingConfig(sigma=0.4, M_bound=0.2)
    lams = np.geomspace(1e-3, 1.0, 30)
    for s in (0.0, 0.25, 0.5):
        vals = [lam**s * empirical_sample_error(dec, cfg, 60, float(lam)) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_config_validation():
    with pytest.raises(DomainViolationError):
        BalancingConfig(s=0.7)
    with pytest.raises(DomainViolationError):
        BalancingConfig(eta=0.0)
    with pytest.raises(DomainViolationError):
        BalancingConfig(bal_factor=0.0)


def test_theoretical_constant_multiplier():
    cfg = BalancingConfig(eta=0.1, use_theoretical_constant=True, bal_factor=20.0, c_s=1.0)
    assert cfg.threshold_multiplier(8) == pytest.approx(20.0 * np.log(16 * 8 / 0.1) ** 2)
    practical = BalancingConfig(eta=0.1, bal_factor=20.0, c_s=2.0)
    assert practical.threshold_multiplier(8) == pytest.approx(40.0)


def test_estimate_sigma_noiseless():
    model = polynomial_spectrum_model(b=2.0, size=30, sigma=0.0, h="spread")
    sample = generate(model, 80, seed=0)
    kernel = model.kernel()
    dec = gram_decomposition(kernel, sample.data.xs)
    est = estimate_sigma(sample.data, kernel, dec, lam=1e-4)
    signal_scale = float(np.std(sample.data.ys))
    assert est <= 0.1 * signal_scale


@pytest.mark.slow
def test_estimate_sigma_monte_carlo_calibration():
    model = polynomial_spectrum_model(b=2.0, size=200, sigma=0.5)
    kernel = model.kernel()
    n = 500
    hits = 0
    for rep in range(200):
        sample = generate(model, n, seed=1000 + rep)
        dec = gram_decomposition(kernel, sample.data.xs)
        lam0 = heuristic_lambda0(dec, n, 2.0)
        est = estimate_sigma(sample.data, kernel, dec, lam=lam0)
        hits += int(0.35 <= est <= 0.65)
    assert hits >= 0.9 * 200


def test_estimate_sigma_constant_target_closed_form():
    rng = np.random.default_rng(8)
    model = polynomial_spectrum_model(b=2.0, size=20, sigma=0.4)
    kernel = model.kernel()
    xs = rng.random(60)
    ys = np.full(60, 2.5) + rng.standard_normal(60) * 0.4
    from lepskii.kernels import Dataset

    data = Dataset(xs=xs, ys=ys)
    dec = gram_decomposition(kernel, xs)
    lam = 1.0
    est = estimate_sigma(data, kernel, dec, lam=lam)
    # closed-form residual check of the same quantity
    kscale = gram_scale(kernel, 60)
    c = fit_from_decomposition(dec, kscale, ys, TIKHONOV, lam).c
    fitted = gram(kernel, xs) @ c
    df = float(np.sum(dec.eigenvalues / (dec.eigenvalues + lam)))
    expected = np.sqrt(np.sum((ys - fitted) ** 2) / (60 - df))
    assert est == pytest.approx(expected, rel=1e-8)
    assert est == pytest.approx(np.sqrt(np.mean((ys - fitted) ** 2)), rel=0.05)
