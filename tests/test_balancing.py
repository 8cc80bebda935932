import numpy as np
import pytest

from _oracles import brute_force_jplus, dense_weighted_norm
from lepskii.balancing import (
    BalancingConfig,
    balancing_select,
    empirical_sample_error,
    estimate_sigma,
)
from lepskii.errors import DomainViolationError, IncompleteFamilyError
from lepskii.estimators import TIKHONOV, fit_from_decomposition
from lepskii.grid import geometric_grid, heuristic_lambda0
from lepskii.kernels import (
    GaussianKernel,
    cross_gram,
    gram_decomposition,
    kappa_squared,
    normalized_gram,
)
from lepskii.synthetic import generate, polynomial_spectrum_model


def test_empirical_sample_error_clamping_active():
    cfg = BalancingConfig(sigma=1.0, M_bound=0.0)
    # single eigenvalue 1 at n = 1: N_x(1) = 0.5 clamps to 1
    assert empirical_sample_error(np.array([1.0]), cfg, 1.0) == pytest.approx(1.0)


def test_empirical_sample_error_noiseless():
    cfg = BalancingConfig(sigma=0.0, M_bound=0.0)
    for lam in (0.05, 0.3, 1.0):
        assert empirical_sample_error(np.r_[0.7, 0.2, np.zeros(8)], cfg, lam) == 0.0


def test_empirical_sample_error_arithmetic():
    cfg = BalancingConfig(sigma=2.0, M_bound=1.0)
    val = empirical_sample_error(np.r_[0.5, 0.25, np.zeros(98)], cfg, 0.25)
    # n = 100 and N_x = 7/6: 2 sqrt((7/6)/25) + 1/25
    assert val == pytest.approx(2 * 0.21602 + 0.04, abs=2e-5)


def _instance(seed, n=30, d=12, sigma=0.3):
    model = polynomial_spectrum_model(b=2.0, size=d, sigma=sigma)
    sample = generate(model, n, seed=seed)
    kernel = model.kernel()
    dec = gram_decomposition(kernel, sample.data.xs)
    return model, sample, kernel, dec


def _fit_family(dec, ys, lams):
    return np.column_stack([fit_from_decomposition(dec, ys, TIKHONOV, float(lam)) for lam in lams])


def test_singleton_grid_returns_lambda0():
    model, sample, kernel, dec = _instance(0)
    fits = _fit_family(dec, sample.data.ys, [1.0])
    diag = balancing_select(fits, [1.0], dec, BalancingConfig(sigma=0.3))
    assert diag.lambda_hat == 1.0 and diag.jplus == (1.0,)


def test_identical_fits_select_top():
    model, sample, kernel, dec = _instance(1)
    grid = geometric_grid(0.01, 2.0)
    one = fit_from_decomposition(dec, sample.data.ys, TIKHONOV, 0.5)
    fits = np.column_stack([one] * grid.size)
    diag = balancing_select(fits, grid, dec, BalancingConfig(sigma=0.3))
    assert diag.lambda_hat == 1.0
    assert diag.jplus == tuple(float(v) for v in grid.lambdas)


def test_lambda0_always_accepted():
    for seed in range(5):
        model, sample, kernel, dec = _instance(seed)
        grid = geometric_grid(0.02, 2.0)
        fits = _fit_family(dec, sample.data.ys, grid.lambdas)
        diag = balancing_select(fits, grid, dec, BalancingConfig(sigma=0.3))
        assert float(grid.lambdas[0]) in diag.jplus
        assert diag.lambda_hat == max(diag.jplus)


def test_wrong_shape_family_rejected():
    model, sample, kernel, dec = _instance(2)
    grid = geometric_grid(0.1, 2.0)
    fits = _fit_family(dec, sample.data.ys, grid.lambdas)
    cfg = BalancingConfig(sigma=0.3)
    # a missing grid column, transposed storage, a short sample axis, a single vector
    for bad in (fits[:, :-1], fits.T, fits[:-1], fits[:, 0]):
        with pytest.raises(IncompleteFamilyError):
            balancing_select(bad, grid, dec, cfg)
    assert balancing_select(fits, grid, dec, cfg).lambda_hat in grid.lambdas


@pytest.mark.slow
def test_balancing_matches_brute_force_oracle():
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        model, sample, kernel, dec = _instance(seed, n=30, d=12, sigma=0.4)
        grid = geometric_grid(0.04, 2.0)  # 6 grid points: 2^-5 .. 1
        assert grid.size == 6
        fits = _fit_family(dec, sample.data.ys, grid.lambdas)
        s = float(rng.uniform(0.0, 0.5))
        bal = float(rng.choice([1.0, 5.0, 20.0]))
        cfg = BalancingConfig(s=s, sigma=0.4, M_bound=0.1, bal_factor=bal)
        diag = balancing_select(fits, grid, dec, cfg)
        g_dense = normalized_gram(kernel, sample.data.xs).values
        lams = [float(v) for v in grid.lambdas]
        kscale = 30 * kappa_squared(kernel)
        hat, accepted = brute_force_jplus(dict(zip(lams, fits.T)), lams, g_dense, kscale, cfg, 30)
        assert diag.lambda_hat == hat
        assert list(diag.jplus) == accepted
        mismatches += int(diag.lambda_hat != hat)
    assert mismatches == 0


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("route", ["dense", "factor", "lowrank"])
def test_pairwise_norms_match_dense_oracle(route, s):
    # dense: Gaussian kernel at n = 30; factor: explicit kernel with D = 12 at n = 40;
    # lowrank: Gaussian kernel at n = 400, through its pivoted Cholesky factor
    n = {"dense": 30, "factor": 40, "lowrank": 400}[route]
    model, sample, kernel, dec = _instance(3, n=n, d=12)
    if route != "factor":
        kernel = GaussianKernel(0.2)
        dec = gram_decomposition(kernel, sample.data.xs)
    assert (dec.basis is None) == (route == "dense")
    grid = geometric_grid(0.04, 2.0)
    fits = _fit_family(dec, sample.data.ys, grid.lambdas)
    diag = balancing_select(fits, grid, dec, BalancingConfig(s=s, sigma=0.3))
    xs = sample.data.xs
    g_dense = normalized_gram(kernel, xs).values
    kmat = cross_gram(kernel, xs, xs)
    pairs = _pairs(grid.size)
    assert len(diag.pairwise_norms) == len(pairs)
    for (i, j), norm in zip(pairs, diag.pairwise_norms):
        d = fits[:, i] - fits[:, j]
        lam_p = float(grid.lambdas[j])
        assert norm == pytest.approx(dense_weighted_norm(d, g_dense, kmat, lam_p, s), rel=1e-8)


def _pairs(m):
    """The documented pair order of the norms: (1, 0), (2, 0), (2, 1), (3, 0), ..."""
    return [(i, j) for i in range(m) for j in range(i)]


def test_evidence_arrays_follow_the_grid():
    # bal_factor 2 on this instance accepts 5 of 7 grid points, and grid points 5 and 6
    # each pass some of their pairs and fail others
    model, sample, kernel, dec = _instance(3)
    grid = geometric_grid(0.02, 2.0)
    fits = _fit_family(dec, sample.data.ys, grid.lambdas)
    diag = balancing_select(fits, grid, dec, BalancingConfig(sigma=0.3, bal_factor=2.0))
    m = grid.size
    assert len(diag.pairwise_norms) == m * (m - 1) // 2 and len(diag.thresholds) == m
    assert grid.lambdas[diag.index] == diag.lambda_hat == max(diag.jplus)
    passed = {i: [] for i in range(m)}
    for (i, j), norm in zip(_pairs(m), diag.pairwise_norms):
        passed[i].append(bool(norm <= diag.thresholds[j]))
    assert any(True in v and False in v for v in passed.values())
    accepted = [all(passed[i]) for i in range(m)]
    assert sum(accepted) < m
    assert diag.jplus == tuple(grid.lambdas[accepted].tolist())
    assert all(type(lam) is float for lam in diag.jplus)


def test_selection_deterministic():
    model, sample, kernel, dec = _instance(4)
    grid = geometric_grid(0.02, 2.0)
    fits = _fit_family(dec, sample.data.ys, grid.lambdas)
    cfg = BalancingConfig(sigma=0.3)
    a = balancing_select(fits, grid, dec, cfg)
    b = balancing_select(fits, grid, dec, cfg)
    assert a.lambda_hat == b.lambda_hat and a.index == b.index and a.jplus == b.jplus
    assert np.array_equal(a.pairwise_norms, b.pairwise_norms)
    assert np.array_equal(a.thresholds, b.thresholds)


def test_empirical_threshold_curve_strictly_decreasing():
    # lambda' -> lambda'^s * S_x(n, lambda') strictly decreasing (M > 0 keeps the
    # s = 1/2 case strict where the clamped effective dimension plateaus)
    model, sample, kernel, dec = _instance(6, n=60, d=30)
    cfg = BalancingConfig(sigma=0.4, M_bound=0.2)
    lams = np.geomspace(1e-3, 1.0, 30)
    for s in (0.0, 0.25, 0.5):
        vals = [lam**s * empirical_sample_error(dec.eigenvalues, cfg, float(lam)) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_config_validation():
    with pytest.raises(DomainViolationError):
        BalancingConfig(s=0.7)
    with pytest.raises(DomainViolationError):
        BalancingConfig(eta=0.0)
    with pytest.raises(DomainViolationError):
        BalancingConfig(bal_factor=0.0)
    for field in ("sigma", "M_bound", "bal_factor"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainViolationError):
                BalancingConfig(**{field: bad})


def test_theoretical_constant_multiplier():
    cfg = BalancingConfig(eta=0.1, use_theoretical_constant=True, bal_factor=20.0)
    assert cfg.threshold_multiplier(8) == pytest.approx(20.0 * np.log(16 * 8 / 0.1) ** 2)
    practical = BalancingConfig(eta=0.1, bal_factor=40.0)
    assert practical.threshold_multiplier(8) == pytest.approx(40.0)


def test_estimate_sigma_noiseless():
    model = polynomial_spectrum_model(b=2.0, size=30, sigma=0.0, h="spread")
    sample = generate(model, 80, seed=0)
    kernel = model.kernel()
    dec = gram_decomposition(kernel, sample.data.xs)
    est = estimate_sigma(sample.data, dec, lam=1e-4)
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
        lam0 = heuristic_lambda0(dec.eigenvalues, 2.0)
        est = estimate_sigma(sample.data, dec, lam=lam0)
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
    est = estimate_sigma(data, dec, lam=lam)
    # closed-form residual check of the same quantity
    c = fit_from_decomposition(dec, ys, TIKHONOV, lam)
    fitted = cross_gram(kernel, xs, xs) @ c
    df = float(np.sum(dec.eigenvalues / (dec.eigenvalues + lam)))
    expected = np.sqrt(np.sum((ys - fitted) ** 2) / (60 - df))
    assert est == pytest.approx(expected, rel=1e-8)
    assert est == pytest.approx(np.sqrt(np.mean((ys - fitted) ** 2)), rel=0.05)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.37])
def test_thresholds_equal_their_scalar_formula_bit_for_bit(s):
    # on this q = 1.5 grid numpy's array power lambda**0.37 differs from Python's in the last bit
    model, sample, kernel, dec = _instance(13, n=80, d=40)
    grid = geometric_grid(1e-5, 1.5)
    cfg = BalancingConfig(s=s, sigma=0.3, M_bound=0.3, bal_factor=2.0)
    diag = balancing_select(fit_from_decomposition(dec, sample.data.ys, TIKHONOV, grid.lambdas), grid, dec, cfg)
    mult = cfg.threshold_multiplier(grid.size)
    expected = [mult * lam**s * empirical_sample_error(dec.eigenvalues, cfg, lam) for lam in grid.lambdas.tolist()]
    assert np.array_equal(diag.thresholds, expected)
