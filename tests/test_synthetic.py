import numpy as np
import pytest
from _oracles import fit, oracle_lambda_regular

from lepskii.effdim import SampleErrorParams, effdim_clamped, model_effdim, sample_error
from lepskii.errors import (
    DimensionMismatchError,
    DomainViolationError,
    EmptyJError,
    NoCrossingError,
)
from lepskii.estimators import TIKHONOV
from lepskii.grid import Grid, geometric_grid
from lepskii.kernels import cross_gram, feature_matrix, kappa_squared
from lepskii.synthetic import (
    ApproxErrorOracle,
    HolderSource,
    SyntheticModel,
    balance_crossing,
    custom_spectrum_model,
    estimator_basis_coefficients,
    generate,
    lambda_star,
    model_effdim_fn,
    model_from_dict,
    oracle_lambda_balance,
    polynomial_spectrum_model,
    rate_exponent,
    source_coefficients,
    true_error_norm,
)


def test_generate_deterministic():
    model = polynomial_spectrum_model(b=2.0, size=50)
    a = generate(model, 100, seed=7)
    b = generate(model, 100, seed=7)
    assert np.array_equal(a.data.xs, b.data.xs)
    assert np.array_equal(a.data.ys, b.data.ys)
    c = generate(model, 100, seed=8)
    assert not np.array_equal(a.data.ys, c.data.ys)


def test_generate_features_are_the_model_feature_matrix():
    # the Gram factor and the truth coefficients reuse these in place of their own build
    model = polynomial_spectrum_model(b=2.0, size=50)
    sample = generate(model, 100, seed=7)
    expected = feature_matrix(model.kernel(), sample.data.xs)
    assert np.array_equal(sample.features.view(np.uint64), expected.view(np.uint64))


def test_generate_noiseless_exact():
    model = polynomial_spectrum_model(b=2.0, size=50, sigma=0.0)
    sample = generate(model, 64, seed=1)
    f_at_xs = feature_matrix(model.kernel(), sample.data.xs) @ model.target_coefficients()
    assert np.allclose(sample.data.ys, f_at_xs, atol=1e-14)


@pytest.mark.slow
def test_generate_noise_moments():
    model = polynomial_spectrum_model(b=2.0, size=10, sigma=0.7)
    n = 100_000
    sample = generate(model, n, seed=11)
    eps = sample.data.ys - feature_matrix(model.kernel(), sample.data.xs) @ model.target_coefficients()
    assert abs(eps.mean()) <= 4 * 0.7 / np.sqrt(n)
    assert abs(eps.var() - 0.49) <= 0.05 * 0.49


def test_gaussian_noise_satisfies_bernstein_moments():
    # E|eps|^m <= (1/2) m! sigma^2 M^{m-2} with M = sigma, checked by Monte Carlo up to m = 6
    sigma = 0.8
    rng = np.random.default_rng(2)
    eps = np.abs(rng.standard_normal(400_000) * sigma)
    import math

    for m in range(2, 7):
        moment = float(np.mean(eps**m))
        bound = 0.5 * math.factorial(m) * sigma**2 * sigma ** (m - 2)
        assert moment <= bound * 1.02


def test_target_coefficients_holder():
    model = polynomial_spectrum_model(b=2.0, size=5, r=0.5, R=2.0, h="single")
    a = model.target_coefficients()
    assert a[0] == pytest.approx(2.0 * np.sqrt(model.t_bar[0]))
    assert np.allclose(a[1:], 0.0)


def test_true_error_norm_cases():
    t_bar = np.array([0.25])
    assert true_error_norm(np.array([0.8]), np.array([0.8]), t_bar, 0.25) == 0.0
    # single mode: sqrt(t^{2s} (a_hat - a)^2) with s = 1/2
    assert true_error_norm(np.array([0.0]), np.array([0.8]), t_bar, 0.5) == pytest.approx(0.4)
    with pytest.raises(DimensionMismatchError):
        true_error_norm(np.array([1.0, 2.0]), np.array([1.0]), t_bar, 0.0)


def test_true_error_norm_of_a_matrix_matches_its_column_calls():
    model = polynomial_spectrum_model(b=2.0, size=25, sigma=0.2, h="spread")
    sample = generate(model, 60, seed=4)
    cmat = np.column_stack([fit(sample.data, model.kernel(), TIKHONOV, lam) for lam in (0.02, 0.2, 1.0)])
    a_hats = estimator_basis_coefficients(cmat, sample.features)
    a = sample.target_coeffs
    for s in (0.0, 0.25, 0.5):
        columns = [true_error_norm(a_hats[:, j], a, model.t_bar, s) for j in range(3)]
        assert np.array_equal(true_error_norm(a_hats, a, model.t_bar, s), columns)
    with pytest.raises(DimensionMismatchError):
        true_error_norm(a_hats[:-1], a, model.t_bar, 0.5)


def test_estimator_expansion_gram_identity():
    # || f_hat - f ||_H^2 = c^T K c - 2 c^T f(xs) + ||f||_H^2 via the reproducing property
    for seed in range(5):
        model = polynomial_spectrum_model(b=2.0, size=40, sigma=0.2, h="spread")
        sample = generate(model, 30, seed=seed)
        c = fit(sample.data, model.kernel(), TIKHONOV, 0.05)
        a_hat = estimator_basis_coefficients(c, sample.features)
        a = sample.target_coeffs
        via_norm = true_error_norm(a_hat, a, model.t_bar, 0.0)
        kmat = cross_gram(model.kernel(), sample.data.xs, sample.data.xs)
        f_at_xs = feature_matrix(model.kernel(), sample.data.xs) @ model.target_coefficients()
        gram_sq = c @ kmat @ c - 2.0 * c @ f_at_xs + float(a @ a)
        assert via_norm**2 == pytest.approx(gram_sq, rel=1e-8, abs=1e-12)


def test_estimator_basis_coefficients_matrix_matches_vector_calls():
    model = polynomial_spectrum_model(b=2.0, size=25, sigma=0.2, h="spread")
    sample = generate(model, 60, seed=4)
    cmat = np.column_stack([fit(sample.data, model.kernel(), TIKHONOV, lam) for lam in (0.02, 0.2, 1.0)])
    a_hats = estimator_basis_coefficients(cmat, sample.features)
    assert a_hats.shape == (25, 3)
    for j in range(3):
        vec = estimator_basis_coefficients(cmat[:, j], sample.features)
        assert np.linalg.norm(a_hats[:, j] - vec) <= 1e-12 * np.linalg.norm(vec)


def test_s_half_norm_matches_l2_quadrature():
    # s = 1/2 interpolation norm equals the L2(nu) error norm divided by kappa
    model = polynomial_spectrum_model(b=2.0, size=30, sigma=0.3, h="spread")
    sample = generate(model, 50, seed=3)
    c = fit(sample.data, model.kernel(), TIKHONOV, 0.1)
    a_hat = estimator_basis_coefficients(c, sample.features)
    norm_half = true_error_norm(a_hat, sample.target_coeffs, model.t_bar, 0.5)
    grid = (np.arange(10_000) + 0.5) / 10_000
    from lepskii.estimators import predict

    f_at_grid = feature_matrix(model.kernel(), grid) @ model.target_coefficients()
    err_fn = predict(c, model.kernel(), sample.data.xs, grid) - f_at_grid
    l2 = np.sqrt(np.mean(err_fn**2))
    assert norm_half == pytest.approx(l2 / np.sqrt(model.kappa2), rel=0.01)


def test_approx_error_forms():
    model = polynomial_spectrum_model(b=2.0, size=10, r=0.5, R=1.0)
    oracle = ApproxErrorOracle.from_model(model)
    assert oracle.d2_constant == 0.0  # r <= 1: no sqrt(n) remainder
    assert oracle.a_tilde(0.25, 16) == pytest.approx(0.5)
    lams = np.geomspace(1e-6, 1.0, 30)
    vals = [oracle.a_tilde(float(l), 16) for l in lams]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # r > 1: the remainder d2 = R r / sqrt(n) enters
    high = ApproxErrorOracle.from_model(polynomial_spectrum_model(b=2.0, size=10, r=1.5, R=2.0))
    assert high.d2_constant == 3.0
    assert high.a_tilde(0.25, 16) == pytest.approx(2.0 * 0.25**1.5 + 3.0 / 4.0)


def test_oracle_lambda_regular_values():
    model = polynomial_spectrum_model(b=2.0, size=10, r=0.5, R=1.0, sigma=1.0)
    # exponent b/(2br+b+1) = 2/5; lambda = 16^{-0.4}
    assert oracle_lambda_regular(model, 16, b=2.0) == pytest.approx(16.0**-0.4)
    assert oracle_lambda_regular(model, 16, b=2.0) == pytest.approx(0.32988, abs=1e-5)
    # boundary sigma^2 = R^2 n
    m2 = polynomial_spectrum_model(b=2.0, size=10, r=0.5, R=1.0, sigma=2.0)
    assert oracle_lambda_regular(m2, 4, b=2.0) == pytest.approx(1.0)
    vals = [oracle_lambda_regular(model, n, b=2.0) for n in (10, 100, 1000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_balance_crossing_synthetic_functions():
    assert balance_crossing(lambda l: l, lambda l: 0.25 / l) == pytest.approx(0.5, abs=1e-9)
    assert balance_crossing(lambda l: l, lambda l: 1.0 / l) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(NoCrossingError):
        balance_crossing(lambda l: 1.0 + l, lambda l: 0.5)
    with pytest.raises(NoCrossingError):
        balance_crossing(lambda l: l, lambda l: 2.0 + 1.0 / l)


def test_oracle_lambda_balance_matches_regular_within_factor_two():
    model = polynomial_spectrum_model(b=2.0, size=2000, r=0.5, R=1.0, sigma=1.0, M_bound=0.0)
    n = 10_000
    oracle = ApproxErrorOracle.from_model(model)
    assert oracle.d2_constant == 0.0  # r <= 1: no sqrt(n) remainder
    lam_bal = oracle_lambda_balance(oracle, lambda lam: model_effdim(model.t_bar, lam), model.params(n))
    lam_reg = oracle_lambda_regular(model, n, b=2.0)
    assert lam_reg / 2.0 <= lam_bal <= lam_reg * 2.0


def test_rate_exponent_values():
    assert rate_exponent(0.5, 2.0, 0.5) == pytest.approx(0.4)
    assert rate_exponent(0.5, 2.0, 0.0) == pytest.approx(0.2)
    assert rate_exponent(0.7, 2.0, 0.5) > rate_exponent(0.5, 2.0, 0.5)
    assert rate_exponent(0.5, 2.0, 0.3) > rate_exponent(0.5, 2.0, 0.1)
    with pytest.raises(DomainViolationError):
        rate_exponent(0.5, 1.0, 0.2)


def _linear_oracle():
    return ApproxErrorOracle(R=1.0, r=1.0)


def test_lambda_star_direct():
    grid = Grid(lambdas=np.array([0.25, 0.5, 1.0]), q=2.0)
    params = SampleErrorParams(sigma=1.0, M_bound=0.0, n=4)
    # effdim chosen so S-tilde = 0.25/lam: sigma sqrt(max(N,1)/(n lam)) with N = 0.25/lam^... ->
    # use explicit fn: S = 0.25/lam requires N/(4 lam) = (0.25/lam)^2 -> N = 0.25/lam
    effdim_fn = lambda lam: 0.25 / lam
    star = lambda_star(grid, _linear_oracle(), effdim_fn, params)
    assert star == pytest.approx(0.5)


def test_lambda_star_empty():
    grid = Grid(lambdas=np.array([0.5, 1.0]), q=2.0)
    params = SampleErrorParams(sigma=1e-6, M_bound=0.0, n=10**6)
    with pytest.raises(EmptyJError):
        lambda_star(grid, _linear_oracle(), lambda lam: 1.0, params)


def test_lambda_star_brackets_crossing():
    model = polynomial_spectrum_model(b=2.0, size=500, r=0.5, R=1.0, sigma=0.5)
    n = 2000
    oracle = ApproxErrorOracle.from_model(model)
    effdim_fn = lambda lam: model_effdim(model.t_bar, lam)
    lam_opt = oracle_lambda_balance(oracle, effdim_fn, model.params(n))
    grid = geometric_grid(min(lam_opt / 4, 0.24), 2.0)
    star = lambda_star(grid, oracle, effdim_fn, model.params(n))
    assert star <= lam_opt <= star * grid.q * (1 + 1e-12)


def test_remainder_subordination():
    # d(n, lam_n) / (A(lam_n) + S(n, lam_n)) -> 0 strictly along n
    model = polynomial_spectrum_model(b=2.0, size=4000, r=0.5, R=1.0, sigma=0.5, M_bound=0.5)
    oracle = ApproxErrorOracle.from_model(model)
    effdim_fn = lambda lam: model_effdim(model.t_bar, lam)
    ratios = []
    for n in (100, 1000, 10_000, 100_000):
        lam_n = oracle_lambda_regular(model, n, b=2.0)
        # M = 0 leaves the leading sample-error term
        params = SampleErrorParams(sigma=model.noise.sigma, M_bound=0.0, n=n)
        s_lead = sample_error(params, effdim_clamped(effdim_fn(lam_n)), lam_n)
        a_lead = oracle.R * lam_n**oracle.r
        d = model.noise.M_bound / (n * lam_n) + oracle.d2_constant / np.sqrt(n)
        ratios.append(d / (a_lead + s_lead))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.01


def test_assumption3_power_bounds_stable_constants():
    # N(lam) ~ lam^{-1/b}: fitted constants C = N(lam) * lam^{1/b} stay within a
    # stable band across D and across lam in [1e-4, 1e-1]
    for size in (500, 1000, 2000):
        model = polynomial_spectrum_model(b=2.0, size=size)
        lams = np.geomspace(1e-4, 1e-1, 20)
        consts = np.array([model_effdim(model.t_bar, lam) * lam**0.5 for lam in lams])
        assert consts.max() / consts.min() <= 2.0
        assert 0.2 <= consts.min() and consts.max() <= 2.0


def test_source_norm_validation():
    with pytest.raises(DomainViolationError):
        HolderSource(r=0.5, R=1.0, h=np.array([1.0, 0.5]))  # ||h|| > 1
    h = source_coefficients("spread", 10)
    assert np.linalg.norm(h) == pytest.approx(1.0)


def test_model_from_dict_roundtrip():
    doc = {
        "spectrum": {"type": "poly", "b": 2.0, "D": 100},
        "source": {"type": "holder", "r": 0.5, "R": 1.0, "h": "single"},
        "noise": {"sigma": 0.3, "M": 0.3},
    }
    model = model_from_dict(doc)
    assert model.size == 100
    assert np.allclose(model.t_bar * model.kappa2, np.arange(1, 101, dtype=float) ** -2.0, rtol=1e-14, atol=0)
    assert model.noise.sigma == 0.3
    custom = model_from_dict(
        {
            "spectrum": {"type": "custom", "t": [1.0, 0.25, 0.0625]},
            "source": {"r": 1.0, "R": 2.0},
            "noise": {"sigma": 0.1},
        }
    )
    assert isinstance(custom.source, HolderSource)
    assert ApproxErrorOracle.from_model(custom).a_tilde(0.5, 1) == pytest.approx(1.0)


def test_custom_spectrum_model_kappa_consistency():
    t = np.array([1.0, 0.5, 0.25])
    model = custom_spectrum_model(t, sigma=0.1)
    assert model.kappa2 == pytest.approx(kappa_squared(model.kernel()))
    assert np.allclose(model.t_bar * model.kappa2, t)


def test_lambda_star_and_a_tilde_over_the_grid_equal_the_scalar_calls_bit_for_bit():
    # r = 1.5 on a q = 1.25 grid: numpy's array power lambda**1.5 differs from Python's in the
    # last bit at some of these lambdas, at lambda = 0.8 by more than the r > 1 remainder absorbs
    model = polynomial_spectrum_model(b=2.0, size=500, r=1.5, R=1.0, sigma=0.3)
    oracle, effdim_fn, n = ApproxErrorOracle.from_model(model), model_effdim_fn(model), 10_000
    params = model.params(n)
    grid = geometric_grid(1e-4, 1.25)
    lams = grid.lambdas.tolist()
    a_tilde = [oracle.R * lam**oracle.r + oracle.d2_constant / np.sqrt(n) for lam in lams]
    assert np.array_equal(oracle.a_tilde(grid.lambdas, n), a_tilde)
    assert [oracle.a_tilde(lam, n) for lam in lams] == a_tilde
    s_tilde = lambda lam: sample_error(params, effdim_clamped(effdim_fn(lam)), lam)
    members = [lam for lam, a in zip(lams, a_tilde) if a <= s_tilde(lam)]
    assert 0 < len(members) < len(lams)
    assert lambda_star(grid, oracle, effdim_fn, params) == max(members)
