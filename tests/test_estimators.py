import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import fit, weighted_diff_norm
from lepskii.errors import DimensionMismatchError, DomainViolationError, InvalidLambdaError
from lepskii.estimators import (
    LANDWEBER,
    SPECTRAL_CUTOFF,
    TIKHONOV,
    filter_value,
    fit_from_decomposition,
    fitted_values,
    predict,
)
from lepskii.kernels import (
    Dataset,
    ExplicitSpectrumKernel,
    GaussianKernel,
    PolynomialKernel,
    cross_gram,
    gram_decomposition,
    kappa_squared,
)
from lepskii.grid import geometric_grid
from lepskii.synthetic import generate, polynomial_spectrum_model


def test_filter_trivia():
    assert filter_value(TIKHONOV, 0.5, 0.5) == pytest.approx(1.0)
    assert filter_value(SPECTRAL_CUTOFF, 0.3, 0.2) == 0.0
    assert filter_value(SPECTRAL_CUTOFF, 0.3, 0.3) == pytest.approx(1.0 / 0.3)  # inclusive threshold


def test_landweber_geometric_sum_identity():
    # nu = ceil(1/0.5) = 2: g(t) = 1 + (1 - t) = (1 - (1-t)^2) / t
    assert filter_value(LANDWEBER, 0.5, 0.5) == pytest.approx(1.5)
    assert filter_value(LANDWEBER, 0.5, 0.5) == pytest.approx((1 - 0.25) / 0.5)
    # tiny t falls back to nu itself
    assert filter_value(LANDWEBER, 0.25, 1e-15) == pytest.approx(4.0)
    # direct partial sum comparison at another nu
    lam, t = 0.21, 0.37
    nu = int(np.ceil(1 / lam))
    assert filter_value(LANDWEBER, lam, t) == pytest.approx(sum((1 - t) ** i for i in range(nu)))


def test_filter_invalid_lambda():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidLambdaError):
            filter_value(TIKHONOV, bad, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([TIKHONOV, SPECTRAL_CUTOFF, LANDWEBER]),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_filter_nonneg_and_residual_bound(m, lam, t):
    g = filter_value(m, lam, t)
    assert g >= 0.0
    assert t * g <= 2.0 + 1e-12


def test_fit_scalar_case():
    data = Dataset(xs=np.array([0.0]), ys=np.array([2.0]))
    k = ExplicitSpectrumKernel(np.array([1.0]))  # K = [1], kappa^2 = 1
    c = fit(data, k, TIKHONOV, 1.0)
    assert c == pytest.approx([1.0])
    assert (1.0 + 1.0) * c[0] == pytest.approx(2.0)  # (K + n kappa^2 lam) c = y


def test_fit_zero_data():
    rng = np.random.default_rng(0)
    data = Dataset(xs=rng.random(12), ys=np.zeros(12))
    assert np.allclose(fit(data, GaussianKernel(0.4), TIKHONOV, 0.3), 0.0)


def test_tikhonov_fit_matches_direct_solve():
    model = polynomial_spectrum_model(b=2.0, size=30, sigma=0.2)
    sample = generate(model, 20, seed=42)
    k = model.kernel()
    lam = 0.1
    c = fit(sample.data, k, TIKHONOV, lam)
    kmat = cross_gram(k, sample.data.xs, sample.data.xs)
    direct = np.linalg.solve(kmat + 20 * kappa_squared(k) * lam * np.eye(20), sample.data.ys)
    assert np.linalg.norm(c - direct) <= 1e-8 * np.linalg.norm(direct)
    # residual form of the same contract
    resid = (kmat + 20 * kappa_squared(k) * lam * np.eye(20)) @ c - sample.data.ys
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(sample.data.ys)


def test_tikhonov_fit_matches_direct_solve_factor_route():
    # n > D exercises the truncated decomposition inside fit
    model = polynomial_spectrum_model(b=2.0, size=10, sigma=0.2)
    sample = generate(model, 40, seed=3)
    k = model.kernel()
    c = fit(sample.data, k, TIKHONOV, 0.05)
    kmat = cross_gram(k, sample.data.xs, sample.data.xs)
    direct = np.linalg.solve(kmat + 40 * kappa_squared(k) * 0.05 * np.eye(40), sample.data.ys)
    assert np.linalg.norm(c - direct) <= 1e-8 * max(np.linalg.norm(direct), 1e-12)


def test_predict_trivia():
    k = GaussianKernel(0.7)
    xs = np.array([0.2, 0.5])
    zero = fit(Dataset(xs=xs, ys=np.zeros(2)), k, TIKHONOV, 0.5)
    assert np.allclose(predict(zero, k, xs, np.array([0.1, 0.9])), 0.0)
    assert predict(np.array([1.0]), k, np.array([0.3]), np.array([0.3]))[0] == pytest.approx(
        float(cross_gram(k, np.array([0.3]), np.array([0.3]))[0, 0])
    )


def test_predict_training_points_equal_kc():
    model = polynomial_spectrum_model(b=2.0, size=15, sigma=0.1)
    sample = generate(model, 25, seed=5)
    k = model.kernel()
    c = fit(sample.data, k, LANDWEBER, 0.2)
    preds = predict(c, k, sample.data.xs, sample.data.xs)
    assert np.allclose(preds, cross_gram(k, sample.data.xs, sample.data.xs) @ c, atol=1e-10)


@pytest.mark.parametrize(
    "k, n, factored",
    [
        (GaussianKernel(0.2), 400, True),
        (PolynomialKernel(3, 1.0), 400, True),
        (GaussianKernel(0.2), 40, False),
    ],
    ids=["gaussian-factor", "poly-factor", "gaussian-dense"],
)
def test_fitted_values_match_the_kernel_matrix(k, n, factored):
    rng = np.random.default_rng(17)
    xs = rng.uniform(-1.0, 1.0, n) if isinstance(k, PolynomialKernel) else rng.random(n)
    ys = np.sin(2.0 * np.pi * xs) + 0.1 * rng.standard_normal(n)
    dec = gram_decomposition(k, xs)
    assert (dec.basis is not None) == factored
    c = fit_from_decomposition(dec, ys, TIKHONOV, 1e-4)
    dense = cross_gram(k, xs, xs) @ c
    assert np.max(np.abs(fitted_values(dec, c) - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("kernel", ["gaussian", "explicit"])
def test_predict_coefficient_matrix_matches_vector_calls(kernel):
    model = polynomial_spectrum_model(b=2.0, size=15, sigma=0.1)
    sample = generate(model, 40, seed=6)  # n > D: explicit kernel on the factor route
    k = GaussianKernel(0.3) if kernel == "gaussian" else model.kernel()
    dec = gram_decomposition(k, sample.data.xs)
    lams = (0.01, 0.1, 1.0)
    cmat = np.column_stack([fit_from_decomposition(dec, sample.data.ys, TIKHONOV, lam) for lam in lams])
    xs_new = np.linspace(0.0, 1.0, 7)
    preds = predict(cmat, k, sample.data.xs, xs_new)
    assert preds.shape == (7, len(lams))
    for j in range(len(lams)):
        vec = predict(cmat[:, j], k, sample.data.xs, xs_new)
        assert np.linalg.norm(preds[:, j] - vec) <= 1e-12 * np.linalg.norm(vec)


def test_predict_dimension_mismatch():
    for c in (np.array([1.0, 2.0]), np.ones((2, 3))):
        with pytest.raises(DimensionMismatchError):
            predict(c, GaussianKernel(1.0), np.array([0.1]), np.array([0.2]))


def test_fit_non_finite_coefficients_rejected():
    k = GaussianKernel(0.5)
    xs = np.array([0.1, 0.4, 0.8])
    dec = gram_decomposition(k, xs)
    with pytest.raises(DomainViolationError, match="non-finite"):
        fit_from_decomposition(dec, np.array([1.0, np.nan, 0.0]), TIKHONOV, 0.1)


def _scalar_setup():
    k = ExplicitSpectrumKernel(np.array([2.0]))  # kappa^2 = 2, G = [1] at n = 1
    xs = np.array([0.0])
    return k, gram_decomposition(k, xs)


def test_weighted_diff_norm_scalar_cases():
    k, dec = _scalar_setup()
    kappa = np.sqrt(kappa_squared(k))
    c1, c2 = np.array([1.0]), np.array([0.0])
    assert weighted_diff_norm(c1, c1, dec, 0.5, 0.25) == 0.0
    assert weighted_diff_norm(c1, c2, dec, 0.5, 0.0) == pytest.approx(kappa)
    assert weighted_diff_norm(c1, c2, dec, 0.5, 0.5) == pytest.approx(kappa * np.sqrt(1.5))


def test_weighted_diff_norm_mismatch():
    _, dec = _scalar_setup()
    with pytest.raises(DimensionMismatchError):
        weighted_diff_norm(np.array([1.0, 2.0]), np.array([0.0, 0.0]), dec, 0.5, 0.0)


def _random_instance(seed, n=15, d=8):
    rng = np.random.default_rng(seed)
    k = ExplicitSpectrumKernel(np.sort(rng.random(d))[::-1] + 0.05)
    xs = rng.random(n)
    return rng, gram_decomposition(k, xs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_weighted_norm_monotone_in_lambda_prime(seed):
    rng, dec = _random_instance(seed)
    c1 = rng.standard_normal(15)
    c2 = rng.standard_normal(15)
    s = rng.uniform(0.05, 0.5)
    lams = np.sort(rng.uniform(0.0, 1.0, size=4))
    vals = [weighted_diff_norm(c1, c2, dec, float(lp), s) for lp in lams]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_interpolation_inequality_hundred_instances():
    # || B^s d || <= || B^{1/2} d ||^{2s} * || d ||^{1 - 2s} at lambda' = 0
    for seed in range(100):
        rng, dec = _random_instance(seed)
        d = rng.standard_normal(15)
        zero = np.zeros(15)
        s = rng.uniform(0.01, 0.49)
        mid = weighted_diff_norm(d, zero, dec, 0.0, s)
        half = weighted_diff_norm(d, zero, dec, 0.0, 0.5)
        base = weighted_diff_norm(d, zero, dec, 0.0, 0.0)
        assert mid <= half ** (2 * s) * base ** (1 - 2 * s) * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_weighted_norm_triangle_inequality(seed):
    rng, dec = _random_instance(seed)
    c1, c2, c3 = (rng.standard_normal(15) for _ in range(3))
    s = rng.uniform(0.0, 0.5)
    lp = rng.uniform(0.0, 1.0)
    d13 = weighted_diff_norm(c1, c3, dec, lp, s)
    d12 = weighted_diff_norm(c1, c2, dec, lp, s)
    d23 = weighted_diff_norm(c2, c3, dec, lp, s)
    assert d13 <= d12 + d23 + 1e-12


def test_fit_invalid_lambda():
    data = Dataset(xs=np.array([0.1, 0.2]), ys=np.array([1.0, 2.0]))
    with pytest.raises(InvalidLambdaError):
        fit(data, GaussianKernel(1.0), TIKHONOV, 0.0)


def test_fit_from_decomposition_shared_across_lambdas():
    model = polynomial_spectrum_model(b=2.0, size=12, sigma=0.1)
    k = model.kernel()
    lams = np.array([0.05, 0.2, 1.0])
    for n in (10, 18):  # dense route (n <= D = 12), then the factor route
        sample = generate(model, n, seed=9)
        ys = sample.data.ys
        dec = gram_decomposition(k, sample.data.xs)
        assert (dec.basis is None) == (n <= k.size)
        for lam in lams:
            shared = fit_from_decomposition(dec, ys, TIKHONOV, lam)
            direct = fit(sample.data, k, TIKHONOV, lam)
            assert np.allclose(shared, direct, atol=1e-12)
        # the grid-wide fit is the column stack of the scalar fits
        for method in (TIKHONOV, SPECTRAL_CUTOFF, LANDWEBER):
            grid_fit = fit_from_decomposition(dec, ys, method, lams)
            stacked = np.column_stack(
                [fit_from_decomposition(dec, ys, method, float(lam)) for lam in lams]
            )
            assert grid_fit.shape == (n, lams.size)
            err = np.linalg.norm(grid_fit - stacked, axis=0)
            assert np.all(err <= 1e-13 * np.linalg.norm(stacked, axis=0))
    with pytest.raises(InvalidLambdaError):
        fit_from_decomposition(dec, ys, TIKHONOV, np.array([0.1, 0.0]))


@pytest.mark.parametrize("method", [TIKHONOV, SPECTRAL_CUTOFF, LANDWEBER], ids=lambda m: m.variant)
def test_filter_value_over_a_lambda_array_equals_the_scalar_calls_bit_for_bit(method):
    # one row per lambda. Lambdas in [0.5, 1) give Landweber nu = 2, whose (1-t)^2 numpy
    # evaluates as a square; a power with an array of exponents differs from it in the last
    # bit, on inputs of 64 elements and more
    t = np.random.default_rng(12).random(256)
    t[:3] = (0.0, 1e-13, 1.0)
    lams = np.r_[geometric_grid(1e-3, 1.5).lambdas, 0.5, 0.6, 0.75, 0.99]
    rows = filter_value(method, lams, t)
    assert rows.shape == (lams.size, t.size)
    assert np.array_equal(rows, [filter_value(method, lam, t) for lam in lams.tolist()])
    assert np.array_equal(filter_value(method, lams, 0.0), [filter_value(method, lam, 0.0) for lam in lams.tolist()])
