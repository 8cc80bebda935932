import numpy as np
import pytest

from _oracles import explicit_kernel_matrix
from lepskii.errors import DimensionMismatchError, DomainViolationError, NotPositiveSemiDefiniteError
from lepskii.kernels import (
    Dataset,
    ExplicitSpectrumKernel,
    GaussianKernel,
    PolynomialKernel,
    cross_gram,
    dataset_to_csv,
    feature_matrix,
    gram,
    gram_decomposition,
    gram_eigenvalues,
    gram_scale,
    kappa_squared,
    normalized_gram,
    read_dataset_csv,
    trig_basis,
    write_dataset_csv,
)
from lepskii.linalg import sym_eigendecompose


def _kernel_at(k, x, y):
    return float(cross_gram(k, np.array([x]), np.array([y]))[0, 0])


def test_gaussian_diagonal_is_one():
    k = GaussianKernel(bandwidth=1.0)
    assert _kernel_at(k, 0.37, 0.37) == 1.0
    assert kappa_squared(k) == 1.0


def test_rank_one_constant_kernel():
    k = ExplicitSpectrumKernel(np.array([1.0]))
    for x, y in [(0.0, 0.5), (0.2, 0.9), (1.0, 1.0)]:
        assert _kernel_at(k, x, y) == pytest.approx(1.0)


def test_explicit_kernel_direct_summation():
    # K(x, y) = sum t_i e_i(x) e_i(y) with t = (1, 1/4), e = (1, sqrt2 cos(2 pi x))
    k = ExplicitSpectrumKernel(np.array([1.0, 0.25]))
    val = _kernel_at(k, 0.0, 0.5)
    direct = 1.0 + 0.25 * np.sqrt(2) * np.sqrt(2) * np.cos(0.0) * np.cos(np.pi)
    assert val == pytest.approx(direct) == pytest.approx(0.5)


def test_kernel_symmetry_and_nonneg_diagonal():
    rng = np.random.default_rng(0)
    xs = rng.random(8)
    for k in (
        GaussianKernel(0.3),
        PolynomialKernel(3, 1.0),
        ExplicitSpectrumKernel(np.arange(1, 6, dtype=float) ** -2.0),
    ):
        pts = xs if not isinstance(k, PolynomialKernel) else xs * 2 - 1
        m = gram(k, pts)
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) >= 0)


def test_kappa_squared_polynomial():
    assert kappa_squared(PolynomialKernel(degree=4, offset=1.0, domain_radius=1.0)) == 2.0**4


def test_kappa_squared_explicit_dominates_sampled_diagonal():
    t = np.arange(1, 30, dtype=float) ** -2.0
    k = ExplicitSpectrumKernel(t)
    bound = kappa_squared(k)
    assert bound == pytest.approx(t[0] + 2 * t[1:].sum())
    xs = np.linspace(0.0, 1.0, 10_000)
    diag = np.einsum("ij,ij->i", feature_matrix(k, xs), feature_matrix(k, xs))
    assert bound >= diag.max()


def test_trig_basis_orthonormal_under_uniform_measure():
    # exact discrete orthogonality of the trig functions on an equispaced grid
    n, size = 64, 21
    xs = np.arange(n) / n
    e = trig_basis(xs, size)
    assert np.allclose(e.T @ e / n, np.eye(size), atol=1e-12)


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 128, 129, 130, 1000, 1001])
def test_trig_basis_columns_match_definition(size, n):
    # column 2k - 1 is sqrt(2) cos(2 pi k x), column 2k is sqrt(2) sin(2 pi k x), bit for
    # bit; the sizes straddle the blocks of frequencies trig_basis fills, odd and even
    xs = np.random.default_rng(size).random(n)
    e = trig_basis(xs, size)
    expected = np.empty((n, size))
    expected[:, 0] = 1.0
    for col in range(1, size):
        angle = 2.0 * np.pi * ((col + 1) // 2) * xs
        expected[:, col] = np.sqrt(2.0) * (np.cos(angle) if col % 2 == 1 else np.sin(angle))
    assert np.array_equal(e.view(np.uint64), expected.view(np.uint64))


def test_normalized_gram_single_point_saturating():
    k = ExplicitSpectrumKernel(np.array([1.0]))  # K(x, x) = 1 = kappa^2
    g = normalized_gram(k, np.array([0.3]))
    assert np.allclose(g.values, [[1.0]])


def test_normalized_gram_two_point_constant_kernel():
    k = ExplicitSpectrumKernel(np.array([1.0]))
    g = normalized_gram(k, np.array([0.2, 0.8]))
    assert np.allclose(g.values, [[0.5, 0.5], [0.5, 0.5]])
    d = sym_eigendecompose(g, normalized=True)
    assert np.allclose(d.eigenvalues, [1.0, 0.0], atol=1e-12)


def test_normalized_gram_trace_identity():
    k = GaussianKernel(0.2)
    xs = np.linspace(0.0, 1.0, 50)
    g = normalized_gram(k, xs)
    assert np.trace(g.values) == pytest.approx(1.0, abs=1e-12)
    d = sym_eigendecompose(g, normalized=True)
    assert d.eigenvalues.sum() == pytest.approx(1.0, abs=1e-9)


def test_gram_spectrum_in_unit_interval():
    rng = np.random.default_rng(4)
    for k in (GaussianKernel(0.1), ExplicitSpectrumKernel(np.arange(1, 20, dtype=float) ** -1.5)):
        xs = rng.random(30)
        eigs = gram_eigenvalues(k, xs)
        assert eigs.min() >= 0.0 and eigs.max() <= 1.0
        raw = np.linalg.eigvalsh(normalized_gram(k, xs).values)
        assert raw.min() >= -1e-9


def test_factor_route_matches_dense_route():
    rng = np.random.default_rng(9)
    k = ExplicitSpectrumKernel(np.arange(1, 8, dtype=float) ** -2.0)
    xs = rng.random(25)  # n > D triggers the factor route
    dec = gram_decomposition(k, xs)
    dense = sym_eigendecompose(normalized_gram(k, xs), normalized=True)
    assert dec.rank < dec.dim == 25
    assert np.allclose(dec.eigenvalues, dense.eigenvalues, atol=1e-10)
    # same operator: compare projections of a random vector under a spectral map
    v = rng.standard_normal(25)
    mu_t = dec.eigenvalues[: dec.rank]
    out_t = dec.expand(mu_t * dec.project(v))
    mu_d = dense.eigenvalues
    out_d = dense.expand(mu_d * dense.project(v))
    assert np.allclose(out_t, out_d, atol=1e-10)


def test_factored_eigenvectors_match_their_lift():
    rng = np.random.default_rng(11)
    k = ExplicitSpectrumKernel(np.arange(1, 21, dtype=float) ** -2.0)
    dec = gram_decomposition(k, rng.random(80))  # n > D: eigenvectors kept factored
    lifted = dec.lifted()
    assert dec.basis is not None and lifted.basis is None and lifted.lifted() is lifted
    assert np.array_equal(lifted.eigenvalues, dec.eigenvalues) and lifted.rank == dec.rank
    for x, e in ((rng.standard_normal(80), rng.standard_normal(dec.rank)),
                 (rng.standard_normal((80, 3)), rng.standard_normal((dec.rank, 3)))):
        for got, want in ((dec.project(x), lifted.project(x)), (dec.expand(e), lifted.expand(e))):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    u = lifted.vectors
    assert np.linalg.norm(u.T @ u - np.eye(dec.rank)) <= 1e-10


@pytest.mark.parametrize("n", [5, 25], ids=["dense", "factor"])  # D = 7
def test_prebuilt_features_give_the_same_decomposition(n):
    k = ExplicitSpectrumKernel(np.arange(1, 8, dtype=float) ** -2.0)
    xs = np.random.default_rng(n).random(n)
    phi = feature_matrix(k, xs)
    before = phi.copy()
    built, reused = gram_decomposition(k, xs), gram_decomposition(k, xs, phi)
    assert np.array_equal(built.eigenvalues, reused.eigenvalues)
    assert np.array_equal(built.vectors, reused.vectors)
    assert np.array_equal(phi, before)  # the caller's matrix is read, never written
    if n > k.size:  # only the factor route reads the features
        with pytest.raises(DimensionMismatchError):
            gram_decomposition(k, xs, phi[:, :-1])


@pytest.mark.parametrize("n", [5, 25], ids=["dense", "factor"])  # D = 7
@pytest.mark.parametrize("route", [gram_decomposition, gram_eigenvalues])
def test_out_of_range_spectrum_rejected_on_every_route(monkeypatch, route, n):
    k = ExplicitSpectrumKernel(np.arange(1, 8, dtype=float) ** -2.0)
    # a quarter of the sup bound lifts the top normalized eigenvalue to about 2
    monkeypatch.setattr("lepskii.kernels.kappa_squared", lambda kk: 0.25 * kappa_squared(kk))
    with pytest.raises(NotPositiveSemiDefiniteError, match="above 1"):
        route(k, np.random.default_rng(9).random(n))


def test_empirical_eigenvalues_concentrate_near_model():
    t = np.arange(1, 6, dtype=float) ** -2.0
    k = ExplicitSpectrumKernel(t)
    t_bar = t / kappa_squared(k)
    rng = np.random.default_rng(123)
    xs = rng.random(20 * t.size)
    top = gram_eigenvalues(k, xs)[: t.size]
    assert np.all(top <= 2.0 * t_bar) and np.all(top >= 0.5 * t_bar)


def test_domain_violations():
    k = ExplicitSpectrumKernel(np.array([1.0, 0.5]))
    with pytest.raises(DomainViolationError):
        gram(k, np.array([0.5, 1.2]))
    with pytest.raises(DomainViolationError):
        _kernel_at(PolynomialKernel(2, 1.0, domain_radius=1.0), 1.5, 0.0)


def test_explicit_spectrum_validation():
    with pytest.raises(DomainViolationError):
        ExplicitSpectrumKernel(np.array([0.5, 1.0]))  # increasing
    with pytest.raises(DomainViolationError):
        ExplicitSpectrumKernel(np.array([1.0, -0.1]))


def test_cross_gram_consistency():
    k = GaussianKernel(0.5)
    xs = np.array([0.1, 0.4, 0.9])
    assert np.allclose(cross_gram(k, xs, xs), gram(k, xs))
    # explicit spectrum: one feature build for one point set, two for equal copies
    k = ExplicitSpectrumKernel(np.arange(1, 8, dtype=float) ** -2.0)
    once = cross_gram(k, xs, xs)
    assert np.allclose(once, cross_gram(k, xs, xs.copy()), rtol=1e-14, atol=1e-15)
    assert np.allclose(once, explicit_kernel_matrix(k.eigenvalues, xs, xs), rtol=1e-13, atol=1e-14)


def test_dataset_csv_roundtrip(tmp_path):
    data = Dataset(xs=np.array([0.1, 0.25, 1.0 / 3.0]), ys=np.array([1.5, -2.25, 0.125]))
    path = tmp_path / "d.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.xs, data.xs) and np.array_equal(back.ys, data.ys)
    assert dataset_to_csv(back) == dataset_to_csv(data)


def test_dataset_validation():
    with pytest.raises(DomainViolationError):
        Dataset(xs=np.array([1.0, 2.0]), ys=np.array([1.0]))


def test_gram_scale():
    k = ExplicitSpectrumKernel(np.array([1.0, 0.25]))
    assert gram_scale(k, 10) == pytest.approx(10 * kappa_squared(k))
