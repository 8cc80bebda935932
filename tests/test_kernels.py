import io
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import explicit_kernel_matrix, trig_basis
from lepskii import experiments, kernels
from lepskii.errors import DimensionMismatchError, DomainViolationError, NotPositiveSemiDefiniteError
from lepskii.kernels import (
    Dataset,
    ExplicitSpectrumKernel,
    GaussianKernel,
    PolynomialKernel,
    cross_gram,
    dataset_to_csv,
    feature_matrix,
    gram_decomposition,
    gram_eigenvalues,
    kappa_squared,
    normalized_gram,
    read_dataset_csv,
    write_dataset_csv,
)
from lepskii.estimators import TIKHONOV
from lepskii.grid import geometric_grid
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
        m = cross_gram(k, pts, pts)
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


def _columnwise_basis(xs, size):
    """The trigonometric basis one column at a time: column 2k - 1 is sqrt(2) cos(2 pi k x),
    column 2k is sqrt(2) sin(2 pi k x)."""
    expected = np.empty((xs.shape[0], size))
    expected[:, 0] = 1.0
    for col in range(1, size):
        angle = 2.0 * np.pi * ((col + 1) // 2) * xs
        expected[:, col] = np.sqrt(2.0) * (np.cos(angle) if col % 2 == 1 else np.sin(angle))
    return expected


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 37, 255, 256, 257, 511, 512, 513, 1000, 4097])
@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 128, 129, 130, 1000, 1001])
def test_trig_basis_columns_match_definition(size, n):
    # bit for bit; the sizes straddle the blocks of frequencies trig_basis fills, odd and
    # even, and the row counts straddle the splits into row chunks filled in parallel
    xs = np.random.default_rng(size).random(n)
    assert _same_bits(trig_basis(xs, size), _columnwise_basis(xs, size))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("size", [129, 1000])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 1000, 4097])
def test_feature_matrix_matches_columnwise_oracle(monkeypatch, n, size, cpus):
    # sqrt(t_k) scales the basis column by column with the same two roundings, whatever
    # the number of row chunks the CPUs split the build into
    monkeypatch.setattr("lepskii.kernels._usable_cpus", lambda: cpus)
    k = ExplicitSpectrumKernel(np.arange(1, size + 1, dtype=float) ** -2.0)
    xs = np.random.default_rng(n).random(n)
    expected = _columnwise_basis(xs, size) * np.sqrt(k.eigenvalues)
    assert _same_bits(feature_matrix(k, xs), expected)


def test_concurrent_feature_matrix_builds_match_the_serial_build():
    k = ExplicitSpectrumKernel(np.arange(1, 1002, dtype=float) ** -2.0)
    inputs = [np.random.default_rng(seed).random(1500 + 250 * seed) for seed in range(4)]
    serial = [feature_matrix(k, xs) for xs in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(inputs)) as callers:
            futures = [callers.submit(feature_matrix, k, xs) for xs in inputs * 2]
            built = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(built, serial * 2):
        assert _same_bits(got, want)


@pytest.mark.parametrize("n", [5, 500, 999])
def test_normalized_gram_is_exactly_symmetric(n):
    # normalized_gram does not symmetrise, so every kernel's Gram must come out symmetric
    xs = np.random.default_rng(n).random(n)
    for k, pts in ((GaussianKernel(0.2), xs), (PolynomialKernel(3, 1.0), 2.0 * xs - 1.0),
                   (ExplicitSpectrumKernel(np.arange(1, 1002, dtype=float) ** -2.0), xs)):
        g = normalized_gram(k, pts).values
        assert np.array_equal(g, g.T)


def test_normalized_gram_single_point_saturating():
    k = ExplicitSpectrumKernel(np.array([1.0]))  # K(x, x) = 1 = kappa^2
    g = normalized_gram(k, np.array([0.3]))
    assert np.allclose(g.values, [[1.0]])


def test_normalized_gram_two_point_constant_kernel():
    k = ExplicitSpectrumKernel(np.array([1.0]))
    g = normalized_gram(k, np.array([0.2, 0.8]))
    assert np.allclose(g.values, [[0.5, 0.5], [0.5, 0.5]])
    d = sym_eigendecompose(g)
    assert np.allclose(d.eigenvalues, [1.0, 0.0], atol=1e-12)


def test_normalized_gram_trace_identity():
    k = GaussianKernel(0.2)
    xs = np.linspace(0.0, 1.0, 50)
    g = normalized_gram(k, xs)
    assert np.trace(g.values) == pytest.approx(1.0, abs=1e-12)
    d = sym_eigendecompose(g)
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
    dense = sym_eigendecompose(normalized_gram(k, xs))
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


# explicit kernel with D = 7 at n = 5 (dense) and n = 25 (factor); Gaussian at n = 400
# (pivoted Cholesky factor)
_ROUTE_CASES = {
    "dense": (ExplicitSpectrumKernel(np.arange(1, 8, dtype=float) ** -2.0), 5),
    "factor": (ExplicitSpectrumKernel(np.arange(1, 8, dtype=float) ** -2.0), 25),
    "cholesky": (GaussianKernel(0.2), 400),
}


@pytest.mark.parametrize("case", list(_ROUTE_CASES))
@pytest.mark.parametrize("route", [gram_decomposition, gram_eigenvalues])
def test_out_of_range_spectrum_rejected_on_every_route(monkeypatch, route, case):
    k, n = _ROUTE_CASES[case]
    # a quarter of the sup bound lifts the top normalized eigenvalue above 1 (to about 2
    # for the explicit kernel, 1.8 for the Gaussian)
    monkeypatch.setattr("lepskii.kernels.kappa_squared", lambda kk: 0.25 * kappa_squared(kk))
    with pytest.raises(NotPositiveSemiDefiniteError, match="above 1"):
        route(k, np.random.default_rng(9).random(n))


def test_gaussian_takes_the_cholesky_route():
    rng = np.random.default_rng(21)
    k = GaussianKernel(0.2)
    xs = rng.random(400)
    dec = gram_decomposition(k, xs)
    assert dec.basis is not None and dec.rank < 400 // 8
    dense = sym_eigendecompose(normalized_gram(k, xs))
    assert np.max(np.abs(dec.eigenvalues - dense.eigenvalues)) <= 1e-12
    assert np.max(np.abs(gram_eigenvalues(k, xs) - np.clip(dense.eigenvalues, 0.0, 1.0))) <= 1e-12
    # same operator: G^2 applied to a random vector on both routes
    v = rng.standard_normal(400)
    mu = dec.eigenvalues[: dec.rank]
    out = dec.expand(mu * dec.project(v))
    want = dense.expand(dense.eigenvalues * dense.project(v))
    assert np.max(np.abs(out - want)) <= 1e-10
    assert dec.kscale == 400 * kappa_squared(k)


def test_polynomial_cholesky_factor_has_the_kernel_rank():
    # (1 + x y)^3 is a sum of 4 products of monomials, so K has rank 4
    k = PolynomialKernel(3, 1.0)
    xs = 2.0 * np.random.default_rng(22).random(400) - 1.0
    dec = gram_decomposition(k, xs)
    assert dec.basis is not None and dec.rank == 4
    dense = sym_eigendecompose(normalized_gram(k, xs))
    assert np.max(np.abs(dec.eigenvalues - dense.eigenvalues)) <= 1e-12


def test_cholesky_factor_of_rank_n_over_8_or_more_falls_back_to_dense():
    # a bandwidth below the mean point spacing 1/400 leaves K of numerical rank near n
    k = GaussianKernel(0.001)
    xs = np.random.default_rng(23).random(400)
    dec = gram_decomposition(k, xs)
    assert dec.basis is None and dec.rank == 400
    dense = sym_eigendecompose(normalized_gram(k, xs))
    assert np.array_equal(dec.eigenvalues, np.clip(dense.eigenvalues, 0.0, 1.0))


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
        cross_gram(k, np.array([0.5, 1.2]), np.array([0.5]))
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
    pairwise = [[_kernel_at(k, a, b) for b in xs] for a in xs]
    assert np.allclose(cross_gram(k, xs, xs), pairwise)
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


def _outcome(read, text):
    """Bit patterns of xs and ys that `read` returns on `text`, or its exception."""
    try:
        data = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return data.xs.tobytes(), data.ys.tobytes()


def _csv_loop(text):
    return kernels._read_dataset(io.StringIO(text, newline=""))


# tokens the csv loop and numpy's C reader might read differently, next to plain numbers
_CSV_TOKENS = ["1", "-2.25", " 3.5 ", "1e-3", "+.5", "5.", "0.1234567890123456789", "1e-400",
               "nan", "1e400", "1_000", "", " ", "abc", "0x10", "\t4", "\x0c5", "6\xa0", '"7"', '"8,9"',
               '"', "#1", "1 2", "８"]
_csv_rows = st.lists(st.sampled_from(_CSV_TOKENS[:8]) | st.sampled_from(_CSV_TOKENS), min_size=0, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    header=st.sampled_from(["x,y", " x , y ", "x,y,z", "y,x", "", '"x",y']),
    rows=st.lists(_csv_rows.map(",".join), max_size=6),
    end=st.sampled_from(["\n", "\r\n", "\r"]),
    tail=st.booleans(),
)
def test_c_reader_matches_the_csv_loop(header, rows, end, tail):
    text = end.join([header, *rows]) + (end if tail else "")
    assert _outcome(kernels._parse_dataset, text) == _outcome(_csv_loop, text)


@pytest.mark.parametrize(
    "text",
    [
        'x,y\n"0.5",1\n',  # quoted field
        "x,y\n1_000,2\n",  # underscore digits, which only float() reads
        "x,y\n0.5,1\n   \n0.7,2\n",  # whitespace-only row
        "x,y\r0.5,1\r0.7,2\r",  # bare CR line ends
        "x,y\n",  # header only
        'x,y\n0.5,1,"a\n0.7,2\n0.9,3,b"\n',  # a quote in a third column joins lines
    ],
    ids=["quoted", "underscore", "blank-row", "cr", "header-only", "quote-third-column"],
)
def test_c_reader_matches_the_csv_loop_on_inputs_it_refuses(text, recwarn):
    assert _outcome(kernels._parse_dataset, text) == _outcome(_csv_loop, text)
    assert not recwarn.list  # numpy's "input contained no data" stays inside the reader


def test_plain_csv_takes_the_c_reader(tmp_path, monkeypatch):
    data = Dataset(xs=np.array([0.1, 0.25, 1.0 / 3.0]), ys=np.array([1.5, -2.25, 0.125]))
    path = tmp_path / "d.csv"
    path.write_bytes(dataset_to_csv(data).replace("\n", "\r\n").encode())

    def refuse(fh):
        raise AssertionError("a plain CSV fell back to the csv loop")

    monkeypatch.setattr(kernels, "_read_dataset", refuse)
    back = read_dataset_csv(path)
    assert back.xs.tobytes() == data.xs.tobytes() and back.ys.tobytes() == data.ys.tobytes()


def test_csv_with_a_byte_order_mark_is_read(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with the UTF-8 byte-order mark
    text = "x,y\n0.5,1\n0.25,-2\n"
    for body in (text, text.replace("0.5", '"0.5"')):  # the C reader and the csv loop
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        back = read_dataset_csv(path)
        assert back.xs.tolist() == [0.5, 0.25] and back.ys.tolist() == [1.0, -2.0]


def test_dataset_validation():
    with pytest.raises(DomainViolationError):
        Dataset(xs=np.array([1.0, 2.0]), ys=np.array([1.0]))


def test_gram_decomposition_carries_its_scale(monkeypatch):
    rng = np.random.default_rng(4)
    xs = rng.random(18)
    ys = rng.standard_normal(18)
    explicit = ExplicitSpectrumKernel(1.0 / np.arange(1, 13) ** 2)  # D = 12 < n: factor route
    kernels = (GaussianKernel(0.3), PolynomialKernel(degree=3, offset=1.0), explicit)
    for k in kernels:
        dec = gram_decomposition(k, xs)
        assert (dec.basis is not None) == (k is explicit)
        assert dec.kscale == len(xs) * kappa_squared(k)
        assert dec.lifted().kscale == dec.kscale

    # the hold-out decomposes its n_train head points and must carry n_train kappa^2
    seen = []

    def recording(k, points, features=None):
        seen.append(gram_decomposition(k, points, features))
        return seen[-1]

    monkeypatch.setattr(experiments, "gram_decomposition", recording)
    experiments.holdout_select(Dataset(xs, ys), 0.5, geometric_grid(0.05, 2.0), explicit, (TIKHONOV,))
    assert [dec.dim for dec in seen] == [9]
    assert seen[0].kscale == 9 * kappa_squared(explicit)
