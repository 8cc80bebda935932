import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lepskii.errors import NonFiniteError, NonSymmetricError
from lepskii.estimators import FILTERS, fit_from_decomposition, weighted_diff_norm
from lepskii.linalg import SymMatrix, sym_eigendecompose, truncated_decomposition


def det_gauss(a):
    """Determinant by plain Gaussian elimination with partial pivoting (test oracle,
    no numpy.linalg)."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-300:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def charpoly_roots(m, tol=1e-12):
    """All eigenvalues of a symmetric matrix via sign bisection of det(A - x I),
    bracketing each root between sorted sample points (test oracle)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    radius = max(abs(m[i, i]) + sum(abs(m[i, j]) for j in range(n) if j != i) for i in range(n))
    lo, hi = -radius - 1.0, radius + 1.0

    def p(x):
        return det_gauss(m - x * np.eye(n))

    # dense scan for sign changes, then bisect each bracket
    grid = np.linspace(lo, hi, 20001)
    vals = [p(x) for x in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = p(mid)
                if fm == 0.0 or b - a < tol:
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


def random_psd(rng, n):
    m = rng.standard_normal((n, n))
    return m.T @ m


def test_identity_eigenvalues():
    d = sym_eigendecompose(np.eye(3))
    assert np.allclose(d.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(d.vectors @ d.vectors.T, np.eye(3), atol=1e-12)


def test_diagonal_case():
    d = sym_eigendecompose(np.diag([3.0, 1.0]))
    assert np.allclose(d.eigenvalues, [3.0, 1.0])
    # axis-aligned eigenvectors up to sign
    assert np.allclose(np.abs(d.vectors), np.eye(2), atol=1e-12)


def test_random_psd_against_charpoly_oracle():
    rng = np.random.default_rng(7)
    a = random_psd(rng, 5)
    d = sym_eigendecompose(a)
    recon = (d.vectors * d.eigenvalues) @ d.vectors.T
    assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)
    oracle = charpoly_roots(a)
    # distinct eigenvalues for this seed; compare sorted lists
    assert len(oracle) == 5
    assert np.allclose(d.eigenvalues, oracle, atol=1e-6)


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(3)
    d = sym_eigendecompose(random_psd(rng, 8))
    assert np.all(np.diff(d.eigenvalues) <= 1e-12)


def test_non_symmetric_rejected():
    with pytest.raises(NonSymmetricError):
        sym_eigendecompose(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(NonSymmetricError):
        sym_eigendecompose(np.ones((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        sym_eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        sym_eigendecompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_psd_floor_trace_identity_orthonormality(n, seed):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n)
    d = sym_eigendecompose(a)
    assert d.eigenvalues.min() >= -1e-10 * max(1.0, abs(d.eigenvalues).max())
    assert abs(d.eigenvalues.sum() - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
    assert np.linalg.norm(d.vectors.T @ d.vectors - np.eye(n)) <= 1e-10 * n


def test_normalized_clamping():
    vals = np.array([[1.0 + 5e-10, 0.0], [0.0, -5e-10]])
    d = sym_eigendecompose(vals, normalized=True)
    assert d.eigenvalues[0] == 1.0 and d.eigenvalues[1] == 0.0
    d_raw = sym_eigendecompose(vals)
    assert d_raw.eigenvalues[0] > 1.0 and d_raw.eigenvalues[1] < 0.0


def test_truncated_decomposition_matches_full():
    rng = np.random.default_rng(2)
    # rank-2 PSD matrix in dimension 5
    b = rng.standard_normal((5, 2))
    a = b @ b.T
    scale = np.linalg.norm(a, 2) * 1.01
    a = a / scale
    full = sym_eigendecompose(a, normalized=True)
    trunc = truncated_decomposition(full.eigenvalues[:2], full.vectors[:, :2], dim=5)
    assert trunc.rank == 2 and trunc.dim == 5
    assert np.allclose(trunc.eigenvalues[2:], 0.0)
    ys, c1, c2 = rng.standard_normal((3, 5))
    kscale = 5.0
    for method in FILTERS.values():
        for lam in (0.1, 0.5):
            c_full = fit_from_decomposition(full, kscale, ys, method, lam).c
            c_trunc = fit_from_decomposition(trunc, kscale, ys, method, lam).c
            assert np.linalg.norm(c_full - c_trunc) <= 1e-8 * max(1.0, np.linalg.norm(c_full))
    for s in (0.0, 0.3, 0.5):
        for lam_p in (0.0, 0.2):
            w_full = weighted_diff_norm(c1, c2, full, kscale, lam_p, s)
            w_trunc = weighted_diff_norm(c1, c2, trunc, kscale, lam_p, s)
            assert w_trunc == pytest.approx(w_full, rel=1e-8)


def test_symmatrix_validation():
    m = SymMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert m.dim == 2
    with pytest.raises(NonSymmetricError):
        SymMatrix(np.array([[1.0, 2.0], [2.1, 1.0]]))
