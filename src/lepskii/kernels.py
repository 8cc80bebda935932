"""Kernel definitions, sup-bound kappa^2, Gram matrices and their spectra.

Coefficient-space convention: an estimator f = sum_j c_j K(x_j, .) is carried
by its coefficient vector c. The normalized empirical covariance acts on
coefficients as c -> G c with G = K / (n kappa^2), and the RKHS inner product
is <c, c'> = c^T K c'. Since K = (n kappa^2) G, both operators share one
eigenbasis and every fractional power is diagonal there.

This module owns the normalized-Gram conventions: the scale n kappa^2 and the
clamp of G's spectrum to [0, 1], applied on every route of gram_decomposition
and gram_eigenvalues alike. There are three routes, and the first two share one
code path through a factor G = Phi Phi^T with r < n columns:

- explicit-spectrum kernels with n > D: Phi is the n x D feature matrix;
- Gaussian and polynomial kernels: Phi is a greedy pivoted Cholesky factor of K
  (Harbrecht, Peters & Schneider 2012), kept when its rank is below n // 8;
- otherwise (explicit kernels with n <= D, or a factor that needs n // 8 columns
  or more) the dense route eigendecomposes the n x n matrix G.

A factor route eigendecomposes the r x r matrix Phi^T Phi and keeps its
eigenvectors factored through Phi, so it costs O(n r^2) instead of O(n^3).
"""

from __future__ import annotations

import csv
import io
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    EmptySpectrumError,
    NonFiniteError,
    NotPositiveSemiDefiniteError,
)
from .linalg import SpectralDecomposition, SymMatrix, sym_eigendecompose

# round-off allowance outside [0, 1] for a normalized Gram spectrum; beyond it, raise
PSD_CLAMP_TOL = 1e-9
# relative cutoff below which factor-route eigenvalues are treated as exact zeros; a
# pivoted Cholesky factor is done once the trace it leaves out is this share of the trace
_EIG_REL_CUTOFF = 1e-14
# a pivoted Cholesky factor that needs n // _CHOL_RANK_DIVISOR columns or more is dropped
# for the dense route; the work it wasted, about n (n / 8)^2 = n^3 / 64 flops, is small
# next to the dense solve's 4 n^3 / 3 or more
_CHOL_RANK_DIVISOR = 8
# rows a pivoted Cholesky factor starts with; its storage doubles as the rank grows
_CHOL_FIRST_ROWS = 16
# a trigonometric feature fill works in tiles of 128 rows x 64 frequencies, with the same
# per-element products as one column at a time; a tile's angles stay cache-sized, and
# each temporary (64 KiB) is small next to the n x D output whatever n is
_TRIG_BLOCK = 64
_TILE_ROWS = 128
# fewest rows a chunk of a trigonometric feature fill gets; builds under twice this run
# on the calling thread
_FILL_MIN_ROWS = 256

_fill_pool: ThreadPoolExecutor | None = None
_fill_pool_lock = threading.Lock()


@dataclass(frozen=True)
class GaussianKernel:
    """K(x, y) = exp(-(x - y)^2 / (2 bandwidth^2)) on the real line."""

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise DomainViolationError("bandwidth must be positive")


@dataclass(frozen=True)
class PolynomialKernel:
    """K(x, y) = (offset + x y)^degree on [-domain_radius, domain_radius]."""

    degree: int
    offset: float
    domain_radius: float = 1.0

    def __post_init__(self):
        if self.degree < 1 or self.offset < 0 or not self.domain_radius > 0:
            raise DomainViolationError("need degree >= 1, offset >= 0, domain_radius > 0")


@dataclass(frozen=True)
class ExplicitSpectrumKernel:
    """K(x, y) = sum_i t_i e_i(x) e_i(y) with the trigonometric basis on [0, 1].

    Basis indexing: e_1 = 1, e_{2k} = sqrt(2) cos(2 pi k x),
    e_{2k+1} = sqrt(2) sin(2 pi k x); orthonormal in L2(uniform[0,1]).
    """

    eigenvalues: np.ndarray  # t_i, strictly positive, nonincreasing

    def __post_init__(self):
        t = np.asarray(self.eigenvalues, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise EmptySpectrumError("explicit spectrum must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(t)):
            raise NonFiniteError("spectrum contains non-finite values")
        if not np.all(t > 0):
            raise DomainViolationError("spectrum eigenvalues must be strictly positive")
        if np.any(np.diff(t) > 0):
            raise DomainViolationError("spectrum eigenvalues must be nonincreasing")
        object.__setattr__(self, "eigenvalues", t)

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


KernelSpec = Union[GaussianKernel, PolynomialKernel, ExplicitSpectrumKernel]


@dataclass(frozen=True)
class Dataset:
    """Paired observations (x_i, y_i); finite values, equal lengths, n >= 1."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape or xs.size < 1:
            raise DomainViolationError("xs and ys must be equal-length nonempty 1-d sequences")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise NonFiniteError("dataset contains non-finite values")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _fill_executor() -> ThreadPoolExecutor:
    """The process-wide pool that fills row chunks of feature matrices, made on first use
    with one worker per CPU in the affinity set."""
    global _fill_pool
    with _fill_pool_lock:
        if _fill_pool is None:
            _fill_pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="lepskii-fill")
        return _fill_pool


def _trig_fill(xs: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """out[j, i] = e_i(x_j) * scale[i] for the trigonometric basis, shape (n, scale.size).

    Row chunks are filled in parallel on the fill pool. Every element goes through the
    same float operations whichever chunk holds it, so the result does not depend on the
    number of CPUs. A chunk never submits work, so concurrent callers cannot deadlock.
    """
    n, size = xs.shape[0], scale.shape[0]
    out = np.empty((n, size))
    root2 = np.sqrt(2.0)
    n_freq = size // 2
    freqs = 2.0 * np.pi * np.arange(1, n_freq + 1)

    def fill(lo: int, hi: int) -> None:
        # column 2k - 1 holds the cosine and column 2k the sine of frequency k
        for r_lo in range(lo, hi, _TILE_ROWS):
            rows = out[r_lo : min(r_lo + _TILE_ROWS, hi)]
            x = xs[r_lo : r_lo + rows.shape[0], None]
            rows[:, 0] = scale[0]
            for f_lo in range(1, n_freq + 1, _TRIG_BLOCK):
                f_hi = min(f_lo + _TRIG_BLOCK, n_freq + 1)
                angle = x * freqs[f_lo - 1 : f_hi - 1]
                cos_cols = slice(2 * f_lo - 1, 2 * f_hi - 1, 2)
                np.multiply(root2 * np.cos(angle), scale[cos_cols], out=rows[:, cos_cols])
                n_sin = min(f_hi, (size + 1) // 2) - f_lo  # the top sine exists only for odd size
                sin_cols = slice(2 * f_lo, 2 * (f_lo + n_sin), 2)
                np.multiply(root2 * np.sin(angle[:, :n_sin]), scale[sin_cols], out=rows[:, sin_cols])

    chunks = min(_usable_cpus(), n // _FILL_MIN_ROWS)
    if chunks < 2:
        fill(0, n)
        return out
    bounds = [n * i // chunks for i in range(chunks + 1)]
    pool = _fill_executor()
    futures = [pool.submit(fill, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fill(bounds[0], bounds[1])
    finally:
        for future in futures:
            future.result()
    return out


def _check_domain(k: KernelSpec, xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise DomainViolationError("points contain non-finite values")
    if isinstance(k, ExplicitSpectrumKernel):
        if np.any(xs < 0.0) or np.any(xs > 1.0):
            raise DomainViolationError("explicit-spectrum kernels are defined on [0, 1]")
    elif isinstance(k, PolynomialKernel):
        if np.any(np.abs(xs) > k.domain_radius):
            raise DomainViolationError(f"points outside [-{k.domain_radius}, {k.domain_radius}]")
    return xs


def feature_matrix(k: ExplicitSpectrumKernel, xs: np.ndarray) -> np.ndarray:
    """Phi with Phi[j, i] = sqrt(t_i) e_i(x_j), so that K = Phi Phi^T exactly."""
    return _trig_fill(_check_domain(k, xs), np.sqrt(k.eigenvalues))


def cross_gram(k: KernelSpec, xs_a: np.ndarray, xs_b: np.ndarray) -> np.ndarray:
    """Matrix K(a_i, b_j) for two point sets (features built once when both are one array)."""
    same = xs_a is xs_b
    xs_a = _check_domain(k, xs_a)
    xs_b = _check_domain(k, xs_b)
    if not isinstance(k, ExplicitSpectrumKernel):
        return _closed_form_gram(k, xs_a, xs_b)
    phi_a = feature_matrix(k, xs_a)
    return phi_a @ (phi_a if same else feature_matrix(k, xs_b)).T


def _closed_form_gram(k: GaussianKernel | PolynomialKernel, xs_a: np.ndarray, xs_b: np.ndarray) -> np.ndarray:
    """K(a_i, b_j) for a Gaussian or polynomial kernel on points already checked by
    _check_domain."""
    if isinstance(k, GaussianKernel):
        diff = xs_a[:, None] - xs_b[None, :]
        return np.exp(-(diff**2) / (2.0 * k.bandwidth**2))
    return (k.offset + xs_a[:, None] * xs_b[None, :]) ** k.degree


def kappa_squared(k: KernelSpec) -> float:
    """Upper bound on sup_x K(x, x).

    Gaussian: 1. Polynomial: (offset + radius^2)^degree. Explicit spectrum:
    t_1 + 2 sum_{i>=2} t_i, from e_1^2 = 1 and e_i^2 <= 2.
    """
    if isinstance(k, GaussianKernel):
        return 1.0
    if isinstance(k, PolynomialKernel):
        return float((k.offset + k.domain_radius**2) ** k.degree)
    t = k.eigenvalues
    return float(t[0] + 2.0 * t[1:].sum())


def normalized_gram(k: KernelSpec, xs: np.ndarray) -> SymMatrix:
    """G = K / (n kappa^2); trace(G) <= 1 and spectrum inside [0, 1]."""
    xs = _check_domain(k, xs)
    n = xs.shape[0]
    # each kernel's Gram of one point set is exactly symmetric ((a - b)^2, a b, and
    # Phi Phi^T through syrk), so no symmetrisation is needed; SymMatrix still rejects
    # an asymmetric one
    g = cross_gram(k, xs, xs)
    g /= n * kappa_squared(k)
    return SymMatrix(g)


def _clamp_unit_interval(eigenvalues: np.ndarray) -> np.ndarray:
    """A normalized Gram spectrum clipped to [0, 1]; round-off only, so values more
    than PSD_CLAMP_TOL outside raise."""
    low = eigenvalues.min(initial=0.0)
    high = eigenvalues.max(initial=0.0)
    if low < -PSD_CLAMP_TOL:
        raise NotPositiveSemiDefiniteError(
            f"eigenvalue {low:.3e} below -{PSD_CLAMP_TOL:.0e}; matrix is not a normalized Gram matrix"
        )
    if high > 1.0 + PSD_CLAMP_TOL:
        raise NotPositiveSemiDefiniteError(
            f"eigenvalue {high:.6e} above 1; matrix is not a normalized Gram matrix"
        )
    return np.clip(eigenvalues, 0.0, 1.0)


def _pivoted_cholesky(k: GaussianKernel | PolynomialKernel, xs: np.ndarray) -> np.ndarray | None:
    """Greedy pivoted Cholesky factor L (n x r) with K = L L^T up to a left-out trace of
    at most _EIG_REL_CUTOFF of trace(K), or None unless 0 < r < n // _CHOL_RANK_DIVISOR.

    Each step pivots on the largest diagonal entry of the residual K - L L^T and builds
    that one column of K, so the factor costs O(n r^2) and never forms K. The points
    must already have passed _check_domain.
    """
    n = xs.shape[0]
    most = n // _CHOL_RANK_DIVISOR - 1  # the largest rank kept
    if most < 1:
        return None
    residual = np.ones(n) if isinstance(k, GaussianKernel) else (k.offset + xs * xs) ** k.degree
    stop = _EIG_REL_CUTOFF * residual.sum()
    rows = np.empty((min(_CHOL_FIRST_ROWS, most), n))  # L^T, one row per step
    r = 0
    while residual.sum() > stop:
        p = int(np.argmax(residual))
        pivot = residual[p]
        if not pivot > 0.0:  # round-off only: what is left is numerically zero
            break
        if r == most:
            return None
        if r == rows.shape[0]:
            grown = np.empty((min(2 * r, most), n))
            grown[:r] = rows
            rows = grown
        col = _closed_form_gram(k, xs, xs[p : p + 1])[:, 0]
        col -= rows[:r, p] @ rows[:r]
        col /= np.sqrt(pivot)
        rows[r] = col
        residual -= col * col
        residual[p] = 0.0  # exact in exact arithmetic; round-off must not pick p again
        r += 1
    return rows[:r].T if r else None


def _factor_route(
    k: KernelSpec, xs: np.ndarray, features: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(Phi, Phi^T Phi) with G = Phi Phi^T and r < n columns in Phi, or None for the
    dense route.

    Phi is the feature matrix divided by sqrt(n kappa^2) for explicit-spectrum kernels
    with n > D, and the pivoted Cholesky factor of K divided by the same for Gaussian
    and polynomial kernels when its rank is below n // _CHOL_RANK_DIVISOR.
    `features`, when given, is feature_matrix(k, xs), built by the caller; it is read
    and never written.
    """
    n = xs.shape[0]
    scale = np.sqrt(n * kappa_squared(k))
    if not isinstance(k, ExplicitSpectrumKernel):
        factor = _pivoted_cholesky(k, xs)
        if factor is None:
            return None
        phi = factor / scale
    elif not n > k.size:
        return None
    elif features is None:
        phi = feature_matrix(k, xs)
        phi /= scale
    else:
        if features.shape != (n, k.size):
            raise DimensionMismatchError(
                f"features of shape {features.shape} do not match {n} points and {k.size} modes"
            )
        phi = features / scale
    return phi, phi.T @ phi  # exactly symmetric: numpy computes it with syrk


def gram_decomposition(
    k: KernelSpec, xs: np.ndarray, features: np.ndarray | None = None
) -> SpectralDecomposition:
    """Spectral decomposition of the normalized Gram matrix G, carrying
    kscale = n kappa^2 so that K = kscale * G.

    Three routes, chosen by the kernel and the points (see the module docstring):
    explicit-spectrum kernels with n > D factor G through the n x D feature matrix;
    Gaussian and polynomial kernels factor it through a pivoted Cholesky factor of
    K when its rank is below n // 8; everything else eigendecomposes the dense
    n x n matrix. A factor route eigendecomposes the r x r matrix Phi^T Phi and
    keeps the eigenvectors factored through Phi (see SpectralDecomposition.lifted);
    its results agree with the dense route up to round-off, with the eigenvalues
    past rank r exact zeros.
    A caller that already holds Phi = feature_matrix(k, xs) passes it as
    `features` so it is not built again; other routes ignore it.
    """
    xs = _check_domain(k, xs)
    kscale = xs.shape[0] * kappa_squared(k)
    factor = _factor_route(k, xs, features)
    if factor is None:
        dense = sym_eigendecompose(normalized_gram(k, xs))
        vals = _clamp_unit_interval(dense.eigenvalues)
        return SpectralDecomposition(vals, dense.coords, kscale=kscale)
    phi, c = factor
    del factor
    vals, vecs = np.linalg.eigh(c)
    del c
    vals = vals[::-1]
    keep = vals > max(vals[0], 0.0) * _EIG_REL_CUTOFF
    vals = _clamp_unit_interval(vals[keep])
    w = vecs[:, ::-1][:, keep]
    del vecs  # only the kept copy w is needed
    # data-space eigenvectors u = phi w / sqrt(nu), kept factored as basis phi, coords w
    w /= np.sqrt(vals)
    # the n - r eigenvalues past the kept ones are exact zeros
    full = np.zeros(xs.shape[0])
    full[: vals.shape[0]] = vals
    return SpectralDecomposition(full, w, basis=phi, kscale=kscale)


def gram_eigenvalues(k: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """Eigenvalues of G only (descending, length n); cheaper than gram_decomposition."""
    xs = _check_domain(k, xs)
    factor = _factor_route(k, xs)
    if factor is None:
        return _clamp_unit_interval(np.linalg.eigvalsh(normalized_gram(k, xs).values)[::-1])
    c = factor[1]
    del factor  # only Phi^T Phi is solved; Phi is freed before the solve
    vals = np.linalg.eigvalsh(c)[::-1]
    out = np.zeros(xs.shape[0])
    out[: vals.shape[0]] = _clamp_unit_interval(vals)
    return out


def read_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset from CSV with header `x,y`; a UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return _parse_dataset(fh.read())


def _parse_dataset(text: str) -> Dataset:
    """The dataset a CSV text holds, read by numpy's C reader when it can and otherwise
    by the csv module, which gives the same values and owns every error message.

    The C reader refuses every text the csv loop reads differently (quoted fields, `1_000`,
    whitespace-only or short rows, no rows), and a text with a quote never reaches it,
    since csv joins lines across a quote even in a column it ignores.
    """
    if '"' not in text:
        fh = io.StringIO(text, newline="")
        try:
            _check_header(csv.reader(fh))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data" among them
                rows = np.loadtxt(fh, delimiter=",", usecols=(0, 1), comments=None, ndmin=2)
        except (ValueError, Warning, csv.Error):
            pass
        else:
            # contiguous columns, as the csv loop gives: BLAS may round strided vectors differently
            cols = rows.T.copy()
            return Dataset(cols[0], cols[1])
    return _read_dataset(io.StringIO(text, newline=""))


def _check_header(reader) -> None:
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
        raise DomainViolationError("dataset CSV must start with header 'x,y'")


def _read_dataset(fh) -> Dataset:
    reader = csv.reader(fh)
    xs, ys = [], []
    try:
        _check_header(reader)
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise DomainViolationError(f"dataset CSV line {reader.line_num} has no y value")
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DomainViolationError(f"dataset CSV line {reader.line_num}: {exc}") from None
    if not xs:
        raise DomainViolationError("dataset CSV contains no rows")
    return Dataset(np.array(xs), np.array(ys))


def write_dataset_csv(data: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dataset_to_csv(data))


def dataset_to_csv(data: Dataset) -> str:
    buf = io.StringIO()
    buf.write("x,y\n")
    for x, y in zip(data.xs, data.ys):
        buf.write(f"{x:.17g},{y:.17g}\n")
    return buf.getvalue()
