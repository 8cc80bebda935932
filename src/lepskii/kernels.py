"""Kernel definitions, sup-bound kappa^2, Gram matrices and their spectra.

Coefficient-space convention: an estimator f = sum_j c_j K(x_j, .) is carried
by its coefficient vector c. The normalized empirical covariance acts on
coefficients as c -> G c with G = K / (n kappa^2), and the RKHS inner product
is <c, c'> = c^T K c'. Since K = (n kappa^2) G, both operators share one
eigenbasis and every fractional power is diagonal there.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    EmptySpectrumError,
    NonFiniteError,
)
from .linalg import (
    SpectralDecomposition,
    SymMatrix,
    _clamp_unit_interval,
    sym_eigendecompose,
    truncated_decomposition,
)

# relative cutoff below which factor-route eigenvalues are treated as exact zeros
_EIG_REL_CUTOFF = 1e-14
# frequencies per block in trig_basis
_TRIG_BLOCK = 64


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


def trig_basis(xs: np.ndarray, size: int) -> np.ndarray:
    """Evaluate the first `size` trigonometric basis functions at xs; shape (n, size)."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((xs.shape[0], size))
    out[:, 0] = 1.0
    root2 = np.sqrt(2.0)
    # column 2k - 1 holds the cosine and column 2k the sine of frequency k; frequencies are
    # filled _TRIG_BLOCK at a time so each block of angles stays cache-sized, with the same
    # per-element products as one column at a time
    n_freq = size // 2
    for lo in range(1, n_freq + 1, _TRIG_BLOCK):
        hi = min(lo + _TRIG_BLOCK, n_freq + 1)
        angle = xs[:, None] * (2.0 * np.pi * np.arange(lo, hi))
        out[:, 2 * lo - 1 : 2 * hi - 1 : 2] = root2 * np.cos(angle)
        n_sin = min(hi, (size + 1) // 2) - lo  # the top sine exists only for odd size
        out[:, 2 * lo : 2 * (lo + n_sin) : 2] = root2 * np.sin(angle[:, :n_sin])
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
    xs = _check_domain(k, xs)
    return trig_basis(xs, k.size) * np.sqrt(k.eigenvalues)


def cross_gram(k: KernelSpec, xs_a: np.ndarray, xs_b: np.ndarray) -> np.ndarray:
    """Matrix K(a_i, b_j) for two point sets (features built once when both are one array)."""
    same = xs_a is xs_b
    xs_a = _check_domain(k, xs_a)
    xs_b = _check_domain(k, xs_b)
    if isinstance(k, GaussianKernel):
        diff = xs_a[:, None] - xs_b[None, :]
        return np.exp(-(diff**2) / (2.0 * k.bandwidth**2))
    if isinstance(k, PolynomialKernel):
        return (k.offset + xs_a[:, None] * xs_b[None, :]) ** k.degree
    phi_a = feature_matrix(k, xs_a)
    return phi_a @ (phi_a if same else feature_matrix(k, xs_b)).T


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


def gram(k: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """Dense kernel matrix K_ij = K(x_i, x_j)."""
    return cross_gram(k, xs, xs)


def normalized_gram(k: KernelSpec, xs: np.ndarray) -> SymMatrix:
    """G = K / (n kappa^2); trace(G) <= 1 and spectrum inside [0, 1]."""
    xs = _check_domain(k, xs)
    n = xs.shape[0]
    g = gram(k, xs) / (n * kappa_squared(k))
    g = 0.5 * (g + g.T)
    return SymMatrix(g)


def gram_scale(k: KernelSpec, n: int) -> float:
    """The factor n kappa^2 relating K = gram_scale * G."""
    return n * kappa_squared(k)


def _factor_route(
    k: KernelSpec, xs: np.ndarray, features: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(Phi / sqrt(n kappa^2), its symmetrised D x D Gram) for explicit-spectrum
    kernels with n > D, where G = Phi Phi^T / (n kappa^2) has rank <= D; else None.

    `features`, when given, is feature_matrix(k, xs), built by the caller; it is read
    and never written.
    """
    n = xs.shape[0]
    if not (isinstance(k, ExplicitSpectrumKernel) and n > k.size):
        return None
    scale = np.sqrt(gram_scale(k, n))
    if features is None:
        phi = feature_matrix(k, xs)
        phi /= scale
    else:
        if features.shape != (n, k.size):
            raise DimensionMismatchError(
                f"features of shape {features.shape} do not match {n} points and {k.size} modes"
            )
        phi = features / scale
    c = phi.T @ phi
    c += c.T
    c *= 0.5
    return phi, c


def gram_decomposition(
    k: KernelSpec, xs: np.ndarray, features: np.ndarray | None = None
) -> SpectralDecomposition:
    """Spectral decomposition of the normalized Gram matrix G.

    For explicit-spectrum kernels with n > D this goes through the n x D
    feature factor (eigendecomposing Phi^T Phi / (n kappa^2), D x D) instead
    of the n x n matrix; results agree with the dense route up to round-off.
    Its eigenvectors stay factored through Phi / sqrt(n kappa^2) (see
    SpectralDecomposition.lifted).
    A caller that already holds Phi = feature_matrix(k, xs) passes it as
    `features` so it is not built again; other routes ignore it.
    """
    xs = _check_domain(k, xs)
    factor = _factor_route(k, xs, features)
    if factor is None:
        return sym_eigendecompose(normalized_gram(k, xs), normalized=True)
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
    return truncated_decomposition(vals, w, dim=xs.shape[0], basis=phi)


def gram_eigenvalues(k: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """Eigenvalues of G only (descending, length n); cheaper than gram_decomposition."""
    xs = _check_domain(k, xs)
    factor = _factor_route(k, xs)
    if factor is None:
        return _clamp_unit_interval(np.linalg.eigvalsh(normalized_gram(k, xs).values)[::-1])
    out = np.zeros(xs.shape[0])
    vals = np.linalg.eigvalsh(factor[1])[::-1]
    out[: vals.shape[0]] = _clamp_unit_interval(vals)
    return out


def read_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset from CSV with header `x,y`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _read_dataset(fh)


def _read_dataset(fh) -> Dataset:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
        raise DomainViolationError("dataset CSV must start with header 'x,y'")
    xs, ys = [], []
    for row in reader:
        if not row:
            continue
        if len(row) < 2:
            raise DomainViolationError(f"dataset CSV line {reader.line_num} has no y value")
        xs.append(float(row[0]))
        ys.append(float(row[1]))
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
