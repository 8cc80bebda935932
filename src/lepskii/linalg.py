"""Dense symmetric eigendecomposition and truncated spectral decompositions.

Every operator expression downstream (filters, fractional powers, effective
dimension) reduces to work on the spectral decomposition produced here.
Decompositions may be *truncated*: eigenvectors are stored only for the
leading ``r`` eigenvalues, and the remaining ``dim - r`` eigenvalues are
exactly zero with an implicit orthonormal completion. ``sym_eigendecompose``
always returns the full form (``r == dim``); the truncated form is produced
by the low-rank Gram route in :mod:`lepskii.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    NonSymmetricError,
    NotPositiveSemiDefiniteError,
)

SYMMETRY_RTOL = 1e-12
PSD_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class SymMatrix:
    """Validated dense symmetric matrix (float64, dim x dim)."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix contains NaN or Inf entries")
        scale = np.linalg.norm(a)
        asym = np.linalg.norm(a - a.T)
        if asym > SYMMETRY_RTOL * max(scale, 1e-300):
            raise NonSymmetricError(
                f"asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_RTOL:.0e} relative to ||A||={scale:.3e}"
            )
        object.__setattr__(self, "values", a)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) plus orthonormal eigenvectors of a symmetric matrix.

    ``vectors`` has shape (dim, r) with r <= dim; when r < dim the trailing
    eigenvalues are all exactly zero and their eigenspace is the (implicit)
    orthogonal complement of the stored columns.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def rank(self) -> int:
        """Number of explicitly stored eigenpairs (not the matrix rank)."""
        return self.vectors.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x (vector or stacked columns) w.r.t. the stored eigenvectors."""
        return self.vectors.T @ x


def _clamp_unit_interval(eigenvalues: np.ndarray) -> np.ndarray:
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


def sym_eigendecompose(m: SymMatrix | np.ndarray, normalized: bool = False) -> SpectralDecomposition:
    """Full eigendecomposition, eigenvalues sorted descending.

    With ``normalized=True`` the caller declares the input a normalized Gram
    matrix: eigenvalues are clamped to [0, 1] (round-off only; values beyond
    the clamp tolerance raise). Raw decompositions are never clamped.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(np.asarray(m, dtype=float))
    a = m.values
    if m.dim == 1:
        vals = a[0, :1].copy()
        vecs = np.ones((1, 1))
    else:
        vals, vecs = np.linalg.eigh(a)
        vals = vals[::-1].copy()
        vecs = vecs[:, ::-1].copy()
    if normalized:
        vals = _clamp_unit_interval(vals)
    return SpectralDecomposition(eigenvalues=vals, vectors=vecs)


def truncated_decomposition(eigenvalues: np.ndarray, vectors: np.ndarray, dim: int) -> SpectralDecomposition:
    """Assemble a decomposition from the leading eigenpairs of a dim x dim matrix.

    The supplied eigenvalues must already be descending and account for every
    nonzero eigenvalue; the remaining dim - r eigenvalues are taken to be 0.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    full = np.zeros(dim)
    full[: eigenvalues.shape[0]] = eigenvalues
    return SpectralDecomposition(eigenvalues=full, vectors=np.asarray(vectors, dtype=float))
