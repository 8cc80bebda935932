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

    The eigenvectors are stored as ``basis @ coords`` (dim x r, r <= dim): with
    ``basis`` None, ``coords`` are the eigenvectors themselves; otherwise they are
    coordinates in the columns of ``basis`` (dim x m) and the dim x r product is
    never formed unless asked for. When r < dim the trailing eigenvalues are all
    exactly zero and their eigenspace is the (implicit) orthogonal complement of
    the stored columns.
    """

    eigenvalues: np.ndarray
    coords: np.ndarray
    basis: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def rank(self) -> int:
        """Number of explicitly stored eigenpairs (not the matrix rank)."""
        return self.coords.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """The dim x r eigenvector matrix, multiplied out when stored factored."""
        return self.coords if self.basis is None else self.basis @ self.coords

    def project(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x (vector or stacked columns) w.r.t. the stored eigenvectors."""
        if self.basis is None:
            return self.coords.T @ x
        return self.coords.T @ (self.basis.T @ x)

    def expand(self, e: np.ndarray) -> np.ndarray:
        """The combination of the stored eigenvectors with coefficients e (vector or
        stacked columns); the inverse of project on their span."""
        if self.basis is None:
            return self.coords @ e
        return self.basis @ (self.coords @ e)

    def lifted(self) -> "SpectralDecomposition":
        """The same decomposition with its eigenvectors multiplied out."""
        if self.basis is None:
            return self
        return SpectralDecomposition(eigenvalues=self.eigenvalues, coords=self.vectors)


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
    return SpectralDecomposition(eigenvalues=vals, coords=vecs)


def truncated_decomposition(
    eigenvalues: np.ndarray, coords: np.ndarray, dim: int, basis: np.ndarray | None = None
) -> SpectralDecomposition:
    """Assemble a decomposition from the leading eigenpairs of a dim x dim matrix,
    with eigenvectors ``coords`` or, when ``basis`` is given, ``basis @ coords``.

    The supplied eigenvalues must already be descending and account for every
    nonzero eigenvalue; the remaining dim - r eigenvalues are taken to be 0.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    full = np.zeros(dim)
    full[: eigenvalues.shape[0]] = eigenvalues
    return SpectralDecomposition(eigenvalues=full, coords=np.asarray(coords, dtype=float), basis=basis)
