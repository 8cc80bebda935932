"""Dense symmetric eigendecomposition and truncated spectral decompositions.

Plain eigen-algebra: no eigenvalue is clamped here, and the normalized-Gram
conventions (spectrum inside [0, 1], the scale n kappa^2) belong to
:mod:`lepskii.kernels`. Every operator expression downstream (filters,
fractional powers, effective dimension) reduces to work on the spectral
decomposition produced here.
Decompositions may be *truncated*: eigenvectors are stored only for the
leading ``r`` eigenvalues, and the remaining ``dim - r`` eigenvalues are
exactly zero with an implicit orthonormal completion. ``sym_eigendecompose``
always returns the full form (``r == dim``); the truncated form is produced
by the low-rank Gram route in :mod:`lepskii.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonSymmetricError

SYMMETRY_RTOL = 1e-12


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

    ``kscale`` is the factor relating the kernel matrix to the decomposed one,
    K = kscale * G: n kappa^2 for a normalized Gram decomposition (see
    :func:`lepskii.kernels.gram_decomposition`), 1 for a raw matrix.
    """

    eigenvalues: np.ndarray
    coords: np.ndarray
    basis: np.ndarray | None = None
    kscale: float = 1.0

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
        return SpectralDecomposition(eigenvalues=self.eigenvalues, coords=self.vectors, kscale=self.kscale)


def sym_eigendecompose(m: SymMatrix | np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition, eigenvalues sorted descending; never clamped."""
    if not isinstance(m, SymMatrix):
        m = SymMatrix(np.asarray(m, dtype=float))
    vals, vecs = np.linalg.eigh(m.values)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    return SpectralDecomposition(eigenvalues=vals, coords=vecs)
