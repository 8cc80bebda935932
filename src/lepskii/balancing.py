"""The balancing-principle selector.

Given fits over a geometric grid, a candidate lambda_i is accepted when its
estimator stays within the threshold at lambda' = lambda_j of every estimator at
a smaller grid point lambda_j, all distances measured in the weighted empirical
norm || (G + lambda')^s (.) ||_H. The selection is the largest accepted lambda;
the smallest grid point is always accepted, so the result is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .effdim import SampleErrorParams, Values, effdim_clamped, empirical_effdim, sample_error
from .errors import DegenerateFitError, DomainViolationError, IncompleteFamilyError
from .estimators import FilterMethod, TIKHONOV, fit_from_decomposition, fitted_values
from .grid import Grid
from .kernels import Dataset
from .linalg import SpectralDecomposition


@dataclass(frozen=True)
class BalancingConfig:
    """Norm parameter, confidence level, noise constants and threshold constants.

    The threshold applied at lambda' is
        bal_factor * [log^2(16 |grid| / eta) if use_theoretical_constant] *
        lambda'^s * S_x(n, lambda')
    with S_x the empirical sample error sigma sqrt(max(N_x,1)/(n lambda)) + M/(n lambda).
    The theory's constant is never pinned numerically, so the practical default
    is the bare factor 20; theoretical mode adds the log^2 term evaluated at
    confidence eta/2.
    """

    s: float = 0.5
    eta: float = 0.1
    sigma: float = 1.0
    M_bound: float = 0.0
    use_theoretical_constant: bool = False
    bal_factor: float = 20.0

    def __post_init__(self):
        if not (0.0 <= self.s <= 0.5):
            raise DomainViolationError(f"s must lie in [0, 1/2], got {self.s}")
        if not (0.0 < self.eta < 1.0):
            raise DomainViolationError(f"eta must lie in (0, 1), got {self.eta}")
        if not np.all(np.isfinite([self.sigma, self.M_bound, self.bal_factor])):
            raise DomainViolationError("sigma, M and bal_factor must be finite")
        if self.sigma < 0 or self.M_bound < 0 or self.bal_factor <= 0:
            raise DomainViolationError("sigma, M >= 0 and bal_factor > 0 required")

    def threshold_multiplier(self, grid_size: int) -> float:
        mult = self.bal_factor
        if self.use_theoretical_constant:
            mult *= np.log(16.0 * grid_size / self.eta) ** 2
        return float(mult)


@dataclass(frozen=True)
class BalancingDiagnostics:
    """Selection output: lambda_hat at grid position `index`, the accepted set, and the
    evidence in grid order. `thresholds[j]` is the threshold at lambda' = lambda_j, and
    `pairwise_norms` holds || (G + lambda_j)^s (f_i - f_j) ||_H for each pair i > j in
    `np.tril_indices(m, -1)` order: (1, 0), (2, 0), (2, 1), (3, 0), ..."""

    lambda_hat: float
    index: int
    jplus: tuple[float, ...]
    thresholds: np.ndarray
    pairwise_norms: np.ndarray


def empirical_sample_error(eigenvalues: np.ndarray, cfg: BalancingConfig, lam: Values) -> Values:
    """S_x(n, lambda) + M/(n lambda) from the empirical Gram spectrum, n = len(eigenvalues)."""
    params = SampleErrorParams(sigma=cfg.sigma, M_bound=cfg.M_bound, n=len(eigenvalues))
    return sample_error(params, effdim_clamped(empirical_effdim(eigenvalues, lam)), lam)


def balancing_select(
    fits: np.ndarray, grid: Grid | Sequence[float], dec: SpectralDecomposition, cfg: BalancingConfig
) -> BalancingDiagnostics:
    """Select lambda-hat = max{lambda in grid : all pairwise checks against smaller
    grid points pass}; the smallest grid point passes vacuously.

    `fits` holds one coefficient column per grid lambda, in grid order. `grid`
    is usually a Grid but any ascending lambda sequence is accepted
    (degenerate single-point families included).
    """
    lams = np.asarray(grid.lambdas if isinstance(grid, Grid) else grid, dtype=float)
    if lams.ndim != 1 or not lams.size or np.any(lams[1:] < lams[:-1]):
        raise IncompleteFamilyError("grid lambdas must be a nonempty ascending sequence")
    m = lams.size
    fits = np.asarray(fits, dtype=float)
    if fits.shape != (dec.dim, m):
        raise IncompleteFamilyError(
            f"expected one fit column per grid point, shape {(dec.dim, m)}, got {fits.shape}"
        )

    # lambda'^s one lambda at a time, with Python's float power: numpy's array power
    # differs from it in the last bit on some grid values
    lam_s = np.array([lam**cfg.s for lam in lams.tolist()])
    mult = cfg.threshold_multiplier(m)
    thresholds = mult * lam_s * empirical_sample_error(dec.eigenvalues, cfg, lams)
    # one projection of all coefficient vectors onto the shared eigenbasis, a row per lambda;
    # C order, so that the pair differences are contiguous rows, which np.dot sums in its order
    proj = np.ascontiguousarray(dec.project(fits).T)
    # a row kscale mu (mu + lambda')^{2s} per lambda': weighting e^2, e = dec.project(c - c'), it sums
    # to ||(G + lambda')^s (f - f')||_H^2; null-space modes carry zero K-weight, so truncation is exact
    mu = dec.eigenvalues[: dec.rank]
    weights = dec.kscale * mu * (mu + lams[:, None]) ** (2.0 * cfg.s)
    norms = np.empty(m * (m - 1) // 2)  # pair (i, j) at i (i - 1) / 2 + j
    accepted = np.ones(m, dtype=bool)
    for i in range(1, m):
        # the pairs (i, j < i) in one reduction: stacked 1 x rank by rank x 1 products sum each
        # pair as np.dot does (einsum sums in another order). A row at a time keeps the
        # temporaries at i x rank; all m (m - 1) / 2 pairs at once raised mc-regular's peak RSS.
        diff = proj[i] - proj[:i]
        sq = (weights[:i, None, :] @ (diff * diff)[:, :, None])[:, 0, 0]
        row = norms[i * (i - 1) // 2 : i * (i + 1) // 2]
        row[:] = np.sqrt(np.maximum(sq, 0.0))
        accepted[i] = not np.any(row > thresholds[:i])
    index = int(np.flatnonzero(accepted)[-1])
    return BalancingDiagnostics(
        lambda_hat=float(lams[index]),
        index=index,
        jplus=tuple(lams[accepted].tolist()),
        thresholds=thresholds,
        pairwise_norms=norms,
    )


def estimate_sigma(
    data: Dataset, dec: SpectralDecomposition, lam: float, method: FilterMethod = TIKHONOV
) -> float:
    """Residual-based noise estimate at a small lambda (the grid minimum), with `dec`
    the Gram decomposition of data.xs.

    Outside the theory (the bounds take sigma as given); offered as a practical
    default: sqrt(RSS / (n - df)) with df = N_x(lambda) degrees of freedom.
    """
    n = data.n
    if n < 2:
        raise DegenerateFitError("need at least two observations")
    c = fit_from_decomposition(dec, data.ys, method, lam)
    df = empirical_effdim(dec.eigenvalues, lam)
    if df >= n:
        raise DegenerateFitError(f"degrees of freedom {df:.2f} >= n = {n}")
    rss = float(np.sum((data.ys - fitted_values(dec, c)) ** 2))
    return max(np.sqrt(rss / (n - df)), 1e-12)
