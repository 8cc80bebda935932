"""The balancing-principle selector.

Given fits over a geometric grid, a candidate lambda is accepted when its
estimator stays within a variance-proxy distance of every estimator at
smaller grid points, all distances measured in the weighted empirical norm
|| (G + lambda')^s (.) ||_H. The selection is the largest accepted lambda;
the smallest grid point is always accepted, so the result is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .effdim import SampleErrorParams, effdim_clamped, empirical_effdim, sample_error
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
        if self.sigma < 0 or self.M_bound < 0 or self.bal_factor <= 0:
            raise DomainViolationError("sigma, M >= 0 and bal_factor > 0 required")

    def threshold_multiplier(self, grid_size: int) -> float:
        mult = self.bal_factor
        if self.use_theoretical_constant:
            mult *= np.log(16.0 * grid_size / self.eta) ** 2
        return float(mult)


@dataclass(frozen=True)
class BalancingDiagnostics:
    """Selection output: the chosen lambda, the accepted set, and the evidence."""

    lambda_hat: float
    jplus: tuple[float, ...]
    pairwise_norms: Mapping[tuple[float, float], float]
    thresholds: Mapping[float, float]
    s: float


def empirical_sample_error(eigenvalues: np.ndarray, cfg: BalancingConfig, lam: float) -> float:
    """S_x(n, lambda) + M/(n lambda) from the empirical Gram spectrum, n = len(eigenvalues)."""
    params = SampleErrorParams(sigma=cfg.sigma, M_bound=cfg.M_bound, n=len(eigenvalues))
    return sample_error(params, effdim_clamped(empirical_effdim(eigenvalues, lam)), lam)


def _projected_norm_sq(e: np.ndarray, dec: SpectralDecomposition, lambda_prime: float, s: float) -> float:
    """||(G + lambda')^s (f - f')||_H^2, given e = dec.project(c - c') of the coefficients."""
    # null-space modes carry zero K-weight, so truncated coordinates are exact
    mu = dec.eigenvalues[: dec.rank]
    weights = dec.kscale * mu * (mu + lambda_prime) ** (2.0 * s)
    return float(np.dot(weights, e * e))


def balancing_select(
    fits: np.ndarray, grid: Grid | Sequence[float], dec: SpectralDecomposition, cfg: BalancingConfig
) -> BalancingDiagnostics:
    """Select lambda-hat = max{lambda in grid : all pairwise checks against smaller
    grid points pass}; the smallest grid point passes vacuously.

    `fits` holds one coefficient column per grid lambda, in grid order. `grid`
    is usually a Grid but any ascending lambda sequence is accepted
    (degenerate single-point families included).
    """
    lams = [float(v) for v in (grid.lambdas if isinstance(grid, Grid) else grid)]
    if not lams or sorted(lams) != lams:
        raise IncompleteFamilyError("grid lambdas must be a nonempty ascending sequence")
    fits = np.asarray(fits, dtype=float)
    if fits.shape != (dec.dim, len(lams)):
        raise IncompleteFamilyError(
            f"expected one fit column per grid point, shape {(dec.dim, len(lams))}, got {fits.shape}"
        )

    mult = cfg.threshold_multiplier(len(lams))
    thresholds = {
        lam: mult * lam**cfg.s * empirical_sample_error(dec.eigenvalues, cfg, lam) for lam in lams
    }

    # one projection of all coefficient vectors onto the shared eigenbasis
    proj = dec.project(fits)

    pairwise: dict[tuple[float, float], float] = {}
    accepted = []
    for i, lam in enumerate(lams):
        ok = True
        for j in range(i):
            lam_p = lams[j]
            d = proj[:, i] - proj[:, j]
            norm = float(np.sqrt(max(_projected_norm_sq(d, dec, lam_p, cfg.s), 0.0)))
            pairwise[(lam, lam_p)] = norm
            if norm > thresholds[lam_p]:
                ok = False
        if ok:
            accepted.append(lam)

    return BalancingDiagnostics(
        lambda_hat=max(accepted),
        jplus=tuple(accepted),
        pairwise_norms=pairwise,
        thresholds=thresholds,
        s=cfg.s,
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
