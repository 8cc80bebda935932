"""Geometric candidate grids and the determination of the smallest grid point.

The grid is anchored at lambda_m = 1 and walks down by the exact ratio q
(lambda_j = q^{j-m}); anchoring at 1 keeps the top point exact and only
loosens the bottom point downward, which is safe for the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .effdim import effdim_clamped, empirical_effdim
from .errors import (
    InvalidLambda0Error,
    InvalidRatioError,
    NoRootError,
    NotReachedError,
)
from .linalg import SpectralDecomposition

BISECTION_LO = 1e-16
BISECTION_MAX_ITER = 200
HEURISTIC_THRESHOLD = 5.0


@dataclass(frozen=True)
class Grid:
    """Strictly increasing geometric grid in (0, 1] with last element exactly 1."""

    lambdas: np.ndarray
    q: float

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        if lams.size < 2:
            raise InvalidRatioError("grid needs at least two points")
        if lams[-1] != 1.0 or np.any(lams <= 0.0):
            raise InvalidLambda0Error("grid must lie in (0, 1] and end at exactly 1")
        ratios = lams[1:] / lams[:-1]
        if np.any(np.abs(ratios - self.q) > 1e-12 * self.q):
            raise InvalidRatioError("grid ratios deviate from q beyond 1e-12 relative")
        object.__setattr__(self, "lambdas", lams)

    @property
    def size(self) -> int:
        return self.lambdas.shape[0]

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])


def geometric_grid(lambda0_target: float, q: float) -> Grid:
    """Grid {q^{j-m} : j = 0..m} with m minimal such that q^{-m} <= lambda0_target."""
    if not q > 1.0:
        raise InvalidRatioError(f"ratio q must exceed 1, got {q}")
    if not (0.0 < lambda0_target < 1.0):
        raise InvalidLambda0Error(f"lambda0 target must lie in (0, 1), got {lambda0_target}")
    # the -1e-12 keeps integral log-ratios from rounding m up; the loop restores exactness
    m = max(1, math.ceil(math.log(1.0 / lambda0_target) / math.log(q) - 1e-12))
    while q ** (-m) > lambda0_target * (1.0 + 1e-12):
        m += 1
    lams = q ** (np.arange(m + 1, dtype=float) - m)
    lams[-1] = 1.0
    return Grid(lambdas=lams, q=float(q))


def _bisect_increasing(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of an increasing function with fn(lo) <= 0 <= fn(hi), to ~1e-10 relative."""
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def lambda0_from_effdim(effdim_fn: Callable[[float], float], n: int) -> float:
    """Solve n lambda = N(lambda) by bisection of the monotone map lambda -> n lambda - N(lambda)."""
    if n < 1:
        raise NoRootError("n must be >= 1")

    def f(lam: float) -> float:
        return n * lam - effdim_fn(lam)

    if f(BISECTION_LO) > 0.0:
        raise NoRootError("n*lambda exceeds N(lambda) at the lower bracket; spectrum too small for this n")
    if f(1.0) < 0.0:
        raise NoRootError("N(lambda) exceeds n*lambda at lambda = 1; no root in (0, 1]")
    return _bisect_increasing(f, BISECTION_LO, 1.0)


def heuristic_lambda0(spectrum: SpectralDecomposition | np.ndarray, n: int, q: float) -> float:
    """Data-driven smallest grid point: walk lambda_j = q^{-j} down from 1 and stop at
    the first j where the sample-error proxy sqrt(max(N_x, 1) / (n lambda)) reaches
    HEURISTIC_THRESHOLD. The proxy leaves out sigma, so the stopping point
    characterizes the spectrum rather than the noise scale.
    """
    if not q > 1.0:
        raise InvalidRatioError(f"ratio q must exceed 1, got {q}")
    # clamping makes the criterion certain to fire by lambda <= 1/(n thr^2), so the
    # abort floor never truncates a walk that must succeed; it stops a walk whose
    # proxy never compares true (a NaN spectrum)
    floor = min(1.0 / n**2, 1.0 / (q * n * HEURISTIC_THRESHOLD**2))
    j = 1
    while True:
        lam = q ** (-j)
        proxy = np.sqrt(effdim_clamped(empirical_effdim(spectrum, lam)) / (n * lam))
        if proxy >= HEURISTIC_THRESHOLD:
            return float(lam)
        if lam < floor:
            raise NotReachedError(
                f"sample-error proxy never reached {HEURISTIC_THRESHOLD} before lambda fell below {floor:.3e}"
            )
        j += 1


@dataclass(frozen=True)
class GridValidation:
    nlam0_ok: bool
    logterm_ok: bool


def validate_grid_conditions(g: Grid, n: int, eta: float) -> GridValidation:
    """Check n lambda_0 >= 2 and 2 log(4 |grid| / eta) <= sqrt(n lambda_0)."""
    nlam0 = n * g.lambda0
    return GridValidation(
        nlam0_ok=bool(nlam0 >= 2.0),
        logterm_ok=bool(2.0 * np.log(4.0 * g.size / eta) <= np.sqrt(nlam0)),
    )
