"""Synthetic ground-truth models with explicit spectrum, source condition and noise.

The model lives in sequence space: phi_i = sqrt(kappa^2 t_bar_i) e_i is an
H-orthonormal eigenbasis of the normalized covariance with eigenvalue
t_bar_i, the target is f = sum_i a_i phi_i, and every oracle quantity
(approximation error, optimal lambda, interpolation-norm errors) is an exact
finite computation over the declared spectrum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .effdim import (
    SampleErrorParams,
    effdim_clamped,
    model_effdim,
    sample_error,
)
from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    EmptyJError,
    FullJError,
    InvalidLambdaError,
    NoCrossingError,
)
from .estimators import EstimatorCoefficients
from .grid import BISECTION_LO, BISECTION_MAX_ITER, Grid
from .kernels import Dataset, ExplicitSpectrumKernel, feature_matrix, kappa_squared


@dataclass(frozen=True)
class HolderSource:
    """Target a_i = R * t_bar_i^r * h_i with ||h|| <= 1."""

    r: float
    R: float
    h: np.ndarray

    def __post_init__(self):
        if self.r <= 0 or self.R <= 0:
            raise DomainViolationError("need r > 0 and R > 0")
        h = np.asarray(self.h, dtype=float)
        if np.dot(h, h) > 1.0 + 1e-12:
            raise DomainViolationError("source coefficients h must satisfy ||h|| <= 1")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class IndexFunctionSource:
    """Target a_i = A(t_bar_i) * h_i for an increasing index function A, A(0+) = 0."""

    A: Callable[[float], float]
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if np.dot(h, h) > 1.0 + 1e-12:
            raise DomainViolationError("source coefficients h must satisfy ||h|| <= 1")
        if not self.A(1e-12) < 1e-3:
            raise DomainViolationError("index function must vanish at 0")
        object.__setattr__(self, "h", h)


SourceCondition = Union[HolderSource, IndexFunctionSource]


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise level sigma and its Bernstein constant M (= sigma for Gaussian)."""

    sigma: float
    M_bound: float

    def __post_init__(self):
        if self.sigma < 0 or self.M_bound < 0:
            raise DomainViolationError("sigma and M must be nonnegative")


@dataclass(frozen=True)
class SyntheticModel:
    t_bar: np.ndarray  # normalized spectrum t_i / kappa^2, nonincreasing, in (0, 1]
    kappa2: float
    source: SourceCondition
    noise: NoiseSpec
    b_exponent: float | None = None  # set when the spectrum is polynomial i^{-b}

    def __post_init__(self):
        t = np.asarray(self.t_bar, dtype=float)
        if t.ndim != 1 or t.size == 0 or np.any(t <= 0) or np.any(t > 1.0 + 1e-12):
            raise DomainViolationError("t_bar must be a nonempty sequence in (0, 1]")
        if np.any(np.diff(t) > 0):
            raise DomainViolationError("t_bar must be nonincreasing")
        if self.source.h.shape[0] != t.shape[0]:
            raise DimensionMismatchError("source coefficients must match spectrum length")
        object.__setattr__(self, "t_bar", t)

    @property
    def size(self) -> int:
        return self.t_bar.shape[0]

    def kernel(self) -> ExplicitSpectrumKernel:
        return ExplicitSpectrumKernel(self.t_bar * self.kappa2)

    def target_coefficients(self) -> np.ndarray:
        """Coefficients a_i of the target in the H-orthonormal eigenbasis."""
        if isinstance(self.source, HolderSource):
            return self.source.R * self.t_bar**self.source.r * self.source.h
        a_vals = np.array([self.source.A(float(t)) for t in self.t_bar])
        return a_vals * self.source.h

    def params(self, n: int) -> SampleErrorParams:
        return SampleErrorParams(sigma=self.noise.sigma, M_bound=self.noise.M_bound, n=n)


def source_coefficients(kind: str, size: int) -> np.ndarray:
    """Unit-norm h: 'single' puts all mass on the first mode, 'spread' decays as 1/i."""
    if kind == "single":
        h = np.zeros(size)
        h[0] = 1.0
        return h
    if kind == "spread":
        h = 1.0 / np.arange(1, size + 1, dtype=float)
        return h / np.linalg.norm(h)
    raise DomainViolationError(f"unknown source coefficient kind {kind!r}")


def polynomial_spectrum_model(
    b: float,
    size: int = 1000,
    r: float = 0.5,
    R: float = 1.0,
    sigma: float = 0.3,
    M_bound: float | None = None,
    h: str | np.ndarray = "single",
) -> SyntheticModel:
    """Regular model: raw spectrum t_i = i^{-b}, normalized by kappa^2 = t_1 + 2 sum t_i."""
    if b <= 1.0:
        raise DomainViolationError(f"spectral exponent b must exceed 1, got {b}")
    t = np.arange(1, size + 1, dtype=float) ** (-b)
    kappa2 = kappa_squared(ExplicitSpectrumKernel(t))
    hv = source_coefficients(h, size) if isinstance(h, str) else np.asarray(h, dtype=float)
    return SyntheticModel(
        t_bar=t / kappa2,
        kappa2=kappa2,
        source=HolderSource(r=r, R=R, h=hv),
        noise=NoiseSpec(sigma=sigma, M_bound=sigma if M_bound is None else M_bound),
        b_exponent=b,
    )


def custom_spectrum_model(
    t: np.ndarray,
    r: float = 0.5,
    R: float = 1.0,
    sigma: float = 0.3,
    M_bound: float | None = None,
    h: str | np.ndarray = "single",
) -> SyntheticModel:
    """Model over a user-supplied raw spectrum t (positive nonincreasing)."""
    t = np.asarray(t, dtype=float)
    kappa2 = kappa_squared(ExplicitSpectrumKernel(t))
    hv = source_coefficients(h, t.shape[0]) if isinstance(h, str) else np.asarray(h, dtype=float)
    return SyntheticModel(
        t_bar=t / kappa2,
        kappa2=kappa2,
        source=HolderSource(r=r, R=R, h=hv),
        noise=NoiseSpec(sigma=sigma, M_bound=sigma if M_bound is None else M_bound),
        b_exponent=None,
    )


@dataclass(frozen=True)
class GeneratedSample:
    data: Dataset
    target_coeffs: np.ndarray


def target_values(model: SyntheticModel, xs: np.ndarray) -> np.ndarray:
    """f(x) = sum_i a_i sqrt(kappa^2 t_bar_i) e_i(x) evaluated pointwise."""
    return feature_matrix(model.kernel(), xs) @ model.target_coefficients()


def generate(model: SyntheticModel, n: int, seed: int) -> GeneratedSample:
    """Draw x uniform on [0,1], y = f(x) + Gaussian noise; bit-reproducible per seed."""
    if n < 1:
        raise DomainViolationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.random(n)
    noise = rng.standard_normal(n) * model.noise.sigma
    ys = target_values(model, xs) + noise
    return GeneratedSample(data=Dataset(xs=xs, ys=ys), target_coeffs=model.target_coefficients())


def estimator_basis_coefficients(
    est: EstimatorCoefficients | np.ndarray, model: SyntheticModel, train_xs: np.ndarray
) -> np.ndarray:
    """Expand a fitted estimator in the model eigenbasis: a_hat = Phi^T c.

    With Phi[j,i] = sqrt(kappa^2 t_bar_i) e_i(x_j), the kernel expansion
    sum_j c_j K(x_j, .) has H-orthonormal coordinates (Phi^T c)_i.
    """
    c = est.c if isinstance(est, EstimatorCoefficients) else np.asarray(est, dtype=float)
    return feature_matrix(model.kernel(), train_xs).T @ c


def true_error_norm(a_hat: np.ndarray, a: np.ndarray, t_bar: np.ndarray, s: float) -> float:
    """Interpolation-norm error sqrt(sum t_bar^{2s} (a_hat - a)^2); s=0 is the
    RKHS norm, s=1/2 the L2 norm divided by kappa."""
    a_hat = np.asarray(a_hat, dtype=float)
    a = np.asarray(a, dtype=float)
    t_bar = np.asarray(t_bar, dtype=float)
    if a_hat.shape != a.shape or a.shape != t_bar.shape:
        raise DimensionMismatchError("coefficient and spectrum lengths must agree")
    if not (0.0 <= s <= 0.5):
        raise DomainViolationError(f"s must lie in [0, 1/2], got {s}")
    d = a_hat - a
    return float(np.sqrt(np.sum(t_bar ** (2.0 * s) * d * d)))


def approx_error(model: SyntheticModel, lam: float) -> float:
    """A(lambda): R lambda^r for Holder sources, A(lambda) for index functions."""
    if not (0.0 < lam <= 1.0):
        raise InvalidLambdaError(f"lambda must lie in (0, 1], got {lam}")
    if isinstance(model.source, HolderSource):
        return float(model.source.R * lam**model.source.r)
    return float(model.source.A(lam))


@dataclass(frozen=True)
class ApproxErrorOracle:
    """Approximation-error bound A(.) plus the remainder constant C in d_2 = C/sqrt(n)."""

    A_fn: Callable[[float], float]
    d2_constant: float = 0.0

    @classmethod
    def from_model(cls, model: SyntheticModel) -> "ApproxErrorOracle":
        if isinstance(model.source, HolderSource):
            src = model.source
            # the sqrt(n) remainder only enters for high smoothness r > 1
            c = src.R * src.r if src.r > 1.0 else 0.0
            return cls(A_fn=lambda lam, _r=src.r, _R=src.R: _R * lam**_r, d2_constant=c)
        return cls(A_fn=model.source.A, d2_constant=0.0)

    def a_tilde(self, lam: float, n: int) -> float:
        return float(self.A_fn(lam)) + self.d2_constant / np.sqrt(n)


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


def balance_crossing(a_tilde: Callable[[float], float], s_tilde: Callable[[float], float]) -> float:
    """Unique crossing of an increasing A-bound and a decreasing S-bound in (0, 1]."""
    gap = lambda lam: a_tilde(lam) - s_tilde(lam)
    if gap(BISECTION_LO) > 0.0:
        raise NoCrossingError("A exceeds S already at the lower bracket")
    if gap(1.0) < 0.0:
        raise NoCrossingError("A stays below S on all of (0, 1]")
    return _bisect_increasing(gap, BISECTION_LO, 1.0)


def oracle_lambda_regular(model: SyntheticModel, n: int) -> float:
    """Closed-form balance point for the regular case:
    lambda_n = (sigma^2 / (R^2 n))^{b / (2 b r + b + 1)}."""
    if not isinstance(model.source, HolderSource) or model.b_exponent is None:
        raise DomainViolationError("regular oracle needs a Holder source and polynomial spectrum")
    b, r = model.b_exponent, model.source.r
    ratio = model.noise.sigma**2 / (model.source.R**2 * n)
    return float(ratio ** (b / (2.0 * b * r + b + 1.0)))


def oracle_lambda_balance(
    oracle: ApproxErrorOracle,
    effdim_fn: Callable[[float], float],
    params: SampleErrorParams,
    n: int,
) -> float:
    """lambda_opt = sup{lambda : A(lambda) + d2 <= S(n, lambda) + d1}, found by bisection."""
    if params.n != n:
        params = SampleErrorParams(sigma=params.sigma, M_bound=params.M_bound, n=n)

    def s_tilde(lam: float) -> float:
        return sample_error(params, effdim_clamped(effdim_fn(lam)), lam)

    return balance_crossing(lambda lam: oracle.a_tilde(lam, n), s_tilde)


def rate_exponent(r: float, b: float, s: float) -> float:
    """Exponent of the minimax rate n^{-b(r+s)/(2br+b+1)} in the regular case."""
    if b <= 1.0 or r <= 0 or not (0.0 <= s <= 0.5):
        raise DomainViolationError("need b > 1, r > 0, s in [0, 1/2]")
    return b * (r + s) / (2.0 * b * r + b + 1.0)


def lambda_star(
    grid: Grid,
    oracle: ApproxErrorOracle,
    effdim_fn: Callable[[float], float],
    params: SampleErrorParams,
    n: int,
) -> float:
    """Largest grid point where the A-bound is still dominated by the S-bound."""
    if params.n != n:
        params = SampleErrorParams(sigma=params.sigma, M_bound=params.M_bound, n=n)
    members = [
        float(lam)
        for lam in grid.lambdas
        if oracle.a_tilde(float(lam), n)
        <= sample_error(params, effdim_clamped(effdim_fn(float(lam))), float(lam))
    ]
    if not members:
        raise EmptyJError("A exceeds S at every grid point; grid does not reach the crossing")
    if len(members) == grid.size:
        raise FullJError("A stays below S across the entire grid; crossing not bracketed")
    return max(members)


def model_effdim_fn(model: SyntheticModel) -> Callable[[float], float]:
    """The map lambda -> N(lambda) for the model spectrum."""
    return lambda lam: model_effdim(model.t_bar, lam)


def load_model_json(path: str | Path) -> SyntheticModel:
    """Model configuration document.

    {"spectrum": {"type": "poly", "b": 2.0, "D": 1000} | {"type": "custom", "t": [...]},
     "source": {"type": "holder"|"index", "r": 0.5, "R": 1.0, "h": "single"|"spread"|[...]},
     "noise": {"sigma": 0.3, "M": 0.3}}
    Index sources use the power family A(lambda) = R lambda^r.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def model_from_dict(doc: dict) -> SyntheticModel:
    spec = doc.get("spectrum", {})
    src = doc.get("source", {})
    noise = doc.get("noise", {})
    r = float(src.get("r", 0.5))
    R = float(src.get("R", 1.0))
    h = src.get("h", "single")
    if not isinstance(h, str):
        h = np.asarray(h, dtype=float)
    sigma = float(noise.get("sigma", 0.3))
    M = float(noise.get("M", sigma))
    if spec.get("type", "poly") == "poly":
        model = polynomial_spectrum_model(
            b=float(spec.get("b", 2.0)),
            size=int(spec.get("D", 1000)),
            r=r,
            R=R,
            sigma=sigma,
            M_bound=M,
            h=h,
        )
    else:
        model = custom_spectrum_model(
            t=np.asarray(spec["t"], dtype=float), r=r, R=R, sigma=sigma, M_bound=M, h=h
        )
    if src.get("type", "holder") == "index":
        hv = model.source.h
        model = SyntheticModel(
            t_bar=model.t_bar,
            kappa2=model.kappa2,
            source=IndexFunctionSource(A=lambda lam, _r=r, _R=R: _R * lam**_r, h=hv),
            noise=model.noise,
            b_exponent=model.b_exponent,
        )
    return model
