"""Synthetic ground-truth models with explicit spectrum, source condition and noise.

The model lives in sequence space: phi_i = sqrt(kappa^2 t_bar_i) e_i is an
H-orthonormal eigenbasis of the normalized covariance with eigenvalue
t_bar_i, the target is f = sum_i a_i phi_i, and every oracle quantity
(approximation error, optimal lambda, interpolation-norm errors) is an exact
finite computation over the declared spectrum.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .effdim import (
    SampleErrorParams,
    Values,
    effdim_clamped,
    model_effdim,
    sample_error,
    scalar_or_array,
)
from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    EmptyJError,
    FullJError,
    NoCrossingError,
)
from .grid import BISECTION_LO, Grid, bisect_increasing
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
    source: HolderSource
    noise: NoiseSpec

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
        return self.source.R * self.t_bar**self.source.r * self.source.h

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
    return custom_spectrum_model(t, r=r, R=R, sigma=sigma, M_bound=M_bound, h=h)


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
    )


@dataclass(frozen=True)
class GeneratedSample:
    data: Dataset
    target_coeffs: np.ndarray
    # Phi = feature_matrix(model.kernel(), data.xs), n x D; reused by the Gram factor
    # and the truth coefficients so one replication builds it once
    features: np.ndarray


def generate(model: SyntheticModel, n: int, seed: int) -> GeneratedSample:
    """Draw x uniform on [0,1], y = f(x) + Gaussian noise; bit-reproducible per seed."""
    if n < 1:
        raise DomainViolationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.random(n)
    noise = rng.standard_normal(n) * model.noise.sigma
    phi = feature_matrix(model.kernel(), xs)
    a = model.target_coefficients()
    ys = phi @ a + noise
    return GeneratedSample(data=Dataset(xs=xs, ys=ys), target_coeffs=a, features=phi)


def estimator_basis_coefficients(c: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Expand fitted estimators in the model eigenbasis: a_hat = Phi^T c.

    With `features` Phi[j,i] = sqrt(kappa^2 t_bar_i) e_i(x_j) at the training points
    (GeneratedSample.features), the kernel expansion sum_j c_j K(x_j, .) has
    H-orthonormal coordinates (Phi^T c)_i; a coefficient matrix (one estimator per
    column) gives one column of coordinates each.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[0] != features.shape[0]:
        raise DimensionMismatchError("coefficient length does not match training points")
    return features.T @ c


def true_error_norm(a_hat: np.ndarray, a: np.ndarray, t_bar: np.ndarray, s: float):
    """Interpolation-norm error sqrt(sum t_bar^{2s} (a_hat - a)^2); s=0 is the
    RKHS norm, s=1/2 the L2 norm divided by kappa. A D x k matrix a_hat (one
    estimator per column) gives an array of k errors, each equal to its column's call."""
    a_hat = np.asarray(a_hat, dtype=float)
    a = np.asarray(a, dtype=float)
    t_bar = np.asarray(t_bar, dtype=float)
    if a_hat.ndim > 2 or a_hat.shape[:1] != a.shape or a.shape != t_bar.shape:
        raise DimensionMismatchError("coefficient and spectrum lengths must agree")
    if not (0.0 <= s <= 0.5):
        raise DomainViolationError(f"s must lie in [0, 1/2], got {s}")
    # each estimator as a contiguous row, summed in the order of a one-vector call
    d = np.ascontiguousarray(a_hat.T) - a
    err = np.sqrt(np.sum(t_bar ** (2.0 * s) * d * d, axis=-1))
    return float(err) if a_hat.ndim == 1 else err


@dataclass(frozen=True)
class ApproxErrorOracle:
    """Approximation-error bound A(lambda) = R lambda^r plus the remainder constant C in
    d_2 = C/sqrt(n)."""

    R: float
    r: float
    d2_constant: float = 0.0

    @classmethod
    def from_model(cls, model: SyntheticModel) -> "ApproxErrorOracle":
        # the sqrt(n) remainder only enters for high smoothness r > 1
        src = model.source
        return cls(R=src.R, r=src.r, d2_constant=src.R * src.r if src.r > 1.0 else 0.0)

    def a_tilde(self, lam: Values, n: int) -> Values:
        """R lambda^r + C / sqrt(n), one value per lambda of a 1-d array."""
        # lambda^r one lambda at a time, with Python's float power: numpy's array power
        # differs from it in the last bit on some grid values
        lam_r = np.reshape([v**self.r for v in np.ravel(lam).tolist()], np.shape(lam))
        return scalar_or_array(self.R * lam_r + self.d2_constant / np.sqrt(n))


def balance_crossing(a_tilde: Callable[[float], float], s_tilde: Callable[[float], float]) -> float:
    """Unique crossing of an increasing A-bound and a decreasing S-bound in (0, 1]."""
    gap = lambda lam: a_tilde(lam) - s_tilde(lam)
    if gap(BISECTION_LO) > 0.0:
        raise NoCrossingError("A exceeds S already at the lower bracket")
    if gap(1.0) < 0.0:
        raise NoCrossingError("A stays below S on all of (0, 1]")
    return bisect_increasing(gap, BISECTION_LO, 1.0)


def oracle_lambda_balance(
    oracle: ApproxErrorOracle,
    effdim_fn: Callable[[float], float],
    params: SampleErrorParams,
) -> float:
    """lambda_opt = sup{lambda : A(lambda) + d2 <= S(n, lambda) + d1} at n = params.n,
    found by bisection."""
    s_tilde = lambda lam: sample_error(params, effdim_clamped(effdim_fn(lam)), lam)
    return balance_crossing(lambda lam: oracle.a_tilde(lam, params.n), s_tilde)


def rate_exponent(r: float, b: float, s: float) -> float:
    """Exponent of the minimax rate n^{-b(r+s)/(2br+b+1)} in the regular case."""
    if b <= 1.0 or r <= 0 or not (0.0 <= s <= 0.5):
        raise DomainViolationError("need b > 1, r > 0, s in [0, 1/2]")
    return b * (r + s) / (2.0 * b * r + b + 1.0)


def lambda_star(
    grid: Grid,
    oracle: ApproxErrorOracle,
    effdim_fn: Callable[[Values], Values],
    params: SampleErrorParams,
) -> float:
    """Largest grid point where the A-bound is still dominated by the S-bound at n = params.n;
    `effdim_fn` maps an array of lambdas to one effective dimension each."""
    lams = grid.lambdas
    s_bound = sample_error(params, effdim_clamped(effdim_fn(lams)), lams)
    members = oracle.a_tilde(lams, params.n) <= s_bound
    if not members.any():
        raise EmptyJError("A exceeds S at every grid point; grid does not reach the crossing")
    if members.all():
        raise FullJError("A stays below S across the entire grid; crossing not bracketed")
    return float(lams[members].max())


def model_effdim_fn(model: SyntheticModel) -> Callable[[Values], Values]:
    """The map lambda -> N(lambda) for the model spectrum, for a scalar or a 1-d lambda array."""
    return lambda lam: model_effdim(model.t_bar, lam)


def load_model_json(path: str | Path) -> SyntheticModel:
    """Model configuration document.

    {"spectrum": {"type": "poly", "b": 2.0, "D": 1000} | {"type": "custom", "t": [...]},
     "source": {"type": "holder", "r": 0.5, "R": 1.0, "h": "single"|"spread"|[...]},
     "noise": {"sigma": 0.3, "M": 0.3}}
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def reject_unknown_keys(doc: dict, known: tuple[str, ...], where: str) -> dict:
    """Return the document section `doc` after checking that it is a JSON object whose
    keys are all in `known`; a misspelt key would otherwise be read as its default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(
            f"unknown key {', '.join(map(repr, unknown))} in {where} (known: {', '.join(known)})"
        )
    return doc


def check_choice(value, allowed: tuple[str, ...], where: str) -> str:
    """Return `value` after checking that it is one of `allowed`; a misspelt value
    would otherwise be read as one of the other choices."""
    if value not in allowed:
        raise ValueError(f"unknown value {value!r} for {where} (allowed: {', '.join(allowed)})")
    return value


def integer(value, where: str) -> int:
    """Return the JSON number `value` as an int after checking that it is integral; int()
    would read 60.7 as 60 and true as 1."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise TypeError(f"{where} must be an integer, got {value!r}")
    return int(value)


def real(value, where: str) -> float:
    """Return the JSON number `value` as a float after checking that it is finite; float()
    would read true as 1.0, and Python's json reads NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise TypeError(f"{where} must be a finite number, got {value!r}")
    return float(value)


@contextmanager
def typed_values(where: str):
    """Decorator: a wrongly typed value in the document `where` (null for a number, a
    number for a list, a fraction for a count) is a ValueError, as every other bad value
    is, not a TypeError."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"wrongly typed value in {where}: {exc}") from None


@typed_values("the model document")
def model_from_dict(doc: dict) -> SyntheticModel:
    reject_unknown_keys(doc, ("spectrum", "source", "noise"), "the model document")
    spec = reject_unknown_keys(doc.get("spectrum", {}), ("type", "b", "D", "t"), "spectrum")
    src = reject_unknown_keys(doc.get("source", {}), ("type", "r", "R", "h"), "source")
    noise = reject_unknown_keys(doc.get("noise", {}), ("sigma", "M"), "noise")
    r = real(src.get("r", 0.5), "source.r")
    R = real(src.get("R", 1.0), "source.R")
    h = src.get("h", "single")
    if not isinstance(h, str):
        h = np.array([real(v, "source.h") for v in h])
    sigma = real(noise.get("sigma", 0.3), "noise.sigma")
    M = real(noise.get("M", sigma), "noise.M")
    if check_choice(spec.get("type", "poly"), ("poly", "custom"), "spectrum.type") == "poly":
        model = polynomial_spectrum_model(
            b=real(spec.get("b", 2.0), "spectrum.b"),
            size=integer(spec.get("D", 1000), "spectrum.D"),
            r=r,
            R=R,
            sigma=sigma,
            M_bound=M,
            h=h,
        )
    else:
        t = np.array([real(v, "spectrum.t") for v in spec["t"]])
        model = custom_spectrum_model(t=t, r=r, R=R, sigma=sigma, M_bound=M, h=h)
    # checked after the spectrum, so a document with both errors reports the spectrum's
    check_choice(src.get("type", "holder"), ("holder",), "source.type")
    return model
