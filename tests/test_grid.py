import numpy as np
import pytest

from _oracles import model_sample_error
from lepskii.effdim import SampleErrorParams, model_effdim
from lepskii.errors import (
    EmptySpectrumError,
    InvalidLambda0Error,
    InvalidRatioError,
    NoRootError,
    NotReachedError,
)
from lepskii.experiments import loglog_fit
from lepskii.grid import (
    Grid,
    geometric_grid,
    heuristic_lambda0,
    lambda0_from_effdim,
    validate_grid_conditions,
)
from lepskii.kernels import gram_eigenvalues
from lepskii.synthetic import polynomial_spectrum_model


def test_geometric_grid_example():
    g = geometric_grid(0.01, 2.0)
    assert g.size == 8  # ceil(log2 100) = 7 steps
    assert g.lambdas[0] == pytest.approx(0.0078125)
    assert g.lambdas[-1] == 1.0
    assert np.allclose(g.lambdas[1:] / g.lambdas[:-1], 2.0)


def test_geometric_grid_minimal():
    g = geometric_grid(1.0 - 1e-9, 2.0)
    assert np.allclose(g.lambdas, [0.5, 1.0])


def test_geometric_grid_exact_power():
    g = geometric_grid(0.5, 2.0)
    assert g.lambdas[0] == 0.5 and g.lambdas[-1] == 1.0 and g.size == 2


def test_geometric_grid_lambda0_never_exceeds_target():
    for target in (0.3, 0.25, 0.1, 0.0099999, 1e-5):
        for q in (1.3, 2.0, 3.7):
            g = geometric_grid(target, q)
            assert g.lambdas[0] <= target * (1 + 1e-12)
            assert g.lambdas[0] * q > target * (1 - 1e-12)  # minimal m


def test_geometric_grid_errors():
    with pytest.raises(InvalidRatioError):
        geometric_grid(0.1, 1.0)
    with pytest.raises(InvalidLambda0Error):
        geometric_grid(0.0, 2.0)
    with pytest.raises(InvalidLambda0Error):
        geometric_grid(1.5, 2.0)


def test_grid_size_bound():
    # |grid| <= (1/log q + 1) log n whenever lambda0 >= 2/n
    for n, q in ((100, 2.0), (10_000, 1.5), (100_000, 3.0)):
        lam0 = 2.0 / n
        g = geometric_grid(lam0, q)
        if g.lambda0 >= 2.0 / n:
            assert g.size <= (1.0 / np.log(q) + 1.0) * np.log(n)


def test_lambda0_single_mode_closed_form():
    # n = 1, N(lam) = 1/(1 + lam): root of lam (1 + lam) = 1 is the golden-ratio conjugate
    lam0 = lambda0_from_effdim(lambda lam: 1.0 / (1.0 + lam), 1)
    assert lam0 == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-9)


def test_lambda0_constant_effdim():
    assert lambda0_from_effdim(lambda lam: 1.0, 4) == pytest.approx(0.25, abs=1e-10)


def test_lambda0_residual_tolerance():
    fn = lambda lam: model_effdim(t_poly(), lam)
    for n in (100, 10_000):
        lam0 = lambda0_from_effdim(fn, n)
        assert abs(n * lam0 - fn(lam0)) <= 1e-8 * n * lam0


def t_poly(b=2.0, size=1000):
    t = np.arange(1, size + 1, dtype=float) ** -b
    return t / (t[0] + 2 * t[1:].sum())


def test_lambda0_slope_matches_minus_b_over_b_plus_one():
    fn = lambda lam: model_effdim(t_poly(), lam)
    ns = np.array([100, 1000, 10_000, 100_000], dtype=float)
    lam0s = np.array([lambda0_from_effdim(fn, int(n)) for n in ns])
    fit = loglog_fit(ns, lam0s)
    assert fit.slope == pytest.approx(-2.0 / 3.0, abs=0.05)


def test_lambda0_monotone_in_n():
    fn = lambda lam: model_effdim(t_poly(), lam)
    ns = [50, 200, 1000, 5000]
    lam0s = [lambda0_from_effdim(fn, n) for n in ns]
    assert all(a > b for a, b in zip(lam0s, lam0s[1:]))
    nlam = [n * l for n, l in zip(ns, lam0s)]
    assert all(a <= b + 1e-12 for a, b in zip(nlam, nlam[1:]))


def test_lambda0_no_root():
    with pytest.raises(NoRootError):
        lambda0_from_effdim(lambda lam: 0.0, 10)


def test_heuristic_walk_single_mode():
    # n = 1, spectrum (1): sqrt(max(N_x,1)/lam) crosses 5 at lam = 2^-5
    lam0 = heuristic_lambda0(np.array([1.0]), 2.0)
    assert lam0 == pytest.approx(0.03125)


def test_heuristic_stops_at_first_step():
    # N_x <= n bounds the first-step proxy by sqrt(q), so stopping at once needs q >= 25:
    # 100 unit eigenvalues at q = 30 give sqrt(N_x(1/30) / (100/30)) = sqrt(900/31) = 5.39
    lam0 = heuristic_lambda0(np.ones(100), 30.0)
    assert lam0 == pytest.approx(1.0 / 30.0)


def test_heuristic_agrees_with_effdim_root():
    # The heuristic stops where N_x = thr^2 n lam while the root solves N_x = n lam;
    # for N ~ lam^{-1/b} the separation is thr^{2b/(b+1)} (times one grid step), so
    # with thr = 5, b = 2, q = 2 the heuristic sits a factor ~8.5-17 below the root.
    model = polynomial_spectrum_model(b=2.0, size=400)
    rng = np.random.default_rng(21)
    n = 3000
    q = 2.0
    xs = rng.random(n)
    eigs = gram_eigenvalues(model.kernel(), xs)
    lam_h = heuristic_lambda0(eigs, q=q)
    lam_r = lambda0_from_effdim(lambda lam: float(np.sum(eigs / (eigs + lam))), n)
    separation = 25.0 ** (2.0 / 3.0)
    assert lam_h <= lam_r
    assert lam_r <= lam_h * separation * q * 1.5


def test_heuristic_not_reached():
    # a NaN proxy never reaches the threshold; the floor guard ends the walk
    with pytest.raises(NotReachedError):
        heuristic_lambda0(np.r_[1.0, np.nan, np.zeros(48)], 2.0)


def test_heuristic_rejects_an_empty_spectrum():
    # it used to raise ZeroDivisionError from the walk's floor 1 / n^2
    with pytest.raises(EmptySpectrumError):
        heuristic_lambda0(np.array([]), 2.0)


def test_validate_grid_conditions_example():
    g = geometric_grid(0.01, 2.0)
    # lambda0 = 0.0078125 -> n lambda0 = 7.8125 >= 2; log term 2 log(4*8/0.1) vs sqrt
    val = validate_grid_conditions(g, 1000, 0.1)
    assert val.nlam0_ok
    assert 2.0 * np.log(4.0 * g.size / 0.1) > np.sqrt(1000 * g.lambda0)
    assert not val.logterm_ok


def test_validate_grid_boundary_inclusive():
    g = Grid(lambdas=np.array([0.5, 1.0]), q=2.0)
    assert validate_grid_conditions(g, 4, 0.5).nlam0_ok  # n lambda0 = 2 exactly


def test_validate_grid_asymptotic_regime():
    g = Grid(lambdas=np.array([0.5, 1.0]), q=2.0)
    val = validate_grid_conditions(g, 10**8, 0.99)
    assert val.nlam0_ok and val.logterm_ok


def test_grid_ratio_property_omega():
    # S(n, lam_j) < q S(n, lam_{j+1}) along every tested grid (sigma > 0)
    spectra = [t_poly(2.0, 500), t_poly(1.5, 500), t_poly(3.0, 200)]
    for t in spectra:
        for q in (1.5, 2.0):
            g = geometric_grid(1e-3, q)
            for n in (100, 10_000):
                params = SampleErrorParams(sigma=0.7, M_bound=0.3, n=n)
                s_vals = [model_sample_error(params, t, float(lam)) for lam in g.lambdas]
                for j in range(len(s_vals) - 1):
                    assert s_vals[j] < q * s_vals[j + 1]


def test_grid_ratio_validation():
    with pytest.raises(InvalidRatioError):
        Grid(lambdas=np.array([0.1, 0.5, 1.0]), q=2.0)
    with pytest.raises(InvalidLambda0Error):
        Grid(lambdas=np.array([0.25, 0.5]), q=2.0)
