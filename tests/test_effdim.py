import dataclasses

import numpy as np
import pytest

from _oracles import model_sample_error
from lepskii.effdim import (
    SampleErrorParams,
    TwoSidedCheck,
    effdim_clamped,
    empirical_effdim,
    model_effdim,
    sample_error,
    two_sided_check,
)
from lepskii.errors import DimensionMismatchError, EmptySpectrumError, InvalidEtaError, InvalidLambdaError
from lepskii.experiments import loglog_fit
from lepskii.grid import geometric_grid


def test_empirical_effdim_scalar():
    assert empirical_effdim(np.array([1.0]), 1.0) == pytest.approx(0.5)


def test_empirical_effdim_trace_upper_bound():
    rng = np.random.default_rng(1)
    mu = np.sort(rng.random(10))[::-1]
    assert empirical_effdim(mu, 1.0) <= mu.sum()


def test_empirical_effdim_against_direct_trace_solve():
    mu = np.array([0.5, 0.25, 0.0])
    val = empirical_effdim(mu, 0.25)
    assert val == pytest.approx(7.0 / 6.0)
    # independent path: tr((G + lam I)^{-1} G) by direct linear solves
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = q @ np.diag(mu) @ q.T
    lam = 0.25
    x = np.linalg.solve(g + lam * np.eye(3), g)
    assert abs(val - np.trace(x)) <= 1e-9


def test_model_effdim_single_mode():
    assert model_effdim(np.array([1.0]), 1.0) == pytest.approx(0.5)


def test_model_effdim_monotone_decreasing():
    t = np.arange(1, 1001, dtype=float) ** -2.0
    t /= t.sum()
    lams = np.geomspace(1e-4, 1.0, 40)
    vals = [model_effdim(t, lam) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_model_effdim_power_law_slope():
    # N(lam) ~ lam^{-1/b} for t_i ~ i^{-b}: slope of log N vs log(1/lam) near 1/2 for b=2
    t = 0.4 * np.arange(1, 5001, dtype=float) ** -2.0
    lams = np.geomspace(1e-4, 1e-2, 12)
    vals = np.array([model_effdim(t, lam) for lam in lams])
    fitres = loglog_fit(1.0 / lams, vals)
    assert fitres.slope == pytest.approx(0.5, abs=0.05)


def test_model_effdim_errors():
    with pytest.raises(EmptySpectrumError):
        model_effdim(np.array([]), 0.5)
    with pytest.raises(InvalidLambdaError):
        model_effdim(np.array([0.5]), 0.0)
    # an array is checked entry by entry, and the first bad entry is named
    with pytest.raises(InvalidLambdaError, match="got 0.0"):
        model_effdim(np.array([0.5]), np.array([0.5, 0.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        model_effdim(np.array([0.5]), np.full((2, 2), 0.5))


def test_effdim_clamped():
    assert effdim_clamped(0.3) == 1.0
    assert effdim_clamped(1.0) == 1.0
    assert effdim_clamped(7.0 / 6.0) == pytest.approx(7.0 / 6.0)


def test_sample_error_values():
    assert sample_error(SampleErrorParams(1.0, 0.0, 4), 1.0, 1.0) == pytest.approx(0.5)
    assert sample_error(SampleErrorParams(0.0, 2.0, 4), 1.0, 0.5) == pytest.approx(1.0)
    val = sample_error(SampleErrorParams(1.0, 1.0, 100), 7.0 / 6.0, 0.25)
    assert val == pytest.approx(0.21602 + 0.04, abs=1e-5)
    # M = 0 leaves only the leading term
    val_no_rem = sample_error(SampleErrorParams(1.0, 0.0, 100), 7.0 / 6.0, 0.25)
    assert val_no_rem == pytest.approx(0.21602, abs=1e-5)


def test_lambda_n_of_lambda_nondecreasing():
    t = np.arange(1, 501, dtype=float) ** -1.5
    t /= 2 * t.sum()
    lams = np.geomspace(1e-5, 1.0, 60)
    vals = np.array([lam * model_effdim(t, lam) for lam in lams])
    assert np.all(np.diff(vals) >= -1e-15)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5])
def test_lambda_pow_s_sample_error_strictly_decreasing_with_remainder(s):
    t = np.arange(1, 301, dtype=float) ** -2.0
    t /= 2 * t.sum()
    params = SampleErrorParams(sigma=0.5, M_bound=0.5, n=200)
    lams = np.geomspace(1e-4, 1.0, 50)
    vals = np.array([lam**s * model_sample_error(params, t, lam) for lam in lams])
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.49])
def test_lambda_pow_s_sample_error_strictly_decreasing_no_remainder(s):
    t = np.arange(1, 301, dtype=float) ** -2.0
    t /= 2 * t.sum()
    params = SampleErrorParams(sigma=0.5, M_bound=0.0, n=200)
    lams = np.geomspace(1e-4, 1.0, 50)
    vals = np.array([lam**s * model_sample_error(params, t, lam) for lam in lams])
    assert np.all(np.diff(vals) < 0)
    # s = 1/2 with M = 0 is exactly flat on the clamped region, so only nonincrease holds there
    flat = np.array([np.sqrt(lam) * model_sample_error(params, t, lam) for lam in lams])
    assert np.all(np.diff(flat) <= 1e-15)


def test_two_sided_check_equality_case():
    chk = two_sided_check(3.0, 3.0, 100, 0.5, 0.1)
    assert chk.general_holds and chk.factor5_holds


def test_two_sided_check_derived_example():
    # delta = 2 log(4/eta)/sqrt(n lam) = 0.1 via eta = 4/e^2, n lam = 1600
    eta = 4.0 / np.exp(2.0)
    chk = two_sided_check(25.0, 0.5, 1600, 1.0, eta)
    assert chk.delta == pytest.approx(0.1)
    # sqrt(max(25,1)) = 5 vs (1 + 0.4) sqrt(max(0.5,1)) = 1.4
    assert not chk.general_holds
    # factor-5 sits exactly on its inclusive boundary here: (1/5) * 5 = sqrt(max(0.5, 1))
    assert chk.factor5_applicable and chk.factor5_holds


def test_two_sided_check_delta_to_zero_limit():
    for n in (10**4, 10**8):
        chk = two_sided_check(2.0, 2.0000001, n, 1.0, 0.5)
        if n == 10**8:
            assert chk.delta < 0.01
        assert chk.general_holds and chk.factor5_holds


def test_two_sided_check_invalid_eta():
    with pytest.raises(InvalidEtaError):
        two_sided_check(1.0, 1.0, 10, 0.5, 1.5)


def test_lambda_array_calls_equal_the_scalar_calls_bit_for_bit():
    # each lambda's entry is summed over the contiguous spectrum as its scalar call sums it
    rng = np.random.default_rng(11)
    mu = np.sort(rng.random(300) ** 6)[::-1]
    t = np.arange(1, 501, dtype=float) ** -2.0
    t /= 2.0 * t.sum()
    lams = geometric_grid(1e-5, 1.5).lambdas
    n, p = 300, SampleErrorParams(sigma=0.3, M_bound=0.2, n=300)
    each = lambda fn: [fn(lam) for lam in lams.tolist()]
    assert np.array_equal(empirical_effdim(mu, lams), each(lambda lam: empirical_effdim(mu, lam)))
    assert np.array_equal(model_effdim(t, lams), each(lambda lam: model_effdim(t, lam)))
    s_of = lambda lam: sample_error(p, effdim_clamped(empirical_effdim(mu, lam)), lam)
    assert np.array_equal(s_of(lams), each(s_of))
    check_of = lambda lam: two_sided_check(model_effdim(t, lam), empirical_effdim(mu, lam), n, lam, 0.1)
    grid_check, scalar_checks = check_of(lams), each(check_of)
    for field in dataclasses.fields(TwoSidedCheck):
        assert np.array_equal(getattr(grid_check, field.name), [getattr(c, field.name) for c in scalar_checks])
    # the grid crosses delta = 1 and both outcomes of the general check occur, so no field is constant
    assert 0 < grid_check.factor5_applicable.sum() < lams.size
    assert 0 < grid_check.general_holds.sum() < lams.size
    # a scalar in gives a scalar out
    assert type(empirical_effdim(mu, 0.5)) is float and type(check_of(0.5).factor5_holds) is bool
