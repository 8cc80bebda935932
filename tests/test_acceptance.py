"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 pins the selection constant at bal_factor = 20 and asserts a
median oracle factor <= 10; at that constant the selector is provably
saturated at the top grid point for this instance scale (see the calibration
scan in scripts/run_calibration.py), so the measured median is 19.98 and the
criterion fails. It is asserted as stated rather than weakened; the measured
value is printed and recorded.
"""

import json
import os

import numpy as np
import pytest

from _oracles import bernstein_bound, brute_force_jplus, model_sample_error, weighted_diff_norm
from lepskii.balancing import BalancingConfig, balancing_select
from lepskii.cli import dispatch
from lepskii.effdim import SampleErrorParams, model_effdim
from lepskii.estimators import TIKHONOV, fit_from_decomposition
from lepskii.experiments import (
    ExperimentConfig,
    concentration_experiment,
    fit_rate,
    run_experiment,
)
from lepskii.grid import geometric_grid, lambda0_from_effdim
from lepskii.kernels import (
    ExplicitSpectrumKernel,
    cross_gram,
    gram_decomposition,
    kappa_squared,
    normalized_gram,
)
from lepskii.synthetic import generate, model_effdim_fn, polynomial_spectrum_model


# replications run one per CPU; tests/conftest.py pins BLAS to one thread, so they do not
# oversubscribe, and run_experiment returns the same rows whatever the thread count
THREADS = len(os.sched_getaffinity(0))


def report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def regular_model(sigma=0.3):
    return polynomial_spectrum_model(b=2.0, size=1000, r=0.5, R=1.0, sigma=sigma)


@pytest.fixture(scope="module")
def pinned_instance_rows():
    """Shared run for criteria 2 and 3: pinned practical constants, n = 1024."""
    cfg = ExperimentConfig(
        model=regular_model(),
        n_values=(1024,),
        replications=100,
        seed_base=0,
        grid_q=2.0,
        balancing=BalancingConfig(s=0.5, eta=0.1, sigma=0.3, M_bound=0.3, bal_factor=20.0),
        filters=(TIKHONOV,),
        lambda0_mode="model",
    )
    return run_experiment(cfg, threads=THREADS)


@pytest.mark.acceptance
def test_c1_effective_dimension_concentration(capsys):
    # factor-5 two-sided event at all data-driven grid points with delta <= 1,
    # b=2, D=1000, n in {500, 2000}, q=2, eta=0.1, 200 replications, >= 90%
    model = regular_model()
    summary = concentration_experiment(
        model, [500, 2000], None, eta=0.1, reps=200, seed_base=1000, q=2.0
    )
    freqs = summary.all_event_frequency
    ok = all(freqs[n] >= 0.90 for n in (500, 2000))
    report(capsys, "criterion 1 (two-sided effective-dimension bound)", ok,
           f"event frequency n=500: {freqs[500]:.3f}, n=2000: {freqs[2000]:.3f}, need >= 0.90")
    assert ok


@pytest.mark.acceptance
def test_c2_adaptive_oracle_factor(capsys, pinned_instance_rows):
    # median err(lambda-hat) / best grid error at the pinned constant bal_factor=20
    rows = [r for r in pinned_instance_rows if not r.error]
    assert len(rows) == 100
    ratios = [r.err_s12_at_hat / r.err_min_over_grid_s12 for r in rows]
    median = float(np.median(ratios))
    ok = median <= 10.0
    report(capsys, "criterion 2 (adaptive oracle factor, pinned bal_factor=20)", ok,
           f"median oracle factor = {median:.2f}, need <= 10; "
           "saturated selector, see decisions ledger and README")
    assert ok, f"measured median oracle factor {median:.2f} > 10 at pinned bal_factor=20"


@pytest.mark.acceptance
def test_c3_one_for_all(capsys, pinned_instance_rows):
    # median err_{s=0}(lambda-hat_{1/2}) / err_{s=0}(lambda-hat_0) <= 3
    rows = [r for r in pinned_instance_rows if not r.error]
    ratios = [r.err_s0_at_hat_half / r.err_s0_at_hat for r in rows]
    median = float(np.median(ratios))
    ok = median <= 3.0
    report(capsys, "criterion 3 (one-for-all)", ok, f"median ratio = {median:.3f}, need <= 3")
    assert ok


@pytest.mark.acceptance
def test_c4_rate_reproduction(capsys):
    # slope of log median L2-type error vs log n within -0.4 +/- 0.15;
    # bal_factor = 2 (calibrated responsive regime, recorded in the ledger)
    cfg = ExperimentConfig(
        model=regular_model(),
        n_values=(256, 512, 1024, 2048, 4096),
        replications=50,
        seed_base=0,
        grid_q=2.0,
        balancing=BalancingConfig(s=0.5, eta=0.1, sigma=0.3, M_bound=0.3, bal_factor=2.0),
        filters=(TIKHONOV,),
        lambda0_mode="model",
    )
    rows = run_experiment(cfg, threads=THREADS)
    fit = fit_rate(rows, "err_s12_at_hat")
    ok = -0.55 <= fit.slope <= -0.25
    report(capsys, "criterion 4 (adaptive rate reproduction)", ok,
           f"fitted slope = {fit.slope:.3f} (r2 = {fit.r2:.3f}), need within -0.4 +/- 0.15")
    assert ok


@pytest.mark.acceptance
def test_c5_lambda0_asymptotics(capsys):
    # slope of log lambda0(n) vs log n within -2/3 +/- 0.05 for b = 2
    fn = model_effdim_fn(regular_model())
    ns = np.array([100, 1000, 10_000, 100_000], dtype=float)
    lam0s = np.array([lambda0_from_effdim(fn, int(n)) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(lam0s), 1)[0])
    ok = abs(slope + 2.0 / 3.0) <= 0.05
    report(capsys, "criterion 5 (lambda0 asymptotics)", ok,
           f"slope = {slope:.4f}, need -0.6667 +/- 0.05")
    assert ok


@pytest.mark.acceptance
def test_c6_inclusion_frequency(capsys):
    # theoretical constant mode, eta = 0.2: lambda-star <= lambda-hat_{1/2} in >= 80% of runs
    cfg = ExperimentConfig(
        model=regular_model(),
        n_values=(1024,),
        replications=100,
        seed_base=0,
        grid_q=2.0,
        balancing=BalancingConfig(
            s=0.5, eta=0.2, sigma=0.3, M_bound=0.3, use_theoretical_constant=True
        ),
        filters=(TIKHONOV,),
        lambda0_mode="model",
    )
    rows = [r for r in run_experiment(cfg, threads=THREADS) if not r.error]
    freq = float(np.mean([r.lambda_star <= r.lambda_hat_half for r in rows]))
    ok = freq >= 0.8
    report(capsys, "criterion 6 (inclusion lambda-star <= lambda-hat)", ok,
           f"frequency = {freq:.3f}, need >= 0.8")
    assert ok


@pytest.mark.acceptance
def test_c7_exact_property_suites(capsys):
    failures = []

    # (a) Tikhonov fit equals the direct linear solve, 1e-8
    for seed in range(5):
        model = polynomial_spectrum_model(b=2.0, size=40, sigma=0.3, h="spread")
        sample = generate(model, 30, seed=seed)
        k = model.kernel()
        c = fit_from_decomposition(
            gram_decomposition(k, sample.data.xs), sample.data.ys, TIKHONOV, 0.07
        )
        kmat = cross_gram(k, sample.data.xs, sample.data.xs)
        direct = np.linalg.solve(kmat + 30 * kappa_squared(k) * 0.07 * np.eye(30), sample.data.ys)
        if np.linalg.norm(c - direct) > 1e-8 * np.linalg.norm(direct):
            failures.append(f"fit-vs-solve seed {seed}")

    # (b) empirical effective dimension: eigenvalue sum equals the direct-trace solve, 1e-9
    rng = np.random.default_rng(0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        mu = np.sort(rng.random(12))[::-1]
        g = q @ np.diag(mu) @ q.T
        lam = float(rng.uniform(0.05, 1.0))
        via_eigs = float(np.sum(mu / (mu + lam)))
        via_solve = float(np.trace(np.linalg.solve(g + lam * np.eye(12), g)))
        if abs(via_eigs - via_solve) > 1e-9:
            failures.append(f"effdim-trace seed {seed}")

    # (c) grid ratio property on all tested grids (sigma > 0)
    t = regular_model().t_bar
    for q_ratio in (1.5, 2.0, 3.0):
        g = geometric_grid(1e-3, q_ratio)
        for n in (100, 10_000):
            params = SampleErrorParams(sigma=0.4, M_bound=0.2, n=n)
            s_vals = [model_sample_error(params, t, float(lam)) for lam in g.lambdas]
            if not all(s_vals[j] < q_ratio * s_vals[j + 1] for j in range(len(s_vals) - 1)):
                failures.append(f"grid-ratio q={q_ratio} n={n}")

    # (d) lambda^s * S strictly decreasing (M > 0 keeps it strict at s = 1/2)
    params = SampleErrorParams(sigma=0.4, M_bound=0.2, n=500)
    lams = np.geomspace(1e-4, 1.0, 40)
    for s in (0.0, 0.25, 0.5):
        vals = [lam**s * model_sample_error(params, t, float(lam)) for lam in lams]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            failures.append(f"lambda^s S decreasing s={s}")

    # (e) lambda * N(lambda) nondecreasing
    vals = [lam * model_effdim(t, float(lam)) for lam in lams]
    if not all(a <= b + 1e-15 for a, b in zip(vals, vals[1:])):
        failures.append("lambda N nondecreasing")

    # (f) interpolation inequality on 100 random instances
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = ExplicitSpectrumKernel(np.sort(rng.random(8))[::-1] + 0.05)
        xs = rng.random(15)
        dec = gram_decomposition(k, xs)
        d = rng.standard_normal(15)
        zero = np.zeros(15)
        s = float(rng.uniform(0.01, 0.49))
        mid = weighted_diff_norm(d, zero, dec, 0.0, s)
        half = weighted_diff_norm(d, zero, dec, 0.0, 0.5)
        base = weighted_diff_norm(d, zero, dec, 0.0, 0.0)
        if mid > half ** (2 * s) * base ** (1 - 2 * s) * (1.0 + 1e-9):
            failures.append(f"interpolation seed {seed}")

    # (g) balancing agrees with the brute-force accepted-set oracle on 100 seeded instances
    for seed in range(100):
        rng = np.random.default_rng(seed)
        model = polynomial_spectrum_model(b=2.0, size=12, sigma=0.4)
        sample = generate(model, 30, seed=seed)
        kernel = model.kernel()
        dec = gram_decomposition(kernel, sample.data.xs)
        grid = geometric_grid(0.04, 2.0)
        fits = np.column_stack(
            [fit_from_decomposition(dec, sample.data.ys, TIKHONOV, float(lam)) for lam in grid.lambdas]
        )
        cfg = BalancingConfig(
            s=float(rng.uniform(0.0, 0.5)),
            sigma=0.4,
            M_bound=0.1,
            bal_factor=float(rng.choice([1.0, 5.0, 20.0])),
        )
        diag = balancing_select(fits, grid, dec, cfg)
        g_dense = normalized_gram(kernel, sample.data.xs).values
        lams = [float(v) for v in grid.lambdas]
        kscale = 30 * kappa_squared(kernel)
        hat, accepted = brute_force_jplus(dict(zip(lams, fits.T)), lams, g_dense, kscale, cfg, 30)
        if diag.lambda_hat != hat or list(diag.jplus) != accepted:
            failures.append(f"balancing-oracle seed {seed}")

    ok = not failures
    report(capsys, "criterion 7 (exact numeric property suites)", ok,
           "all subchecks passed" if ok else f"failed: {failures[:5]}")
    assert ok, failures


@pytest.mark.acceptance
def test_c8_bernstein_bound_monte_carlo(capsys):
    # bounded scalar family: ||xi|| <= a = L/2, E xi^2 = a^2/3 = sigma^2; 1e4 trials
    a_half_range = 1.0
    n, trials = 50, 10_000
    rng = np.random.default_rng(99)
    draws = rng.uniform(-a_half_range, a_half_range, size=(trials, n))
    deviations = np.abs(draws.mean(axis=1))
    exceed = {}
    ok = True
    for eta in (0.05, 0.2):
        bound = bernstein_bound(n, 2 * a_half_range, a_half_range / np.sqrt(3.0), eta)
        exceed[eta] = float(np.mean(deviations > bound))
        ok = ok and exceed[eta] <= eta
    report(capsys, "criterion 8 (deviation bound validity)", ok,
           f"exceedance: eta=0.05 -> {exceed[0.05]:.4f}, eta=0.2 -> {exceed[0.2]:.4f}")
    assert ok


@pytest.mark.acceptance
def test_c9_cli_determinism(capsys, tmp_path):
    model_doc = {
        "spectrum": {"type": "poly", "b": 2.0, "D": 80},
        "source": {"type": "holder", "r": 0.5, "R": 1.0, "h": "single"},
        "noise": {"sigma": 0.3, "M": 0.3},
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc), encoding="utf-8")
    data_path = tmp_path / "data.csv"
    assert dispatch(["simulate", "--model", str(model_path), "--n", "60", "--seed", "3",
                     "--out", str(data_path)]) == 0
    cfg = {"model": model_doc, "n_values": [60], "replications": 2, "seed_base": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    commands = {
        "simulate": ["simulate", "--model", str(model_path), "--n", "50", "--seed", "11"],
        "effdim": ["effdim", "--model", str(model_path), "--n", "100", "--seed", "5"],
        "grid": ["grid", "--model", str(model_path), "--n", "200"],
        "fit": ["fit", "--data", str(data_path), "--kernel", "gaussian:0.25", "--lambda", "0.1"],
        "balance": ["balance", "--data", str(data_path), "--kernel", "gaussian:0.25",
                    "--sigma", "0.3", "--q", "2.0", "--eta", "0.1"],
    }
    mismatched = []
    for name, args in commands.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            mismatched.append(name)

    for tag in ("a", "b"):
        assert dispatch(["experiment", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / f"exp_{tag}")]) == 0
    if (tmp_path / "exp_a" / "results.csv").read_bytes() != (tmp_path / "exp_b" / "results.csv").read_bytes():
        mismatched.append("experiment:results")
    if (tmp_path / "exp_a" / "summary.json").read_bytes() != (tmp_path / "exp_b" / "summary.json").read_bytes():
        mismatched.append("experiment:summary")

    # rate needs >= 2 n values; rerun with a 2-point config for the byte check
    cfg2 = dict(cfg, n_values=[60, 120])
    cfg_path.write_text(json.dumps(cfg2), encoding="utf-8")
    assert dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "exp_c")]) == 0
    for tag in ("a", "b"):
        assert dispatch(["rate", "--results", str(tmp_path / "exp_c" / "results.csv"),
                         "--out", str(tmp_path / f"rate_{tag}.json")]) == 0
    if (tmp_path / "rate_a.json").read_bytes() != (tmp_path / "rate_b.json").read_bytes():
        mismatched.append("rate")

    ok = not mismatched
    report(capsys, "criterion 9 (CLI byte determinism)", ok,
           "all commands byte-identical across reruns" if ok else f"mismatched: {mismatched}")
    assert ok
