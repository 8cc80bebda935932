import io

import numpy as np
import pytest

from _oracles import holdout_tikhonov_lambda
from lepskii.balancing import BalancingConfig
from lepskii.effdim import empirical_effdim, model_effdim, two_sided_check
from lepskii.errors import DegenerateSplitError, InsufficientDataError, InvalidEtaError
from lepskii.estimators import LANDWEBER, TIKHONOV, fit_from_decomposition, predict
from lepskii.experiments import (
    ExperimentConfig,
    ExperimentRow,
    RESULT_COLUMNS,
    bernstein_bound,
    concentration_experiment,
    fit_rate,
    holdout_select,
    loglog_fit,
    read_results_csv,
    rows_to_csv,
    run_experiment,
    summarize,
)
from lepskii.grid import geometric_grid
from lepskii.kernels import Dataset, gram_decomposition, gram_eigenvalues, gram_scale, kappa_squared
from lepskii.synthetic import generate, polynomial_spectrum_model


def _holdout_instance(seed, n=40):
    model = polynomial_spectrum_model(b=2.0, size=20, sigma=0.3, h="spread")
    sample = generate(model, n, seed=seed)
    return model, sample


def test_holdout_brute_force_agreement():
    grid = geometric_grid(0.02, 2.0)
    for seed in range(10):
        model, sample = _holdout_instance(seed)
        kernel = model.kernel()
        lam = holdout_select(sample.data, 0.5, grid, kernel, TIKHONOV)
        # independent exhaustive evaluation
        n_tr = int(np.ceil(0.5 * sample.data.n))
        xs_tr, ys_tr = sample.data.xs[:n_tr], sample.data.ys[:n_tr]
        xs_va, ys_va = sample.data.xs[n_tr:], sample.data.ys[n_tr:]
        dec = gram_decomposition(kernel, xs_tr)
        kscale = gram_scale(kernel, n_tr)
        best, best_mse = None, np.inf
        for cand in grid.lambdas:
            c = fit_from_decomposition(dec, kscale, ys_tr, TIKHONOV, float(cand))
            mse = float(np.mean((ys_va - predict(c, kernel, xs_tr, xs_va)) ** 2))
            if mse <= best_mse:
                best, best_mse = float(cand), mse
        assert lam == best


def test_holdout_matches_direct_tikhonov_solves_on_the_factor_route():
    grid = geometric_grid(0.02, 2.0)
    for seed in range(10):
        model, sample = _holdout_instance(seed, n=80)  # 40 training points > D = 20
        kernel = model.kernel()
        lam = holdout_select(sample.data, 0.5, grid, kernel, TIKHONOV)
        assert lam == holdout_tikhonov_lambda(
            kernel.eigenvalues, kappa_squared(kernel), sample.data.xs, sample.data.ys, grid.lambdas
        )


def test_holdout_tie_breaks_toward_larger_lambda():
    # constant zero target: every lambda fits exactly, so the top grid point wins
    data = Dataset(xs=np.linspace(0.05, 0.95, 10), ys=np.zeros(10))
    model = polynomial_spectrum_model(b=2.0, size=5)
    grid = geometric_grid(0.1, 2.0)
    assert holdout_select(data, 0.5, grid, model.kernel(), TIKHONOV) == 1.0


def test_holdout_degenerate_split():
    data = Dataset(xs=np.array([0.1, 0.9]), ys=np.array([1.0, 2.0]))
    model = polynomial_spectrum_model(b=2.0, size=5)
    grid = geometric_grid(0.5, 2.0)
    with pytest.raises(DegenerateSplitError):
        holdout_select(data, 0.99, grid, model.kernel(), TIKHONOV)  # empty validation part
    with pytest.raises(DegenerateSplitError):
        holdout_select(data, 1.0, grid, model.kernel(), TIKHONOV)


def test_loglog_fit_exact_power_law():
    ns = np.array([10.0, 100.0, 1000.0, 10000.0])
    fit = loglog_fit(ns, ns**-0.4)
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)


def test_loglog_fit_two_points():
    fit = loglog_fit(np.array([10.0, 100.0]), np.array([1.0, 0.1]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_loglog_fit_noisy_power_law():
    rng = np.random.default_rng(5)
    ns = np.geomspace(10, 1e5, 12)
    vals = ns**-0.4 * (1.0 + 0.01 * rng.standard_normal(12))
    fit = loglog_fit(ns, vals)
    assert fit.slope == pytest.approx(-0.4, abs=0.02)
    # closed-form OLS oracle
    x, y = np.log(ns), np.log(vals)
    slope = ((x - x.mean()) @ (y - y.mean())) / ((x - x.mean()) @ (x - x.mean()))
    assert fit.slope == pytest.approx(slope, abs=1e-12)


def test_fit_rate_groups_by_n():
    rows = []
    for n in (100, 1000):
        for rep in range(5):
            rows.append(
                ExperimentRow(n=n, replication=rep, filter="tikhonov", err_s12_at_hat=n**-0.4 * (1 + 0.1 * rep))
            )
    fit = fit_rate(rows, "err_s12_at_hat")
    # medians are n^{-0.4} * 1.2 -> exact slope
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)
    with pytest.raises(InsufficientDataError):
        fit_rate(rows[:5], "err_s12_at_hat")


def test_bernstein_bound_values():
    eta = 2.0 / np.exp(1.0)  # log(2/eta) = 1
    assert bernstein_bound(4, 0.0, 1.0, eta) == pytest.approx(1.0)
    assert bernstein_bound(7, 7.0, 0.0, eta) == pytest.approx(2.0)
    with pytest.raises(InvalidEtaError):
        bernstein_bound(10, 1.0, 1.0, 0.0)


@pytest.mark.slow
def test_bernstein_bound_monte_carlo_validity():
    # uniform(-a, a): ||xi|| <= a = L/2, E xi^2 = a^2/3 = sigma^2
    a = 1.0
    n, trials = 50, 10_000
    rng = np.random.default_rng(17)
    draws = rng.uniform(-a, a, size=(trials, n))
    deviations = np.abs(draws.mean(axis=1))
    for eta in (0.05, 0.2):
        bound = bernstein_bound(n, 2 * a, a / np.sqrt(3.0), eta)
        exceed = float(np.mean(deviations > bound))
        assert exceed <= eta


def test_concentration_equality_case():
    # equispaced design makes the trig features exactly orthonormal, so the
    # empirical Gram spectrum reproduces the model spectrum exactly
    model = polynomial_spectrum_model(b=2.0, size=21, sigma=0.0)
    n = 64
    xs = np.arange(n) / n
    eigs = gram_eigenvalues(model.kernel(), xs)
    top = eigs[:21]
    assert np.allclose(sorted(top, reverse=True), model.t_bar, atol=1e-12)
    for lam in (0.03125, 0.125, 0.5, 1.0):
        chk = two_sided_check(
            model_effdim(model.t_bar, lam), empirical_effdim(eigs, lam), n, lam, 0.1
        )
        assert chk.factor5_holds and chk.general_holds


def test_concentration_experiment_summary():
    model = polynomial_spectrum_model(b=2.0, size=50)
    summary = concentration_experiment(model, [200], None, eta=0.1, reps=10, seed_base=0)
    assert set(summary.all_event_frequency) == {200}
    assert len(summary.rep_events[200]) == 10
    assert all(cell.n == 200 and cell.replications <= 10 for cell in summary.cells)
    # every reported cell was delta-applicable by construction
    assert all(cell.applicable for cell in summary.cells)
    # deterministic reruns
    again = concentration_experiment(model, [200], None, eta=0.1, reps=10, seed_base=0)
    assert again.all_event_frequency == summary.all_event_frequency


def test_concentration_frequency_trend_in_n():
    model = polynomial_spectrum_model(b=2.0, size=80)
    lams = [0.0625, 0.125, 0.25, 0.5, 1.0]
    summary = concentration_experiment(model, [30, 500], lams, eta=0.3, reps=40, seed_base=3)
    freq = {n: [] for n in (30, 500)}
    for cell in summary.cells:
        freq[cell.n].append(cell.frequency)
    assert np.median(freq[500]) >= np.median(freq[30])


def _tiny_config(**overrides):
    model = polynomial_spectrum_model(b=2.0, size=60, sigma=0.3)
    defaults = dict(
        model=model,
        n_values=(60, 120),
        replications=3,
        seed_base=5,
        grid_q=2.0,
        balancing=BalancingConfig(sigma=0.3, M_bound=0.3),
        filters=(TIKHONOV,),
        lambda0_mode="model",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_run_experiment_zero_replications():
    assert run_experiment(_tiny_config(replications=0)) == []


def test_run_experiment_rows_and_determinism():
    cfg = _tiny_config()
    rows_a = run_experiment(cfg)
    rows_b = run_experiment(cfg)
    assert len(rows_a) == 2 * 3
    csv_a = rows_to_csv(rows_a)
    csv_b = rows_to_csv(rows_b)
    assert csv_a == csv_b  # wall time zeroed by default
    assert rows_to_csv(rows_a, timings=True) != csv_a or all(r.wall_time_ms == 0 for r in rows_a)
    for row in rows_a:
        assert row.error == ""
        assert row.err_min_over_grid_s0 <= row.err_s0_at_hat + 1e-15
        assert row.err_min_over_grid_s12 <= row.err_s12_at_hat + 1e-15
        assert row.err_min_over_grid_s12 <= row.err_at_holdout + 1e-15
        assert row.lambda_hat_half in (float(v) for v in geometric_grid(1e-6, 2.0).lambdas)


def test_run_experiment_threads_match_serial():
    cfg = _tiny_config()
    serial = rows_to_csv(run_experiment(cfg, threads=1))
    threaded = rows_to_csv(run_experiment(cfg, threads=3))
    assert serial == threaded


def test_run_experiment_threaded_progress():
    buf = io.StringIO()
    run_experiment(_tiny_config(), threads=2, progress=buf)
    expected = [f"n={n} replication {k}/3" for n in (60, 120) for k in (1, 2, 3)]
    assert buf.getvalue().splitlines() == expected


def test_run_experiment_tags_failed_per_n_setup():
    # a pinned lambda0 = 0.5 grid misses the A/S crossing at n = 40, D = 50: EmptyJError
    cfg = _tiny_config(
        model=polynomial_spectrum_model(b=2.0, size=50, sigma=0.3),
        n_values=(40,),
        replications=2,
        filters=(TIKHONOV, LANDWEBER),
        lambda0_mode=0.5,
    )
    rows = run_experiment(cfg)
    assert [(r.n, r.replication, r.filter) for r in rows] == [
        (40, rep, filt) for rep in (0, 1) for filt in ("tikhonov", "landweber")
    ]
    assert all(r.error.startswith("EmptyJError: ") for r in rows)
    assert summarize(rows)["failed_rows"] == 4


def test_run_experiment_failed_holdout_row_carries_only_its_tag():
    # the hold-out runs after every filter's other columns; its failure still blanks the row
    cfg = _tiny_config(n_values=(60,), replications=1, filters=(TIKHONOV, LANDWEBER), holdout_fraction=1.0)
    rows = run_experiment(cfg)
    assert [r.filter for r in rows] == ["tikhonov", "landweber"]
    for row in rows:
        assert row.error.startswith("DegenerateSplitError: ") and row.wall_time_ms > 0
        values = [c for c in RESULT_COLUMNS if c not in ("n", "replication", "filter", "wall_time_ms", "error")]
        assert all(np.isnan(getattr(row, col)) for col in values)


def test_run_experiment_balances_at_s_half_and_zero_whatever_s_is_configured():
    # one-for-all: the L2 (s = 1/2) selection is the one used in every norm
    rows = {
        s: run_experiment(_tiny_config(balancing=BalancingConfig(s=s, sigma=0.3, M_bound=0.3, bal_factor=2.0)))
        for s in (0.2, 0.5)
    }
    assert rows_to_csv(rows[0.2]) == rows_to_csv(rows[0.5])
    # the selector responds to s on this instance, so the equality is not vacuous
    assert any(r.lambda_hat_half != r.lambda_hat_zero for r in rows[0.5])


def test_replication_feature_matrix_builds_do_not_grow_with_the_grid(monkeypatch):
    # Phi is built once on all n points, by generate, and reused by the Gram factor and
    # the truth coefficients of all grid fits and the oracle fit; the hold-out builds its
    # own n/2-row factor and both sides of its one predict. n >= 2 D + 2 keeps the
    # hold-out half on the factor route too
    from lepskii import estimators, kernels, synthetic

    row_counts = []
    original = kernels.feature_matrix

    def counted(k, xs):
        row_counts.append(len(xs))
        return original(k, xs)

    for module in (kernels, synthetic, estimators):
        monkeypatch.setattr(module, "feature_matrix", counted)
    model = polynomial_spectrum_model(b=2.0, size=20, sigma=0.3)
    builds = {}
    for lam0 in (0.1, 0.001):
        row_counts.clear()
        (row,) = run_experiment(_tiny_config(model=model, n_values=(60,), replications=1, lambda0_mode=lam0))
        assert row.error == ""
        builds[geometric_grid(lam0, 2.0).size] = list(row_counts)
    assert builds == {5: [60, 30, 30, 30], 11: [60, 30, 30, 30]}


def test_run_experiment_multiple_filters():
    cfg = _tiny_config(filters=(TIKHONOV, LANDWEBER), replications=2, n_values=(60,))
    rows = run_experiment(cfg)
    assert [r.filter for r in rows] == ["tikhonov", "landweber"] * 2


def test_results_csv_roundtrip(tmp_path):
    rows = run_experiment(_tiny_config(replications=2, n_values=(60,)))
    path = tmp_path / "results.csv"
    path.write_text(rows_to_csv(rows), encoding="utf-8")
    back = read_results_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a.n == b.n and a.replication == b.replication and a.filter == b.filter
        assert a.lambda_hat_half == b.lambda_hat_half  # 17 digits round-trip exactly
        assert a.err_s12_at_hat == b.err_s12_at_hat


@pytest.mark.slow
def test_oracle_factor_at_calibrated_constant():
    # regular model, n = 512, 50 reps: median adaptive-to-best-grid factor stays
    # below the recorded threshold 10 at the calibrated constant (bal_factor = 2;
    # the default 20 saturates the selector and measures ~15 here, see notes)
    model = polynomial_spectrum_model(b=2.0, size=1000, r=0.5, R=1.0, sigma=0.3)
    cfg = ExperimentConfig(
        model=model,
        n_values=(512,),
        replications=50,
        seed_base=0,
        grid_q=2.0,
        balancing=BalancingConfig(s=0.5, eta=0.1, sigma=0.3, M_bound=0.3, bal_factor=2.0),
        filters=(TIKHONOV,),
        lambda0_mode="model",
    )
    rows = [r for r in run_experiment(cfg) if not r.error]
    ratios = [r.err_s12_at_hat / r.err_min_over_grid_s12 for r in rows]
    med = float(np.median(ratios))
    assert np.isfinite(med) and med <= 10.0


def test_grid_ratio_oracle_step():
    # lambda-star^s S(lambda-star) <= q^{1-s} min over grid of lambda^s (A + S)
    from lepskii.effdim import effdim_clamped, sample_error
    from lepskii.synthetic import ApproxErrorOracle, lambda_star, model_effdim_fn, oracle_lambda_balance

    for n in (200, 2000, 20_000):
        for q in (1.5, 2.0):
            model = polynomial_spectrum_model(b=2.0, size=500, r=0.5, R=1.0, sigma=0.4)
            oracle = ApproxErrorOracle.from_model(model)
            effdim_fn = model_effdim_fn(model)
            params = model.params(n)
            lam_opt = oracle_lambda_balance(oracle, effdim_fn, params)
            grid = geometric_grid(min(lam_opt / 4.0, 0.2), q)
            star = lambda_star(grid, oracle, effdim_fn, params)

            def s_tilde(lam):
                return sample_error(params, effdim_clamped(effdim_fn(lam)), lam)

            for s in (0.0, 0.25, 0.5):
                lhs = star**s * s_tilde(star)
                rhs = min(
                    float(lam) ** s * (oracle.a_tilde(float(lam), n) + s_tilde(float(lam)))
                    for lam in grid.lambdas
                )
                assert lhs <= q ** (1.0 - s) * rhs * (1.0 + 1e-12)


def test_summarize_structure():
    rows = run_experiment(_tiny_config(replications=2, n_values=(60, 120)))
    doc = summarize(rows)
    entry = doc["filters"]["tikhonov"]
    assert entry["rows"] == 4
    assert entry["median_oracle_factor_s12"] >= 1.0
    assert "rate_slope_s12" in entry
    assert doc["failed_rows"] == 0
