"""Monte-Carlo harness: adaptive selection vs oracle quantities across n and seeds.

Each replication generates data, builds the grid, fits every grid lambda,
runs balancing at s = 1/2 and s = 0, and records exact sequence-space errors
at the selections, at every grid point (minima), at the oracle lambda and at
a hold-out baseline. Replication k always uses seed_base + k; the n-loop
consumes no randomness, so runs are reproducible and replication-parallel.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .balancing import BalancingConfig, balancing_select
from .effdim import empirical_effdim, model_effdim, two_sided_check
from .errors import (
    DegenerateSplitError,
    InsufficientDataError,
    InvalidEtaError,
    LepskiiError,
)
from .estimators import FilterMethod, TIKHONOV, fit_from_decomposition, predict
from .grid import Grid, geometric_grid, heuristic_lambda0, lambda0_from_effdim
from .kernels import Dataset, KernelSpec, gram_decomposition, gram_eigenvalues, gram_scale
from .synthetic import (
    ApproxErrorOracle,
    SyntheticModel,
    estimator_basis_coefficients,
    generate,
    lambda_star,
    model_effdim_fn,
    oracle_lambda_balance,
    true_error_norm,
)

@dataclass(frozen=True)
class ExperimentConfig:
    model: SyntheticModel
    n_values: tuple[int, ...]
    replications: int
    seed_base: int = 0
    grid_q: float = 2.0
    balancing: BalancingConfig = field(default_factory=BalancingConfig)
    filters: tuple[FilterMethod, ...] = (TIKHONOV,)
    lambda0_mode: str | float = "model"  # "model" | "heuristic" | explicit value
    holdout_fraction: float = 0.5
    outputs: Mapping[str, str] = field(default_factory=dict)


@dataclass
class ExperimentRow:
    n: int
    replication: int
    filter: str
    lambda_hat_half: float = float("nan")
    lambda_hat_zero: float = float("nan")
    lambda_star: float = float("nan")
    lambda_oracle: float = float("nan")
    err_s0_at_hat: float = float("nan")
    err_s12_at_hat: float = float("nan")
    err_min_over_grid_s0: float = float("nan")
    err_min_over_grid_s12: float = float("nan")
    err_at_oracle: float = float("nan")
    holdout_lambda: float = float("nan")
    err_at_holdout: float = float("nan")
    wall_time_ms: float = 0.0
    # appended beyond the declared set: one-for-all numerator and failure tag
    err_s0_at_hat_half: float = float("nan")
    error: str = ""


RESULT_COLUMNS = tuple(f.name for f in dataclasses.fields(ExperimentRow))


def holdout_select(
    data: Dataset,
    split_fraction: float,
    grid: Grid,
    k: KernelSpec,
    m: FilterMethod,
) -> float:
    """Grid lambda minimizing validation MSE on a deterministic head/tail split;
    ties break toward larger lambda."""
    if not (0.0 < split_fraction < 1.0):
        raise DegenerateSplitError(f"split fraction must lie in (0, 1), got {split_fraction}")
    n_train = int(np.ceil(split_fraction * data.n))
    if n_train < 1 or n_train >= data.n:
        raise DegenerateSplitError("both split parts must be nonempty")
    xs_tr, ys_tr = data.xs[:n_train], data.ys[:n_train]
    xs_va, ys_va = data.xs[n_train:], data.ys[n_train:]
    dec = gram_decomposition(k, xs_tr)
    kscale = gram_scale(k, n_train)
    fits = fit_from_decomposition(dec, kscale, ys_tr, m, grid.lambdas)
    del dec  # release the decomposition's n_train-row factor before predict builds its matrices
    mse = np.mean((ys_va[:, None] - predict(fits, k, xs_tr, xs_va)) ** 2, axis=0)
    # last index of the minimum, so the larger lambda wins ties
    return float(grid.lambdas[np.flatnonzero(mse == mse.min())[-1]])


def _replication_rows(
    cfg: ExperimentConfig,
    n: int,
    rep: int,
    fixed_grid: Grid | None,
    fixed_lambda_star: float | None,
    lam_oracle: float,
    oracle: ApproxErrorOracle,
    effdim_fn: Callable[[float], float],
) -> list[ExperimentRow]:
    model = cfg.model
    kernel = model.kernel()
    sample = generate(model, n, cfg.seed_base + rep)
    data = sample.data
    a_true = sample.target_coeffs

    t_start = time.perf_counter()
    try:
        # Lifted once here: the benchmark checks the truth-error columns to 1e-12 relative
        # against references recorded with the explicit eigenvectors phi @ w, and fitting
        # through the factored form sums in another order, which moves them by up to 1e-11.
        dec = gram_decomposition(kernel, data.xs, sample.features).lifted()
        kscale = gram_scale(kernel, n)
        if fixed_grid is None:
            lam0 = heuristic_lambda0(dec, n, cfg.grid_q)
            grid = geometric_grid(lam0, cfg.grid_q)
            lam_star = lambda_star(grid, oracle, effdim_fn, model.params(n))
        else:
            grid = fixed_grid
            lam_star = fixed_lambda_star
    except (LepskiiError, np.linalg.LinAlgError) as exc:
        return _failed_rows(cfg, n, rep, exc)
    shared_ms = (time.perf_counter() - t_start) * 1000.0

    at = grid.lambdas.tolist().index
    rows, grid_errs_s12 = [], []
    for filt in cfg.filters:
        row = ExperimentRow(n=n, replication=rep, filter=filt.variant)
        t_f = time.perf_counter()
        errs_s12 = None
        try:
            # one coefficient column per grid lambda, in grid order, then lambda_oracle's
            fits = fit_from_decomposition(
                dec, kscale, data.ys, filt, np.append(grid.lambdas, lam_oracle)
            )
            # one-for-all: the L2 (s = 1/2) choice is used in every norm; s = 0 is its comparison
            diag_half, diag_zero = (
                balancing_select(fits[:, :-1], grid, dec, kscale, dataclasses.replace(cfg.balancing, s=s), n)
                for s in (0.5, 0.0)
            )

            a_hats = estimator_basis_coefficients(fits, sample.features)
            errs_s0 = [true_error_norm(a, a_true, model.t_bar, 0.0) for a in a_hats[:, :-1].T]
            errs_s12 = [true_error_norm(a, a_true, model.t_bar, 0.5) for a in a_hats[:, :-1].T]
            err_oracle = true_error_norm(a_hats[:, -1], a_true, model.t_bar, 0.5)

            row.lambda_hat_half = diag_half.lambda_hat
            row.lambda_hat_zero = diag_zero.lambda_hat
            row.lambda_star = lam_star
            row.lambda_oracle = lam_oracle
            row.err_s0_at_hat = errs_s0[at(diag_zero.lambda_hat)]
            row.err_s12_at_hat = errs_s12[at(diag_half.lambda_hat)]
            row.err_min_over_grid_s0 = min(errs_s0)
            row.err_min_over_grid_s12 = min(errs_s12)
            row.err_at_oracle = err_oracle
            row.err_s0_at_hat_half = errs_s0[at(diag_half.lambda_hat)]
        except (LepskiiError, np.linalg.LinAlgError) as exc:
            row.error = f"{type(exc).__name__}: {exc}"
        row.wall_time_ms = shared_ms + (time.perf_counter() - t_f) * 1000.0
        shared_ms = 0.0  # decomposition cost attributed to the first filter only
        rows.append(row)
        grid_errs_s12.append(errs_s12)

    # The hold-out factors its own half of the points. Release the n-row Phi and
    # eigenvectors first: held through the hold-out, they raise the peak memory.
    del sample, dec
    for i, (filt, errs_s12) in enumerate(zip(cfg.filters, grid_errs_s12)):
        if rows[i].error:
            continue
        t_h = time.perf_counter()
        try:
            holdout_lam = holdout_select(data, cfg.holdout_fraction, grid, kernel, filt)
            rows[i].holdout_lambda = holdout_lam
            rows[i].err_at_holdout = errs_s12[at(holdout_lam)]
        except (LepskiiError, np.linalg.LinAlgError) as exc:
            # a failed row carries no values, whichever stage failed
            rows[i] = ExperimentRow(
                n=n, replication=rep, filter=filt.variant, wall_time_ms=rows[i].wall_time_ms,
                error=f"{type(exc).__name__}: {exc}",
            )
        rows[i].wall_time_ms += (time.perf_counter() - t_h) * 1000.0
    return rows


def _failed_rows(cfg: ExperimentConfig, n: int, rep: int, exc: Exception) -> list[ExperimentRow]:
    """One row per filter carrying the failure tag, so failures are kept, not dropped."""
    tag = f"{type(exc).__name__}: {exc}"
    return [ExperimentRow(n=n, replication=rep, filter=filt.variant, error=tag) for filt in cfg.filters]


def run_experiment(cfg: ExperimentConfig, threads: int = 1, progress=None) -> list[ExperimentRow]:
    """Run the full (n x replication x filter) table; rows in deterministic order.

    Replications run on `threads` worker threads and are collected in order;
    `progress` (a text stream) gets one line per collected replication.
    """
    if cfg.replications < 0:
        raise InsufficientDataError("replications must be >= 0")
    model = cfg.model
    effdim_fn = model_effdim_fn(model)
    oracle = ApproxErrorOracle.from_model(model)

    all_rows: list[ExperimentRow] = []
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        for n in cfg.n_values:
            try:
                lam_oracle = oracle_lambda_balance(oracle, effdim_fn, model.params(n))
                if cfg.lambda0_mode == "heuristic":
                    fixed_grid, fixed_star = None, None
                else:
                    if cfg.lambda0_mode == "model":
                        lam0 = lambda0_from_effdim(effdim_fn, n)
                    else:
                        lam0 = float(cfg.lambda0_mode)
                    fixed_grid = geometric_grid(lam0, cfg.grid_q)
                    fixed_star = lambda_star(fixed_grid, oracle, effdim_fn, model.params(n))
            except LepskiiError as exc:
                for rep in range(cfg.replications):
                    all_rows.extend(_failed_rows(cfg, n, rep, exc))
                continue

            def job(rep: int) -> list[ExperimentRow]:
                return _replication_rows(
                    cfg, n, rep, fixed_grid, fixed_star, lam_oracle, oracle, effdim_fn
                )

            for rep, rows in enumerate(pool.map(job, range(cfg.replications))):
                all_rows.extend(rows)
                if progress is not None:
                    print(f"n={n} replication {rep + 1}/{cfg.replications}", file=progress)
    return all_rows


def fit_rate(rows: Iterable[ExperimentRow], error_column: str):
    """OLS of log(median error) on log(n); the slope estimates the convergence rate."""
    by_n: dict[int, list[float]] = {}
    for row in rows:
        if row.error:
            continue
        val = float(getattr(row, error_column))
        if np.isfinite(val) and val > 0:
            by_n.setdefault(row.n, []).append(val)
    ns = sorted(by_n)
    if len(ns) < 2:
        raise InsufficientDataError("need medians at >= 2 distinct n values")
    medians = [float(np.median(by_n[n])) for n in ns]
    return loglog_fit(np.array(ns, dtype=float), np.array(medians))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float


def loglog_fit(ns: np.ndarray, values: np.ndarray) -> RateFit:
    if ns.shape[0] < 2 or np.any(values <= 0) or np.any(ns <= 0):
        raise InsufficientDataError("log-log fit needs >= 2 positive (n, value) pairs")
    x = np.log(ns)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-24 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return RateFit(slope=float(slope), intercept=float(intercept), r2=float(r2))


def bernstein_bound(n: int, L: float, sigma: float, eta: float) -> float:
    """High-probability deviation bound 2 log(2/eta) (L/n + sigma/sqrt(n))."""
    if not (0.0 < eta < 1.0):
        raise InvalidEtaError(f"eta must lie in (0, 1), got {eta}")
    if n < 1 or L < 0 or sigma < 0:
        raise InsufficientDataError("need n >= 1 and L, sigma >= 0")
    return float(2.0 * np.log(2.0 / eta) * (L / n + sigma / np.sqrt(n)))


@dataclass(frozen=True)
class ConcentrationCell:
    n: int
    lam: float
    delta: float
    applicable: bool
    replications: int
    holds: int

    @property
    def frequency(self) -> float:
        return self.holds / self.replications if self.replications else float("nan")


@dataclass(frozen=True)
class ConcentrationSummary:
    cells: tuple[ConcentrationCell, ...]
    # per n: fraction of replications where factor-5 held at every applicable grid point
    all_event_frequency: Mapping[int, float]
    rep_events: Mapping[int, tuple[bool, ...]]


def concentration_experiment(
    model: SyntheticModel,
    n_values: Sequence[int],
    lambdas: Sequence[float] | None,
    eta: float,
    reps: int,
    seed_base: int = 0,
    q: float = 2.0,
) -> ConcentrationSummary:
    """Empirical frequency of the factor-5 effective-dimension event.

    With lambdas=None the grid is data-driven per replication (heuristic
    smallest point, ratio q); grids then share the power-of-q values, so
    per-(n, lambda) cells aggregate across replications.
    """
    kernel = model.kernel()
    t_bar = model.t_bar
    cells: dict[tuple[int, float], list[int]] = {}
    all_events: dict[int, list[bool]] = {}
    for n in n_values:
        events = []
        for rep in range(reps):
            # same x-draw as generate(): x first from the replication seed
            xs = np.random.default_rng(seed_base + rep).random(n)
            eigs = gram_eigenvalues(kernel, xs)
            if lambdas is None:
                lam0 = heuristic_lambda0(eigs, n, q)
                lams = geometric_grid(lam0, q).lambdas
            else:
                lams = np.asarray(lambdas, dtype=float)
            event = True
            for lam in lams:
                lam = float(lam)
                chk = two_sided_check(
                    model_effdim(t_bar, lam), empirical_effdim(eigs, lam), n, lam, eta
                )
                if chk.factor5_applicable:
                    stats = cells.setdefault((n, lam), [0, 0])
                    stats[0] += 1
                    stats[1] += int(chk.factor5_holds)
                    event = event and chk.factor5_holds
            events.append(event)
        all_events[n] = events

    cell_objs = []
    for (n, lam), (total, holds) in sorted(cells.items()):
        delta = 2.0 * np.log(4.0 / eta) / np.sqrt(n * lam)
        cell_objs.append(
            ConcentrationCell(
                n=n, lam=lam, delta=float(delta), applicable=delta <= 1.0,
                replications=total, holds=holds,
            )
        )
    return ConcentrationSummary(
        cells=tuple(cell_objs),
        all_event_frequency={n: float(np.mean(ev)) for n, ev in all_events.items()},
        rep_events={n: tuple(ev) for n, ev in all_events.items()},
    )


def format_float(v: float) -> str:
    return "%.17g" % v


def rows_to_csv(rows: Iterable[ExperimentRow], timings: bool = False) -> str:
    """Results CSV; wall_time_ms is zeroed by default so output is byte-reproducible."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        rec = []
        for col in RESULT_COLUMNS:
            val = getattr(row, col)
            if col == "wall_time_ms" and not timings:
                val = 0.0
            if isinstance(val, float):
                rec.append(format_float(val))
            else:
                rec.append(str(val))
        writer.writerow(rec)
    return buf.getvalue()


def read_results_csv(path) -> list[ExperimentRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(
                ExperimentRow(
                    n=int(rec["n"]),
                    replication=int(rec["replication"]),
                    filter=rec["filter"],
                    **{
                        col: float(rec[col])
                        for col in RESULT_COLUMNS
                        if col not in ("n", "replication", "filter", "error")
                    },
                    error=rec.get("error", ""),
                )
            )
        return rows


def summarize(rows: Sequence[ExperimentRow]) -> dict:
    """Summary document: fitted slopes, oracle factors and baseline comparisons."""
    summary: dict = {"filters": {}}
    for variant in sorted({r.filter for r in rows}):
        sub = [r for r in rows if r.filter == variant and not r.error]
        entry: dict = {"rows": len(sub)}
        if sub:
            ratio = lambda num, den: [
                getattr(r, num) / getattr(r, den)
                for r in sub
                if getattr(r, den) > 0 and np.isfinite(getattr(r, num))
            ]
            entry["median_oracle_factor_s12"] = float(
                np.median(ratio("err_s12_at_hat", "err_min_over_grid_s12"))
            )
            entry["median_oracle_factor_s0"] = float(
                np.median(ratio("err_s0_at_hat", "err_min_over_grid_s0"))
            )
            entry["median_one_for_all_ratio"] = float(
                np.median(ratio("err_s0_at_hat_half", "err_s0_at_hat"))
            )
            entry["median_holdout_factor_s12"] = float(
                np.median(ratio("err_at_holdout", "err_min_over_grid_s12"))
            )
            entry["inclusion_frequency"] = float(
                np.mean([r.lambda_star <= r.lambda_hat_half for r in sub])
            )
            try:
                fit = fit_rate(sub, "err_s12_at_hat")
                entry["rate_slope_s12"] = fit.slope
                entry["rate_r2_s12"] = fit.r2
            except InsufficientDataError:
                pass
        summary["filters"][variant] = entry
    summary["failed_rows"] = sum(1 for r in rows if r.error)
    return summary
