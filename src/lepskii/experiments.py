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
import functools
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balancing import BalancingConfig, balancing_select
from .effdim import empirical_effdim, model_effdim, two_sided_check
from .errors import (
    DegenerateSplitError,
    DomainViolationError,
    InsufficientDataError,
    InvalidRatioError,
    LepskiiError,
)
from .estimators import FilterMethod, TIKHONOV, fit_from_decomposition, predict
from .grid import Grid, geometric_grid, heuristic_lambda0, lambda0_from_effdim
from .kernels import Dataset, KernelSpec, gram_decomposition, gram_eigenvalues
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

    def __post_init__(self):
        if self.replications < 0:
            raise InsufficientDataError("replications must be >= 0")
        if not self.grid_q > 1.0:
            raise InvalidRatioError(f"grid_q must exceed 1, got {self.grid_q}")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise DegenerateSplitError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}")


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
FLOAT_COLUMNS = tuple(c for c in RESULT_COLUMNS if c not in ("n", "replication", "filter", "error"))


def holdout_select(
    data: Dataset,
    split_fraction: float,
    grid: Grid,
    k: KernelSpec,
    filters: Sequence[FilterMethod],
) -> list[int]:
    """Grid position, per filter, of the lambda minimizing validation MSE on a
    deterministic head/tail split; ties break toward larger lambda. The training part
    is decomposed once, and all filters' fits are predicted in one call."""
    if not (0.0 < split_fraction < 1.0):
        raise DegenerateSplitError(f"split fraction must lie in (0, 1), got {split_fraction}")
    n_train = int(np.ceil(split_fraction * data.n))
    if n_train < 1 or n_train >= data.n:
        raise DegenerateSplitError("both split parts must be nonempty")
    xs_tr, ys_tr = data.xs[:n_train], data.ys[:n_train]
    xs_va, ys_va = data.xs[n_train:], data.ys[n_train:]
    dec = gram_decomposition(k, xs_tr)
    fits = np.hstack([fit_from_decomposition(dec, ys_tr, m, grid.lambdas) for m in filters])
    del dec  # release the decomposition's n_train-row factor before predict builds its matrices
    mse = np.mean((ys_va[:, None] - predict(fits, k, xs_tr, xs_va)) ** 2, axis=0)
    # last index of each filter's minimum, so the larger lambda wins ties
    return [int(np.flatnonzero(e == e.min())[-1]) for e in mse.reshape(len(filters), grid.size)]


def _replication_rows(cfg: ExperimentConfig, n: int, rep: int) -> list[ExperimentRow]:
    model = cfg.model
    kernel = model.kernel()
    try:
        # The truth at n and a model or pinned grid come before the draw: an n they fail at
        # tags every replication alike and never reaches generate. Built after the decomposition,
        # the grid's temporaries raised mc-regular's peak RSS from 155 to 179 MB in some runs.
        effdim_fn = model_effdim_fn(model)
        oracle = ApproxErrorOracle.from_model(model)
        params = model.params(n)
        lam_oracle = oracle_lambda_balance(oracle, effdim_fn, params)
        if cfg.lambda0_mode != "heuristic":
            model_lam0 = cfg.lambda0_mode == "model"
            lam0 = lambda0_from_effdim(effdim_fn, n) if model_lam0 else float(cfg.lambda0_mode)
            grid = geometric_grid(lam0, cfg.grid_q)
            lam_star = lambda_star(grid, oracle, effdim_fn, params)
        sample = generate(model, n, cfg.seed_base + rep)
        t_start = time.perf_counter()
        # Lifted once here: the benchmark checks the truth-error columns to 1e-12 relative
        # against references recorded with the explicit eigenvectors phi @ w, and fitting
        # through the factored form sums in another order, which moves them by up to 1e-11.
        dec = gram_decomposition(kernel, sample.data.xs, sample.features).lifted()
        if cfg.lambda0_mode == "heuristic":
            grid = geometric_grid(heuristic_lambda0(dec.eigenvalues, cfg.grid_q), cfg.grid_q)
            lam_star = lambda_star(grid, oracle, effdim_fn, params)
    except (LepskiiError, np.linalg.LinAlgError) as exc:
        return _failed_rows(cfg, n, rep, exc)
    data = sample.data
    shared_ms = (time.perf_counter() - t_start) * 1000.0

    # Per filter, its failure tag, or balancing's grid positions at s = 1/2 and s = 0 and the
    # errors at s = 0 and s = 1/2 at each grid lambda, then lambda_oracle. Rows come last.
    outcomes, wall_ms = [], []
    for filt in cfg.filters:
        t_f = time.perf_counter()
        try:
            # one coefficient column per grid lambda, in grid order, then lambda_oracle's
            fits = fit_from_decomposition(dec, data.ys, filt, np.append(grid.lambdas, lam_oracle))
            # one-for-all: the L2 (s = 1/2) choice is used in every norm; s = 0 is its comparison
            at_half, at_zero = (
                balancing_select(fits[:, :-1], grid, dec, dataclasses.replace(cfg.balancing, s=s)).index
                for s in (0.5, 0.0)
            )
            a_hats = estimator_basis_coefficients(fits, sample.features)
            errs_s0, errs_s12 = (
                true_error_norm(a_hats, sample.target_coeffs, model.t_bar, s) for s in (0.0, 0.5)
            )
            outcomes.append((at_half, at_zero, errs_s0, errs_s12))
        except (LepskiiError, np.linalg.LinAlgError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
        wall_ms.append(shared_ms + (time.perf_counter() - t_f) * 1000.0)
        shared_ms = 0.0  # decomposition cost attributed to the first filter only

    # The hold-out factors its own half of the points. Release the n-row Phi and
    # eigenvectors first: held through the hold-out, they raise the peak memory.
    del sample, dec
    fitted = [i for i, out in enumerate(outcomes) if not isinstance(out, str)]
    if fitted:
        t_h = time.perf_counter()
        try:
            filters = [cfg.filters[i] for i in fitted]
            for i, at in zip(fitted, holdout_select(data, cfg.holdout_fraction, grid, kernel, filters)):
                outcomes[i] += (at,)
        except (LepskiiError, np.linalg.LinAlgError) as exc:
            for i in fitted:
                outcomes[i] = f"{type(exc).__name__}: {exc}"
        wall_ms[fitted[0]] += (time.perf_counter() - t_h) * 1000.0

    rows = []
    for filt, out, ms in zip(cfg.filters, outcomes, wall_ms):
        row = ExperimentRow(n=n, replication=rep, filter=filt.variant, wall_time_ms=ms)
        if isinstance(out, str):  # a failed row carries no values, whichever stage failed
            row.error = out
        else:
            half, zero, e0, e12, held = out  # grid positions by s = 1/2, s = 0 and hold-out
            lams = grid.lambdas
            row.lambda_hat_half, row.lambda_hat_zero, row.holdout_lambda = lams[[half, zero, held]].tolist()
            row.lambda_star, row.lambda_oracle = lam_star, lam_oracle
            row.err_s12_at_hat, row.err_at_holdout = e12[[half, held]].tolist()
            row.err_s0_at_hat, row.err_s0_at_hat_half = e0[[zero, half]].tolist()
            row.err_min_over_grid_s0 = float(e0[:-1].min())
            row.err_min_over_grid_s12 = float(e12[:-1].min())
            row.err_at_oracle = float(e12[-1])
        rows.append(row)
    return rows


def _failed_rows(cfg: ExperimentConfig, n: int, rep: int, exc: Exception) -> list[ExperimentRow]:
    """One row per filter carrying the failure tag, so failures are kept, not dropped."""
    tag = f"{type(exc).__name__}: {exc}"
    return [ExperimentRow(n=n, replication=rep, filter=filt.variant, error=tag) for filt in cfg.filters]


def run_experiment(cfg: ExperimentConfig, threads: int = 1, progress=None) -> list[ExperimentRow]:
    """Run the full (n x replication x filter) table; rows in deterministic order.

    Replications run on `threads` (at least 1) worker threads and are collected in order;
    `progress` (a text stream) gets one line per collected replication.
    """
    all_rows: list[ExperimentRow] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for n in cfg.n_values:
            jobs = pool.map(functools.partial(_replication_rows, cfg, n), range(cfg.replications))
            for rep, rows in enumerate(jobs):
                all_rows.extend(rows)
                if progress is not None:
                    print(f"n={n} replication {rep + 1}/{cfg.replications}", file=progress)
    return all_rows


def fit_rate(rows: Iterable[ExperimentRow], error_column: str):
    """OLS of log(median error) on log(n); the slope estimates the convergence rate.

    `error_column` is one of FLOAT_COLUMNS.
    """
    if error_column not in FLOAT_COLUMNS:
        raise DomainViolationError(
            f"unknown error column {error_column!r}; expected one of {', '.join(FLOAT_COLUMNS)}"
        )
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
    seen = [np.empty((0, 4))]  # (n, lambda, delta, factor-5 held) at each applicable grid point
    all_events: dict[int, list[bool]] = {}
    for n in n_values:
        events = []
        for rep in range(reps):
            # same x-draw as generate(): x first from the replication seed
            xs = np.random.default_rng(seed_base + rep).random(n)
            eigs = gram_eigenvalues(kernel, xs)
            if lambdas is None:
                lams = geometric_grid(heuristic_lambda0(eigs, q), q).lambdas
            else:
                lams = np.asarray(lambdas, dtype=float)
            chk = two_sided_check(model_effdim(model.t_bar, lams), empirical_effdim(eigs, lams), n, lams, eta)
            app = chk.factor5_applicable
            seen.append(np.column_stack([np.full(lams.size, n), lams, chk.delta, chk.factor5_holds])[app])
            events.append(bool(chk.factor5_holds[app].all()))
        all_events[n] = events

    # one cell per distinct (n, lambda), in sorted order
    seen = np.concatenate(seen)
    _, first, at = np.unique(seen[:, :2], axis=0, return_index=True, return_inverse=True)
    totals, holds = np.bincount(at), np.bincount(at, weights=seen[:, 3])
    return ConcentrationSummary(
        cells=tuple(
            ConcentrationCell(int(n), lam, delta, delta <= 1.0, int(total), int(held))
            for (n, lam, delta, _), total, held in zip(seen[first].tolist(), totals, holds)
        ),
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
                    **{col: float(rec[col]) for col in FLOAT_COLUMNS},
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
