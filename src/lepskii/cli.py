"""Command-line entry point.

Commands: effdim, grid, fit, balance, simulate, experiment, rate. Exit code 0
on success, 1 on a domain error (message on stderr), 2 on a usage error. All
numeric CSV output uses 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from .balancing import BalancingConfig, balancing_select
from .effdim import empirical_effdim, model_effdim, two_sided_check
from .errors import LepskiiError
from .estimators import FILTERS, fit_from_decomposition, fitted_values
from .experiments import (
    FLOAT_COLUMNS,
    ExperimentConfig,
    fit_rate,
    format_float,
    read_results_csv,
    rows_to_csv,
    run_experiment,
    summarize,
)
from .grid import geometric_grid, heuristic_lambda0, lambda0_from_effdim, validate_grid_conditions
from .kernels import (
    GaussianKernel,
    PolynomialKernel,
    dataset_to_csv,
    gram_decomposition,
    read_dataset_csv,
)
from .synthetic import (
    check_choice,
    generate,
    integer,
    load_model_json,
    model_effdim_fn,
    model_from_dict,
    real,
    reject_unknown_keys,
    typed_values,
)


def parse_kernel(text: str):
    """Kernel flag syntax name:param[:param], e.g. gaussian:0.2 or poly:3:1."""
    parts = text.split(":")
    try:
        if parts[0] == "gaussian" and len(parts) == 2:
            return GaussianKernel(bandwidth=float(parts[1]))
        if parts[0] == "poly" and len(parts) in (3, 4):
            radius = float(parts[3]) if len(parts) == 4 else 1.0
            return PolynomialKernel(degree=int(parts[1]), offset=float(parts[2]), domain_radius=radius)
    except (ValueError, LepskiiError) as exc:
        raise argparse.ArgumentTypeError(f"bad kernel spec {text!r}: {exc}")
    raise argparse.ArgumentTypeError(f"bad kernel spec {text!r} (expected gaussian:BW or poly:DEG:OFFSET[:RADIUS])")


def _thread_count(text: str) -> int:
    """--threads value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_text(header: str, fmt: str, *columns) -> str:
    """The header line, then one line per row of the columns, formatted by fmt."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), fmt=fmt, header=header, comments="")
    return buf.getvalue()


def cmd_effdim(args) -> int:
    model = load_model_json(args.model)
    sample = generate(model, args.n, args.seed)
    dec = gram_decomposition(model.kernel(), sample.data.xs, sample.features)
    lam0 = lambda0_from_effdim(model_effdim_fn(model), args.n) if args.lambda0 == "auto" else float(args.lambda0)
    lams = geometric_grid(lam0, args.q).lambdas
    n_model = model_effdim(model.t_bar, lams)
    n_emp = empirical_effdim(dec.eigenvalues, lams)
    chk = two_sided_check(n_model, n_emp, args.n, lams, args.eta)
    columns = (lams, n_model, n_emp, chk.delta, chk.factor5_holds)
    text = _csv_text("lambda,N_model,N_emp,delta,factor5_holds", "%.17g,%.17g,%.17g,%.17g,%d", *columns)
    _write_or_print(text, args.out)
    return 0


def cmd_grid(args) -> int:
    model = load_model_json(args.model) if args.model else None
    if args.lambda0 != "auto":
        lam0 = float(args.lambda0)
    elif model is None:
        raise LepskiiError("grid: --lambda0 auto requires --model")
    else:
        lam0 = lambda0_from_effdim(model_effdim_fn(model), args.n)
    grid = geometric_grid(lam0, args.q)
    val = validate_grid_conditions(grid, args.n, args.eta)
    doc = {
        "lambdas": [float(v) for v in grid.lambdas],
        "q": grid.q,
        "size": grid.size,
        "nlam0_ok": val.nlam0_ok,
        "logterm_ok": val.logterm_ok,
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.data)
    dec = gram_decomposition(args.kernel, data.xs)
    coef = fit_from_decomposition(dec, data.ys, FILTERS[args.filter], args.lam)
    columns = (data.xs, data.ys, coef, fitted_values(dec, coef))
    _write_or_print(_csv_text("x,y,coefficient,prediction", ",".join(["%.17g"] * 4), *columns), args.out)
    return 0


def cmd_balance(args) -> int:
    # checked before the dataset is read and decomposed, so a bad number fails at once
    theoretical = args.constant_mode == "theoretical"
    cfg = BalancingConfig(s=args.s, eta=args.eta, sigma=args.sigma, M_bound=args.M,
                          use_theoretical_constant=theoretical, bal_factor=args.bal_factor)
    data = read_dataset_csv(args.data)
    dec = gram_decomposition(args.kernel, data.xs)
    lam0 = heuristic_lambda0(dec.eigenvalues, args.q) if args.lambda0 == "auto" else float(args.lambda0)
    grid = geometric_grid(lam0, args.q)
    fits = fit_from_decomposition(dec, data.ys, FILTERS[args.filter], grid.lambdas)
    diag = balancing_select(fits, grid, dec, cfg)
    lams = grid.lambdas.tolist()
    doc = {
        "lambda_hat": diag.lambda_hat,
        "s": cfg.s,
        "grid": lams,
        "jplus": list(diag.jplus),
        "thresholds": dict(zip(map(format_float, lams), diag.thresholds.tolist())),
        "pairwise_norms": {  # pairs (i, j < i) in np.tril_indices order, as diag holds them
            f"{format_float(lams[i])},{format_float(lams[j])}": v
            for i, j, v in zip(*np.tril_indices(len(lams), -1), diag.pairwise_norms.tolist())
        },
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    model = load_model_json(args.model)
    sample = generate(model, args.n, args.seed)
    _write_or_print(dataset_to_csv(sample.data), args.out)
    return 0


@typed_values("the experiment config")
def _experiment_config(doc: dict) -> ExperimentConfig:
    reject_unknown_keys(
        doc,
        ("model", "n_values", "replications", "seed_base", "grid_q", "balancing", "filters",
         "lambda0_mode", "holdout_fraction", "outputs"),
        "the experiment config",
    )
    model = model_from_dict(doc["model"])
    bal = reject_unknown_keys(
        doc.get("balancing", {}),
        ("eta", "sigma", "M", "constant_mode", "bal_factor"),
        "balancing",
    )
    cfg_bal = BalancingConfig(
        eta=real(bal.get("eta", 0.1), "balancing.eta"),
        sigma=real(bal.get("sigma", model.noise.sigma), "balancing.sigma"),
        M_bound=real(bal.get("M", model.noise.M_bound), "balancing.M"),
        use_theoretical_constant=check_choice(
            bal.get("constant_mode", "practical"), ("practical", "theoretical"), "balancing.constant_mode"
        ) == "theoretical",
        bal_factor=real(bal.get("bal_factor", 20.0), "balancing.bal_factor"),
    )
    mode = doc.get("lambda0_mode", "model")
    if not isinstance(mode, str):
        mode = real(mode, "lambda0_mode")
    elif mode not in ("model", "heuristic"):
        raise ValueError(
            f"unknown value {mode!r} for lambda0_mode (allowed: model, heuristic or a number)"
        )
    return ExperimentConfig(
        model=model,
        n_values=tuple(integer(v, "n_values") for v in doc["n_values"]),
        replications=integer(doc["replications"], "replications"),
        seed_base=integer(doc.get("seed_base", 0), "seed_base"),
        grid_q=real(doc.get("grid_q", 2.0), "grid_q"),
        balancing=cfg_bal,
        filters=tuple(
            FILTERS[check_choice(v, tuple(FILTERS), "filters")] for v in doc.get("filters", ["tikhonov"])
        ),
        lambda0_mode=mode,
        holdout_fraction=real(doc.get("holdout_fraction", 0.5), "holdout_fraction"),
        outputs=reject_unknown_keys(doc.get("outputs", {}), ("results", "summary"), "outputs"),
    )


def cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = _experiment_config(doc)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(cfg, threads=args.threads, progress=sys.stderr)
    results_path = out_dir / cfg.outputs.get("results", "results.csv")
    summary_path = out_dir / cfg.outputs.get("summary", "summary.json")
    results_path.write_text(rows_to_csv(rows, timings=args.timings), encoding="utf-8")
    summary_path.write_text(json.dumps(summarize(rows), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {results_path} and {summary_path}", file=sys.stderr)
    return 0


def cmd_rate(args) -> int:
    rows = read_results_csv(args.results)
    rate = fit_rate(rows, args.column)
    doc = {"column": args.column, "slope": rate.slope, "intercept": rate.intercept, "r2": rate.r2}
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared by every dispatch.

    Parsing leaves the parser unchanged: each call starts from a fresh namespace. Each
    command is bound at the first build, so code replacing a command patches the names
    that command calls (as the tests patch `cli.gram_decomposition`), not `cli.cmd_*`.
    """
    parser = argparse.ArgumentParser(
        prog="lepskii",
        description="Adaptive regularization-parameter selection by the balancing principle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("effdim", help="effective-dimension curves over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--lambda0", default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_effdim)

    p = sub.add_parser("grid", help="build a geometric grid and validate it")
    p.add_argument("--model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--lambda0", default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("fit", help="fit a spectral-filter estimator at a fixed lambda")
    p.add_argument("--data", required=True)
    p.add_argument("--kernel", type=parse_kernel, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--filter", choices=sorted(FILTERS), default="tikhonov")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("balance", help="adaptive lambda selection diagnostics")
    p.add_argument("--data", required=True)
    p.add_argument("--kernel", type=parse_kernel, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--M", type=float, default=0.0)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--lambda0", default="auto")
    p.add_argument("--constant-mode", choices=["practical", "theoretical"], default="practical")
    p.add_argument("--bal-factor", dest="bal_factor", type=float, default=20.0)
    p.add_argument("--filter", choices=sorted(FILTERS), default="tikhonov")
    p.add_argument("--out")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="full Monte-Carlo run from a config document")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=_thread_count, default=1)
    p.add_argument(
        "--timings",
        action="store_true",
        help="write measured wall times (breaks byte-reproducibility of the CSV)",
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("rate", help="log-log rate fit over a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--column", choices=FLOAT_COLUMNS, default="err_s12_at_hat")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rate)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LepskiiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: bad input document or value: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
