"""Command-line entry point.

Commands: effdim, grid, fit, balance, simulate, experiment, rate. Exit code 0
on success, 1 on a domain error (message on stderr), 2 on a usage error. All
numeric CSV output uses 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .balancing import BalancingConfig, balancing_select
from .effdim import empirical_effdim, model_effdim, two_sided_check
from .errors import LepskiiError
from .estimators import FILTERS, fit_from_decomposition, predict
from .experiments import (
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
    ExplicitSpectrumKernel,
    GaussianKernel,
    PolynomialKernel,
    dataset_to_csv,
    gram_decomposition,
    gram_scale,
    read_dataset_csv,
)
from .synthetic import (
    check_choice,
    generate,
    load_model_json,
    model_effdim_fn,
    model_from_dict,
    reject_unknown_keys,
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


def _resolve_lambda0(value: str, spectrum, n: int, q: float) -> float:
    if value == "auto":
        return heuristic_lambda0(spectrum, n, q)
    return float(value)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_effdim(args) -> int:
    model = load_model_json(args.model)
    sample = generate(model, args.n, args.seed)
    dec = gram_decomposition(model.kernel(), sample.data.xs)
    if args.lambda0 == "auto":
        lam0 = lambda0_from_effdim(model_effdim_fn(model), args.n)
    else:
        lam0 = float(args.lambda0)
    grid = geometric_grid(lam0, args.q)
    lines = ["lambda,N_model,N_emp,delta,factor5_holds"]
    for lam in grid.lambdas:
        lam = float(lam)
        n_model = model_effdim(model.t_bar, lam)
        n_emp = empirical_effdim(dec, lam)
        chk = two_sided_check(n_model, n_emp, args.n, lam, args.eta)
        lines.append(
            ",".join(
                [
                    format_float(lam),
                    format_float(n_model),
                    format_float(n_emp),
                    format_float(chk.delta),
                    str(int(chk.factor5_holds)),
                ]
            )
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_grid(args) -> int:
    if args.model:
        model = load_model_json(args.model)
        lam0 = (
            lambda0_from_effdim(model_effdim_fn(model), args.n)
            if args.lambda0 == "auto"
            else float(args.lambda0)
        )
    else:
        if args.lambda0 == "auto":
            raise LepskiiError("grid: --lambda0 auto requires --model")
        lam0 = float(args.lambda0)
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
    kernel = args.kernel
    dec = gram_decomposition(kernel, data.xs)
    coef = fit_from_decomposition(dec, gram_scale(kernel, data.n), data.ys, FILTERS[args.filter], args.lam)
    preds = predict(coef, kernel, data.xs, data.xs)
    lines = ["x,y,coefficient,prediction"]
    for x, y, c, p in zip(data.xs, data.ys, coef, preds):
        lines.append(",".join(format_float(v) for v in (x, y, c, p)))
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_balance(args) -> int:
    data = read_dataset_csv(args.data)
    kernel = args.kernel
    dec = gram_decomposition(kernel, data.xs)
    kscale = gram_scale(kernel, data.n)
    lam0 = _resolve_lambda0(args.lambda0, dec, data.n, args.q)
    grid = geometric_grid(lam0, args.q)
    cfg = BalancingConfig(
        s=args.s,
        eta=args.eta,
        sigma=args.sigma,
        M_bound=args.M,
        c_s=args.c_s,
        use_theoretical_constant=(args.constant_mode == "theoretical"),
        bal_factor=args.bal_factor,
    )
    fits = fit_from_decomposition(dec, kscale, data.ys, FILTERS[args.filter], grid.lambdas)
    diag = balancing_select(fits, grid, dec, kscale, cfg, data.n)
    doc = {
        "lambda_hat": diag.lambda_hat,
        "s": diag.s,
        "grid": [float(v) for v in grid.lambdas],
        "jplus": list(diag.jplus),
        "thresholds": {format_float(k): v for k, v in sorted(diag.thresholds.items())},
        "pairwise_norms": {
            f"{format_float(lam)},{format_float(lam_p)}": v
            for (lam, lam_p), v in sorted(diag.pairwise_norms.items())
        },
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    model = load_model_json(args.model)
    sample = generate(model, args.n, args.seed)
    _write_or_print(dataset_to_csv(sample.data), args.out)
    return 0


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
        ("eta", "sigma", "M", "c_s", "constant_mode", "bal_factor"),
        "balancing",
    )
    cfg_bal = BalancingConfig(
        eta=float(bal.get("eta", 0.1)),
        sigma=float(bal.get("sigma", model.noise.sigma)),
        M_bound=float(bal.get("M", model.noise.M_bound)),
        c_s=float(bal.get("c_s", 1.0)),
        use_theoretical_constant=check_choice(
            bal.get("constant_mode", "practical"), ("practical", "theoretical"), "balancing.constant_mode"
        ) == "theoretical",
        bal_factor=float(bal.get("bal_factor", 20.0)),
    )
    mode = doc.get("lambda0_mode", "model")
    if mode not in ("model", "heuristic"):
        try:
            mode = float(mode)
        except (TypeError, ValueError):
            raise ValueError(
                f"unknown value {mode!r} for lambda0_mode (allowed: model, heuristic or a number)"
            ) from None
    return ExperimentConfig(
        model=model,
        n_values=tuple(int(v) for v in doc["n_values"]),
        replications=int(doc["replications"]),
        seed_base=int(doc.get("seed_base", 0)),
        grid_q=float(doc.get("grid_q", 2.0)),
        balancing=cfg_bal,
        filters=tuple(
            FILTERS[check_choice(v, tuple(FILTERS), "filters")] for v in doc.get("filters", ["tikhonov"])
        ),
        lambda0_mode=mode,
        holdout_fraction=float(doc.get("holdout_fraction", 0.5)),
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
    fit = fit_rate(rows, args.column)
    doc = {"column": args.column, "slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2}
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--c-s", dest="c_s", type=float, default=1.0)
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
    p.add_argument("--threads", type=int, default=os.environ.get("LEPSKII_THREADS", "1"))
    p.add_argument(
        "--timings",
        action="store_true",
        help="write measured wall times (breaks byte-reproducibility of the CSV)",
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("rate", help="log-log rate fit over a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--column", default="err_s12_at_hat")
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
