#!/usr/bin/env python3
"""sha256 of every file a fixed set of `lepskii` CLI calls writes, to check that a change
leaves outputs byte-identical.

    python scripts/output_digest.py src
    python scripts/output_digest.py src --against /path/to/other/checkout/src

The calls (CALLS below) run one at a time in a fresh temporary directory, each in its own
interpreter that imports the library from the given `src/` directory, with BLAS pinned to
one thread. They cover `simulate`, `effdim` on the dense and the factor route, `grid`,
`fit` with a Gaussian kernel (dense route) and with a polynomial kernel (Cholesky factor
route), `balance` with a Gaussian kernel (practical constant at factors 20 and 2; at 2 the
selector rejects part of the grid; and at factor 2 with s = 1/4, where lambda^s is neither
1 nor a square root) and with a polynomial kernel (theoretical constant, s = 0), four
D = 100 `experiment` runs (lambda0 from the model; the same with all three
filters, whose hold-out fits are predicted in one call; heuristic lambda0 with the spectral
cut-off filter and smoothness r = 1.5; a pinned lambda0 whose grid misses the crossing at
one n, so some rows are failure-tagged), and `rate` on the first run's results. The script
prints one `sha256  file` line per output file. With `--against` it runs the same calls on
the other tree, prints `same` or `DIFFERS` per file, and exits 1 when any file differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent

# D = 60: n = 40 decomposes the dense n x n Gram, n = 200 the D x D factor
SMALL_MODEL = {
    "spectrum": {"type": "poly", "b": 2.0, "D": 60},
    "source": {"type": "holder", "r": 0.5, "R": 1.0, "h": "single"},
    "noise": {"sigma": 0.3, "M": 0.3},
}
EXPERIMENT = {
    "model": {
        "spectrum": {"type": "poly", "b": 2.0, "D": 100},
        "source": {"type": "holder", "r": 0.5, "R": 1.0, "h": "spread"},
        "noise": {"sigma": 0.3, "M": 0.3},
    },
    "n_values": [64, 256],
    "replications": 3,
    "seed_base": 5,
    "grid_q": 2.0,
    "balancing": {"eta": 0.1, "sigma": 0.3, "M": 0.3, "bal_factor": 2.0},
    "filters": ["tikhonov", "landweber"],
    "lambda0_mode": "model",
    "holdout_fraction": 0.5,
}
# every filter in one replication: one hold-out decomposition and one predict for all three
ALL_FILTERS_EXPERIMENT = {**EXPERIMENT, "filters": ["tikhonov", "landweber", "spectral_cutoff"]}
# the grid from the data's own eigenvalues, with the r > 1 remainder in the truth
HEURISTIC_EXPERIMENT = {
    **EXPERIMENT,
    "model": {**EXPERIMENT["model"], "source": {"type": "holder", "r": 1.5, "R": 1.0, "h": "spread"}},
    "filters": ["spectral_cutoff"],
    "lambda0_mode": "heuristic",
}
# lambda0 = 0.1 brackets the crossing at n = 64 but not at n = 256 (EmptyJError rows)
PINNED_EXPERIMENT = {**EXPERIMENT, "n_values": [64, 256], "replications": 2, "lambda0_mode": 0.1}
INPUTS = {"model.json": SMALL_MODEL, "experiment.json": EXPERIMENT,
          "all_filters.json": ALL_FILTERS_EXPERIMENT, "heuristic.json": HEURISTIC_EXPERIMENT,
          "pinned.json": PINNED_EXPERIMENT}

# (argv, output files), run in order inside the work directory
CALLS = (
    (["simulate", "--model", "model.json", "--n", "120", "--seed", "3", "--out", "data.csv"],
     ["data.csv"]),
    (["effdim", "--model", "model.json", "--n", "40", "--seed", "1", "--out", "effdim_dense.csv"],
     ["effdim_dense.csv"]),
    (["effdim", "--model", "model.json", "--n", "200", "--seed", "1", "--out", "effdim_factor.csv"],
     ["effdim_factor.csv"]),
    (["grid", "--model", "model.json", "--n", "500", "--out", "grid.json"], ["grid.json"]),
    (["fit", "--data", "data.csv", "--kernel", "gaussian:0.3", "--lambda", "0.05",
      "--out", "fit.csv"], ["fit.csv"]),
    (["fit", "--data", "data.csv", "--kernel", "poly:3:1", "--lambda", "0.05",
      "--out", "fit_poly.csv"], ["fit_poly.csv"]),
    (["balance", "--data", "data.csv", "--kernel", "gaussian:0.2", "--sigma", "0.3",
      "--M", "0.3", "--out", "balance_gaussian.json"], ["balance_gaussian.json"]),
    (["balance", "--data", "data.csv", "--kernel", "gaussian:0.2", "--sigma", "0.3",
      "--bal-factor", "2", "--out", "balance_responsive.json"], ["balance_responsive.json"]),
    (["balance", "--data", "data.csv", "--kernel", "gaussian:0.2", "--sigma", "0.3", "--s", "0.25",
      "--bal-factor", "2", "--out", "balance_quarter.json"], ["balance_quarter.json"]),
    (["balance", "--data", "data.csv", "--kernel", "poly:3:1", "--sigma", "0.3", "--s", "0",
      "--lambda0", "0.01", "--constant-mode", "theoretical", "--bal-factor", "0.5",
      "--out", "balance_poly.json"], ["balance_poly.json"]),
    (["experiment", "--config", "experiment.json", "--out-dir", "experiment"],
     ["experiment/results.csv", "experiment/summary.json"]),
    (["experiment", "--config", "all_filters.json", "--out-dir", "all_filters"],
     ["all_filters/results.csv", "all_filters/summary.json"]),
    (["experiment", "--config", "heuristic.json", "--out-dir", "heuristic"],
     ["heuristic/results.csv", "heuristic/summary.json"]),
    (["experiment", "--config", "pinned.json", "--out-dir", "pinned"],
     ["pinned/results.csv", "pinned/summary.json"]),
    (["rate", "--results", "experiment/results.csv", "--out", "rate.json"], ["rate.json"]),
)

# imports lepskii.cli from argv[1], refuses any other copy, and dispatches the rest
RUNNER = """
import sys
from pathlib import Path
src = Path(sys.argv[1])
sys.path.insert(0, str(src))
import lepskii.cli
if not Path(lepskii.cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"lepskii was imported from {lepskii.cli.__file__}, not from {src}")
sys.exit(lepskii.cli.dispatch(sys.argv[2:]))
"""


def digests(src: Path) -> dict[str, str]:
    """Output file name -> sha256 hex digest for CALLS run against the library in `src`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    out = {}
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        for name, doc in INPUTS.items():
            Path(work, name).write_text(json.dumps(doc), encoding="utf-8")
        for argv, files in CALLS:
            proc = subprocess.run([sys.executable, "-c", RUNNER, str(src), *argv], cwd=work,
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"lepskii {' '.join(argv)} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()}")
            for name in files:
                out[name] = hashlib.sha256(Path(work, name).read_bytes()).hexdigest()
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", type=Path, nargs="?", default=CHECKOUT / "src",
                   help="the src/ directory holding the lepskii package (default: this checkout's)")
    p.add_argument("--against", type=Path, metavar="OTHER_SRC",
                   help="another src/ directory whose outputs must match byte for byte")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    mine = digests(args.src.resolve())
    if args.against is None:
        for name, digest in mine.items():
            print(f"{digest}  {name}")
        return 0
    theirs = digests(args.against.resolve())
    differing = [name for name in mine if mine[name] != theirs[name]]
    for name, digest in mine.items():
        print(f"{digest}  {name}  {'DIFFERS' if name in differing else 'same'}")
    print(f"{len(mine) - len(differing)} of {len(mine)} output files byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
