"""The benchmark's workloads: the instance each runs, its inputs from a seed, one op, and its check.

Each workload calls the library through module attributes (``experiments.run_experiment``,
``cli.dispatch``, ...) so that the traced run, which patches those attributes, also sees the
op's top-level call.

An op's output is reduced to a JSON-able record. The record is checked twice:
structurally (no error tag, selections on the grid, finite values) on every op, and
against the reference recorded from the library for that op's input key when the
reference file has one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

from lepskii import balancing, cli, experiments, grid, kernels, synthetic

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Error columns of one replication, compared to the reference within ERROR_RTOL.
ERROR_COLUMNS = (
    "lambda_oracle",
    "err_s0_at_hat",
    "err_s12_at_hat",
    "err_min_over_grid_s0",
    "err_min_over_grid_s12",
    "err_at_oracle",
    "err_at_holdout",
    "err_s0_at_hat_half",
)
# Selections of one replication, compared to the reference exactly.
SELECTION_COLUMNS = ("lambda_hat_half", "lambda_hat_zero", "holdout_lambda", "lambda_star")
# The ROADMAP's bound on how far a reordered floating-point sum may move an error column.
ERROR_RTOL = 1e-12

# `lepskii balance` thresholds and pairwise norms, compared within BALANCE_RTOL of the
# reference plus BALANCE_ATOL times the largest threshold.
BALANCE_RTOL = 1e-8
BALANCE_ATOL = 1e-10
BALANCE_TOLERANCE_REASON = (
    "The Gaussian Gram matrix (bandwidth 0.2, n=2048) has numerical rank about 19; the rest "
    "of its eigenvectors span a numerically null space that each LAPACK kernel rotates "
    "differently. Switching OpenBLAS kernels (SkylakeX vs Haswell) moved pairwise norms by up "
    "to 1.1e-10 relative (5.8e-12 of the largest threshold) and thresholds by 6e-13, so the "
    "tolerance is 100 times that; lambda_hat, grid and jplus must match exactly."
)


def regular_model(size: int) -> synthetic.SyntheticModel:
    """The ROADMAP's regular instance: spectrum i^-2 over `size` modes, Holder source
    r = 1/2, R = 1, noise sigma = M = 0.3."""
    return synthetic.polynomial_spectrum_model(b=2.0, size=size, r=0.5, R=1.0, sigma=0.3)


def load_reference(name: str, instance: dict) -> dict:
    """Reference entries keyed by op input key; empty when the file is missing or was
    recorded for another instance (for example the smoke test's tiny sizes)."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["entries"] if doc.get("instance") == instance else {}


def _close(value: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - expected) <= rtol * abs(expected) + atol


def _finite_nonnegative(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0


class Workload:
    """One workload: `setup(seed, workdir)` builds the inputs, `run_op(i)` runs op i and
    returns its record, `check(i, record)` lists what is wrong with it."""

    name = ""
    # Op time at the seed commit (2-core Xeon, one BLAS thread). It sizes the traced run
    # only, so the traced op count depends on --seconds alone and repeats exactly.
    nominal_op_s = 1.0
    instance: dict = {}

    def __init__(self):
        self.seed = 0
        self.reference: dict = {}

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def op_key(self, i: int) -> int:
        """Reference key of op i: the seed its input is drawn from."""
        return self.seed + i

    def run_op(self, i: int) -> dict:
        raise NotImplementedError

    def structural(self, record: dict) -> list[str]:
        raise NotImplementedError

    def compare(self, record: dict, expected: dict) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, record: dict) -> tuple[list[str], bool]:
        """Problems found in op i's record, and whether a reference entry was available."""
        problems = self.structural(record)
        expected = self.reference.get(str(self.op_key(i)))
        if expected is not None and not problems:
            problems = self.compare(record, expected)
        return problems, expected is not None


class McRegular(Workload):
    """One Monte-Carlo replication of the regular instance via `run_experiment`."""

    name = "mc-regular"
    nominal_op_s = 5.4

    def __init__(self, n: int = 4096, size: int = 1000):
        super().__init__()
        self.instance = {
            "n": n, "D": size, "b": 2.0, "r": 0.5, "R": 1.0, "sigma": 0.3, "M": 0.3,
            "filter": "tikhonov", "q": 2.0, "eta": 0.1, "bal_factor": 2.0,
            "lambda0_mode": "model", "holdout_fraction": 0.5,
        }

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        n = self.instance["n"]
        model = regular_model(self.instance["D"])
        self.config = experiments.ExperimentConfig(
            model=model,
            n_values=(n,),
            replications=1,
            seed_base=seed,
            grid_q=2.0,
            balancing=balancing.BalancingConfig(
                s=0.5, eta=0.1, sigma=0.3, M_bound=0.3, bal_factor=2.0
            ),
            lambda0_mode="model",
            holdout_fraction=0.5,
        )
        lam0 = grid.lambda0_from_effdim(synthetic.model_effdim_fn(model), n)
        self.grid = {float(v) for v in grid.geometric_grid(lam0, 2.0).lambdas}
        self.reference = load_reference(self.name, self.instance)

    def run_op(self, i: int) -> dict:
        cfg = dataclasses.replace(self.config, seed_base=self.seed + i)
        (row,) = experiments.run_experiment(cfg)
        record = {col: getattr(row, col) for col in SELECTION_COLUMNS + ERROR_COLUMNS}
        record["error"] = row.error
        return record

    def structural(self, record: dict) -> list[str]:
        if record["error"]:
            return [f"error tag {record['error']!r}"]
        problems = [
            f"{col}={record[col]!r} is not on the grid"
            for col in SELECTION_COLUMNS
            if record[col] not in self.grid
        ]
        problems += [
            f"{col}={record[col]!r} is not finite and nonnegative"
            for col in ERROR_COLUMNS
            if not _finite_nonnegative(record[col])
        ]
        return problems

    def compare(self, record: dict, expected: dict) -> list[str]:
        problems = [
            f"{col}={record[col]!r}, reference {expected[col]!r}"
            for col in SELECTION_COLUMNS
            if record[col] != expected[col]
        ]
        problems += [
            f"{col}={record[col]!r}, reference {expected[col]!r} (rtol {ERROR_RTOL})"
            for col in ERROR_COLUMNS
            if not _close(record[col], expected[col], ERROR_RTOL)
        ]
        return problems


class BalanceGaussian(Workload):
    """One `lepskii balance` call on a Gaussian kernel through in-process `cli.dispatch`.

    Every op reads the same CSV, written during setup from the workload seed, so the
    reference key is the seed itself.
    """

    name = "balance-gaussian"
    nominal_op_s = 2.3
    ARGS = ("--kernel", "gaussian:0.2", "--sigma", "0.3", "--q", "2.0", "--eta", "0.1",
            "--lambda0", "auto")

    def __init__(self, n: int = 2048, size: int = 1000):
        super().__init__()
        self.instance = {"n": n, "D": size, "args": list(self.ARGS)}

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        sample = synthetic.generate(regular_model(self.instance["D"]), self.instance["n"], seed)
        path = Path(workdir) / f"{self.name}-{seed}.csv"
        kernels.write_dataset_csv(sample.data, path)
        self.argv = ["balance", "--data", str(path), *self.ARGS]
        self.reference = load_reference(self.name, self.instance)

    def op_key(self, i: int) -> int:
        return self.seed

    def run_op(self, i: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # the command prints its JSON document
            code = cli.dispatch(self.argv)
        doc = json.loads(out.getvalue()) if code == 0 else {}
        return {"exit_code": code, **doc}

    def structural(self, record: dict) -> list[str]:
        if record["exit_code"] != 0:
            return [f"exit code {record['exit_code']}"]
        lams = record["grid"]
        jplus = record["jplus"]
        problems = []
        if lams != sorted(lams) or lams[-1] != 1.0:
            problems.append("grid is not ascending to 1")
        if record["lambda_hat"] not in lams or not set(jplus) <= set(lams):
            problems.append("selection is not on the grid")
        if not jplus or record["lambda_hat"] != max(jplus) or lams[0] not in jplus:
            problems.append("jplus does not hold the smallest grid point and lambda_hat")
        if len(record["thresholds"]) != len(lams):
            problems.append("one threshold per grid point expected")
        if len(record["pairwise_norms"]) != len(lams) * (len(lams) - 1) // 2:
            problems.append("one pairwise norm per grid pair expected")
        values = list(record["thresholds"].values()) + list(record["pairwise_norms"].values())
        if not all(_finite_nonnegative(v) for v in values):
            problems.append("thresholds and norms must be finite and nonnegative")
        return problems

    def compare(self, record: dict, expected: dict) -> list[str]:
        problems = [
            f"{key}={record[key]!r}, reference {expected[key]!r}"
            for key in ("lambda_hat", "s", "grid", "jplus")
            if record[key] != expected[key]
        ]
        atol = BALANCE_ATOL * max(expected["thresholds"].values())
        for key in ("thresholds", "pairwise_norms"):
            if record[key].keys() != expected[key].keys():
                problems.append(f"{key} keys differ from the reference")
                continue
            problems += [
                f"{key}[{k}]={v!r}, reference {expected[key][k]!r}"
                for k, v in record[key].items()
                if not _close(v, expected[key][k], BALANCE_RTOL, atol)
            ]
        return problems


class Concentration(Workload):
    """One replication of the factor-5 effective-dimension study (criterion 1)."""

    name = "concentration"
    nominal_op_s = 0.37

    def __init__(self, n_values: tuple[int, ...] = (500, 2000), size: int = 1000):
        super().__init__()
        self.instance = {"n_values": list(n_values), "D": size, "eta": 0.1, "q": 2.0}

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.model = regular_model(self.instance["D"])
        self.reference = load_reference(self.name, self.instance)

    def run_op(self, i: int) -> dict:
        summary = experiments.concentration_experiment(
            self.model, self.instance["n_values"], None, eta=0.1, reps=1,
            seed_base=self.seed + i, q=2.0,
        )
        return {
            "events": {str(n): [bool(e) for e in ev] for n, ev in summary.rep_events.items()},
            "cells": [[c.n, c.lam, c.replications, c.holds] for c in summary.cells],
        }

    def structural(self, record: dict) -> list[str]:
        problems = []
        if sorted(record["events"]) != sorted(str(n) for n in self.instance["n_values"]):
            problems.append("one event per n expected")
        if any(len(ev) != 1 for ev in record["events"].values()):
            problems.append("one replication per n expected")
        for n, lam, reps, holds in record["cells"]:
            mantissa, _ = math.frexp(lam)  # grids are powers of q = 2
            if not (0.0 < lam <= 1.0 and mantissa == 0.5):
                problems.append(f"cell lambda {lam!r} is not on a power-of-2 grid")
            if reps != 1 or holds not in (0, 1):
                problems.append(f"cell ({n}, {lam}) counts {holds}/{reps}")
        return problems

    def compare(self, record: dict, expected: dict) -> list[str]:
        return [
            f"{key}={record[key]!r}, reference {expected[key]!r}"
            for key in ("events", "cells")
            if record[key] != expected[key]
        ]


WORKLOADS = {cls.name: cls for cls in (McRegular, BalanceGaussian, Concentration)}
