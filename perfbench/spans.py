"""Span recorder for the traced run, wrapping library functions from outside the library.

For each traced op, every function in TARGETS is wrapped, and every attribute of a loaded
``lepskii`` module that refers to it is patched with the wrapper: the module attribute each
caller looks up (``lepskii.experiments.gram_decomposition``,
``lepskii.synthetic.feature_matrix``, ...). The patches are undone after the op, so untraced
ops run the library as it is.

A span records name, start, end, parent span and op id. Spans stay in memory and are written
out when the run ends. A span's self time is its duration minus the time its child spans
cover. Only the functions in TARGETS are wrapped, so a self time includes the helpers the
function calls (``trig_basis`` under ``feature_matrix``, ``cross_gram`` under
``normalized_gram``).

Observers derive computed work counts from call arguments and return values. They are
marked computed in the report and repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

TARGETS = {
    "synthetic": ("generate", "estimator_basis_coefficients", "true_error_norm"),
    "kernels": ("feature_matrix", "gram_decomposition", "normalized_gram", "gram_eigenvalues",
                "read_dataset_csv"),
    "linalg": ("sym_eigendecompose",),
    "estimators": ("fit_from_decomposition", "predict"),
    "balancing": ("balancing_select",),
    "effdim": ("empirical_effdim", "two_sided_check"),
    "grid": ("geometric_grid", "heuristic_lambda0"),
    "experiments": ("run_experiment", "holdout_select", "concentration_experiment"),
    "cli": ("dispatch",),
}


class MissingTargetError(LookupError):
    """A function the traced run is told to wrap is missing from its module."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into SpanRecorder.spans, -1 for a top-level span
    op: int


def _eig_dim(kernel, n: int, dense: bool) -> int:
    """Size of the matrix an eigen-solve works on: n x n on the dense route, D x D on the
    explicit-feature factor route."""
    return n if dense else getattr(kernel, "size", n)


def _observe_feature_matrix(count, args, phi):
    rows, cols = phi.shape
    count["kernels.feature_matrix.bytes"] += rows * cols * 8


def _observe_gram_decomposition(count, args, dec):
    dense = dec.rank == dec.dim
    count["kernels.gram_decomposition.dense_calls"] += dense
    count["kernels.eig_work"] += _eig_dim(args["k"], dec.dim, dense) ** 3


def _observe_gram_eigenvalues(count, args, eigs):
    kernel, n = args["k"], eigs.shape[0]
    dense = not n > getattr(kernel, "size", n)
    count["kernels.eig_work"] += _eig_dim(kernel, n, dense) ** 3


def _observe_balancing_select(count, args, diag):
    count["balancing.selections"] += 1
    count["balancing.pairs"] += len(diag.pairwise_norms)
    count["balancing.jplus_total"] += len(diag.jplus)
    count["balancing.saturated"] += diag.lambda_hat == 1.0


def _observe_geometric_grid(count, args, g):
    count["grid.grids"] += 1
    count["grid.points"] += g.size


OBSERVERS = {
    "kernels.feature_matrix": _observe_feature_matrix,
    "kernels.gram_decomposition": _observe_gram_decomposition,
    "kernels.gram_eigenvalues": _observe_gram_eigenvalues,
    "balancing.balancing_select": _observe_balancing_select,
    "grid.geometric_grid": _observe_geometric_grid,
}

# Metrics derived by the observers rather than timed.
COMPUTED = ("kernels.feature_matrix.bytes", "kernels.gram_decomposition.dense_calls",
            "kernels.eig_work", "balancing.pairs", "balancing.jplus_size",
            "balancing.saturated_frac", "grid.size")


def resolve_targets() -> tuple[dict, list[str]]:
    """Map "module.function" to the library function, and list the names not found."""
    found, missing = {}, []
    for module_name, names in TARGETS.items():
        module = importlib.import_module(f"lepskii.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                found[f"{module_name}.{name}"] = fn
            else:
                missing.append(f"lepskii.{module_name}.{name}")
    return found, missing


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs).arguments
                observe(self.counts[span.op], bound, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def traced(self, op: int):
        """Patch every caller's attribute for each target with a recording wrapper for one op."""
        targets, missing = resolve_targets()
        if missing:
            raise MissingTargetError(", ".join(missing))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lepskii" or key.startswith("lepskii."))]
        patches = []
        for name, fn in targets.items():
            wrapper = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, fn))
        self._op = op
        try:
            yield
        finally:
            self._op = -1
            for module, attr, fn in reversed(patches):
                setattr(module, attr, fn)

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-op means over `ops`: calls and self seconds of every target, plus the
        computed counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        wanted = set(ops)
        calls, self_s = Counter(), defaultdict(float)
        for span, covered in zip(self.spans, child):
            if span.op in wanted:
                calls[span.name] += 1
                self_s[span.name] += span.end - span.start - covered
        count = Counter()
        for op in ops:
            count.update(self.counts[op])
        k = len(ops)
        metrics = {}
        for module_name, names in TARGETS.items():
            for name in names:
                key = f"{module_name}.{name}"
                metrics[f"{key}.calls"] = calls[key] / k
                metrics[f"{key}.self_s"] = self_s[key] / k
        for key in ("kernels.feature_matrix.bytes", "kernels.gram_decomposition.dense_calls",
                    "kernels.eig_work", "balancing.pairs"):
            metrics[key] = count[key] / k
        selections = count["balancing.selections"]
        metrics["balancing.jplus_size"] = count["balancing.jplus_total"] / selections if selections else 0.0
        metrics["balancing.saturated_frac"] = count["balancing.saturated"] / selections if selections else 0.0
        metrics["grid.size"] = count["grid.points"] / count["grid.grids"] if count["grid.grids"] else 0.0
        return metrics

    def total_seconds(self, ops: list[int]) -> dict[str, float]:
        """Per-op mean of each target's inclusive time, children included."""
        wanted = set(ops)
        total = defaultdict(float)
        for span in self.spans:
            if span.op in wanted:
                total[span.name] += span.end - span.start
        return {name: value / len(ops) for name, value in total.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent, "op": s.op}) + "\n")
