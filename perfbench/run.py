#!/usr/bin/env python3
"""Benchmark entry point: one workload in this process, closed loop with one caller.

    python3 perfbench/run.py --workload mc-regular --seed 0 --seconds 35 --trace 0

One op runs at a time, with no threads or pool, and BLAS pinned to one thread before numpy
is imported. Op i draws its input from the workload seed (see workloads.py); op 0 is a
warm-up, reported apart from the timed ops. Every op's output is checked.

With --trace 0 the timed ops run for --seconds and the end-to-end metrics are reported.
With --trace 1 ops run in pairs, once untraced and once traced on the same input, and the
per-layer metrics of spans.py are reported with the tracing overhead; the pair count is fixed
by --seconds alone, so calls and computed counts repeat exactly.

The metric names and units are the ones BENCHMARK.json declares. The second-to-last line
of standard output is a report (environment, op count, tail percentile, reference
coverage, failures); the last line is the result object. Both are also written under
.perfbench_out/, with the spans of a traced run.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Imports (in fresh interpreters) and the workload's set-up are each repeated this many
# times, and the sum of their medians is reported as setup_s.
SETUP_REPEATS = 5
EXIT_NO_LIBRARY, EXIT_REFUSED, EXIT_TRACE_TARGET = 2, 3, 4


def pin_blas() -> None:
    """Pin BLAS to one thread; takes effect only before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import lepskii from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lepskii

    if not Path(lepskii.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lepskii was imported from {lepskii.__file__}, not from {src}")
    return lepskii


def import_runs(repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter, BLAS pinned as here, to start, import the
    library from this checkout and exit; the process's own import is timed only once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms and quantizes the time
        subprocess.run([sys.executable, "-c", "import lepskii, lepskii.cli"], env=env, cwd=ROOT,
                       check=True)
        runs.append(time.perf_counter() - start)
    return runs


def blas_info() -> dict:
    """Version, core type and thread count of the OpenBLAS numpy loaded, read through its
    own API; None where it cannot be read."""
    info = {"library": None, "config": None, "core": None, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line]
    if not paths:
        return info
    info["library"] = os.path.basename(paths[0])
    lib = ctypes.CDLL(paths[0])
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"),
                           ("openblas", "")):
        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if threads is None:
            continue
        threads.restype = ctypes.c_int
        info["threads"] = threads()
        for key, fn in (("config", "get_config"), ("core", "get_corename")):
            getter = getattr(lib, f"{prefix}_{fn}{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                info[key] = getter().decode()
        break
    return info


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Runs ops, times each, checks each output and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.with_reference = 0
        self.failures: list[str] = []

    def run(self, i: int) -> tuple[float, bool]:
        """Run op i; return its wall seconds and whether its output passed the check."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            record = self.workload.run_op(i)
            elapsed = time.perf_counter() - start
            problems, has_reference = self.workload.check(i, record)
        except Exception as exc:  # a raising op or unreadable output fails the op, not the run
            elapsed = time.perf_counter() - start
            problems, has_reference = [f"raised {type(exc).__name__}: {exc}"], False
        self.with_reference += has_reference
        if problems:
            self.failed += 1
            self.failures.append(f"op {i} (key {self.workload.op_key(i)}): {'; '.join(problems)}")
        return elapsed, not problems


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten ops beyond it: (value, percentile, ops
    beyond). Below 21 ops that percentile would not lie above the median, so the maximum
    is reported as percentile 100 with no ops beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def timed_phase(tally: Tally, seconds: float) -> tuple[dict, dict]:
    """Untraced ops 1, 2, ... until the next op, at the mean op time so far, would end
    past --seconds."""
    times, correct = [], 0
    start = time.perf_counter()
    i = 1
    while True:
        elapsed, ok = tally.run(i)
        times.append(elapsed)
        correct += ok
        i += 1
        elapsed_total = time.perf_counter() - start
        if elapsed_total + elapsed_total / len(times) > seconds:
            break
    wall = time.perf_counter() - start
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": correct / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"timed_ops": len(times), "timed_wall_s": wall, "tail_percentile": tail_pct,
              "tail_ops_beyond": beyond, "op_s": times}
    return metrics, detail


def traced_phase(tally: Tally, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Pairs of ops 1..K, each run untraced and traced; K = seconds / (2 x nominal op time)."""
    import spans

    pairs = max(1, int(seconds / (2.0 * tally.workload.nominal_op_s)))
    recorder = spans.SpanRecorder()
    untraced, traced = [], []
    for i in range(1, pairs + 1):
        # alternate which side runs first, so an order effect cancels in the overhead
        for traced_side in (False, True) if i % 2 else (True, False):
            if traced_side:
                with recorder.traced(op=i):
                    traced.append(tally.run(i)[0])
            else:
                untraced.append(tally.run(i)[0])
    recorder.write(spans_path)
    ops = list(range(1, pairs + 1))
    metrics = recorder.layer_metrics(ops)
    traced_p50, traced_mean = statistics.median(traced), statistics.fmean(traced)
    metrics["trace.op_s.p50"] = traced_p50
    metrics["trace.overhead_frac"] = traced_p50 / statistics.median(untraced) - 1.0
    detail = {
        "pairs": pairs,
        "untraced_op_s": untraced,
        "traced_op_s": traced,
        "computed": list(spans.COMPUTED),
        # shares of the mean traced op, since layer times are means per op
        "self_share_of_traced_op": {
            key[: -len(".self_s")]: value / traced_mean
            for key, value in metrics.items() if key.endswith(".self_s")
        },
        "total_share_of_traced_op": {
            key: value / traced_mean for key, value in recorder.total_seconds(ops).items()
        },
        "all_layer_metrics": metrics,
        "spans": spans_path.name,
    }
    return metrics, detail


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    try:
        import_library()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    import_s = time.perf_counter() - _T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_REFUSED
    env = environment(args)
    if env["blas"]["threads"] not in (None, 1) or any(v != "1" for v in env["blas_thread_pin"].values()):
        print(f"perfbench: refusing to time a run with BLAS not pinned to one thread: "
              f"{env['blas']['threads']} threads, {env['blas_thread_pin']}", file=sys.stderr)
        return EXIT_REFUSED
    units = declared_metrics(bool(args.trace))
    if args.trace:
        import spans

        _, missing = spans.resolve_targets()
        if missing:
            # a refactor moved a layer call: say so rather than report zero calls
            print(f"perfbench: functions to trace are missing: {', '.join(missing)}",
                  file=sys.stderr)
            return EXIT_TRACE_TARGET

    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        imports = import_runs(SETUP_REPEATS)
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_runs.append(time.perf_counter() - start)
        tally = Tally(workload)
        warmup_s, _ = tally.run(0)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, detail = traced_phase(tally, args.seconds, OUT_DIR / f"{stem}.spans.jsonl")
        else:
            metrics, detail = timed_phase(tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["setup_s"] = statistics.median(imports) + statistics.median(setup_runs)
    metrics["correct_frac"] = (tally.attempted - tally.failed) / tally.attempted

    report = {
        "environment": env,
        "import_s": import_s,
        "import_runs_s": imports,
        "setup_runs_s": setup_runs,
        "warmup_s": warmup_s,
        "reference": {
            "checked_ops": tally.with_reference,
            "unavailable_ops": tally.attempted - tally.with_reference,
        },
        "failures": tally.failures[:10],
        **detail,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
