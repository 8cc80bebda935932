#!/usr/bin/env python3
"""Peak resident memory of one benchmark workload, read from checkouts at several path lengths.

    python scripts/peak_rss_sweep.py --workload mc-regular --seeds 0 1 2 3 4 5 --seconds 10

`perfbench/run.py` reports `peak_rss_mb` from `ru_maxrss`. n x D arrays just under glibc's
32 MiB mmap ceiling come either from mmap or from the heap, depending on the heap's layout,
and that layout depends on the length of the checkout's path. A single run from one
directory can therefore miss, or invent, a memory regression.

The script copies the checkout's `src/`, `perfbench/` and `BENCHMARK.json` into one
temporary directory per entry of PADS, each path that many characters longer than the
first, runs the unchanged `perfbench/run.py --trace 0` there once per seed (one run at a
time), prints `peak_rss_mb` per run, and flags the spread as bimodal when two sorted
readings are further apart than BIMODAL_GAP times the median. The copies are removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".perfbench_out")
# extra path characters of each copy
PADS = (0, 40, 120)
# relative gap between sorted readings that counts as two modes
BIMODAL_GAP = 0.02


def make_copy(checkout: Path, base: Path, pad: int) -> Path:
    """A copy of the benchmark's inputs at base/<pad characters>."""
    root = base / ("p" * pad) if pad else base / "c"
    root.mkdir()
    for name in COPIED:
        src = checkout / name
        if src.is_dir():
            shutil.copytree(src, root / name, ignore=IGNORED)
        else:
            shutil.copy2(src, root / name)
    return root


def peak_rss(root: Path, workload: str, seed: int, seconds: float) -> float:
    """peak_rss_mb of one untraced benchmark run in `root`; raises if the run fails or
    any op fails its check."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"{result['failed']} ops failed in {root} (seed {seed})")
    return float(result["metrics"]["peak_rss_mb"]["value"])


def largest_gap(values: list[float]) -> tuple[float, float, float]:
    """(gap, below, above): the widest step between consecutive sorted values."""
    ordered = sorted(values)
    steps = [(b - a, a, b) for a, b in zip(ordered, ordered[1:])]
    return max(steps, default=(0.0, ordered[0], ordered[0]))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="mc-regular")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--checkout", type=Path, default=CHECKOUT,
                   help="checkout to copy (default: the one holding this script)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    base = Path(tempfile.mkdtemp(prefix="rss-sweep-"))
    try:
        roots = [make_copy(args.checkout.resolve(), base, pad) for pad in PADS]
        readings = []
        print("path_len,seed,peak_rss_mb")
        for seed in args.seeds:
            for root in roots:
                mb = peak_rss(root, args.workload, seed, args.seconds)
                readings.append(mb)
                print(f"{len(str(root))},{seed},{mb:.1f}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    median = statistics.median(readings)
    gap, below, above = largest_gap(readings)
    shape = "BIMODAL" if gap > BIMODAL_GAP * median else "unimodal"
    print(f"{args.workload}: {len(readings)} runs, min {min(readings):.1f}, median {median:.1f}, "
          f"max {max(readings):.1f} MB; largest gap {gap:.1f} MB ({below:.1f} -> {above:.1f}): "
          f"{shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
