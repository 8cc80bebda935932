#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, with the claim rule applied to each
end-to-end metric.

    python scripts/ab_pairs.py /path/to/parent/checkout --workload balance-gaussian --pairs 10 --seed 10

The change is the checkout holding this script. Both checkouts' `src/`, `perfbench/` and
`BENCHMARK.json` are copied to temporary paths of equal length (`parent`, `change`), so the
path length, which can move `peak_rss_mb` (see `peak_rss_sweep.py`), is the same on both
sides. Pair i runs the unchanged `perfbench/run.py --trace 0` once in each copy, on seed
`--seed` + i, the parent first in even pairs and the change first in odd ones, one run at
a time. Each run's metrics are printed as it ends.

Then, for each end-to-end metric of BENCHMARK.json, the script prints each side's median
and quartiles, the change's relative move (positive is worse, by the metric's `better`),
and the pairs the change won (ties count for neither side). `claim` reads `holds` when
the change won at least CLAIM_WIN_SHARE of the pairs and its median is better than the
parent's by more than the parent's interquartile range. `bound` reads `WORSE` when the
change's median is worse than the parent's by more than the metric's bound, `unresolved`
when the parent's interquartile range exceeds the bound (unless every change run beats
every parent run), and `ok` otherwise. The copies are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from peak_rss_sweep import CHECKOUT, bench_result, make_copy

SIDES = ("parent", "change")  # also the copies' directory names, of equal length
CLAIM_WIN_SHARE = 0.9


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins, claim and bound verdicts of one metric over the pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * value: lower is better
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    claim = wins >= CLAIM_WIN_SHARE * len(parent) and sign * (pm - cm) > p3 - p1
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse > metric["bound"]:
        bound = "WORSE"
    elif pm and (p3 - p1) / abs(pm) > metric["bound"] and not all_better:
        bound = "unresolved"
    else:
        bound = "ok"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "worse": worse, "wins": wins,
            "claim": "holds" if claim else "no", "bound": bound}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--workload", default="balance-gaussian")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair i runs seed + i")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    names = [m["name"] for m in metrics]
    runs = {side: [] for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    base = Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    try:
        roots = {side: make_copy(checkout.resolve(), base / side)
                 for side, checkout in zip(SIDES, (args.parent, CHECKOUT))}
        print("pair,seed,side,failed," + ",".join(names))
        for i in range(args.pairs):
            seed = args.seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = bench_result(roots[side], args.workload, seed, args.seconds)
                values = {name: result["metrics"][name]["value"] for name in names}
                runs[side].append(values)
                failed[side] += result["failed"]
                print(f"{i},{seed},{side},{result['failed']},"
                      + ",".join(f"{values[name]:.6g}" for name in names), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}; failed ops: parent {failed['parent']}, "
          f"change {failed['change']}")
    print(f"{'metric':<14}{'parent q1 / p50 / q3':>38}{'change q1 / p50 / q3':>38}"
          f"{'worse':>9}{'wins':>8}  claim  bound")
    for metric in metrics:
        name = metric["name"]
        s = summarize(metric, *([run[name] for run in runs[side]] for side in SIDES))
        cells = ["{:.5g} / {:.5g} / {:.5g}".format(*s[side]) for side in SIDES]
        print(f"{name:<14}{cells[0]:>38}{cells[1]:>38}{s['worse']:>+9.1%}"
              f"{s['wins']:>5}/{args.pairs:<2}  {s['claim']:<5}  {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
