#!/usr/bin/env python3
"""Record the reference each benchmark op's output is checked against.

    python3 perfbench/record_reference.py --workload mc-regular --keys 64

Runs one op for each input key 0..keys-1 with BLAS pinned to one thread, and writes
perfbench/reference/<workload>.json with the instance it was recorded for. Re-record only
when the library's outputs are meant to change; the file is what later runs are held to.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import import_library, pin_blas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--keys", type=int, required=True)
    args = parser.parse_args(argv)
    pin_blas()
    import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    entries = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as workdir:
        for key in range(args.keys):
            workload.setup(key, Path(workdir))
            record = workload.run_op(0)
            problems = workload.structural(record)
            if problems:
                print(f"key {key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            entries[str(workload.op_key(0))] = record
            print(f"{args.workload} key {key} recorded", file=sys.stderr)
    doc = {
        "workload": args.workload,
        "instance": workload.instance,
        "tolerance": {
            "error_rtol": workloads.ERROR_RTOL,
            "balance_rtol": workloads.BALANCE_RTOL,
            "balance_atol_of_max_threshold": workloads.BALANCE_ATOL,
            "balance_reason": workloads.BALANCE_TOLERANCE_REASON,
        },
        "entries": entries,
    }
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
