"""Keeps the tests directory importable so suites can share the _oracles helpers, and pins
BLAS to one thread, so that the acceptance runs' replication threads do not oversubscribe
the CPUs and every run sums in the same order."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread; "
        "the pin takes effect only before numpy's first import"
    )
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
