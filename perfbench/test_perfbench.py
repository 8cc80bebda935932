"""Smoke test of the benchmark itself, at tiny sizes; runs in a few seconds.

    python3 -m pytest perfbench -q

It runs each workload's op and output check, the timed and the traced phase, and shows
that the check catches a perturbed copy of a reference value. The library is never touched.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402
from lepskii import experiments, kernels  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> workloads.Workload:
    return {
        "mc-regular": lambda: workloads.McRegular(n=256, size=100),
        "balance-gaussian": lambda: workloads.BalanceGaussian(n=128, size=100),
        "concentration": lambda: workloads.Concentration(n_values=(60, 200), size=100),
    }[name]()


def perturbed(name: str, record: dict) -> list[dict]:
    """Copies of a reference record, each with one value moved past the check's tolerance."""
    out = []
    if name == "mc-regular":
        for col, factor in (("lambda_hat_half", 2.0), ("err_s12_at_hat", 1.0 + 1e-10)):
            bad = copy.deepcopy(record)
            bad[col] *= factor
            out.append(bad)
    elif name == "balance-gaussian":
        bad = copy.deepcopy(record)
        key = next(iter(bad["pairwise_norms"]))
        bad["pairwise_norms"][key] *= 1.0 + 1e-6
        out.append(bad)
        bad = copy.deepcopy(record)
        bad["jplus"] = bad["jplus"][:-1]
        out.append(bad)
    else:
        bad = copy.deepcopy(record)
        n = next(iter(bad["events"]))
        bad["events"][n] = [not e for e in bad["events"][n]]
        out.append(bad)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_op_passes_its_reference_and_a_perturbed_copy_fails(name, tmp_path):
    wl = tiny(name)
    wl.setup(3, tmp_path)
    assert wl.reference == {}  # the committed reference is for the full-size instance
    record = wl.run_op(1)
    assert wl.check(1, record) == ([], False)

    key = str(wl.op_key(1))
    wl.reference = {key: json.loads(json.dumps(record))}  # as record_reference stores it
    assert wl.check(1, record) == ([], True)
    for bad in perturbed(name, wl.reference[key]):
        wl.reference = {key: bad}
        problems, has_reference = wl.check(1, record)
        assert has_reference and problems


def test_committed_reference_checks_a_full_size_op():
    wl = workloads.Concentration()
    wl.setup(0, Path("."))
    assert wl.reference, "perfbench/reference/concentration.json is missing or stale"
    record = wl.run_op(0)
    assert wl.check(0, record) == ([], True)
    for bad in perturbed(wl.name, wl.reference["0"]):
        wl.reference = {"0": bad}
        assert wl.check(0, record)[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_committed_reference_matches_its_instance(name):
    doc = json.loads((workloads.REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert doc["instance"] == workloads.WORKLOADS[name]().instance
    assert "0" in doc["entries"]


def test_structural_check_flags_an_error_tag(tmp_path):
    wl = tiny("mc-regular")
    wl.setup(0, tmp_path)
    record = wl.run_op(0)
    record["error"] = "EmptyJError: boom"
    assert wl.check(0, record)[0]


def test_failing_op_counts_as_failed(tmp_path):
    wl = tiny("concentration")
    wl.setup(0, tmp_path)
    wl.run_op = lambda i: 1 / 0
    tally = run.Tally(wl)
    _, ok = tally.run(0)
    assert not ok and tally.failed == 1 and "ZeroDivisionError" in tally.failures[0]


def test_timed_phase_reports_every_end_to_end_metric(tmp_path):
    wl = tiny("concentration")
    wl.setup(0, tmp_path)
    tally = run.Tally(wl)
    metrics, detail = run.timed_phase(tally, seconds=0.3)
    assert set(metrics) | {"setup_s", "correct_frac"} == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert tally.failed == 0 and detail["timed_ops"] == tally.attempted >= 1
    assert metrics["op_s.p50"] > 0 and metrics["ops_per_s"] > 0


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_phase_counts_repeat_and_patches_are_undone(name, tmp_path):
    originals = (experiments.gram_decomposition, kernels.feature_matrix)
    runs = []
    for attempt in range(2):
        wl = tiny(name)
        wl.setup(0, tmp_path)
        tally = run.Tally(wl)
        metrics, detail = run.traced_phase(tally, seconds=0.0, spans_path=tmp_path / "spans.jsonl")
        assert tally.failed == 0 and detail["pairs"] == 1
        runs.append(metrics)
    assert (experiments.gram_decomposition, kernels.feature_matrix) == originals
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(runs[0])
    counted = [k for k in runs[0] if k.endswith(".calls") or k in spans.COMPUTED]
    assert {k: runs[0][k] for k in counted} == {k: runs[1][k] for k in counted}
    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines and all(json.loads(line)["op"] == 1 for line in lines)

    m = runs[0]
    if name == "mc-regular":
        assert m["kernels.feature_matrix.calls"] > 0 and m["balancing.balancing_select.calls"] == 2
        # 128-row calls: the hold-out decomposition and both sides of each predict
        half = 1 + 2 * m["estimators.predict.calls"]
        full = m["kernels.feature_matrix.calls"] - half
        assert m["kernels.feature_matrix.bytes"] == 8 * 100 * (256 * full + 128 * half)
    elif name == "balance-gaussian":
        assert m["kernels.feature_matrix.calls"] == 0 and m["cli.dispatch.calls"] == 1
        assert m["kernels.gram_decomposition.dense_calls"] == 1 and m["kernels.eig_work"] == 128**3
    else:
        assert m["kernels.gram_eigenvalues.calls"] == 2 and m["kernels.eig_work"] == 60**3 + 100**3


def test_missing_trace_target_is_reported(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "kernels", spans.TARGETS["kernels"] + ("no_such_function",))
    with pytest.raises(spans.MissingTargetError, match="lepskii.kernels.no_such_function"):
        with spans.SpanRecorder().traced(op=1):
            pass


def test_self_time_excludes_children():
    rec = spans.SpanRecorder()
    rec.spans = [spans.Span("experiments.run_experiment", 0.0, 10.0, -1, 1),
                 spans.Span("kernels.feature_matrix", 1.0, 4.0, 0, 1),
                 spans.Span("estimators.predict", 5.0, 9.0, 0, 1),
                 spans.Span("kernels.feature_matrix", 6.0, 8.0, 2, 1)]
    m = rec.layer_metrics([1])
    assert m["experiments.run_experiment.self_s"] == 3.0
    assert m["estimators.predict.self_s"] == 2.0
    assert m["kernels.feature_matrix.self_s"] == 5.0 and m["kernels.feature_matrix.calls"] == 2


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "concentration", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "cannot import the library" in proc.stderr
