"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_nesting(spans):
    """Self time >= 0: the child spans of a span fit inside its duration."""
    child_sum = defaultdict(float)
    for sid, parent, name, start, end in spans:
        assert end >= start
        child_sum[parent] += end - start
    for sid, parent, name, start, end in spans:
        assert child_sum[sid] <= end - start, name


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("got, ref, ok", [
    ("slope -5.012, want -5", "slope -5.013, want -5", True),   # last printed digit
    ("slope -5.015, want -5", "slope -5.013, want -5", False),
    ("err 3.1e-14", "err 8.0e-16", True),                       # below ATOL
    ("err 2.0e-12", "err 8.0e-16", False),
    ("2,0.12345678901234,1.0", "2,0.12345678901234567,1.0", True),
    ("2,0.1236,1.0", "2,0.12345678901234567,1.0", False),       # beyond RTOL
    ("N=2 delta=(2, 1)", "N=3 delta=(2, 1)", False),            # integers exact
    ("PASS fig1 slope 1.0", "FAIL fig1 slope 1.0", False),
])
def test_numbers_match_tolerance(got, ref, ok):
    assert wl.numbers_match(got, ref) is ok


def test_tracer_spans_nest_and_patches_are_restored():
    import sobrecon.expansion
    import sobrecon.verify
    from sobrecon.piecewise import PiecewisePoly

    original_add = PiecewisePoly.__dict__["__add__"]
    original_reconstruct = sobrecon.expansion.reconstruct
    original_suite = sobrecon.verify.SUITES["identities"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sobrecon.verify.reconstruct is not original_reconstruct
        assert sobrecon.verify.reconstruct is sobrecon.expansion.reconstruct
        results = sobrecon.verify.run_suite("identities", seed=1, trials=1)
    finally:
        tracer.uninstall()
    assert all(r.passed for r in results)
    layers, counts, spans = tracer.take_pass()
    assert layers["verify.identities"]["calls"] == 1
    assert layers["expansion.reconstruct"]["calls"] > 0
    assert counts["expansion.terms"] > 0
    assert all(entry["self_s"] >= 0 for entry in layers.values())
    _check_nesting([s[:5] for s in spans])
    assert PiecewisePoly.__dict__["__add__"] is original_add
    assert sobrecon.verify.reconstruct is original_reconstruct
    assert sobrecon.verify.SUITES["identities"] is original_suite


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = _spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert "fail_ratio 0.0 " in proc.stdout
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        return
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(metrics[k] >= 0 for k in names)
    with open(os.path.join(BENCH, "out", f"spans-{workload}-seed0.jsonl")) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    _check_nesting(spans)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
