"""Tests of the benchmark itself, at reduced workload sizes.

    python -m pytest helmbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str, seed: int = 1):
    return workloads.WORKLOADS[name](seed, small=True)


@pytest.mark.parametrize("name", NAMES)
def test_workload_completes_without_failures(name):
    out = harness.measure(small(name), seconds=0.0, trace=False)
    assert out.attempted > 0
    assert out.failed == 0, out.problems


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_matches_recorded_values(name):
    attempted, problems = workloads.check_reference(workloads.WORKLOADS[name])
    assert attempted > 0
    assert problems == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_request_matches_untraced_bit_for_bit(name):
    workload = small(name, seed=2)
    plain = workload.signature(workload.run())
    recorder = harness.SpanRecorder()
    with harness.instrument(recorder):
        traced = workload.signature(workload.run())
    assert recorder.spans, "nothing was traced"
    assert traced == plain


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat_across_runs(name):
    first = harness.measure(small(name, seed=3), seconds=0.0, trace=True)
    second = harness.measure(small(name, seed=3), seconds=0.0, trace=True)
    assert first.failed == 0 and second.failed == 0, first.problems + second.problems
    assert harness.exact_counts(first.recorders[0]) == harness.exact_counts(second.recorders[0])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    for name in declared_e2e + declared_layer:
        assert METRIC_NAME.fullmatch(name), name
    out = harness.measure(small("layer_stats"), seconds=0.0, trace=True)
    assert list(harness.per_layer(out, threads=1)) == declared_layer
    assert list(harness.end_to_end(out, setup_s=1.0)) == declared_e2e


def test_self_time_subtracts_overlapping_children():
    parent = harness.Span("p", 0.0, None, end=10.0)
    parent.children = [harness.Span("a", 1.0, parent, end=4.0),
                       harness.Span("b", 3.0, parent, end=6.0),
                       harness.Span("c", 8.0, parent, end=12.0)]
    assert parent.self_time == pytest.approx(10.0 - 5.0 - 2.0)


def test_cli_prints_result_line():
    proc = subprocess.run([sys.executable, "helmbench/run.py", "--workload", "c1_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_cli_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "helmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "helmbench/run.py", "--workload", "c1_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
