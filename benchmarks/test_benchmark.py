"""Self-tests of the benchmark at smoke size.

Run from the root of the repository:

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def bench(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """One smoke-size run: (final JSON result, digests printed before it)."""
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
            "--size", "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = dict(line.split(" ", 1) for line in lines[:-1])
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    result, _ = bench(workload, seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_input_and_output(workload):
    _, first = bench(workload, seed=5)
    _, again = bench(workload, seed=5)
    _, other = bench(workload, seed=6)
    assert first == again
    assert first["input_digest"] != other["input_digest"]


def test_fails_without_sources(tmp_path):
    """Without the sources next to it there is no program to measure."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks"),
        tmp_path / "benchmarks",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "scripted-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
