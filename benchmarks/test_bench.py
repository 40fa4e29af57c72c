"""Tests of the benchmark itself, at its seconds-long ``tiny`` scale.

Run from the repository root:

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that later changes may cite exactly.
COUNT_SUFFIXES = (".paths", ".candidates", ".solves_per_init", ".rounds", ".calls")


def bench(root: Path, workload: str, trace: int, seconds: float = 0, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def result(workload: str, trace: int, seconds: float = 0) -> dict:
    proc = bench(ROOT, workload, trace, seconds)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stderr
    return doc


def units(doc: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    doc = result(workload, trace=0)
    assert units(doc) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    """Across two processes here; within a process, a run with several
    traced iterations fails when their counts differ."""
    first, second = result(workload, trace=1, seconds=2), result(workload, trace=1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    assert any(first["metrics"][name]["value"] for name in counts)
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_library(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run exits
    nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "exact", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
