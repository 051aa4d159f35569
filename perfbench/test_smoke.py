"""Smoke test of the benchmark at the tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced; every metric that
BENCHMARK.json declares must be emitted with its declared unit, and every
output check must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("python", "numpy", "blas", "blas_version", "blas_threads", "nproc", "platform", "git_sha"):
        assert key in report["environment"]
    assert report["environment"]["seed"] == 3


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "surface", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
