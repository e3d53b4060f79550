"""The benchmark harness still runs against the package.

The harness in ``perfbench/`` calls the package by name (functions, keyword
arguments, CLI options). Running its self-check and one untimed pass of each
workload here catches a signature change that would break those calls, and
checks that every output still matches the pinned references.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_harness(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_harness_self_check_passes():
    proc = _run_harness("--self-check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_of_each_workload_is_correct(workload):
    proc = _run_harness("--workload", workload, "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
