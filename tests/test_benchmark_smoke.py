"""The benchmark's gated workloads still run on this checkout.

Runs perfbench/run.py briefly, untraced, for each workload BENCHMARK.json
gates, and checks that it exits 0 and reports its correctness checks
passed.  A package change that breaks a workload (a name it imports, the
listener uplink starts) then fails here, not only in a benchmark run.
It reads perfbench/ and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
