"""The benchmark's workloads still run on this checkout.

Runs perfbench/run.py briefly, untraced and traced, for each workload
BENCHMARK.json gates, and untraced for the ungated frontend_sweep, and
checks that it exits 0 and reports its correctness checks passed.  A
package change that breaks a workload (a name it imports, the listener
uplink starts) then fails here, not only in a benchmark run; so does one
that loses a span the traced workload expects (render.map,
telemetry.decode, ...), which the traced run counts as a failed check.
frontend_sweep is the one workload that drives measure_metrics and its
sine probes; its set-up check holds the bench figures (gain within 2 %
of 1650, CMRR within 0.1 dB of 93.16 dB, 50 Hz at or below -12.6 dB).
It reads perfbench/ and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_briefly(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_runs_correctly(workload):
    run_briefly(workload, trace=0)


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_runs_correctly_traced(workload):
    run_briefly(workload, trace=1)


def test_frontend_sweep_runs_correctly():
    run_briefly("frontend_sweep", trace=0)
