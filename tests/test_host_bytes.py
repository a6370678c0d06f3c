"""Identical inputs give identical bytes on any x86 host, whatever SIMD
extensions its CPU has.

numpy picks a kernel for some routines (np.exp, take and the integer
shifts among them) by the CPU features it finds at start-up, and kernels
for different features may give different results.  This test turns off
every feature numpy would dispatch to on this host
(NPY_DISABLE_CPU_FEATURES) and re-runs the pipeline's golden hashes, a few
CLI corpus entries and the record reader's property and refusal tests in
that process, so a byte that follows the host's SIMD shows here rather
than only on another machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# numpy 1.x keeps this module under numpy.core and is not checked here
umath = pytest.importorskip("numpy._core._multiarray_umath")

ROOT = Path(__file__).resolve().parents[1]

GOLDEN_TESTS = [
    "tests/test_pipeline.py",
    "tests/test_cli_golden.py::test_cli_bytes[run]",
    "tests/test_cli_golden.py::test_cli_bytes[metrics]",
    "tests/test_cli_golden.py::test_cli_bytes[notch]",
    # the record reader's take and shifts, and its refusals
    "tests/test_telemetry.py::TestCodeTextDecoding::test_reader_takes_exactly_canonical_base64_of_whole_words",
    "tests/test_telemetry.py::TestCodeTextDecoding::test_reader_on_5000_codes_with_one_letter_changed",
    "tests/test_telemetry.py::TestCodeTextDecoding::test_non_canonical_base64_refused",
]

# fails unless numpy took the disabled features off, then runs the tests
RUN = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[1].split() if __cpu_features__[name]]
assert not still_on, f"still on: {still_on}"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def test_golden_bytes_hold_without_the_hosts_simd_kernels():
    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not enabled:
        pytest.skip("numpy dispatches to no optional CPU feature on this host")
    disabled = " ".join(enabled)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    env["NPY_DISABLE_CPU_FEATURES"] = disabled
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUN, disabled, *GOLDEN_TESTS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
