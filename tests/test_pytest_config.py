"""The suite's own pytest settings: a failing test is reported, not a crash."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALWAYS_FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    """Reporting a falsifying example imports libcst, which warns a
    DeprecationWarning; under `error::DeprecationWarning` alone that aborted
    the whole session with INTERNALERROR instead of one FAILED line."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fails.py").write_text(ALWAYS_FAILING)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "FAILED tests/test_fails.py::test_always_fails" in output
    assert "INTERNALERROR" not in output
