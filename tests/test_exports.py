"""The package namespace carries every name its modules export, and only
the cloud model starts threads."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ecgmon

MODULES = sorted(m.name for m in pkgutil.iter_modules(ecgmon.__path__))


def test_modules_found():
    assert {"dsp", "pipeline", "telemetry"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_is_on_the_package(module):
    mod = importlib.import_module(f"ecgmon.{module}")
    for name in getattr(mod, "__all__", ()):
        assert getattr(ecgmon, name, None) is getattr(mod, name), f"ecgmon.{name}"


# modules whose import lets a module start threads, or serve in them
THREAD_MODULES = ("threading", "_thread", "concurrent.futures", "socketserver", "http.server")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_the_cloud_model_imports_threads():
    """The pipeline, the buffer and every command run in one thread; only
    ecgmon.cloud's loopback listener serves requests from its own threads.
    A lock-free stage stays correct only while that holds."""
    found = {}
    for path in sorted(Path(ecgmon.__file__).parent.glob("*.py")):
        imported = set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
        hits = sorted({t for t in THREAD_MODULES for m in imported
                       if m == t or m.startswith(t + ".")})
        if hits:
            found[path.stem] = hits
    assert found == {"cloud": ["socketserver", "threading"]}
