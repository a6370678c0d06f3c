"""The package namespace carries every name its modules export."""

import importlib
import pkgutil

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
