"""Names other code relies on: the benchmark's trace hooks and the export lists.

perfbench/tracing.py wraps spavg functions by module and attribute name, so a
rename in spavg breaks a traced benchmark run without breaking any import.
These checks load that file read-only and resolve every name it wraps.
"""

import importlib
import inspect
import pathlib
import pkgutil
import sys

import pytest

import spavg
import spavg.experiments

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported from its directory without writing there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("tracing", None)
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_trace_targets_resolve(tracing):
    for owner_path, attribute, _, _ in tracing.TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attribute, None)), f"{owner_path}.{attribute}"
    assert callable(importlib.import_module("spavg.grid").norm_values)
    # The replay counter reads the noise path as the third positional argument.
    parameters = list(inspect.signature(spavg.experiments.build_auxiliary).parameters)
    assert parameters[2] == "noise"


def test_export_lists_resolve():
    for info in pkgutil.iter_modules(spavg.__path__):
        module = importlib.import_module(f"spavg.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"spavg.{info.name}.{name}"
    for name in spavg.__all__:
        assert hasattr(spavg, name), f"spavg.{name}"
