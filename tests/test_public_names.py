"""Names other code relies on: the benchmark's trace hooks and the export lists.

perfbench/tracing.py wraps spavg functions by module and attribute name, so a
rename in spavg breaks a traced benchmark run without breaking any import.
Its step counters read the results and arguments of those functions, so a
changed return shape or argument order breaks them the same way. These
checks load that file read-only, resolve every name it wraps and run its
counters on real runs.
"""

import importlib
import inspect
import pathlib
import pkgutil
import sys

import numpy as np
import pytest

import spavg
import spavg.experiments
from spavg.integrators import SchemeParams
from spavg.randomness import RngStream

from test_integrators import make_model

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


def test_trace_step_counters_read_real_runs(tracing):
    # 16 macro steps of dt = 1/64; n_sub comes from the scheme, so the
    # counters must report it as the recorded path does.
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64, dt_fast_target=0.1)
    args = (model, 0.25, params, [RngStream(5, 0)])
    coupled = spavg.experiments.simulate_coupled(*args)
    trajectory, path = coupled
    assert path.n_sub == 4
    assert tracing._coupled_steps(coupled, args, {}) == (16, 64)

    fbar = lambda x: np.zeros_like(x)  # noqa: E731
    args = (model, fbar, params, path)
    averaged = spavg.experiments.simulate_averaged(*args)
    assert tracing._averaged_steps(averaged, args, {}) == (16, 0)

    args = (model, trajectory, path, [4 / 64])
    auxiliary = spavg.experiments.build_auxiliary(*args)
    assert tracing._replayed_steps(auxiliary, args, {}) == (16, 64)
    keywords = {"noise": path, "deltas": [4 / 64]}
    assert tracing._replayed_steps(auxiliary, args[:2], keywords) == (16, 64)


def test_export_lists_resolve():
    for info in pkgutil.iter_modules(spavg.__path__):
        module = importlib.import_module(f"spavg.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"spavg.{info.name}.{name}"
    for name in spavg.__all__:
        assert hasattr(spavg, name), f"spavg.{name}"
