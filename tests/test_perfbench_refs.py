"""The benchmark's workloads still give the committed reference answers.

perfbench/run.py checks every repetition against perfbench/refs, but only
when the benchmark runs. These checks run three workloads at seed 0 through
spavg.cli.main, as the benchmark's child process does, and compare their
outputs with the same functions, so a change of answer shows up in the test
suite. The workload definitions and the comparison are loaded read-only
from perfbench/.
"""

import importlib
import pathlib
import sys

import pytest

import spavg.cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's workloads and compare modules, imported without writing there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("workloads", "compare")
    for name in names:
        sys.modules.pop(name, None)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


def run_workload(workloads, name, tmp_path):
    """Run workload `name` at SEED into tmp_path; returns its output directory."""
    workload = workloads.WORKLOADS[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(workload.config_text(), encoding="utf-8")
    out = tmp_path / name
    argv = [workload.command, "--config", str(config), "--seed", str(workloads.master_seed(SEED))]
    assert spavg.cli.main(argv + ["--out", str(out)]) in (0, 1)
    return out


def reference(name):
    return PERFBENCH / "refs" / name / f"seed{SEED:02d}"


@pytest.mark.parametrize("name", ["converge-burgers", "converge-plaplace", "diagnose-burgers"])
def test_exact_workloads_match_their_references(perfbench, tmp_path, name):
    workloads, compare = perfbench
    assert workloads.WORKLOADS[name].exact
    out = run_workload(workloads, name, tmp_path)
    assert compare.compare_outputs(str(reference(name)), str(out)) == []


def test_estimator_workload_matches_its_reference(perfbench, tmp_path):
    workloads, compare = perfbench
    name = "converge-estimator"
    out = run_workload(workloads, name, tmp_path)
    replicas = dict(workloads.WORKLOADS[name].config)["replicas"]
    assert compare.check_estimator(str(reference(name)), str(out), int(replicas)) == []
