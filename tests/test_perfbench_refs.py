"""The benchmark's workloads still give the committed reference answers.

perfbench/run.py checks every repetition against perfbench/refs, but only
when the benchmark runs. These checks run every exact workload at reference
seeds 0, 7 and 13 and the estimator workload at all 16 reference seeds
through spavg.cli.main, as the benchmark's child process does, and compare
their outputs with the same functions, so a change of answer shows up in
the test suite. The estimator workload's statistical check (within 5
combined standard errors) is the only gate on its answer, and one of its
runs takes about 0.1 s. The workload definitions and the comparison are
loaded read-only from perfbench/.
"""

import importlib
import pathlib
import sys

import pytest

import spavg.cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (0, 7, 13)
ESTIMATOR_SEEDS = range(16)


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


def run_workload(workloads, name, seed, tmp_path):
    """Run workload `name` at reference seed `seed` into tmp_path; returns its output directory."""
    workload = workloads.WORKLOADS[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(workload.config_text(), encoding="utf-8")
    out = tmp_path / name
    argv = [workload.command, "--config", str(config), "--seed", str(workloads.master_seed(seed))]
    assert spavg.cli.main(argv + ["--out", str(out)]) in (0, 1)
    return out


def reference(name, seed):
    return PERFBENCH / "refs" / name / f"seed{seed:02d}"


EXACT = ["converge-burgers", "converge-plaplace", "diagnose-burgers"]


def check_exact(perfbench, tmp_path, name, seed):
    workloads, compare = perfbench
    assert workloads.WORKLOADS[name].exact
    out = run_workload(workloads, name, seed, tmp_path)
    assert compare.compare_outputs(str(reference(name, seed)), str(out)) == []


@pytest.mark.parametrize("name", EXACT)
def test_exact_workloads_match_their_references(perfbench, tmp_path, name):
    check_exact(perfbench, tmp_path, name, SEEDS[0])


@pytest.mark.parametrize("seed", SEEDS[1:])
@pytest.mark.parametrize("name", EXACT)
def test_exact_workloads_match_their_references_at_more_seeds(perfbench, tmp_path, name, seed):
    check_exact(perfbench, tmp_path, name, seed)


def check_estimator(perfbench, tmp_path, seed):
    workloads, compare = perfbench
    name = "converge-estimator"
    out = run_workload(workloads, name, seed, tmp_path)
    replicas = dict(workloads.WORKLOADS[name].config)["replicas"]
    assert compare.check_estimator(str(reference(name, seed)), str(out), int(replicas)) == []


def test_estimator_workload_matches_its_reference(perfbench, tmp_path):
    check_estimator(perfbench, tmp_path, ESTIMATOR_SEEDS[0])


@pytest.mark.parametrize("seed", ESTIMATOR_SEEDS[1:])
def test_estimator_workload_matches_its_reference_at_more_seeds(perfbench, tmp_path, seed):
    check_estimator(perfbench, tmp_path, seed)
