"""Tests of the benchmark itself (not of spavg).

    python3 -m pytest -q perfbench/tests

They run spavg on tiny configs (4 macro steps), so the whole file takes a
few tens of seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SHORT = (("T", "0.0078125"), ("epsilon_grid", "0.1, 0.05, 0.02"), ("replicas", "2"))
TINY = Workload("tiny", "converge", SHORT + (("slow_kind", "p_laplace"),), "test")
BREAKDOWN = Workload(
    "breakdown",
    "converge",
    (("slow_kind", "p_laplace"), ("newton_tol", "1e-30"), ("T", "0.0078125")),
    "test",
)


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    """References for TINY at master seed 0, made the way make_refs.py makes them."""
    refs = tmp_path_factory.mktemp("refs")
    rep_dir = str(refs / "rep")
    rep = run.run_rep(TINY, 0, rep_dir, ref_dir=None)
    assert rep.exit_code in (0, 1) and not rep.problems
    shutil.copytree(os.path.join(rep_dir, "out"), run.reference_dir(TINY, 0, str(refs)))
    return str(refs)


def test_printed_metric_names_are_in_benchmark_json(tiny_refs):
    spec = _benchmark_json()
    plain = run.measure(TINY, 0, 0.0, trace=False, refs=tiny_refs)["result"]
    traced = run.measure(TINY, 0, 0.0, trace=True, refs=tiny_refs)["result"]
    assert plain["correct"] and traced["correct"]
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for metrics in (plain["metrics"], traced["metrics"]):
        for name, metric in metrics.items():
            assert metric["unit"] == units[name], name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_exact_counts_repeat_across_traced_runs(tiny_refs):
    first = run.measure(TINY, 0, 0.0, trace=True, refs=tiny_refs)["result"]["metrics"]
    second = run.measure(TINY, 0, 0.0, trace=True, refs=tiny_refs)["result"]["metrics"]
    counts = [name for name, metric in first.items() if metric["unit"] == "count"]
    assert "operators.slow_drift.calls" in counts and first["operators.slow_drift.calls"]["value"] > 0
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    shares = sum(m["value"] for name, m in first.items() if name.endswith(".share"))
    assert shares == pytest.approx(1.0, rel=1e-6)


def test_forced_numerical_breakdown_fails_every_job(tmp_path):
    rep = run.run_rep(BREAKDOWN, 0, str(tmp_path / "rep"), ref_dir=None)
    assert rep.exit_code == 3
    assert rep.failed == rep.jobs == 4 * 100
    summary = run.measure(BREAKDOWN, 0, 0.0, trace=False, refs=str(tmp_path))
    assert not summary["result"]["correct"]
    assert summary["failed_frac"] == 1.0
    assert summary["result"]["metrics"]["completed_frac"]["value"] == 0.0


def _copy_reference(name: str, tmp_path) -> tuple[str, str]:
    ref = os.path.join(run.REFS, name, "seed00")
    out = str(tmp_path / "out")
    shutil.copytree(ref, out)
    return ref, out


def _rewrite_cell(path: str, row: int, column: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(fn(float(cells[i])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["converge-burgers", "diagnose-burgers"])
def test_comparator_accepts_references_and_rounding(name, tmp_path):
    ref, out = _copy_reference(name, tmp_path)
    assert compare.compare_outputs(ref, out) == []
    csv_name = "convergence.csv" if name.startswith("converge") else "deviation_scaling.csv"
    column = "error_mean" if name.startswith("converge") else "value_mean"
    _rewrite_cell(os.path.join(out, csv_name), 1, column, lambda v: v * (1 + 1e-12))
    assert compare.compare_outputs(ref, out) == []


def test_comparator_rejects_perturbed_value(tmp_path):
    ref, out = _copy_reference("converge-burgers", tmp_path)
    _rewrite_cell(os.path.join(out, "convergence.csv"), 2, "error_mean", lambda v: v * (1 + 1e-5))
    problems = compare.compare_outputs(ref, out)
    assert len(problems) == 1 and "error_mean" in problems[0]


def test_comparator_rejects_missing_row_and_file(tmp_path):
    ref, out = _copy_reference("diagnose-burgers", tmp_path)
    path = os.path.join(out, "moment_uniformity.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    os.remove(os.path.join(out, "diagnostics_report.txt"))
    problems = compare.compare_outputs(ref, out)
    assert any("moment_uniformity.csv" in p and "rows" in p for p in problems)
    assert any("diagnostics_report.txt: missing" in p for p in problems)


def test_report_lines_compare_verdicts_exactly_and_numbers_to_printed_digit():
    line = "epsilon=0.1 delta=0.215443 error_mean=5.029047e-05 stderr=1.50e-05 replicas=3"
    assert compare.compare_report_line(line, line.replace("5.029047e-05", "5.029048e-05"))
    assert not compare.compare_report_line(line, line.replace("5.029047e-05", "5.029049e-05"))
    assert not compare.compare_report_line(line, line.replace("replicas=3", "replicas=2"))
    assert not compare.compare_report_line("overall: PASS", "overall: FAIL")


def test_estimator_check_is_statistical(tmp_path):
    ref, out = _copy_reference("converge-estimator", tmp_path)
    replicas = int(dict(WORKLOADS["converge-estimator"].config)["replicas"])
    assert compare.check_estimator(ref, out, replicas) == []
    csv_path = os.path.join(out, "convergence.csv")
    _rewrite_cell(csv_path, 0, "error_mean", lambda v: v * (1 + 1e-6))
    assert compare.check_estimator(ref, out, replicas) == []
    _rewrite_cell(csv_path, 0, "error_mean", lambda v: v * 100.0)
    assert compare.check_estimator(ref, out, replicas)
    _rewrite_cell(csv_path, 1, "replicas", lambda v: int(v) - 1)
    assert len(compare.check_estimator(ref, out, replicas)) == 2
