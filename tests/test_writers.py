"""Exact text of every CSV and report writer, on hand-built results.

Cells are written as they are (text), with str (integers) or with repr
(floats), so -0.0, subnormals and nan keep their spelling; a report is its
lines joined by newlines with a trailing newline.
"""

import math

import numpy as np

from spavg.conditions import ConditionReport
from spavg.experiments import (
    ConditionsResult,
    ConvergenceResult,
    ConvergenceRow,
    DiagnosticsResult,
    DiagnosticsRow,
    FbarRunResult,
    SuiteOutcome,
    write_conditions_csv,
    write_convergence_csv,
    write_diagnostics_csv,
    write_fbar_csv,
    write_report,
    write_suite_csvs,
    write_trajectory_csv,
)
from spavg.grid import Field, Grid1D
from spavg.integrators import Trajectory

TINY = 5e-324  # the smallest subnormal double
NAN = math.nan


def test_convergence_csv_and_report_with_invalid_row(tmp_path):
    result = ConvergenceResult(
        rows=[
            ConvergenceRow(0.1, 0.25, 1.5e-05, TINY, 3),
            ConvergenceRow(0.05, -0.0, NAN, NAN, 1, failure="replica 1: boom"),
        ],
        fit=None,
        degenerate=False,
    )
    path = tmp_path / "convergence.csv"
    write_convergence_csv(result, str(path))
    assert path.read_text() == (
        "epsilon,delta,error_mean,error_stderr,replicas\n"
        "0.1,0.25,1.5e-05,5e-324,3\n"
        "0.05,-0.0,nan,nan,1\n"
    )
    report = tmp_path / "convergence_report.txt"
    write_report(result.report_lines(), str(report))
    assert report.read_text() == (
        "epsilon=0.1 delta=0.25 error_mean=1.500000e-05 stderr=4.94e-324 replicas=3\n"
        "epsilon=0.05 INVALID after 1 replicas: replica 1: boom\n"
        "fit skipped: fewer than 3 valid rows\n"
        "overall: FAIL\n"
    )


def test_diagnostics_csv_suite_split_and_report(tmp_path):
    result = DiagnosticsResult(
        rows=[
            DiagnosticsRow("alpha", "epsilon=0.1", 7, -0.0, 2),
            DiagnosticsRow("beta", "fit_slope", TINY, NAN, 1),
            DiagnosticsRow("alpha", "max_over_min", 1.25, 0.0, 2),
        ],
        outcomes=[
            SuiteOutcome("alpha", True, "ratio 1.250"),
            SuiteOutcome("beta", False, "slope tiny"),
        ],
    )
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(result, str(path))
    header = "suite,param,value_mean,value_stderr,replicas\n"
    assert path.read_text() == (
        header
        + "alpha,epsilon=0.1,7,-0.0,2\n"
        + "beta,fit_slope,5e-324,nan,1\n"
        + "alpha,max_over_min,1.25,0.0,2\n"
    )
    split = tmp_path / "split"
    split.mkdir()
    paths = write_suite_csvs(result, str(split))
    assert paths == [str(split / "alpha.csv"), str(split / "beta.csv")]
    assert (split / "alpha.csv").read_text() == (
        header + "alpha,epsilon=0.1,7,-0.0,2\n" + "alpha,max_over_min,1.25,0.0,2\n"
    )
    assert (split / "beta.csv").read_text() == header + "beta,fit_slope,5e-324,nan,1\n"
    report = tmp_path / "diagnostics_report.txt"
    write_report(result.report_lines(), str(report))
    assert report.read_text() == (
        "alpha: ratio 1.250 (PASS)\nbeta: slope tiny (FAIL)\noverall: FAIL\n"
    )


def test_conditions_csv_constants_string(tmp_path):
    result = ConditionsResult(
        reports=[
            ConditionReport("A4_growth", 40, 0, TINY, {"C": 2.5}),
            ConditionReport("B3_coercive", 40, 3, NAN, {"eta": 1, "C": -0.0}),
            ConditionReport("dissipativity_margin", 1, 0, 19.5, {"margin": 19.5, "k": TINY}),
        ]
    )
    path = tmp_path / "conditions.csv"
    write_conditions_csv(result, str(path))
    assert path.read_text() == (
        "condition,samples,violations,worst_margin,constants\n"
        "A4_growth,40,0,5e-324,C=2.5\n"
        "B3_coercive,40,3,nan,eta=1;C=-0.0\n"
        "dissipativity_margin,1,0,19.5,margin=19.5;k=5e-324\n"
    )


def test_fbar_csv_without_oracle_writes_nan(tmp_path):
    grid = Grid1D(3)
    result = FbarRunResult(
        x=Field(grid, np.array([-0.0, TINY, 0.5])),
        estimate_mean=Field(grid, np.array([1.0, 2.0, 3.0])),
        estimate_stderr=Field(grid, np.array([0.0, 0.1, TINY])),
        oracle=None,
        n_replicas=2,
    )
    path = tmp_path / "fbar.csv"
    write_fbar_csv(result, str(path))
    assert path.read_text() == (
        "node,x_value,fbar_mean,fbar_stderr,fbar_oracle\n"
        "1,-0.0,1.0,0.0,nan\n"
        "2,5e-324,2.0,0.1,nan\n"
        "3,0.5,3.0,5e-324,nan\n"
    )
    with_oracle = FbarRunResult(
        result.x, result.estimate_mean, result.estimate_stderr, result.x, 2
    )
    write_fbar_csv(with_oracle, str(path))
    assert path.read_text().splitlines()[1:] == [
        "1,-0.0,1.0,0.0,-0.0",
        "2,5e-324,2.0,0.1,5e-324",
        "3,0.5,3.0,5e-324,0.5",
    ]


def test_trajectory_csv_two_steps(tmp_path):
    trajectory = Trajectory(
        times=np.array([0.0, 0.5]),
        x=np.array([[-0.0, 1.0], [TINY, NAN]]),
        y=np.array([[0.0, 0.1], [-2.5, 1e300]]),
    )
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(trajectory, str(path))
    assert path.read_text() == (
        "t,x_1,x_2,y_1,y_2\n"
        "0.0,-0.0,1.0,0.0,0.1\n"
        "0.5,5e-324,nan,-2.5,1e+300\n"
    )
