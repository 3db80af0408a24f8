"""End-to-end command line runs against temporary config files."""

import os

import pytest

from spavg.cli import EXIT_CONFIG, EXIT_NUMERICS, EXIT_OK, EXIT_THRESHOLD, main

SMALL_CFG = """
n_interior = 8
T = 0.125
dt_macro = 0.0078125
epsilon_grid = 0.2, 0.1, 0.05
replicas = 2
master_seed = 11
condition_samples = 20
fbar_replicas = 2
"""

DIAG_CFG = """
n_interior = 8
T = 0.5
dt_macro = 0.001953125
epsilon_grid = 0.1, 0.05
diag_epsilon = 0.05
replicas = 2
master_seed = 5
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_converge_decoupled_passes(small_cfg, tmp_path, capsys):
    # c_fy = 0 makes the averaged path replay the coupled one exactly, so
    # the run passes deterministically regardless of Monte Carlo noise.
    cfg = tmp_path / "decoupled.cfg"
    cfg.write_text(SMALL_CFG + "c_fy = 0.0\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["converge", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out / "convergence.csv")
    assert rows[0] == "epsilon,delta,error_mean,error_stderr,replicas,wall_time_s"
    assert len(rows) == 4
    report = read_rows(out / "convergence_report.txt")
    assert report[-1] == "overall: PASS"
    assert "overall: PASS" in capsys.readouterr().out


def test_converge_threshold_failure_exits_1(small_cfg, tmp_path):
    # at this tiny scale two replicas cannot resolve the rate, so the fit
    # check fails and the exit status must say so
    out = tmp_path / "out"
    assert main(["converge", "--config", small_cfg, "--out", str(out)]) == EXIT_THRESHOLD
    report = read_rows(out / "convergence_report.txt")
    assert report[-1] == "overall: FAIL"


def test_converge_seed_determinism(small_cfg, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    main(["converge", "--config", small_cfg, "--out", str(out_a), "--seed", "3"])
    main(["converge", "--config", small_cfg, "--out", str(out_b), "--seed", "3"])
    main(["converge", "--config", small_cfg, "--out", str(out_c), "--seed", "4"])

    def strip_timing(path):
        return [row.rsplit(",", 1)[0] for row in read_rows(path)]

    assert strip_timing(out_a / "convergence.csv") == strip_timing(out_b / "convergence.csv")
    assert strip_timing(out_a / "convergence.csv") != strip_timing(out_c / "convergence.csv")


def test_converge_replicas_override(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["converge", "--config", small_cfg, "--out", str(out), "--replicas", "3"])
    rows = read_rows(out / "convergence.csv")
    assert all(row.split(",")[4] == "3" for row in rows[1:])


def test_diagnose_writes_suite_files(tmp_path, capsys):
    cfg = tmp_path / "diag.cfg"
    cfg.write_text(DIAG_CFG, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["diagnose", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    for name in (
        "diagnostics.csv",
        "diagnostics_report.txt",
        "moment_uniformity.csv",
        "increment_scaling.csv",
        "deviation_scaling.csv",
        "ergodicity_decay.csv",
    ):
        assert os.path.exists(out / name), name
    assert "overall: PASS" in capsys.readouterr().out


def test_check_pass_and_fail(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check", "--config", small_cfg, "--out", str(out)]) == EXIT_OK
    assert os.path.exists(out / "conditions.csv")
    assert "dissipativity_margin" in capsys.readouterr().out

    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG + "fast_kind = smooth_bounded\nb = 40.0\n", encoding="utf-8")
    assert main(["check", "--config", str(bad), "--out", str(out)]) == EXIT_THRESHOLD
    rows = read_rows(out / "conditions.csv")
    assert rows[-1].startswith("dissipativity_margin,1,1,")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_check_with_uncomputable_margins_exits_1(tmp_path, capsys):
    # |grad v|^2000 overflows: the slow checks get NaN margins and must fail.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "slow_kind = p_laplace\np = 2000\nn_interior = 32\ncondition_samples = 10\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_THRESHOLD
    printed = capsys.readouterr().out
    assert "A2_local_monotone: samples=10 violations=10 worst_margin=nan (FAIL)" in printed


def test_fbar_prints_oracle_gap(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fbar", "--config", small_cfg, "--out", str(out)]) == EXIT_OK
    assert os.path.exists(out / "fbar.csv")
    assert "closed form" in capsys.readouterr().out


def test_simulate_with_epsilon_override(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", small_cfg, "--out", str(out), "--epsilon", "0.1"])
    assert code == EXIT_OK
    rows = read_rows(out / "trajectory.csv")
    assert rows[0].startswith("t,x_1,")
    assert len(rows) == 2 + round(0.125 / 0.0078125)


def test_config_errors_exit_2(tmp_path):
    assert main(["converge", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 1\n", encoding="utf-8")
    assert main(["check", "--config", str(bad)]) == EXIT_CONFIG
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SMALL_CFG, encoding="utf-8")
    # replicas below the floor is rejected by the override path too
    assert main(["converge", "--config", str(cfg), "--replicas", "1"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("converge", "epsilon_grid = nan\n", "epsilon_grid must be finite"),
        ("converge", "g1_amplitude = inf\n", "g1_amplitude must be finite"),
        ("converge", "slow_kind = p_laplace\nnewton_tol = nan\n", "newton_tol must be finite"),
        ("simulate", "dt_fast_target = nan\n", "dt_fast_target must be finite"),
        ("simulate --epsilon nan", "", "epsilon must be positive and finite, got nan"),
    ],
    ids=["epsilon_grid", "g1_amplitude", "newton_tol", "dt_fast_target", "epsilon_option"],
)
def test_non_finite_values_exit_2(tmp_path, capsys, command, lines, message):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text("n_interior = 8\nreplicas = 2\nT = 0.125\n" + lines, encoding="utf-8")
    argv = command.split() + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_horizon_off_the_step_grid_exits_2(tmp_path, capsys, command):
    # T = 0.3 is not a whole number of default macro steps (1/512).
    cfg = tmp_path / "horizon.cfg"
    cfg.write_text("n_interior = 8\nreplicas = 2\nT = 0.3\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: horizon T = 0.3" in capsys.readouterr().err


def test_newton_breakdown_exits_3(tmp_path):
    # an unreachable tolerance stalls the implicit porous medium solve
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(
        "n_interior = 8\nslow_kind = porous_medium\nT = 0.5\ndt_macro = 0.25\n"
        "epsilon_grid = 0.2, 0.1\nreplicas = 2\nmaster_seed = 11\nnewton_tol = 1e-320\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    # converge records the failure per epsilon instead of crashing
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    rows = read_rows(out / "convergence.csv")
    assert "nan" in rows[1]
    report = read_rows(out / "convergence_report.txt")
    assert any("INVALID" in line for line in report)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_blow_up_exits_3(tmp_path, capsys):
    # Burgers convection of a huge initial state overflows to NaN.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SMALL_CFG + "x0_amplitude = 1e200\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    assert "epsilon=0.2" in capsys.readouterr().err
    # converge records the blow-up per epsilon instead of averaging NaN
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    report = read_rows(out / "convergence_report.txt")
    assert all("INVALID" in line and "macro step" in line for line in report[:3])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_strong_error_exits_3(tmp_path, capsys):
    # The slow states stay finite (max |x| near 1e216), but the squared norm
    # of their mismatch overflows: a numerical failure, not an inf row.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "n_interior = 16\ng1_modes = 4\ng2_modes = 4\nreplicas = 2\nx0_amplitude = 200\n"
        "dt_macro = 0.0625\nT = 0.5\nepsilon_grid = 0.1, 0.05, 0.02\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    report = read_rows(out / "convergence_report.txt")
    assert all("INVALID" in line and "strong error" in line for line in report[:3])
    assert report[3:] == ["fit skipped: fewer than 3 valid rows", "overall: FAIL"]
    assert "error_mean=inf" not in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
