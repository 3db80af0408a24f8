"""End-to-end command line runs against temporary config files."""

import hashlib
import math
import os
import warnings

import pytest

from spavg.cli import EXIT_CONFIG, EXIT_NUMERICS, EXIT_OK, EXIT_THRESHOLD, main
from spavg.config import load_config
from spavg.experiments import build_model, scheme_params
from spavg.integrators import NumericalBlowUp, simulate_coupled
from spavg.randomness import RngStream

from test_integrators import poison_fast_noise

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

# The two files `converge` writes.
CONVERGE_FILES = ("convergence.csv", "convergence_report.txt")

# The six files `diagnose` writes.
DIAGNOSE_FILES = (
    "diagnostics.csv",
    "diagnostics_report.txt",
    "moment_uniformity.csv",
    "increment_scaling.csv",
    "deviation_scaling.csv",
    "ergodicity_decay.csv",
)


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
    assert rows[0] == "epsilon,delta,error_mean,error_stderr,replicas"
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
    csv = "convergence.csv"
    assert (out_a / csv).read_bytes() == (out_b / csv).read_bytes()
    assert (out_a / csv).read_bytes() != (out_c / csv).read_bytes()


@pytest.mark.parametrize("command", ["converge", "diagnose", "check", "fbar", "simulate"])
def test_same_seed_writes_the_same_bytes(tmp_path, command):
    # The reproducibility contract: every file a run writes is a function
    # of its config and seed alone.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DIAG_CFG if command == "diagnose" else SMALL_CFG, encoding="utf-8")
    written = []
    for run in ("a", "b"):
        out = tmp_path / run
        main([command, "--config", str(cfg), "--out", str(out)])
        written.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert written[0] and written[0] == written[1]


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
    for name in DIAGNOSE_FILES:
        assert os.path.exists(out / name), name
    assert "overall: PASS" in capsys.readouterr().out


def test_diagnose_with_a_failing_replica_exits_3(tmp_path, capsys, monkeypatch):
    # Replica 2 fails first, at step 3, and replica 1 later, at step 5:
    # diagnose stops with replica 1's own error, the one it raises alone.
    cfg = tmp_path / "diag.cfg"
    cfg.write_text(DIAG_CFG.replace("replicas = 2", "replicas = 3"), encoding="utf-8")
    poison_fast_noise(monkeypatch, {2: 3, 1: 5})
    config = load_config(str(cfg))
    model = build_model(config, 0.1)  # the largest epsilon runs first
    with pytest.raises(NumericalBlowUp) as alone:
        simulate_coupled(model, config.T, scheme_params(config), [RngStream(config.master_seed, 1)])
    assert "macro step 5" in str(alone.value)
    code = main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICS
    assert capsys.readouterr().err.strip().endswith(f"numerical failure: {alone.value}")


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


def test_check_on_a_fine_grid_passes(tmp_path, capsys):
    # The H^-1 norms of the conditions on 1024 nodes take Poisson solves
    # whose residual lies above a fixed 1e-12 bound by rounding alone.
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("n_interior = 1024\ncondition_samples = 20\n", encoding="utf-8")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "numerical failure" not in capsys.readouterr().err


def test_check_with_uncomputable_margins_exits_1(tmp_path, capsys):
    # |grad v|^2000 overflows: the slow checks get NaN margins and must
    # fail, with the verdict alone and no numpy warning beside it.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "slow_kind = p_laplace\np = 2000\nn_interior = 32\ncondition_samples = 10\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_THRESHOLD
    printed = capsys.readouterr()
    assert "A2_local_monotone: samples=10 violations=10 worst_margin=nan (FAIL)" in printed.out
    assert "RuntimeWarning" not in printed.err


def test_fbar_prints_its_replicas_and_nodes(small_cfg, tmp_path, capsys):
    # The linear estimate is the closed form itself: every stderr is 0.
    out = tmp_path / "out"
    assert main(["fbar", "--config", small_cfg, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "fbar: 2 replicas, 8 nodes\n"
    rows = read_rows(out / "fbar.csv")
    assert rows[0] == "node,x_value,fbar_mean,fbar_stderr"
    assert [row.split(",")[3] for row in rows[1:]] == ["0.0"] * 8


def test_simulate_with_epsilon_override(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", small_cfg, "--out", str(out), "--epsilon", "0.1"])
    assert code == EXIT_OK
    rows = read_rows(out / "trajectory.csv")
    assert rows[0].startswith("t,x_1,")
    assert len(rows) == 2 + round(0.125 / 0.0078125)


# sha256 of the files `simulate` and `fbar` write for SMALL_CFG, as is and
# with the smooth_bounded fast operator. No benchmark workload runs these two
# commands, so these digests are what pins their answers byte for byte. A
# numpy or BLAS build that rounds differently changes them.
OUTPUT_DIGESTS = {
    ("", "simulate"): "00b6c30d69d71e773b792d320dabf66a745eec8041b26ef1a29e5f0cd07a6784",
    ("", "fbar"): "d7d0af114a01b978888afd25a52795832ff281dc691c421b10c16a7915f5e6cf",
    ("fast_kind = smooth_bounded\nb = 0.5\n", "simulate"): (
        "6713e8ef4afd2e6aaf1bcbdf17abbf24c23844283bffb882d2bbd91c3607b6b6"
    ),
    ("fast_kind = smooth_bounded\nb = 0.5\n", "fbar"): (
        "08d95c4d124fd3e2d3db89d502cd656326cd321e6691e7df2a660b4162d2170a"
    ),
}


@pytest.mark.parametrize("extra, command", list(OUTPUT_DIGESTS))
def test_simulate_and_fbar_outputs_keep_their_bytes(tmp_path, extra, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + extra, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    name = "trajectory.csv" if command == "simulate" else "fbar.csv"
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest == OUTPUT_DIGESTS[extra, command]


# sha256 of the conditions.csv that `check` writes for SMALL_CFG. No
# benchmark workload runs `check`, so this digest pins its sampled margins.
CHECK_DIGEST = "364bec7fafff330915afe659002eb997851b3fc0268bf70a8d90398de5ef15b2"


def test_check_keeps_its_bytes(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["check", "--config", small_cfg, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256((out / "conditions.csv").read_bytes()).hexdigest() == CHECK_DIGEST


def test_initial_fast_state_and_forcing_amplitudes(tmp_path):
    # y0 and f0 are y0_amplitude and f0_amplitude times the first sine mode.
    # With c_fy = 0 the forcing f0 + c_fx x is its own average: every strong
    # error is exactly 0, and the averaged forcing at x(0) = 0.5 e_1 is
    # (0.4 + 0.7 * 0.5) e_1.
    cfg = tmp_path / "run.cfg"
    extra = "c_fy = 0.0\nc_fx = 0.7\nf0_amplitude = 0.4\ny0_amplitude = 0.3\n"
    cfg.write_text(SMALL_CFG + extra, encoding="utf-8")
    out = tmp_path / "out"
    for command in ("converge", "simulate", "fbar"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    errors = [row.split(",")[2:4] for row in read_rows(out / "convergence.csv")[1:]]
    assert errors == [["0.0", "0.0"]] * 3
    mode = [math.sqrt(2.0) * math.sin(math.pi * i / 9) for i in range(1, 9)]
    y0 = [float(v) for v in read_rows(out / "trajectory.csv")[1].split(",")[9:]]
    assert y0 == pytest.approx([0.3 * v for v in mode], rel=1e-14)
    fbar = [float(row.split(",")[2]) for row in read_rows(out / "fbar.csv")[1:]]
    assert fbar == pytest.approx([0.75 * v for v in mode], rel=1e-14)


# sha256 of the two files `converge` writes for SMALL_CFG (three epsilons),
# in CONVERGE_FILES order, as is, with each Newton slow kind and with the
# smooth_bounded fast operator and the estimator's averaged drift. The
# benchmark checks the estimator run only statistically, and none of its
# workloads runs porous_medium, so these digests are what pins the strong
# errors byte for byte. Two replicas cannot resolve the rate: every fit
# fails, as the reports say.
CONVERGE_DIGESTS = {
    "": "8a4b9d8f12ee3aa18cf76ccf4be860c2b2a8267cdc16bc14c5469f438642b4b4",
    "slow_kind = porous_medium\n": (
        "75e31548ef246c80aea61b1d4090c961ae821d266be326a7a699824b5e3f7210"
    ),
    "slow_kind = p_laplace\n": (
        "b60624bcbf92c3faa5ec4b8e10f4e46dc99753235fa13e681c107d420c1f3b5c"
    ),
    "fast_kind = smooth_bounded\nb = 0.5\nfbar_source = estimator\n": (
        "b12f86cb8c8136eaebe36b5491702a4eddd5d00cf01195178801c2c59ce9e8f8"
    ),
}


@pytest.mark.parametrize(
    "extra", list(CONVERGE_DIGESTS), ids=["burgers", "porous_medium", "p_laplace", "estimator"]
)
def test_converge_keeps_its_bytes(tmp_path, extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + extra, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_THRESHOLD
    text = b"".join((out / name).read_bytes() for name in CONVERGE_FILES)
    assert hashlib.sha256(text).hexdigest() == CONVERGE_DIGESTS[extra]


def with_lines(base, extra):
    """base config text with the key = value lines of extra in place of its own."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


# sha256 of the six files `diagnose` writes for DIAG_CFG, in DIAGNOSE_FILES
# order, as is, with each Newton slow kind, with the smooth_bounded fast
# operator, and with a diag_epsilon outside epsilon_grid. porous_medium
# takes its H^-1 norms through solve_neg_laplacian, one pttrs solve per row
# whose bytes do not depend on the other rows of the call, so these pin the
# statistics byte for byte whatever rows a norm call batches together.
DIAGNOSE_DIGESTS = {
    "": "6c10c00b637dc3081a75426096d0c0453124a72432808e1f6fc371264477a0d7",
    "slow_kind = porous_medium\n": (
        "7210c4887d3499d2f332d72be92ae6d2f070a09d9e67e164c4f51c6d3b2e3cff"
    ),
    "slow_kind = p_laplace\n": (
        "ca0a97fc25e97b0b9a46eefc15e54c6a7216a5cd6603338711b27b73cc08403d"
    ),
    "fast_kind = smooth_bounded\nb = 0.5\n": (
        "7a4ea97c86aaeb23c6b0474982304b91c5ce1d96a6c3795851cd43af6ab523e8"
    ),
    "diag_epsilon = 0.02\n": (
        "7d906bd65113d797282fa6f21f567fbbef88b997df671ad87ef9b57f1af1aa47"
    ),
}


@pytest.mark.parametrize(
    "extra",
    list(DIAGNOSE_DIGESTS),
    ids=["burgers", "porous_medium", "p_laplace", "smooth_bounded", "diag_off_grid"],
)
def test_diagnose_keeps_its_bytes(tmp_path, extra):
    cfg = tmp_path / "diag.cfg"
    cfg.write_text(with_lines(DIAG_CFG, extra), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    text = b"".join((out / name).read_bytes() for name in DIAGNOSE_FILES)
    assert hashlib.sha256(text).hexdigest() == DIAGNOSE_DIGESTS[extra]


def test_config_errors_exit_2(tmp_path):
    assert main(["converge", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 1\n", encoding="utf-8")
    assert main(["check", "--config", str(bad)]) == EXIT_CONFIG
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SMALL_CFG, encoding="utf-8")
    # replicas below the floor is rejected by the override path too
    assert main(["converge", "--config", str(cfg), "--replicas", "1"]) == EXIT_CONFIG


def test_output_directory_that_cannot_be_created_exits_2(small_cfg, tmp_path, capsys):
    # A regular file where a directory should be: the run stops before it
    # starts, as for any other config error.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code = main(["check", "--config", small_cfg, "--out", str(blocker / "sub")])
    assert code == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.out == ""
    assert f"config error: cannot create output directory {blocker / 'sub'}" in printed.err


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"n_interior = 8\n# \xff\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"config error: cannot read config file {cfg}" in capsys.readouterr().err


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


def test_blow_up_exits_3(tmp_path, capsys):
    # Burgers convection of a huge initial state overflows to NaN; the run
    # reports it as classified, without a raw numpy RuntimeWarning.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SMALL_CFG + "x0_amplitude = 1e200\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    err = capsys.readouterr().err
    assert "epsilon=0.2" in err and "RuntimeWarning" not in err
    # converge records the blow-up per epsilon instead of averaging NaN
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    report = read_rows(out / "convergence_report.txt")
    assert all("INVALID" in line and "macro step" in line for line in report[:3])
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_overflowing_estimator_exits_3(tmp_path, capsys):
    # The averaged drift at a huge initial state leaves the floating-point
    # range (c_fy = 1e4; at 1000 it is about 1.4e308 and the estimator
    # gives it). converge hands the non-finite drift to the slow step, so
    # each row names the replica, epsilon and step as any blow-up does, and
    # fbar reports a numerical failure, not a config error; neither prints
    # a raw numpy RuntimeWarning.
    cfg = tmp_path / "estimator.cfg"
    cfg.write_text(
        "fast_kind = smooth_bounded\nb = 0.5\nfbar_source = estimator\nfbar_replicas = 2\n"
        "replicas = 2\nT = 0.0625\nx0_amplitude = 1e306\nc_fy = 10000\nn_interior = 8\n"
        "g1_modes = 4\ng2_modes = 4\nepsilon_grid = 0.1, 0.05, 0.02\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    report = read_rows(out / "convergence_report.txt")
    assert report[:3] == [
        f"epsilon={epsilon} INVALID after 0 replicas: replica 0: coupled run blew up "
        f"at epsilon={epsilon}: non-finite state at macro step 1"
        for epsilon in ("0.1", "0.05", "0.02")
    ]
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert main(["fbar", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICS
    err = capsys.readouterr().err
    assert "numerical failure: fbar estimate is not finite" in err
    assert "RuntimeWarning" not in err


def test_overflowing_strong_error_exits_3(tmp_path, capsys):
    # The slow states stay finite (max |x| near 1e216), but the squared norm
    # of their mismatch overflows: a numerical failure, not an inf row, and
    # reported without a raw numpy RuntimeWarning beside it.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "n_interior = 16\ng1_modes = 4\ng2_modes = 4\nreplicas = 2\nx0_amplitude = 200\n"
        "dt_macro = 0.0625\nT = 0.5\nepsilon_grid = 0.1, 0.05, 0.02\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["converge", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_NUMERICS
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    report = read_rows(out / "convergence_report.txt")
    assert all("INVALID" in line and "strong error" in line for line in report[:3])
    assert report[3:] == ["fit skipped: fewer than 3 valid rows", "overall: FAIL"]
    printed = capsys.readouterr()
    assert "error_mean=inf" not in printed.out
    assert "RuntimeWarning" not in printed.err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
