"""Whole-system checks at the reference desk scale.

Burgers slow operator with a linear fast operator on 64 interior nodes,
horizon 1, dt_macro = 1/512, 100 replicas, master seed 2026. Each test
verifies one promised behavior of the simulator and pushes a single
PASS/FAIL line into the terminal summary (see conftest). The two heavyweight
runs (strong-error grid, block diagnostics) are shared module fixtures so
the whole file stays inside a few minutes.
"""

import dataclasses

import numpy as np
import pytest
from conftest import record
from test_averaging import plain_time_average

from spavg.averaging import OracleFbar, ergodicity_decay, estimate_fbar
from spavg.cli import main
from spavg.conditions import CONDITION_IDS, check_condition, sample_field
from spavg.config import ExperimentConfig
from spavg.experiments import (
    build_model,
    fit_line,
    run_convergence,
    run_diagnostics,
    scheme_params,
    write_tables,
)
from spavg.grid import (
    Grid1D,
    H1_0,
    H_MINUS1,
    L2,
    lp_norm_kind,
    norm_values,
    sine_mode,
    smallest_eigenvalue,
    solve_neg_laplacian,
    zeros,
)
from spavg.integrators import epsilon_grid_errors
from spavg.operators import CouplingSpec, FastOperatorSpec, SlowOperatorSpec, dissipativity_margin
from spavg.randomness import RngStream

CONFIG = ExperimentConfig()
GRID = Grid1D(CONFIG.n_interior)
COUPLING = CouplingSpec(f0=zeros(GRID))
LINEAR_FAST = FastOperatorSpec("linear", c_b=1.0)
SMOOTH_FAST = FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5)


def _verdict(name: str, ok: bool, detail: str) -> None:
    record(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def convergence_runs():
    # two full runs under the same seed: the first carries the science, the
    # pair carries the reproducibility check
    return run_convergence(CONFIG), run_convergence(CONFIG)


@pytest.fixture(scope="module")
def diagnostics_result():
    return run_diagnostics(CONFIG)


def _diag_row(result, suite: str, param: str):
    for row in result.rows:
        if row.suite == suite and row.param == param:
            return row
    raise AssertionError(f"missing diagnostics row {suite}/{param}")


def test_fbar_estimate_matches_closed_form_and_tightens():
    # The estimator is the closed form of the OU twin (b = 0) plus c_fy
    # times the mean gap between each frozen chain and its twin on the same
    # noise. On five random slow states:
    # - linear: the chain is its own twin, so the estimate is the closed
    #   form exactly, with a stderr of exactly 0;
    # - smooth_bounded (b = 0.5): the estimate (WINDOW, 64 replicas) must
    #   agree on every node with a plain time average over 200 relaxation
    #   times (64 replicas, the test-owned reference of test_averaging)
    #   within 3 combined stderr. The nodes' z move nearly together, one
    #   mode carrying most of the spread, so the 320 nodes act like a
    #   handful of comparisons, each failing with probability 0.004;
    # - doubling the window of the same replicas from 40 to 80 relaxation
    #   times must shrink the stderr. stderr * sqrt(window) is level from
    #   about 20 relaxation times on, so both lie in the 1 / sqrt(T) regime
    #   and the expected shrink is close to sqrt(2); with the same noise
    #   under both windows the ratio scatters by about 0.12 per field.
    points = np.hstack(
        [sample_field(GRID, np.random.default_rng(100 + i), 0.5)[:, None] for i in range(5)]
    )
    streams = [RngStream(CONFIG.master_seed, 45_000 + i) for i in range(5)]
    mean, stderr = estimate_fbar(LINEAR_FAST, COUPLING, GRID, points, 64, streams)
    exact = mean.tobytes() == OracleFbar(LINEAR_FAST, COUPLING, GRID)(points).tobytes()
    exact = exact and not stderr.any()

    mean, stderr = estimate_fbar(SMOOTH_FAST, COUPLING, GRID, points, 64, streams)
    worst = 0.0
    for i in range(5):
        reference, reference_stderr = plain_time_average(
            SMOOTH_FAST, COUPLING, GRID, points[:, i], 64,
            RngStream(CONFIG.master_seed, 46_000 + i), 200,
        )
        gaps = np.abs(mean[:, i] - reference) / np.hypot(stderr[:, i], reference_stderr)
        worst = max(worst, float(gaps.max()))

    margin = dissipativity_margin(SMOOTH_FAST, GRID)
    streams = [RngStream(CONFIG.master_seed, 45_500 + i) for i in range(5)]
    _, base = estimate_fbar(SMOOTH_FAST, COUPLING, GRID, points, 64, streams, t_avg=40 / margin)
    _, doubled = estimate_fbar(SMOOTH_FAST, COUPLING, GRID, points, 64, streams, t_avg=80 / margin)
    shrinks = np.linalg.norm(base, axis=0) / np.linalg.norm(doubled, axis=0)
    shrink = float(np.mean(shrinks))
    _verdict(
        "fbar oracle match",
        exact and worst <= 3.0 and shrink >= 1.3,
        f"linear estimate {'equals' if exact else 'differs from'} the closed form; "
        f"smooth_bounded max |estimate - plain average| = {worst:.2f} stderr units (limit 3), "
        f"stderr shrink x{shrink:.2f} from window 40 to 80 (floor 1.3, "
        f"per-field min x{float(np.min(shrinks)):.2f})",
    )


def test_frozen_dynamics_contract_at_half_margin_rate():
    # synchronous coupling of two frozen-fast copies must decay at least as
    # fast as 90% of half the dissipativity margin, for every catalog fast
    # operator whose margin is positive
    details = []
    ok = True
    for index, fast in enumerate(
        [FastOperatorSpec("linear", c_b=1.0), FastOperatorSpec("smooth_bounded", c_b=1.0, b=1.0)]
    ):
        margin = dissipativity_margin(fast, GRID)
        assert margin > 0.0
        fit = fit_line(
            *ergodicity_decay(
                fast, COUPLING, GRID,
                sine_mode(GRID, 1, 0.5),
                RngStream(CONFIG.master_seed, 500_000 + index),
            )
        )
        ok = ok and fit.slope <= -0.45 * margin and fit.r_squared >= 0.98
        details.append(f"{fast.kind} slope {fit.slope:.2f} vs {-0.45 * margin:.2f}, r^2 {fit.r_squared:.4f}")
    _verdict("frozen-equation contraction", ok, "; ".join(details))


def test_strong_error_shrinks_with_scale_separation(convergence_runs):
    result = convergence_runs[0]
    assert not result.any_failed and not result.degenerate
    means = [row.error_mean for row in result.rows]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    fit = result.fit
    assert fit is not None
    _verdict(
        "strong averaging trend",
        decreasing and fit.slope > 0.15 and fit.r_squared >= 0.9,
        f"errors {'strictly decrease' if decreasing else 'DO NOT decrease'} "
        f"over the epsilon grid, slope {fit.slope:.3f} (floor 0.15), "
        f"r^2 {fit.r_squared:.4f} (floor 0.9)",
    )


def test_strong_error_is_converged_in_the_grid():
    # The noise lives in the first 8 sine modes, so one stream gives the
    # same Wiener coefficients at every n: runs at n = 32, 64 and 128 (16
    # replicas, the default epsilon grid, seed 2026) are paired exactly.
    # An O(h^2) spatial error with h = 1 / (n + 1) makes the differences of
    # error_mean shrink by (65^-2 - 33^-2) / (129^-2 - 65^-2) = 3.86 from
    # one refinement to the next, at every epsilon (3.86 was measured at
    # seeds 2026, 1 and 2). The gap between n = 32 and 64 is that bias,
    # resolved at z = -8 to -14 by its paired stderr, so it is bounded by
    # size (measured 0.13-0.16 %), far below the Monte Carlo stderr of
    # error_mean itself (5-12 %).
    config = dataclasses.replace(CONFIG, replicas=16)
    epsilons = list(config.epsilon_grid)
    streams = [RngStream(config.master_seed, r) for r in range(config.replicas)]
    params, means = scheme_params(config), []
    for n in (32, 64, 128):
        model = build_model(dataclasses.replace(config, n_interior=n), epsilons[0])
        fbar = OracleFbar(model.fast, model.coupling, model.grid)
        errors = epsilon_grid_errors(model, epsilons, config.T, params, streams, fbar)
        means.append(errors.mean(axis=1))
    e32, e64, e128 = means
    ratios = (e32 - e64) / (e64 - e128)
    change = np.abs(e64 / e32 - 1.0)
    _verdict(
        "grid convergence",
        bool(np.all((ratios >= 3.6) & (ratios <= 4.1)) and np.all(change <= 0.005)),
        f"error_mean differences shrink x{ratios.min():.2f} to x{ratios.max():.2f} per grid "
        f"refinement (band 3.6-4.1, h^2 predicts 3.86); |e64/e32 - 1| <= "
        f"{100 * change.max():.3f} % (limit 0.5 %)",
    )


def test_decoupled_model_is_reproduced_exactly():
    # with c_fy = 0 the averaged equation is the coupled slow equation, so
    # the strong error must vanish to solver precision for every epsilon
    config = dataclasses.replace(CONFIG, c_fy=0.0, replicas=3)
    result = run_convergence(config)
    assert not result.any_failed
    worst = max(row.error_mean for row in result.rows)
    _verdict(
        "decoupled exactness",
        worst <= 1e-12,
        f"max strong error {worst:.1e} over the epsilon grid with c_fy = 0 (limit 1e-12)",
    )


def test_slow_supremum_moments_are_uniform_in_epsilon(diagnostics_result):
    ratio = _diag_row(diagnostics_result, "moment_uniformity", "max_over_min").value_mean
    _verdict(
        "moment uniformity",
        ratio < 3.0,
        f"E sup ||X||^2 max/min = {ratio:.3f} across the epsilon grid (limit 3)",
    )


def test_slow_increments_scale_in_block_length(diagnostics_result):
    row = _diag_row(diagnostics_result, "increment_scaling", "fit_slope")
    slope, stderr = row.value_mean, row.value_stderr
    _verdict(
        "increment scaling",
        slope >= 0.5 - 2.0 * stderr,
        f"increment integral delta-slope {slope:.3f} +/- {stderr:.3f} (floor 0.5 within MC error)",
    )


def test_auxiliary_deviation_scales_and_is_uniform(diagnostics_result):
    row = _diag_row(diagnostics_result, "deviation_scaling", "fit_slope")
    slope, stderr = row.value_mean, row.value_stderr
    ratio = _diag_row(diagnostics_result, "deviation_scaling", "max_over_min").value_mean
    _verdict(
        "deviation scaling",
        slope >= 0.5 - 2.0 * stderr and ratio < 3.0,
        f"deviation delta-slope {slope:.3f} +/- {stderr:.3f} (floor 0.5), "
        f"epsilon max/min at fixed delta = {ratio:.3f} (limit 3)",
    )


def test_structural_conditions_hold_and_violations_exit_nonzero(tmp_path):
    slows = [
        SlowOperatorSpec("burgers", viscosity=1.0),
        SlowOperatorSpec("porous_medium", p=3.0, c=1.0),
        SlowOperatorSpec("p_laplace", p=4.0),
    ]
    fasts = [
        FastOperatorSpec("linear", c_b=1.0),
        FastOperatorSpec("smooth_bounded", c_b=1.0, b=1.0),
    ]
    sweeps = 0
    violations = 0
    for slow in slows:
        for fast in fasts:
            for condition in CONDITION_IDS:
                report = check_condition(
                    condition, slow, fast, GRID, 500,
                    RngStream(CONFIG.master_seed, 60_000 + sweeps),
                )
                sweeps += 1
                violations += report.violations

    # an unstable fast operator (b above the grid's smallest eigenvalue)
    # must be flagged through the command line with a nonzero exit status
    assert 12.0 > smallest_eigenvalue(GRID)
    bad_cfg = tmp_path / "unstable.cfg"
    bad_cfg.write_text(
        "fast_kind = smooth_bounded\nb = 12.0\ncondition_samples = 500\n",
        encoding="utf-8",
    )
    code = main(["check", "--config", str(bad_cfg), "--out", str(tmp_path / "out")])
    _verdict(
        "condition suite",
        violations == 0 and code != 0,
        f"{violations} violations in {sweeps} sweeps x 500 samples; "
        f"engineered b > lambda_1 exits with status {code}",
    )


def test_runs_reproduce_and_norm_contracts_hold(convergence_runs, tmp_path):
    first, second = convergence_runs
    written = []
    for run, result in (("a", first), ("b", second)):
        (tmp_path / run).mkdir()
        write_tables(result.tables(), str(tmp_path / run))
        written.append((tmp_path / run / "convergence.csv").read_bytes())
    reproducible = written[0] == written[1]

    gen = np.random.default_rng(9)
    residual = 0.0
    for _ in range(50):
        rhs = gen.standard_normal(GRID.n_interior)
        u = solve_neg_laplacian(GRID, rhs)
        residual = max(
            residual,
            float(np.abs(GRID.apply_neg_laplacian(u.copy()) - rhs).max()),
        )

    kinds = [L2, H1_0, H_MINUS1, lp_norm_kind(4.0)]
    norm_failures = 0
    for i in range(1000):
        g = np.random.default_rng(10_000 + i)
        v = g.standard_normal(GRID.n_interior) * 10.0 ** g.uniform(-2, 2)
        w = g.standard_normal(GRID.n_interior)
        c = g.uniform(-5.0, 5.0)
        for kind in kinds:
            nv = norm_values(GRID, v, kind)
            nw = norm_values(GRID, w, kind)
            if abs(norm_values(GRID, c * v, kind) - abs(c) * nv) > 1e-9 * (1.0 + abs(c) * nv):
                norm_failures += 1
            if norm_values(GRID, v + w, kind) > nv + nw + 1e-9 * (1.0 + nv + nw):
                norm_failures += 1

    _verdict(
        "reproducibility and infrastructure",
        reproducible and residual <= 1e-12 and norm_failures == 0,
        "convergence CSV bit-identical across reruns; "
        f"poisson residual {residual:.1e} (limit 1e-12); "
        f"{norm_failures} norm failures on 1000 random fields",
    )
