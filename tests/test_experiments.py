"""Orchestration layer: builders, log-log fits, runners, the CSV writer."""

import collections
import dataclasses
import functools
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spavg.averaging
import spavg.experiments
import spavg.integrators
from spavg.averaging import OracleFbar
from spavg.config import ConfigError, ExperimentConfig
from spavg.blocks import build_auxiliary, deviation_statistic
from spavg.experiments import (
    ConvergenceResult,
    ConvergenceRow,
    _batch_errors,
    _batch_statistics,
    _by_replica,
    build_model,
    build_specs,
    fit_line,
    fit_loglog,
    run_check_conditions,
    run_convergence,
    run_diagnostics,
    run_fbar,
    run_simulate,
    scheme_params,
    write_report,
    write_tables,
)
from spavg.grid import L2, Grid1D, row_norms, sine_basis
from spavg.integrators import (
    NewtonDivergence,
    NumericalBlowUp,
    TrajectoryStats,
    _fast_coordinates,
    _matvec,
    simulate_epsilon_grid,
    whole_steps,
)
from spavg.operators import FastOperatorSpec
from spavg.randomness import RngStream

from test_integrators import poison_fast_noise

SMALL = dict(
    n_interior=8,
    T=0.125,
    dt_macro=1.0 / 128.0,
    epsilon_grid=(0.2, 0.1, 0.05),
    replicas=2,
    master_seed=11,
)


def small_config(**overrides):
    merged = {**SMALL, **overrides}
    return ExperimentConfig(**merged)


def grid_errors(cfg, epsilons, replicas):
    """The converge driver's record per epsilon for the given replicas."""
    return _by_replica(epsilons, replicas, functools.partial(_batch_errors, cfg))


def errors_at(cfg, epsilon, replicas):
    """The strong errors of the given replicas at one epsilon, and its first failure."""
    record = grid_errors(cfg, [epsilon], replicas)[epsilon]
    failure = None if record.error is None else f"replica {record.replica}: {record.error}"
    return record.values, failure


def record_calls(monkeypatch, name, key):
    """Wrap spavg.experiments.<name> so that each call appends key(*args) to the returned list."""
    calls = []
    function = getattr(spavg.experiments, name)

    def recorded(*args):
        calls.append(key(*args))
        return function(*args)

    monkeypatch.setattr(spavg.experiments, name, recorded)
    return calls


# ---------------------------------------------------------------- fits


def test_fit_loglog_recovers_exact_power():
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    ys = [2.0 * x**0.5 for x in xs]
    fit = fit_loglog(xs, ys)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_loglog_flat_data():
    fit = fit_loglog([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_loglog_noisy_data_has_spread():
    fit = fit_loglog([1.0, 2.0, 4.0, 8.0], [1.0, 2.1, 3.7, 8.4])
    assert fit.slope_stderr > 0.0
    assert fit.r_squared < 1.0


@settings(max_examples=60, deadline=None)
@given(
    dt=st.floats(1e-3, 1.0),
    log_gaps=st.lists(st.floats(-30.0, 5.0), min_size=3, max_size=60),
)
def test_fit_line_matches_the_decay_fit_bit_for_bit(dt, log_gaps):
    # The decay fit ergodicity_decay used to compute inline, on its sampling
    # grid: sample m at time m * dt.
    t = np.asarray([0.0] + [(m + 1) * dt for m in range(len(log_gaps) - 1)])
    g = np.asarray(log_gaps)
    slope, intercept = np.polyfit(t, g, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((g - fitted) ** 2))
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    fit = fit_line(t, g)
    assert fit.slope == float(slope)
    assert fit.r_squared == r_squared


def test_fit_loglog_input_validation():
    with pytest.raises(ValueError, match="need at least 3 points for a log-log fit, got 2"):
        fit_loglog([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="log-log fit requires strictly positive values"):
        fit_loglog([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="log-log fit requires strictly positive values"):
        fit_loglog([1.0, -2.0, 3.0], [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="xs and ys must have the same length"):
        fit_loglog([1.0, 2.0, 3.0], [1.0, 2.0])


# ---------------------------------------------------------------- builders


def test_build_fast_ignores_sin_amplitude_for_linear():
    _, _, fast, _ = build_specs(small_config(fast_kind="linear", b=3.0))
    assert fast.b == 0.0
    _, _, fast, _ = build_specs(small_config(fast_kind="smooth_bounded", b=3.0))
    assert fast.b == 3.0


def test_scheme_params_zero_target_means_automatic():
    assert scheme_params(small_config(dt_fast_target=0.0)).dt_fast_target == 0.0
    assert scheme_params(small_config(dt_fast_target=0.004)).dt_fast_target == 0.004


def test_build_model_wraps_validation_in_config_error():
    cfg = small_config(fast_kind="smooth_bounded", b=40.0)
    with pytest.raises(ConfigError):
        build_model(cfg, 0.1)
    with pytest.raises(ConfigError):
        build_model(small_config(), -0.5)


def test_build_coupling_rejects_too_many_modes():
    with pytest.raises(ConfigError):
        build_specs(small_config(g1_modes=200))


# ---------------------------------------------------------------- convergence


def test_run_convergence_small_grid():
    result = run_convergence(small_config())
    assert [row.epsilon for row in result.rows] == [0.2, 0.1, 0.05]
    assert not result.any_failed
    assert not result.degenerate
    for row in result.rows:
        assert row.replicas == 2
        assert math.isfinite(row.error_mean) and row.error_mean > 0.0
        assert row.delta == pytest.approx(row.epsilon ** (2.0 / 3.0))
    assert result.fit is not None
    lines = result.report_lines()
    assert lines[-1].startswith("overall:")


def test_run_convergence_is_deterministic():
    cfg = small_config(epsilon_grid=(0.2, 0.1))
    assert run_convergence(cfg).rows == run_convergence(cfg).rows


def test_run_convergence_decoupled_is_degenerate():
    result = run_convergence(small_config(c_fy=0.0))
    assert result.degenerate
    assert result.fit is None
    assert result.passed
    assert all(row.error_mean <= 1e-12 for row in result.rows)
    assert "degenerate" in "\n".join(result.report_lines())


def test_run_convergence_with_estimated_fbar_runs():
    cfg = small_config(
        epsilon_grid=(0.2, 0.1), fbar_source="estimator", fbar_replicas=2
    )
    result = run_convergence(cfg)
    assert not result.any_failed
    assert all(row.error_mean > 0.0 for row in result.rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_short_estimator_batch_runs_the_frozen_equation_once(seed, monkeypatch):
    # The benchmark's estimator-shaped run: 4 replicas at b = 0.5 over
    # T = 1/32 with weak slow noise. Its slow paths stay inside the widened
    # trust radius of the correction, so after the first call's refresh of
    # all four columns no column refreshes again: one frozen run in all.
    cfg = ExperimentConfig(
        fast_kind="smooth_bounded",
        b=0.5,
        fbar_source="estimator",
        fbar_replicas=2,
        replicas=4,
        T=0.03125,
        g1_amplitude=0.02,
        master_seed=seed,
    )
    calls = []
    correction = spavg.averaging._fbar_correction

    def counted(fast, coupling, grid, x, *args):
        calls.append(x.shape[1])
        return correction(fast, coupling, grid, x, *args)

    monkeypatch.setattr(spavg.averaging, "_fbar_correction", counted)
    result = run_convergence(cfg)
    assert not result.any_failed
    assert calls == [4]


def test_estimator_replica_does_not_depend_on_other_replicas():
    cfg = small_config(fbar_source="estimator", fbar_replicas=2)
    after = errors_at(cfg, 0.1, [0, 1])[0][1]
    before = errors_at(cfg, 0.1, [1, 0])[0][0]
    alone = errors_at(cfg, 0.1, [1])[0][0]
    # nor on the other epsilons of its batch
    beside = grid_errors(cfg, [0.2, 0.1, 0.05], [0, 1])[0.1].values[1]
    assert after.hex() == before.hex() == alone.hex() == beside.hex()
    # the rows are built from these very values
    row = run_convergence(dataclasses.replace(cfg, epsilon_grid=(0.1,))).rows[0]
    assert row.error_mean == np.mean([errors_at(cfg, 0.1, [0])[0][0], alone])


def test_newton_failure_row_names_where_it_happened():
    result = run_convergence(small_config(slow_kind="porous_medium", newton_tol=1e-320))
    assert result.any_failed and not result.passed
    lines = result.report_lines()
    for row, line in zip(result.rows, lines):
        assert row.replicas == 0
        assert line.startswith(f"epsilon={row.epsilon:g} INVALID after 0 replicas: ")
        assert re.search(rf"coupled run at epsilon={row.epsilon:g} failed at macro step 1\b", line)
        # the replica that failed comes first: replica 0, since none finished
        assert line.startswith(f"epsilon={row.epsilon:g} INVALID after 0 replicas: replica 0: ")


def test_failing_replica_row_keeps_the_replicas_below_it(monkeypatch):
    # Replica 1's fast state turns NaN at macro step 5: the row names
    # replica 1 and that step, keeps replica 0, and replica 0's error is the
    # one it has without the failure.
    cfg = small_config(epsilon_grid=(0.1,), replicas=3)
    error_0 = errors_at(cfg, 0.1, [0])[0]
    poison_fast_noise(monkeypatch, {1: 5})
    errors, failure = errors_at(cfg, 0.1, [0, 1, 2])
    assert [e.hex() for e in errors] == [e.hex() for e in error_0]
    assert re.fullmatch(
        r"replica 1: coupled run blew up at epsilon=0\.1: non-finite state at macro step 5",
        failure,
    )
    (row,) = run_convergence(cfg).rows
    assert row.replicas == 1 and row.failure == failure
    assert math.isnan(row.error_mean)


@pytest.mark.parametrize("slow_kind", ["burgers", "porous_medium"])
def test_row_names_the_lowest_failing_replica(monkeypatch, slow_kind):
    # Replica 2 fails first, at step 2, and replica 1 later, at step 4: the
    # row names replica 1 with the step of its own failure and keeps
    # replica 0's error. Every slow kind fails at the step of the NaN.
    cfg = small_config(slow_kind=slow_kind, epsilon_grid=(0.05,), replicas=4)
    error_0 = errors_at(cfg, 0.05, [0])[0]
    poison_fast_noise(monkeypatch, {2: 2, 1: 4})
    errors, failure = errors_at(cfg, 0.05, range(4))
    assert [e.hex() for e in errors] == [e.hex() for e in error_0]
    assert failure == (
        "replica 1: coupled run blew up at epsilon=0.05: non-finite state at macro step 4"
    )
    (row,) = run_convergence(cfg).rows
    assert row.replicas == 1 and row.failure == failure
    assert math.isnan(row.error_mean)


def test_failure_past_a_batch_boundary_keeps_the_batches_below(monkeypatch):
    # Batches of 2: replicas 0 and 1 finish in the first, replica 2 in the
    # rerun of the second, and the row stops at replica 3.
    cfg = small_config(epsilon_grid=(0.1,), replicas=5)
    clean = errors_at(cfg, 0.1, range(3))[0]
    monkeypatch.setattr(spavg.experiments, "REPLICA_CHUNK", 2)
    poison_fast_noise(monkeypatch, {3: 5})
    errors, failure = errors_at(cfg, 0.1, range(5))
    assert [e.hex() for e in errors] == [e.hex() for e in clean]
    assert failure.startswith("replica 3: coupled run blew up at epsilon=0.1")
    (row,) = run_convergence(cfg).rows
    assert row.replicas == 3 and row.failure == failure


def test_a_failing_epsilon_invalidates_its_row_alone(monkeypatch):
    # Replica 1's fast noise turns NaN at macro step 5 at epsilon = 0.1
    # only: the run of the whole grid raises and runs again one epsilon at
    # a time. The 0.1 row reads as that epsilon's run alone reports it, and
    # the other rows are those of the run without the failure.
    cfg = small_config(replicas=3)
    clean = run_convergence(cfg).rows
    error_0 = errors_at(cfg, 0.1, [0])[0]
    poison_fast_noise(monkeypatch, {1: 5}, epsilon=0.1)
    calls = record_calls(
        monkeypatch,
        "epsilon_grid_errors",
        lambda model, epsilons, T, params, streams, fbar: (
            tuple(epsilons),
            [stream.stream_id for stream in streams],
        ),
    )
    result = run_convergence(cfg)
    # the grid, then one epsilon at a time, and 0.1's replicas one at a time
    assert calls == [
        ((0.2, 0.1, 0.05), [0, 1, 2]),
        ((0.2,), [0, 1, 2]),
        ((0.1,), [0, 1, 2]),
        ((0.1,), [0]),
        ((0.1,), [1]),
        ((0.05,), [0, 1, 2]),
    ]
    assert result.report_lines()[1] == (
        "epsilon=0.1 INVALID after 1 replicas: replica 1: "
        "coupled run blew up at epsilon=0.1: non-finite state at macro step 5"
    )
    assert [row for row in result.rows if row.epsilon != 0.1] == [
        row for row in clean if row.epsilon != 0.1
    ]
    failed = grid_errors(cfg, [0.2, 0.1, 0.05], range(3))[0.1]
    assert [e.hex() for e in failed.values] == [e.hex() for e in error_0]


@settings(max_examples=25, deadline=None)
@given(
    chunk=st.integers(1, 5),
    poisons=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 16), st.sampled_from([0.2, 0.1, 0.05])),
        max_size=2,
        unique_by=lambda poison: poison[0],
    ),
)
def test_rows_equal_each_replica_run_alone_up_to_the_first_failure(chunk, poisons):
    # Whatever the batch size and wherever replicas fail, a row is what
    # running its epsilon's replicas alone, in order, gives up to the
    # first failing one.
    cfg = small_config(replicas=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spavg.experiments, "REPLICA_CHUNK", chunk)
        for replica, step, epsilon in poisons:
            poison_fast_noise(mp, {replica: step}, epsilon=epsilon)
        rows = run_convergence(cfg).rows
        for row in rows:
            errors, failure = [], None
            for r in range(cfg.replicas):
                try:
                    errors += _batch_errors(cfg, [row.epsilon], [r])[0]
                except (NewtonDivergence, NumericalBlowUp) as exc:
                    failure = f"replica {r}: {exc}"
                    break
            mean = math.nan if failure else float(np.mean(errors))
            assert (row.failure, row.replicas) == (failure, len(errors))
            assert row.error_mean.hex() == mean.hex()


def test_batch_errors_keep_no_history():
    # converge folds every macro step into its strong errors as the loop
    # goes: a batch of 3 replicas at 4 epsilons over 512 macro steps peaks
    # below the size of one x history of its coupled columns.
    cfg = ExperimentConfig(epsilon_grid=(0.1, 0.05, 0.02, 0.01), replicas=3)
    epsilons, batch = list(cfg.epsilon_grid), [0, 1, 2]
    _batch_errors(cfg, epsilons[:1], batch[:1])
    tracemalloc.start()
    try:
        _batch_errors(cfg, epsilons, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = whole_steps(cfg.T, cfg.dt_macro, "T")
    assert steps == 512
    assert peak < (steps + 1) * len(epsilons) * len(batch) * cfg.n_interior * 8


def test_invalid_row_fails_result():
    row = ConvergenceRow(0.1, 0.2, float("nan"), float("nan"), 3, failure="boom")
    assert not row.valid


def test_two_rows_pass_on_the_trend_alone():
    # Fewer than 3 valid rows leave nothing to fit; the result then passes
    # on a strictly decreasing trend alone.
    def result(*means):
        rows = [ConvergenceRow(e, e ** (2 / 3), m, 0.0, 2) for e, m in zip((0.2, 0.1), means)]
        return ConvergenceResult(rows, None, degenerate=False)

    assert result(0.3, 0.1).report_lines()[-2:] == [
        "fit skipped: fewer than 3 valid rows",
        "overall: PASS",
    ]
    assert not result(0.1, 0.3).passed


# ---------------------------------------------------------------- diagnostics

DIAG = dict(
    n_interior=8,
    T=0.5,
    dt_macro=1.0 / 512.0,
    epsilon_grid=(0.1, 0.05),
    diag_epsilon=0.05,
    replicas=2,
    master_seed=5,
)


def test_run_diagnostics_structure():
    result = run_diagnostics(ExperimentConfig(**DIAG))
    names = [o.name for o in result.outcomes]
    assert names == [
        "moment_uniformity",
        "increment_scaling",
        "deviation_scaling",
        "ergodicity_decay",
    ]
    suites = {row.suite for row in result.rows}
    assert suites == set(names)
    # both catalog fast operators have positive margins here, so the decay
    # suite must test rather than skip them
    decay_params = [r.param for r in result.rows if r.suite == "ergodicity_decay"]
    assert "linear_slope" in decay_params
    assert "smooth_bounded_slope" in decay_params
    assert any(o.name == "ergodicity_decay" and o.passed for o in result.outcomes)
    assert any(o.name == "moment_uniformity" and o.passed for o in result.outcomes)
    assert result.report_lines()[-1].startswith("overall:")


def test_run_diagnostics_skips_a_fast_operator_without_margin():
    # The decay suite fits every catalog fast operator with a positive
    # margin; b = 20 leaves smooth_bounded none, so it is named and skipped.
    result = run_diagnostics(ExperimentConfig(**DIAG, b=20.0))
    outcome = {o.name: o for o in result.outcomes}["ergodicity_decay"]
    assert "smooth_bounded: skipped (margin -20.460 <= 0)" in outcome.detail
    decay_params = {r.param for r in result.rows if r.suite == "ergodicity_decay"}
    assert decay_params == {"linear_slope", "linear_r_squared", "linear_margin_half"}
    assert outcome.passed and result.passed


def test_run_diagnostics_rejects_coarse_macro_grid():
    bad = dict(DIAG)
    bad["dt_macro"] = 1.0 / 256.0  # finest block would hold one macro step
    with pytest.raises(ConfigError, match="dt_macro too coarse"):
        run_diagnostics(ExperimentConfig(**bad))
    worse = dict(DIAG)
    worse["dt_macro"] = 1.0 / 128.0  # finest block is not even a multiple
    with pytest.raises(ConfigError):
        run_diagnostics(ExperimentConfig(**worse))


def test_run_diagnostics_without_slow_to_fast_coupling_is_degenerate():
    # With c_b = 0 the fast process does not see x, so the block-frozen
    # auxiliary replays y exactly and every deviation is zero: the deviation
    # suite has nothing to fit and passes as degenerate, as converge does.
    result = run_diagnostics(ExperimentConfig(**DIAG, c_b=0.0))
    outcome = {o.name: o for o in result.outcomes}["deviation_scaling"]
    assert outcome.passed
    assert "degenerate" in outcome.detail
    deviation = [r for r in result.rows if r.suite == "deviation_scaling"]
    assert all(r.value_mean == 0.0 for r in deviation)
    assert result.passed


@pytest.mark.parametrize(
    "extra",
    [{}, {"fast_kind": "smooth_bounded", "b": 0.5}, {"slow_kind": "porous_medium"}],
    ids=["linear", "smooth_bounded", "porous_medium"],
)
def test_folded_statistics_equal_the_history_reference(extra):
    # diagnose folds each macro time into its statistics; the reference
    # keeps every history: simulate_epsilon_grid, build_auxiliary,
    # TrajectoryStats and deviation_statistic, one replica at a time. Every
    # statistic has the reference's bytes, except the linear kind's
    # deviations: diagnose takes the norms of y^ - y^_aux in sine modes,
    # the reference those of B y^ - B y^_aux, whose two transforms each
    # round by up to about n eps max|y| per node, e. Then the squared norms
    # differ by at most 2 ||y - y_aux|| e + e^2, and the integrals D over
    # [0, T] by 2 sqrt(T D) e + T e^2 (Cauchy-Schwarz), with e taken as
    # 4 n^1.5 eps max|y| for the L2 norm of n nodes.
    cfg = ExperimentConfig(**{**DIAG, **extra, "epsilon_grid": (0.1, 0.05, 0.02)})
    dt = cfg.dt_macro
    deltas = {0.1: [8 * dt], 0.05: [dt, 4 * dt, 16 * dt], 0.02: [8 * dt]}
    epsilons, batch = list(deltas), [0, 2]
    folded = _batch_statistics(cfg, epsilons, batch, deltas)
    model = build_model(cfg, epsilons[0])
    streams = [RngStream(cfg.master_seed, r) for r in batch]
    runs = simulate_epsilon_grid(model, epsilons, cfg.T, scheme_params(cfg), streams)
    for epsilon, (trajectory, path), values in zip(epsilons, runs, folded):
        at = dataclasses.replace(model, epsilon=epsilon)
        auxiliary = build_auxiliary(at, trajectory, path, deltas[epsilon])
        for r in range(len(batch)):
            alone = trajectory.replica(r)
            stats = TrajectoryStats(model.grid, model.state_norm, dt, alone.x)
            expected = [stats.sup_norm_x_sq] + [
                deviation_statistic(alone, auxiliary[:, d, r], model.grid)
                for d in range(len(deltas[epsilon]))
            ]
            if epsilon == cfg.diag_epsilon:
                expected += [stats.increment_integral(delta) for delta in deltas[epsilon]]
            if model.fast.kind != "linear":
                assert values[r] == tuple(expected)
                continue
            stop = 1 + len(deltas[epsilon])
            assert values[r][:1] + values[r][stop:] == tuple(expected[:1] + expected[stop:])
            n = model.grid.n_interior
            e = 4 * n**1.5 * np.finfo(float).eps * float(np.max(np.abs(alone.y)))
            for got, want in zip(values[r][1:stop], expected[1:stop]):
                assert abs(got - want) <= 2 * math.sqrt(cfg.T * want) * e + cfg.T * e**2
    # Blocks of one macro step replay the coupled fast states bit for bit.
    assert [values[1] for values in folded[1]] == [0.0, 0.0]
    assert all(values[2] > 0.0 for values in folded[1])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 160),
    rows=st.integers(1, 4),
    exponent=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_deviation_norms_in_modes_equal_the_nodal_l2_norms(n, rows, exponent, seed):
    # diagnose takes the linear kind's deviation norms as the Euclidean
    # norms of y^ - y^_aux; by Parseval they are the grid L2 norms of the
    # nodal values B (y^ - y^_aux).
    grid = Grid1D(n)
    difference = np.random.default_rng(seed).standard_normal((rows, n)) * 10.0**exponent
    norms = _fast_coordinates(FastOperatorSpec("linear"), grid)[2](difference)
    nodal = row_norms(grid, _matvec(sine_basis(grid, n), difference.T).T, L2)
    np.testing.assert_allclose(norms, nodal, rtol=1e-13, atol=0.0)


def count_matvec(monkeypatch):
    """A Counter of spavg.integrators._matvec calls, counted from now on."""
    counts = collections.Counter()
    matvec = spavg.integrators._matvec

    def counted(matrix, v):
        counts["_matvec"] += 1
        return matvec(matrix, v)

    monkeypatch.setattr(spavg.integrators, "_matvec", counted)
    return counts


def test_diagnose_transforms_do_not_grow_with_the_replay_columns(monkeypatch):
    # A linear diagnose batch makes two sine transforms per macro step, x^
    # and B y^ of the coupled columns, and one of y0: the replay columns
    # take their frozen x^ from the coupled step and stay in modes.
    counts = count_matvec(monkeypatch)
    cfg = ExperimentConfig(**DIAG)
    dt, m = cfg.dt_macro, whole_steps(cfg.T, cfg.dt_macro, "T")
    per_deltas = []
    for deltas in ([8 * dt], [dt, 2 * dt, 4 * dt, 8 * dt, 16 * dt]):
        counts.clear()
        _batch_statistics(cfg, [0.1, 0.05], [0, 1], {0.1: deltas, 0.05: deltas})
        per_deltas.append(counts["_matvec"])
    assert per_deltas == [2 * m + 1] * 2


def test_runs_silence_warnings_once_not_per_macro_step(monkeypatch):
    # converge's and diagnose's batch runs and simulate's history run each
    # enter numpy's errstate once around their macro-step loop, over 16
    # macro steps as over 256.
    entered = []

    class Counted(np.errstate):
        def __enter__(self):
            entered.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", Counted)
    counts = []
    for steps in (16, 256):
        cfg = ExperimentConfig(**{**DIAG, "T": steps * DIAG["dt_macro"]})
        entered.clear()
        _batch_errors(cfg, [0.1, 0.05], [0, 1])
        _batch_statistics(cfg, [0.1, 0.05], [0, 1], {0.1: [8 * cfg.dt_macro], 0.05: []})
        run_simulate(cfg)
        counts.append(len(entered))
    assert counts == [3, 3]


def test_diagnose_batch_memory_stays_below_one_auxiliary_array():
    # The replay and the statistics keep no history: one batch of 3
    # replicas at 3 epsilons over 512 macro steps, diag_epsilon among them,
    # peaks below the (steps + 1, 5, R, n) auxiliary array that a replay
    # of diag_epsilon's five block lengths writes.
    cfg = ExperimentConfig(epsilon_grid=(0.1, 0.05, 0.02), replicas=3)
    delta_grid = [cfg.T * 2.0**-k for k in range(3, 8)]
    epsilons, batch = list(cfg.epsilon_grid), [0, 1, 2]
    assert cfg.diag_epsilon in epsilons
    deltas = {e: delta_grid if e == cfg.diag_epsilon else delta_grid[2:3] for e in epsilons}
    _batch_statistics(cfg, epsilons[:1], batch[:1], deltas)
    tracemalloc.start()
    try:
        _batch_statistics(cfg, epsilons, batch, deltas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = whole_steps(cfg.T, cfg.dt_macro, "T")
    assert steps == 512
    assert peak < (steps + 1) * len(delta_grid) * len(batch) * cfg.n_interior * 8


def test_failing_diagnose_raises_for_the_first_failing_epsilon(monkeypatch):
    # Batches of 2 over 5 replicas: replica 3 fails from step 5 at
    # epsilon = 0.1 and replica 0 from step 4 at 0.05. Each batch runs
    # every epsilon without a failure so far, so the first batch fails
    # at 0.05 and runs again one epsilon and then one replica at a time,
    # which ends 0.05's record with replica 0's error; the second batch
    # runs at 0.1 alone and ends its record with replica 3's. The
    # epsilons raise in descending order, so replica 3's own error stops
    # the run, although replica 0 at 0.05 is the lower one.
    monkeypatch.setattr(spavg.experiments, "REPLICA_CHUNK", 2)
    poison_fast_noise(monkeypatch, {3: 5}, epsilon=0.1)
    poison_fast_noise(monkeypatch, {0: 4}, epsilon=0.05)
    calls = record_calls(
        monkeypatch,
        "_batch_statistics",
        lambda config, epsilons, batch, deltas: ([*epsilons], [*batch]),
    )
    with pytest.raises(NumericalBlowUp) as raised:
        run_diagnostics(ExperimentConfig(**{**DIAG, "replicas": 5}))
    assert str(raised.value) == (
        "coupled run blew up at epsilon=0.1: non-finite state at macro step 5"
    )
    assert calls == [
        ([0.1, 0.05], [0, 1]),
        ([0.1], [0, 1]),
        ([0.05], [0, 1]),
        ([0.05], [0]),
        ([0.1], [2, 3]),
        ([0.1], [2]),
        ([0.1], [3]),
    ]


@pytest.mark.parametrize("overrides", [{}, {"b": 20.0}])
def test_decay_suite_keeps_its_bytes_forked_and_in_place(monkeypatch, overrides):
    # Suite 4 runs in a forked child where os.fork exists and in place where
    # it does not; both give the same rows and lines, a skipped operator too.
    config = ExperimentConfig(**DIAG, **overrides)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    forked = run_diagnostics(config)
    assert forks == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    in_place = run_diagnostics(config)
    assert repr(forked.tables()) == repr(in_place.tables())
    assert forked.report_lines() == in_place.report_lines()


@pytest.mark.parametrize("can_fork", [True, False])
def test_a_decay_fit_error_reaches_the_caller_unchanged(monkeypatch, can_fork):
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(spavg.experiments, "ergodicity_decay", boom)
    if not can_fork:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError) as raised:
        run_diagnostics(ExperimentConfig(**DIAG))
    assert type(raised.value) is ValueError and str(raised.value) == "boom"


def test_a_decay_child_that_dies_before_it_answers_is_named(monkeypatch):
    # Not EOFError or an unpickling error: the suite's function and the
    # child's exit status.
    monkeypatch.setattr(spavg.experiments, "ergodicity_decay", lambda *args: os._exit(7))
    with pytest.raises(RuntimeError) as raised:
        run_diagnostics(ExperimentConfig(**DIAG))
    assert str(raised.value) == (
        "_ergodicity_decay_suite died in its forked child before it answered (exit status 7)"
    )


@pytest.mark.parametrize("decay", ["hangs", "fails"])
def test_a_failing_replica_raises_as_in_place_and_the_child_is_reaped(monkeypatch, decay):
    # Replica 1 blows up at macro step 5. Its error is the one the run in
    # place raises, before suite 4 is read: a child that hangs is killed
    # and reaped, and a child's own error does not take its place.
    poison_fast_noise(monkeypatch, {1: 5})
    config = ExperimentConfig(**{**DIAG, "replicas": 3})
    with monkeypatch.context() as in_place:
        in_place.delattr(os, "fork")
        with pytest.raises(NumericalBlowUp) as expected:
            run_diagnostics(config)

    def hang(*args):
        time.sleep(60.0)

    def fail(*args):
        raise ValueError("boom")

    monkeypatch.setattr(spavg.experiments, "ergodicity_decay", hang if decay == "hangs" else fail)
    started = time.monotonic()
    with pytest.raises(NumericalBlowUp) as raised:
        run_diagnostics(config)
    assert time.monotonic() - started < 30.0
    assert str(raised.value) == str(expected.value)
    assert "macro step 5" in str(raised.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------- conditions


def test_run_check_conditions_default_catalog_passes():
    result = run_check_conditions(small_config(condition_samples=20))
    assert len(result.reports) == 7
    assert result.reports[-1].condition == "dissipativity_margin"
    assert result.reports[-1].worst_margin > 0.0
    assert result.passed
    assert all(r.violations == 0 for r in result.reports)


def test_run_check_conditions_flags_unstable_fast_operator():
    cfg = small_config(
        fast_kind="smooth_bounded", b=40.0, condition_samples=20
    )
    result = run_check_conditions(cfg)
    assert result.reports[-1].worst_margin <= 0.0
    assert not result.passed
    assert result.reports[-1].violations == 1


# ---------------------------------------------------------------- fbar / simulate


def test_run_fbar_linear_reports_oracle():
    # The linear estimate is the closed form by construction: OracleFbar's
    # bytes at x0, with stderr 0.
    cfg = small_config(fbar_replicas=3)
    result = run_fbar(cfg)
    assert result.n_replicas == 3
    grid, _, fast, coupling = build_specs(cfg)
    oracle = OracleFbar(fast, coupling, grid)(result.x.values[:, None])[:, 0]
    assert result.estimate_mean.values.tobytes() == oracle.tobytes()
    assert result.estimate_stderr.values.tobytes() == np.zeros(8).tobytes()


def test_run_fbar_smooth_bounded_has_no_oracle():
    # No closed form exists for smooth_bounded: fbar reports an estimate with a spread.
    cfg = small_config(fast_kind="smooth_bounded", b=1.0, fbar_replicas=2)
    grid, _, fast, coupling = build_specs(cfg)
    with pytest.raises(ValueError, match="closed form"):
        OracleFbar(fast, coupling, grid)
    assert np.all(run_fbar(cfg).estimate_stderr.values > 0.0)


def test_run_fbar_rejects_nonpositive_margin():
    with pytest.raises(ConfigError):
        run_fbar(small_config(fast_kind="smooth_bounded", b=40.0, fbar_replicas=2))


def test_run_simulate_shapes_and_override():
    cfg = small_config()
    traj = run_simulate(cfg).trajectory
    steps = round(cfg.T / cfg.dt_macro)
    assert traj.x.shape == (steps + 1, 8)
    assert traj.y.shape == (steps + 1, 8)
    finer = run_simulate(cfg, epsilon=0.05).trajectory
    assert not np.array_equal(finer.y, traj.y)
    with pytest.raises(ConfigError):
        run_simulate(cfg, epsilon=0.0)


# ---------------------------------------------------------------- CSV emitters


def test_csv_headers_and_round_trip(tmp_path):
    cfg = small_config(epsilon_grid=(0.2, 0.1), condition_samples=20, fbar_replicas=2)
    conv = run_convergence(cfg)
    write_tables(conv.tables(), str(tmp_path))
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "epsilon,delta,error_mean,error_stderr,replicas"
    assert len(lines) == 1 + len(conv.rows)
    fields = lines[1].split(",")
    assert float(fields[0]) == conv.rows[0].epsilon
    assert float(fields[2]) == conv.rows[0].error_mean

    cond = run_check_conditions(cfg)
    write_tables(cond.tables(), str(tmp_path))
    lines = (tmp_path / "conditions.csv").read_text().splitlines()
    assert lines[0] == "condition,samples,violations,worst_margin,constants"
    assert lines[-1].startswith("dissipativity_margin,1,0,")
    constants = lines[-1].split(",")[4]
    assert "margin=" in constants and ";lambda_1=" in constants

    write_tables(run_fbar(cfg).tables(), str(tmp_path))
    lines = (tmp_path / "fbar.csv").read_text().splitlines()
    assert lines[0] == "node,x_value,fbar_mean,fbar_stderr"
    assert len(lines) == 1 + 8

    simulated = run_simulate(cfg)
    write_tables(simulated.tables(), str(tmp_path))
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,x_1,") and lines[0].endswith(",y_8")
    assert len(lines) == 1 + simulated.trajectory.x.shape[0]

    report_path = tmp_path / "report.txt"
    write_report(["a", "b"], str(report_path))
    assert report_path.read_text() == "a\nb\n"


def test_diagnostics_csvs(tmp_path):
    result = run_diagnostics(ExperimentConfig(**DIAG))
    tables = result.tables()
    write_tables(tables, str(tmp_path))
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "suite,param,value_mean,value_stderr,replicas"
    assert len(lines) == 1 + len(result.rows)
    assert list(tables) == [
        "diagnostics.csv",
        "moment_uniformity.csv",
        "increment_scaling.csv",
        "deviation_scaling.csv",
        "ergodicity_decay.csv",
    ]
    for name in tables:
        with open(tmp_path / name, "r", encoding="utf-8") as fh:
            assert fh.readline().strip() == "suite,param,value_mean,value_stderr,replicas"


def test_averaged_failure_row_names_the_averaged_run(monkeypatch):
    # The averaged drift of every run turns NaN at macro step k: the coupled
    # runs are sound, and every row names replica 0, the averaged run and
    # the first non-finite averaged state, the one macro step k computes.
    # The averaged run has no epsilon, so the failing grid runs again one
    # replica at a time over the whole grid, not one epsilon at a time: 2
    # grid runs, where the epsilon-first split made 7. Each row is the row
    # of its epsilon's run alone.
    k = 3

    class NaNFromStepK(OracleFbar):
        calls = 0

        def __call__(self, x):
            value = super().__call__(x)
            self.calls += 1
            return value if self.calls <= k else np.full_like(value, np.nan)

    monkeypatch.setattr(spavg.experiments, "OracleFbar", NaNFromStepK)
    cfg = small_config()
    calls = record_calls(
        monkeypatch,
        "epsilon_grid_errors",
        lambda model, epsilons, T, params, streams, fbar: (
            tuple(epsilons),
            [stream.stream_id for stream in streams],
        ),
    )
    rows = run_convergence(cfg).rows
    assert calls == [((0.2, 0.1, 0.05), [0, 1]), ((0.2, 0.1, 0.05), [0])]
    for row in rows:
        assert row.replicas == 0 and math.isnan(row.error_mean)
        assert row.failure == (
            f"replica 0: averaged run blew up: non-finite state at macro step {k + 1}"
        )
        (alone,) = run_convergence(dataclasses.replace(cfg, epsilon_grid=(row.epsilon,))).rows
        assert (alone.failure, alone.replicas, alone.delta) == (row.failure, 0, row.delta)


@pytest.mark.parametrize("averaged", [True, False])
def test_an_averaged_failure_splits_by_replica_a_coupled_one_by_epsilon(averaged):
    # Replica 1 fails, at every epsilon its run covers. An averaged failure
    # reruns the batch one replica at a time over the whole grid and ends
    # every row at replica 1 with its error; a coupled one keeps the
    # epsilon-first split. Both keep replica 0's values.
    calls = []

    def run(live, batch):
        calls.append((tuple(live), tuple(batch)))
        if 1 in batch:
            raise NumericalBlowUp(f"replica 1 failed over {live}", averaged)
        return [[10.0 * epsilon] for epsilon in live]

    records = _by_replica([0.2, 0.1], [0, 1, 2], run)
    for epsilon, record in records.items():
        assert record.values == [10.0 * epsilon] and record.replica == 1
        assert isinstance(record.error, NumericalBlowUp)
    if averaged:
        assert calls == [((0.2, 0.1), (0, 1, 2)), ((0.2, 0.1), (0,)), ((0.2, 0.1), (1,))]
        assert {str(record.error) for record in records.values()} == {
            "replica 1 failed over [0.2, 0.1]"
        }
    else:
        assert calls == [
            ((0.2, 0.1), (0, 1, 2)),
            ((0.2,), (0, 1, 2)),
            ((0.2,), (0,)),
            ((0.2,), (1,)),
            ((0.1,), (0, 1, 2)),
            ((0.1,), (0,)),
            ((0.1,), (1,)),
        ]
