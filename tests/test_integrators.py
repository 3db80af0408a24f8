"""Time stepping: replay exactness, implicit-solve contracts, contraction."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spavg.averaging import MemoizedFbar, OracleFbar
from spavg.blocks import build_auxiliary
from spavg.grid import (
    L2,
    Grid1D,
    norm_values,
    row_norms,
    sine_basis,
    sine_mode,
    smallest_eigenvalue,
    zeros,
)
from spavg.integrators import (
    ModelSpec,
    NewtonDivergence,
    NoisePath,
    NumericalBlowUp,
    SchemeParams,
    TrajectoryStats,
    _FastStepper,
    _SlowStepper,
    simulate_averaged,
    simulate_coupled,
    strong_error,
)
from spavg.operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    coupling_f,
    dissipativity_margin,
    mode_scales,
)
from spavg.randomness import RngStream


def make_model(
    n=8, epsilon=0.05, slow_kind="burgers", c_fy=1.0, x0_amp=0.5, fast_kind="linear", **coup_kw
):
    grid = Grid1D(n)
    slow = (
        SlowOperatorSpec(slow_kind, p=3.0)
        if slow_kind != "burgers"
        else SlowOperatorSpec("burgers", viscosity=1.0)
    )
    coup_kw.setdefault("g1_modes", min(8, n))
    coup_kw.setdefault("g2_modes", min(8, n))
    coupling = CouplingSpec(f0=zeros(grid), c_fy=c_fy, **coup_kw)
    return ModelSpec(
        grid=grid,
        slow=slow,
        fast=FastOperatorSpec(fast_kind, c_b=1.0, b=0.5 if fast_kind == "smooth_bounded" else 0.0),
        coupling=coupling,
        epsilon=epsilon,
        x0=sine_mode(grid, 1, x0_amp),
        y0=zeros(grid),
    )


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.0)
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.01, dt_fast_target=-1.0)
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.01, newton_tol=0.0)


@pytest.mark.parametrize(
    "field, params",
    [
        ("dt_macro", dict(dt_macro=math.nan)),
        ("dt_fast_target", dict(dt_macro=0.01, dt_fast_target=math.nan)),
        ("newton_tol", dict(dt_macro=0.01, newton_tol=math.nan)),
    ],
)
def test_scheme_params_reject_nan(field, params):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        SchemeParams(**params)


def test_model_spec_validation():
    grid = Grid1D(6)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=6, g2_modes=6)
    common = dict(
        grid=grid,
        slow=SlowOperatorSpec("burgers"),
        coupling=coupling,
        x0=zeros(grid),
        y0=zeros(grid),
    )
    with pytest.raises(ValueError):
        ModelSpec(fast=FastOperatorSpec("linear"), epsilon=0.0, **common)
    # Lipschitz constant above the spectral gap: margin <= 0 refused here.
    lam = smallest_eigenvalue(grid)
    with pytest.raises(ValueError):
        ModelSpec(
            fast=FastOperatorSpec("smooth_bounded", b=lam + 1.0), epsilon=0.1, **common
        )
    with pytest.raises(ValueError):
        ModelSpec(
            grid=grid,
            slow=SlowOperatorSpec("burgers"),
            fast=FastOperatorSpec("linear"),
            coupling=coupling,
            epsilon=0.1,
            x0=zeros(Grid1D(7)),
            y0=zeros(grid),
        )


def test_noise_path_shape_validation():
    with pytest.raises(ValueError):
        NoisePath(0.01, 2, 0.1, np.zeros((4, 3)), np.zeros((4, 3, 2)))  # n_sub mismatch
    with pytest.raises(ValueError):
        NoisePath(0.01, 2, 0.1, np.zeros(4), np.zeros((4, 2, 2)))


def test_same_stream_replays_bitwise():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    first = simulate_coupled(model, 0.25, params, RngStream(12, 4))
    second = simulate_coupled(model, 0.25, params, RngStream(12, 4))
    np.testing.assert_array_equal(first[0].x, second[0].x)
    np.testing.assert_array_equal(first[0].y, second[0].y)
    assert first[1] == second[1]


def test_averaged_runs_on_the_recorded_grid():
    # The noise path is the only source of the replay's step grid: the
    # dt_macro of the scheme parameters is not read.
    model = make_model()
    trajectory, path = simulate_coupled(model, 0.25, SchemeParams(dt_macro=1 / 64), RngStream(3, 0))
    fbar = lambda x: np.zeros_like(x)  # noqa: E731
    averaged = simulate_averaged(model, fbar, SchemeParams(dt_macro=1 / 32), path)
    assert averaged.x.shape == trajectory.x.shape
    np.testing.assert_array_equal(averaged.times, trajectory.times)


def test_decoupled_averaging_is_bitwise_exact():
    # With c_fy = 0 the slow equation never sees the fast state, so replaying
    # the recorded noise against fbar(x) = f0 + c_fx x reproduces the coupled
    # slow path bit for bit and the strong error is exactly zero.
    model = make_model(c_fy=0.0, c_fx=0.7)
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, path = simulate_coupled(model, 0.5, params, RngStream(90, 2))
    coupling = model.coupling
    fbar = lambda x: coupling.f0.values + coupling.c_fx * x  # noqa: E731
    averaged = simulate_averaged(model, fbar, params, path)
    assert strong_error(trajectory, averaged, model.grid, L2) == 0.0


def test_implicit_residual_contract():
    # After a step, x_new satisfies x_new - dt * A(x_new) = explicit side up
    # to the Newton tolerance (relative to the explicit side's magnitude).
    gen = np.random.default_rng(6)
    grid = Grid1D(16)
    tol = 1e-11
    params = SchemeParams(dt_macro=1 / 128, newton_tol=tol)
    specs = [
        SlowOperatorSpec("porous_medium", p=3.0),
        SlowOperatorSpec("porous_medium", p=4.0, c=0.5),
        SlowOperatorSpec("p_laplace", p=4.0),
        SlowOperatorSpec("p_laplace", p=3.0),
    ]
    for spec in specs:
        stepper = _SlowStepper(spec, grid, params.dt_macro, params)
        for _ in range(5):
            x = gen.uniform(-2.0, 2.0, size=16)
            forcing = gen.standard_normal(16)
            noise = 0.05 * gen.standard_normal(16)
            x_new = stepper.step(x, forcing, noise)
            b = x + params.dt_macro * forcing + noise
            scale = max(1.0, float(np.abs(b).max()))
            res = stepper.residual(x_new, x, forcing, noise)
            assert np.abs(res).max() <= tol * scale


def test_burgers_step_residual_is_small():
    gen = np.random.default_rng(7)
    grid = Grid1D(32)
    params = SchemeParams(dt_macro=1 / 256)
    stepper = _SlowStepper(SlowOperatorSpec("burgers", viscosity=2.0), grid, params.dt_macro, params)
    for _ in range(5):
        x = gen.standard_normal(32)
        forcing = gen.standard_normal(32)
        noise = 0.01 * gen.standard_normal(32)
        x_new = stepper.step(x, forcing, noise)
        res = stepper.residual(x_new, x, forcing, noise)
        assert np.abs(res).max() <= 1e-9


def test_newton_divergence_is_reported():
    grid = Grid1D(8)
    params = SchemeParams(dt_macro=0.25, newton_tol=1e-320)
    stepper = _SlowStepper(SlowOperatorSpec("porous_medium", p=3.0), grid, 0.25, params)
    x = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(NewtonDivergence):
        stepper.step(x, np.ones(8), np.zeros(8))


def test_newton_failure_names_equation_epsilon_and_step():
    # An unreachable tolerance stalls the first implicit porous medium step;
    # the error names the equation, epsilon and the state being computed.
    model = make_model(epsilon=0.05, slow_kind="porous_medium")
    tight = SchemeParams(dt_macro=1 / 64, newton_tol=1e-320)
    with pytest.raises(NewtonDivergence, match=r"coupled.*epsilon=0\.05.*macro step 1\b"):
        simulate_coupled(model, 0.25, tight, RngStream(3, 0))
    path = simulate_coupled(model, 0.25, SchemeParams(dt_macro=1 / 64), RngStream(3, 0))[1]
    fbar = lambda x: np.zeros_like(x)  # noqa: E731
    with pytest.raises(NewtonDivergence, match=r"averaged.*epsilon=0\.05.*macro step 1\b"):
        simulate_averaged(model, fbar, tight, path)


def test_fast_block_contraction_linear_two_sided():
    # Additive noise cancels under synchronous coupling, so the mode-1 gap
    # contracts by exactly (1 + a lambda_1)^(-n_sub); the continuum rate
    # exp(-margin/2 * dt/eps) brackets it from below, and a 10% envelope
    # with a small micro step brackets it from above.
    epsilon, dt_macro = 0.05, 0.025
    model = make_model(n=8, epsilon=epsilon)
    params = SchemeParams(dt_macro=dt_macro, dt_fast_target=0.002)
    x = zeros(model.grid)
    y_a = sine_mode(model.grid, 1, 1.0)
    y_b = zeros(model.grid)
    stepper = _FastStepper.for_model(model, dt_macro, params)
    block = stepper.draw([RngStream(55, 0)], stepper.n_sub)[0]
    out_a = stepper.run_block(x.values, y_a.values, block)
    out_b = stepper.run_block(x.values, y_b.values, block)
    gap = norm_values(model.grid, out_a - out_b, L2)
    tau = dt_macro / epsilon
    lam = smallest_eigenvalue(model.grid)
    margin = dissipativity_margin(model.fast, model.coupling, model.grid)
    continuum = math.exp(-0.5 * margin * tau)
    assert continuum == pytest.approx(math.exp(-lam * tau))
    assert continuum * (1.0 - 1e-9) <= gap <= continuum * 1.1


def test_fast_block_contraction_smooth_bounded_envelope():
    epsilon, dt_macro = 0.05, 0.025
    grid = Grid1D(8)
    model = ModelSpec(
        grid=grid,
        slow=SlowOperatorSpec("burgers"),
        fast=FastOperatorSpec("smooth_bounded", c_b=1.0, b=1.0),
        coupling=CouplingSpec(f0=zeros(grid)),
        epsilon=epsilon,
        x0=zeros(grid),
        y0=zeros(grid),
    )
    params = SchemeParams(dt_macro=dt_macro, dt_fast_target=0.002)
    x = sine_mode(grid, 1, 0.3)
    y_a = sine_mode(grid, 1, 1.0)
    y_b = sine_mode(grid, 2, -0.5)
    stepper = _FastStepper.for_model(model, dt_macro, params)
    block = stepper.draw([RngStream(56, 0)], stepper.n_sub)[0]
    out_a = stepper.run_block(x.values, y_a.values, block)
    out_b = stepper.run_block(x.values, y_b.values, block)
    gap0 = norm_values(grid, y_a.values - y_b.values, L2)
    gap = norm_values(grid, out_a - out_b, L2)
    margin = dissipativity_margin(model.fast, model.coupling, model.grid)
    envelope = gap0 * math.exp(-0.5 * margin * dt_macro / epsilon) * 1.1
    assert gap <= envelope


def test_trajectory_stats_sup_and_increments():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, _ = simulate_coupled(model, 0.25, params, RngStream(8, 1))
    stats = TrajectoryStats(model.grid, L2, params.dt_macro, trajectory.x)
    sup = max(norm_values(model.grid, row, L2) ** 2 for row in trajectory.x)
    assert stats.sup_norm_x_sq == pytest.approx(sup, rel=1e-12)
    # delta = dt_macro degenerates to the summed one-step increments.
    one_step = sum(
        params.dt_macro * norm_values(model.grid, b - a, L2) ** 2
        for a, b in zip(trajectory.x, trajectory.x[1:])
    )
    assert stats.increment_integral(params.dt_macro) == pytest.approx(one_step, rel=1e-12)
    # Coarser blocks anchor at the block start.
    delta = 4 * params.dt_macro
    manual = 0.0
    for j in range(trajectory.x.shape[0] - 1):
        anchor = (j // 4) * 4
        d = trajectory.x[j + 1] - trajectory.x[anchor]
        manual += params.dt_macro * norm_values(model.grid, d, L2) ** 2
    assert stats.increment_integral(delta) == pytest.approx(manual, rel=1e-12)


def test_mean_norm_y_stays_bounded():
    # Long-run fast energy settles; the mean squared norm must not blow up.
    model = make_model(epsilon=0.02)
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, _ = simulate_coupled(model, 1.0, params, RngStream(21, 0))
    mean_norm_y_sq = np.mean(row_norms(model.grid, trajectory.y, L2) ** 2)
    assert 0.0 < mean_norm_y_sq < 10.0


def test_horizon_must_be_step_multiple():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    with pytest.raises(ValueError):
        simulate_coupled(model, 0.2501, params, RngStream(0, 0))


def test_blow_up_names_epsilon_and_first_bad_step():
    # The Burgers convection of a huge initial state overflows in the first
    # macro step; the run must stop with context instead of returning NaN.
    model = make_model(epsilon=0.05, x0_amp=1e200)
    params = SchemeParams(dt_macro=1 / 64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowUp, match=r"epsilon=0\.05.*macro step 1\b"):
            simulate_coupled(model, 0.25, params, RngStream(3, 0))
        path = simulate_coupled(make_model(epsilon=0.05), 0.25, params, RngStream(3, 0))[1]
        fbar = lambda x: np.zeros_like(x)  # noqa: E731
        with pytest.raises(NumericalBlowUp, match=r"averaged.*macro step 1\b"):
            simulate_averaged(model, fbar, params, path)
    assert issubclass(NumericalBlowUp, ArithmeticError)


def reference_coupled(model, m, params, stream):
    """The coupled loop with one noise draw per macro step, kept as the reference.

    Returns the slow and fast states and the raw slow and fast noise rows.
    """
    grid, coupling, dt = model.grid, model.coupling, params.dt_macro
    slow_stepper = _SlowStepper(model.slow, grid, dt, params)
    fast_stepper = _FastStepper.for_model(model, dt, params)
    n_sub = fast_stepper.n_sub
    gen_slow, gen_fast = stream.generator(0), stream.generator(1)
    g1_scales = mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(dt)
    g2_scales = mode_scales(coupling.g2_amplitude, coupling.g2_modes) * math.sqrt(dt / n_sub)
    basis_slow_t = np.ascontiguousarray(sine_basis(grid, coupling.g1_modes).T)
    x, y = model.x0.values.copy(), model.y0.values.copy()
    xs, ys, slow_rows, fast_rows = [x], [y], [], []
    for _ in range(m):
        forcing = coupling_f(coupling, x, y)
        block = gen_fast.standard_normal((n_sub, coupling.g2_modes)) * g2_scales
        y = fast_stepper.run_block(x, y, block)
        slow_coeffs = g1_scales * gen_slow.standard_normal(coupling.g1_modes)
        x = slow_stepper.step(x, forcing, slow_coeffs @ basis_slow_t)
        xs.append(x)
        ys.append(y)
        slow_rows.append(slow_coeffs)
        fast_rows.append(block)
    return np.array(xs), np.array(ys), np.array(slow_rows), np.array(fast_rows)


@settings(max_examples=25, deadline=None)
@given(
    slow_kind=st.sampled_from(["burgers", "porous_medium", "p_laplace"]),
    fast_kind=st.sampled_from(["linear", "smooth_bounded"]),
    n=st.integers(3, 12),
    epsilon=st.floats(0.01, 0.5),
    steps=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_shared_slow_loop_matches_reference_bytes(slow_kind, fast_kind, n, epsilon, steps, seed):
    # Drawing the whole horizon up front and running the shared slow loop
    # gives the bytes of the per-step reference; the recorded path replays
    # the fast states exactly and, decoupled, the slow states too.
    params = SchemeParams(dt_macro=1 / 64)
    stream = RngStream(seed, 1)
    model = make_model(n=n, epsilon=epsilon, slow_kind=slow_kind, fast_kind=fast_kind)
    trajectory, path = simulate_coupled(model, steps / 64, params, stream)
    x, y, slow_rows, fast_rows = reference_coupled(model, steps, params, stream)
    assert trajectory.x.tobytes() == x.tobytes()
    assert trajectory.y.tobytes() == y.tobytes()
    assert path.slow.tobytes() == slow_rows.tobytes()
    assert path.fast.tobytes() == fast_rows.tobytes()
    auxiliary = build_auxiliary(model, trajectory, path, params.dt_macro)
    assert auxiliary.tobytes() == trajectory.y.tobytes()

    decoupled = make_model(
        n=n, epsilon=epsilon, slow_kind=slow_kind, fast_kind=fast_kind, c_fy=0.0, c_fx=0.7
    )
    trajectory, path = simulate_coupled(decoupled, steps / 64, params, stream)
    fbar = lambda x: decoupled.coupling.f0.values + 0.7 * x  # noqa: E731
    averaged = simulate_averaged(decoupled, fbar, params, path)
    assert strong_error(trajectory, averaged, decoupled.grid, L2) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    slow_kind=st.sampled_from(["burgers", "porous_medium", "p_laplace"]),
    fast_kind=st.sampled_from(["linear", "smooth_bounded"]),
    batch=st.sampled_from([1, 2, 5]),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_replica_bytes_do_not_depend_on_the_batch(slow_kind, fast_kind, batch, data, seed):
    # Replica r's coupled states, noise and strong error have the same bytes
    # run alone, in a batch of its first r + 1 replicas and in a batch of
    # `batch`, and the per-step reference loop gives them too.
    r = data.draw(st.integers(0, batch - 1), label="replica")
    steps = 6
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=9, epsilon=0.05, slow_kind=slow_kind, fast_kind=fast_kind)
    # The closed form of the linear fast equation as an affine drift for both kinds.
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    streams = [RngStream(seed, i) for i in range(batch)]

    def outputs(trajectory, path, averaged):
        error = strong_error(trajectory, averaged, model.grid, model.state_norm)
        return (
            trajectory.x.tobytes(),
            trajectory.y.tobytes(),
            path.slow.tobytes(),
            path.fast.tobytes(),
            error.hex(),
        )

    def in_batch(streams):
        trajectory, path = simulate_coupled(model, steps / 64, params, streams)
        averaged = simulate_averaged(model, fbar, params, path)
        return outputs(trajectory.replica(r), path.replica(r), averaged.replica(r))

    trajectory, path = simulate_coupled(model, steps / 64, params, streams[r])
    alone = outputs(trajectory, path, simulate_averaged(model, fbar, params, path))
    assert in_batch(streams) == alone
    assert in_batch(streams[: r + 1]) == alone
    x, y, slow_rows, fast_rows = reference_coupled(model, steps, params, streams[r])
    assert (x.tobytes(), y.tobytes(), slow_rows.tobytes(), fast_rows.tobytes()) == alone[:4]


def poison_fast_noise(monkeypatch, first_step_by_stream):
    """Make the fast noise of chosen replicas NaN from a chosen macro step on.

    first_step_by_stream maps a stream id to the macro step k >= 1 whose
    fast state is the first to turn NaN: the stream's lane-1 rows from
    micro step (k - 1) * n_sub on. The poison follows the replica, so it
    fails the same way alone, in any batch and when run again.
    """
    draw = _FastStepper.draw

    def poisoned(self, streams, steps):
        rows = draw(self, streams, steps)
        for row, stream in zip(rows, streams):
            step = first_step_by_stream.get(stream.stream_id)
            if step is not None:
                row[(step - 1) * self.n_sub :] = np.nan
        return rows

    monkeypatch.setattr(_FastStepper, "draw", poisoned)


@pytest.mark.parametrize("slow_kind", ["burgers", "porous_medium"])
def test_batch_with_a_failing_replica_raises(monkeypatch, slow_kind):
    # Replica 1's fast state turns NaN at step 4: its batch of 4 raises the
    # error replica 1 raises alone. Burgers carries the NaN to the end of
    # the run; the porous-medium Newton solve of the next step fails on it.
    model = make_model(epsilon=0.05, slow_kind=slow_kind)
    params = SchemeParams(dt_macro=1 / 64)
    streams = [RngStream(8, i) for i in range(4)]
    poison_fast_noise(monkeypatch, {1: 4})
    failures = (NewtonDivergence, NumericalBlowUp)
    with pytest.raises(failures) as batch:
        simulate_coupled(model, 0.125, params, streams)
    with pytest.raises(failures) as alone:
        simulate_coupled(model, 0.125, params, streams[1])
    assert batch.type is alone.type and str(batch.value) == str(alone.value)
    step = 4 if slow_kind == "burgers" else 5
    assert re.search(rf"coupled run .*epsilon=0\.05.* macro step {step}\b", str(alone.value))


class NaNFrom:
    """A drift that turns NaN from its call `first` on; call j drives macro step j."""

    def __init__(self, fbar, first):
        self.fbar, self.first, self.calls = fbar, first, 0

    def __call__(self, x):
        value = self.fbar(x)
        if self.calls >= self.first:
            value = np.full_like(value, np.nan)
        self.calls += 1
        return value


@settings(max_examples=30, deadline=None)
@given(
    slow_kind=st.sampled_from(["burgers", "porous_medium", "p_laplace"]),
    fast_kind=st.sampled_from(["linear", "smooth_bounded"]),
    batch=st.sampled_from([None, 1, 2, 5]),
    steps=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_joint_run_equals_coupled_run_then_averaged_replay(
    slow_kind, fast_kind, batch, steps, seed
):
    # Stepping the averaged equation beside the coupled one gives the bytes
    # of the coupled run followed by simulate_averaged on its path, for a
    # single stream (batch None) and for batches.
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=9, epsilon=0.05, slow_kind=slow_kind, fast_kind=fast_kind)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    streams = RngStream(seed, 0) if batch is None else [RngStream(seed, i) for i in range(batch)]
    trajectory, path, averaged = simulate_coupled(model, steps / 64, params, streams, fbar)
    alone, alone_path = simulate_coupled(model, steps / 64, params, streams)
    replay = simulate_averaged(model, fbar, params, alone_path)
    assert trajectory.x.shape == alone.x.shape and averaged.x.shape == replay.x.shape
    assert trajectory.x.tobytes() == alone.x.tobytes()
    assert trajectory.y.tobytes() == alone.y.tobytes()
    assert path == alone_path
    assert averaged.x.tobytes() == replay.x.tobytes()
    assert np.array_equal(averaged.times, replay.times)


def test_joint_run_with_the_estimator_equals_the_replay():
    # A MemoizedFbar keeps state, so each run gets its own; the joint run
    # calls it on the same states as the replay and so refreshes alike.
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=8, epsilon=0.05, fast_kind="smooth_bounded")
    streams = [RngStream(7, r) for r in range(2)]

    def estimator():
        bases = [RngStream(7, 1000 * (r + 1)) for r in range(2)]
        return MemoizedFbar(model.fast, model.coupling, model.grid, 2, bases)

    joint = estimator()
    trajectory, path, averaged = simulate_coupled(model, 4 / 64, params, streams, joint)
    alone, alone_path = simulate_coupled(model, 4 / 64, params, streams)
    replayed = estimator()
    replay = simulate_averaged(model, replayed, params, alone_path)
    assert trajectory.x.tobytes() == alone.x.tobytes()
    assert averaged.x.tobytes() == replay.x.tobytes()
    assert joint.refresh_counts.tolist() == replayed.refresh_counts.tolist()
    assert joint.refresh_counts.min() > 0


@pytest.mark.parametrize("slow_kind", ["burgers", "porous_medium"])
def test_joint_run_raises_at_the_earliest_failing_step(monkeypatch, slow_kind):
    # The averaged drift turns NaN at macro step 2 and the coupled fast
    # state at step 5: the joint run names the averaged failure, the one at
    # the earlier step. Burgers carries the NaN state to the end; the
    # porous-medium Newton solve of the next step fails on it.
    model = make_model(epsilon=0.05, slow_kind=slow_kind)
    params = SchemeParams(dt_macro=1 / 64)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    poison_fast_noise(monkeypatch, {0: 5})
    failures = (NewtonDivergence, NumericalBlowUp)
    with pytest.raises(failures) as joint:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)], NaNFrom(fbar, 2))
    if slow_kind == "burgers":
        assert str(joint.value) == (
            "averaged run blew up at epsilon=0.05: non-finite state at macro step 3"
        )
    else:
        assert str(joint.value) == (
            "averaged run at epsilon=0.05 failed at macro step 3: "
            "implicit porous_medium solve met a non-finite residual"
        )
    # Failing at the same step, the coupled run comes first: step 5 for
    # Burgers, step 6 for the Newton solve after the NaN.
    first = 4 if slow_kind == "burgers" else 5
    with pytest.raises(failures) as same_step:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)], NaNFrom(fbar, first))
    with pytest.raises(failures) as coupled:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)])
    assert same_step.type is coupled.type and str(same_step.value) == str(coupled.value)
    assert str(coupled.value).startswith("coupled run")


def test_fast_blow_up_at_the_last_step_comes_before_an_averaged_newton_failure(monkeypatch):
    # The coupled fast state turns NaN at the last macro step, 8, where no
    # later solve fails on it, and the averaged Newton solve fails at step 8
    # too: the coupled blow-up comes first, as the coupled run alone names it.
    model = make_model(epsilon=0.05, slow_kind="porous_medium")
    params = SchemeParams(dt_macro=1 / 64)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    poison_fast_noise(monkeypatch, {0: 8})
    with pytest.raises(NumericalBlowUp) as alone:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)])
    with pytest.raises(NumericalBlowUp) as joint:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)], NaNFrom(fbar, 7))
    assert str(joint.value) == str(alone.value) == (
        "coupled run blew up at epsilon=0.05: non-finite state at macro step 8"
    )
