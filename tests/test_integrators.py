"""Time stepping: replay exactness, implicit-solve contracts, contraction."""

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spavg.averaging
import spavg.experiments
import spavg.integrators
from spavg.averaging import MemoizedFbar, OracleFbar, estimate_fbar
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
    _block_replay,
    _fast_coordinates,
    _FastStepper,
    _SlowStepper,
    epsilon_grid_errors,
    simulate_averaged,
    simulate_coupled,
    simulate_epsilon_grid,
    strong_error,
    whole_steps,
)
from spavg.operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    coupling_f,
    dissipativity_margin,
    mode_scales,
)
from spavg.config import ExperimentConfig
from spavg.experiments import _batch_statistics, build_model, scheme_params
from spavg.randomness import RngStream

from test_fast_stepper import nodal_step, recorded_path


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
        NoisePath(0.01, 2, 0.1, np.zeros((1, 4)), np.zeros((1, 4, 2, 2)))
    with pytest.raises(ValueError):  # one replica without its replica axis
        NoisePath(0.01, 2, 0.1, np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):  # replica counts disagree
        NoisePath(0.01, 2, 0.1, np.zeros((2, 4, 3)), np.zeros((1, 4, 3)))
    slow, fast = np.zeros((1, 4, 3)), np.zeros((1, 4, 3))
    for dt_macro in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="dt_macro must be positive"):
            NoisePath(dt_macro, 2, 0.1, slow, fast)
    for n_sub in (0, -1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_sub must be a whole number"):
            NoisePath(0.01, n_sub, 0.1, slow, fast)
    for epsilon in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            NoisePath(0.01, 2, epsilon, slow, fast)


def test_a_lone_stream_is_refused_naming_the_batch_form():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    with pytest.raises(TypeError, match=r"one replica is \[stream\]"):
        simulate_epsilon_grid(model, [0.05], 0.25, params, RngStream(0, 0))
    with pytest.raises(TypeError, match=r"one replica is \[stream\]"):
        simulate_coupled(model, 0.25, params, RngStream(0, 0))


def test_an_empty_batch_is_refused_naming_the_argument():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    no_streams = r"^streams must hold at least one RngStream, one per {}$"
    with pytest.raises(ValueError, match=no_streams.format("replica")):
        simulate_coupled(model, 0.25, params, [])
    with pytest.raises(ValueError, match=no_streams.format("point")):
        estimate_fbar(model.fast, model.coupling, model.grid, np.zeros((8, 0)), 2, [])
    with pytest.raises(ValueError, match=no_streams.format("replica")):
        MemoizedFbar(model.fast, model.coupling, model.grid, 2, [])
    with pytest.raises(ValueError, match=r"^epsilons must hold at least one epsilon$"):
        simulate_epsilon_grid(model, [], 0.25, params, [RngStream(0, 0)])
    trajectory, path = simulate_coupled(model, 0.25, params, [RngStream(0, 0)])
    with pytest.raises(ValueError, match=r"^deltas must hold at least one block length$"):
        build_auxiliary(model, trajectory, path, [])


def test_same_stream_replays_bitwise():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    first = simulate_coupled(model, 0.25, params, [RngStream(12, 4)])
    second = simulate_coupled(model, 0.25, params, [RngStream(12, 4)])
    np.testing.assert_array_equal(first[0].x, second[0].x)
    np.testing.assert_array_equal(first[0].y, second[0].y)
    assert first[1] == second[1]


def test_averaged_runs_on_the_recorded_grid():
    # The noise path is the only source of the replay's step grid: the
    # dt_macro of the scheme parameters is not read.
    model = make_model()
    trajectory, path = simulate_coupled(
        model, 0.25, SchemeParams(dt_macro=1 / 64), [RngStream(3, 0)]
    )
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
    trajectory, path = simulate_coupled(model, 0.5, params, [RngStream(90, 2)])
    coupling = model.coupling
    fbar = lambda x: coupling.f0.values[:, None] + coupling.c_fx * x  # noqa: E731
    averaged = simulate_averaged(model, fbar, params, path)
    assert strong_error(trajectory.replica(0), averaged.replica(0), model.grid, L2) == 0.0


@pytest.mark.parametrize("slow_kind", ["burgers", "porous_medium", "p_laplace"])
def test_averaged_scheme_has_strong_order_one_in_dt(slow_kind):
    # Brownian refinement: the slow rows at dt = k / 4096 are the sums of k
    # consecutive rows at 1 / 4096, so every step size runs on one Wiener
    # path, and the run at 1 / 4096 is the reference. The averaged run
    # ignores the fast noise, which is zero here. Seed rule: replica r draws
    # its fine rows from RngStream(2026, r) lane 0, as a coupled run at
    # dt = 1 / 4096 would, for every slow kind. E||X_T^dt - X_T^ref||^2 over
    # 16 replicas falls like dt^(2 order); additive trace-class noise gives
    # the drift-implicit step order 1 (measured: 1.11, 1.12 and 1.12 for
    # burgers, porous_medium and p_laplace), and the floor is 0.8.
    fine, replicas = 4096, 16
    config = ExperimentConfig(slow_kind=slow_kind, n_interior=32, T=0.25, dt_macro=1 / fine)
    model, params = build_model(config, 0.1), scheme_params(config)
    coupling, steps = model.coupling, whole_steps(config.T, config.dt_macro, "T")
    scales = mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(1 / fine)
    draws = [RngStream(2026, r).generator(0) for r in range(replicas)]
    rows = np.stack([draw.standard_normal((steps, coupling.g1_modes)) for draw in draws]) * scales
    fbar = OracleFbar(model.fast, coupling, model.grid)

    def end_state(k):
        slow = rows.reshape(replicas, steps // k, k, -1).sum(axis=2)
        no_fast = np.zeros((replicas, steps // k, coupling.g2_modes))
        path = NoisePath(k / fine, 1, 0.1, slow, no_fast)
        return simulate_averaged(model, fbar, params, path).x[-1]

    reference, coarse = end_state(1), [2, 4, 8, 16, 32, 64]
    errors = [np.mean(row_norms(model.grid, end_state(k) - reference, L2) ** 2) for k in coarse]
    fit = spavg.experiments.fit_loglog([k / fine for k in coarse], errors)
    assert fit.slope / 2.0 >= 0.8, (fit.slope / 2.0, errors)


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
            x = gen.uniform(-2.0, 2.0, size=(16, 1))
            forcing = gen.standard_normal((16, 1))
            noise = 0.05 * gen.standard_normal((16, 1))
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
        x = gen.standard_normal((32, 1))
        forcing = gen.standard_normal((32, 1))
        noise = 0.01 * gen.standard_normal((32, 1))
        x_new = stepper.step(x, forcing, noise)
        res = stepper.residual(x_new, x, forcing, noise)
        assert np.abs(res).max() <= 1e-9


def test_newton_divergence_is_reported():
    grid = Grid1D(8)
    params = SchemeParams(dt_macro=0.25, newton_tol=1e-320)
    stepper = _SlowStepper(SlowOperatorSpec("porous_medium", p=3.0), grid, 0.25, params)
    x = np.linspace(-1.0, 1.0, 8)[:, None]
    with pytest.raises(NewtonDivergence):
        stepper.step(x, np.ones((8, 1)), np.zeros((8, 1)))


def test_newton_failure_names_equation_epsilon_and_step():
    # An unreachable tolerance stalls the first implicit porous medium step;
    # the error names the equation, epsilon and the state being computed.
    # The averaged equation has no epsilon, so its error names none.
    model = make_model(epsilon=0.05, slow_kind="porous_medium")
    tight = SchemeParams(dt_macro=1 / 64, newton_tol=1e-320)
    with pytest.raises(NewtonDivergence, match=r"coupled.*epsilon=0\.05.*macro step 1\b"):
        simulate_coupled(model, 0.25, tight, [RngStream(3, 0)])
    path = simulate_coupled(model, 0.25, SchemeParams(dt_macro=1 / 64), [RngStream(3, 0)])[1]
    fbar = lambda x: np.zeros_like(x)  # noqa: E731
    with pytest.raises(NewtonDivergence, match=r"^averaged run failed at macro step 1\b"):
        simulate_averaged(model, fbar, tight, path)


def synchronous_block(model, dt_macro, params, x, y_a, y_b, stream):
    """y_a and y_b after one macro step of _block_replay on the same noise, (n, 2).

    The two start states are the two copies of the stream's one replica.
    """
    stepper = _FastStepper.for_model(model, dt_macro, params)
    rows = stepper.draw([stream], stepper.n_sub)[:, None]
    _, step = _block_replay(model, [recorded_path(model, model.epsilon, dt_macro, rows)], [0, 0])
    x_frozen = np.repeat(x.values[:, None], 2, axis=1)
    return nodal_step(model, step, 0, x_frozen, np.stack([y_a.values, y_b.values], axis=1))


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
    out = synchronous_block(model, dt_macro, params, x, y_a, y_b, RngStream(55, 0))
    gap = norm_values(model.grid, out[:, 0] - out[:, 1], L2)
    tau = dt_macro / epsilon
    lam = smallest_eigenvalue(model.grid)
    margin = dissipativity_margin(model.fast, model.grid)
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
    out = synchronous_block(model, dt_macro, params, x, y_a, y_b, RngStream(56, 0))
    gap0 = norm_values(grid, y_a.values - y_b.values, L2)
    gap = norm_values(grid, out[:, 0] - out[:, 1], L2)
    margin = dissipativity_margin(model.fast, model.grid)
    envelope = gap0 * math.exp(-0.5 * margin * dt_macro / epsilon) * 1.1
    assert gap <= envelope


def test_trajectory_stats_sup_and_increments():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    trajectory = simulate_coupled(model, 0.25, params, [RngStream(8, 1)])[0].replica(0)
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
    trajectory = simulate_coupled(model, 1.0, params, [RngStream(21, 0)])[0].replica(0)
    mean_norm_y_sq = np.mean(row_norms(model.grid, trajectory.y, L2) ** 2)
    assert 0.0 < mean_norm_y_sq < 10.0


def test_horizon_must_be_step_multiple():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    with pytest.raises(ValueError):
        simulate_coupled(model, 0.2501, params, [RngStream(0, 0)])


def test_blow_up_names_epsilon_and_first_bad_step():
    # The Burgers convection of a huge initial state overflows in the first
    # macro step; the run must stop with context instead of returning NaN.
    model = make_model(epsilon=0.05, x0_amp=1e200)
    params = SchemeParams(dt_macro=1 / 64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowUp, match=r"epsilon=0\.05.*macro step 1\b"):
            simulate_coupled(model, 0.25, params, [RngStream(3, 0)])
        path = simulate_coupled(make_model(epsilon=0.05), 0.25, params, [RngStream(3, 0)])[1]
        fbar = lambda x: np.zeros_like(x)  # noqa: E731
        with pytest.raises(NumericalBlowUp, match=r"averaged.*macro step 1\b"):
            simulate_averaged(model, fbar, params, path)
    assert issubclass(NumericalBlowUp, ArithmeticError)


def reference_coupled(model, m, params, stream):
    """The coupled loop with one noise draw per macro step, kept as the reference.

    The states are single columns (n, 1) and the noise one replica's rows.
    Each macro step of the fast state is one _block_replay step on a path
    of that step's raw rows; the fast state stays in the coordinates that
    step takes, and F reads its nodal values. Returns the slow and fast states, the raw slow
    and fast noise rows, and the fast noise each macro step consumed: the
    sums of its raw rows with the gains d^(n_sub - m) / sqrt(epsilon) for
    the linear kind (noise_sums), the rows themselves for smooth_bounded.
    """
    grid, coupling, dt = model.grid, model.coupling, params.dt_macro
    slow_stepper = _SlowStepper(model.slow, grid, dt, params)
    fast_stepper = _FastStepper.for_model(model, dt, params)
    n_sub = fast_stepper.n_sub
    gen_slow, gen_fast = stream.generator(0), stream.generator(1)
    g1_scales = mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(dt)
    g2_scales = mode_scales(coupling.g2_amplitude, coupling.g2_modes) * math.sqrt(dt / n_sub)
    basis_slow_t = np.ascontiguousarray(sine_basis(grid, coupling.g1_modes).T)
    to_state, to_nodes, _ = _fast_coordinates(model.fast, grid)
    x = model.x0.values[:, None].copy()
    y = to_state(model.y0.values[:, None].copy())
    xs, ys = [x[:, 0]], [to_nodes(y)[:, 0]]
    slow_rows, fast_rows, consumed = [], [], []
    for _ in range(m):
        forcing = coupling_f(coupling, x, to_nodes(y))
        block = gen_fast.standard_normal((n_sub, coupling.g2_modes)) * g2_scales
        path = recorded_path(model, model.epsilon, dt, block[None, None])
        y = _block_replay(model, [path], [0])[1](0, to_state(x), y)
        slow_coeffs = g1_scales * gen_slow.standard_normal(coupling.g1_modes)
        x = slow_stepper.step(x, forcing, (slow_coeffs @ basis_slow_t)[:, None])
        xs.append(x[:, 0])
        ys.append(to_nodes(y)[:, 0])
        slow_rows.append(slow_coeffs)
        fast_rows.append(block)
        consumed.append(path.fast[0, 0])
    return tuple(map(np.array, (xs, ys, slow_rows, fast_rows, consumed)))


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
    trajectory, path = simulate_coupled(model, steps / 64, params, [stream])
    x, y, slow_rows, fast_rows, consumed = reference_coupled(model, steps, params, stream)
    assert trajectory.x.tobytes() == x.tobytes()
    assert trajectory.y.tobytes() == y.tobytes()
    assert path.slow.tobytes() == slow_rows.tobytes()
    # The path holds the block sums of the raw rows (linear) or the rows.
    assert path.fast.tobytes() == consumed.tobytes()
    if fast_kind == "smooth_bounded":
        assert path.fast.tobytes() == fast_rows.tobytes()
    auxiliary = build_auxiliary(model, trajectory, path, [params.dt_macro])
    assert auxiliary.tobytes() == trajectory.y.tobytes()

    decoupled = make_model(
        n=n, epsilon=epsilon, slow_kind=slow_kind, fast_kind=fast_kind, c_fy=0.0, c_fx=0.7
    )
    trajectory, path = simulate_coupled(decoupled, steps / 64, params, [stream])
    fbar = lambda x: decoupled.coupling.f0.values[:, None] + 0.7 * x  # noqa: E731
    averaged = simulate_averaged(decoupled, fbar, params, path)
    error = strong_error(trajectory.replica(0), averaged.replica(0), decoupled.grid, L2)
    assert error == 0.0


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

    def outputs(streams, k):
        """The bytes of replica k of a run of the batch `streams`."""
        batch, path = simulate_coupled(model, steps / 64, params, streams)
        trajectory = batch.replica(k)
        averaged = simulate_averaged(model, fbar, params, path).replica(k)
        error = strong_error(trajectory, averaged, model.grid, model.state_norm)
        return (
            trajectory.x.tobytes(),
            trajectory.y.tobytes(),
            path.slow[k].tobytes(),
            path.fast[k].tobytes(),
            error.hex(),
        )

    alone = outputs([streams[r]], 0)
    assert outputs(streams, r) == alone
    assert outputs(streams[: r + 1], r) == alone
    x, y, slow_rows, _, consumed = reference_coupled(model, steps, params, streams[r])
    assert (x.tobytes(), y.tobytes(), slow_rows.tobytes(), consumed.tobytes()) == alone[:4]


def poison_fast_noise(monkeypatch, first_step_by_stream, epsilon=None):
    """Make the fast noise of chosen replicas NaN from a chosen macro step on.

    first_step_by_stream maps a stream id to the macro step k >= 1 whose
    fast state is the first to turn NaN: the stream's recorded fast noise
    from macro step k on, the noise sums of the linear kind or the raw rows
    from micro step (k - 1) * n_sub on. The poison follows the replica, so
    it fails the same way alone, in any batch, at any epsilon of a grid and
    when run again. Given epsilon, only the fast noise recorded at that
    epsilon is poisoned.
    """
    record = spavg.integrators._record

    def poisoned(steppers, streams, n_macro):
        noises = record(steppers, streams, n_macro)
        for stepper, noise in zip(steppers, noises):
            if epsilon is not None and stepper.epsilon != epsilon:
                continue
            for row, stream in zip(noise, streams):
                step = first_step_by_stream.get(stream.stream_id)
                if step is not None:
                    row[step - 1 :] = np.nan
        return noises

    monkeypatch.setattr(spavg.integrators, "_record", poisoned)


@pytest.mark.parametrize("slow_kind", ["burgers", "porous_medium"])
def test_batch_with_a_failing_replica_raises(monkeypatch, slow_kind):
    # Replica 1's fast state turns NaN at step 4: its batch of 4 raises the
    # error replica 1 raises alone, at that step for every slow kind.
    model = make_model(epsilon=0.05, slow_kind=slow_kind)
    params = SchemeParams(dt_macro=1 / 64)
    streams = [RngStream(8, i) for i in range(4)]
    poison_fast_noise(monkeypatch, {1: 4})
    failures = (NewtonDivergence, NumericalBlowUp)
    with pytest.raises(failures) as batch:
        simulate_coupled(model, 0.125, params, streams)
    with pytest.raises(failures) as alone:
        simulate_coupled(model, 0.125, params, streams[1:2])
    assert batch.type is alone.type and str(batch.value) == str(alone.value)
    assert str(alone.value) == (
        "coupled run blew up at epsilon=0.05: non-finite state at macro step 4"
    )


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
    batch=st.sampled_from([1, 2, 5]),
    steps=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_joint_run_equals_coupled_run_then_averaged_replay(
    slow_kind, fast_kind, batch, steps, seed
):
    # Stepping the averaged equation beside the coupled one, in converge's
    # run of one epsilon, gives the errors of the coupled run of the whole
    # batch followed by simulate_averaged on its path.
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=9, epsilon=0.05, slow_kind=slow_kind, fast_kind=fast_kind)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    streams = [RngStream(seed, i) for i in range(batch)]
    (errors,) = epsilon_grid_errors(model, [0.05], steps / 64, params, streams, fbar)
    alone, alone_path = simulate_coupled(model, steps / 64, params, streams)
    replay = simulate_averaged(model, fbar, params, alone_path)
    expected = [
        strong_error(alone.replica(r), replay.replica(r), model.grid, model.state_norm)
        for r in range(batch)
    ]
    assert [e.hex() for e in errors.tolist()] == [e.hex() for e in expected]


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
    (errors,) = epsilon_grid_errors(model, [0.05], 4 / 64, params, streams, joint)
    alone, alone_path = simulate_coupled(model, 4 / 64, params, streams)
    replayed = estimator()
    replay = simulate_averaged(model, replayed, params, alone_path)
    expected = [
        strong_error(alone.replica(r), replay.replica(r), model.grid, model.state_norm)
        for r in range(2)
    ]
    assert [e.hex() for e in errors.tolist()] == [e.hex() for e in expected]
    assert joint.refresh_counts.tolist() == replayed.refresh_counts.tolist()
    assert joint.refresh_counts.min() > 0


@pytest.mark.parametrize("slow_kind", ["burgers", "porous_medium"])
def test_joint_run_raises_at_the_earliest_failing_step(monkeypatch, slow_kind):
    # The averaged drift turns NaN from the call that drives macro step 3
    # and the coupled fast state at step 5: converge's run of the averaged
    # equation beside the grid names the averaged failure, the one at the
    # earlier step, a blow-up for Burgers and a failed Newton solve for
    # porous medium.
    model = make_model(epsilon=0.05, slow_kind=slow_kind)
    params = SchemeParams(dt_macro=1 / 64)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    poison_fast_noise(monkeypatch, {0: 5})
    failures = (NewtonDivergence, NumericalBlowUp)
    with pytest.raises(failures) as joint:
        epsilon_grid_errors(model, [0.05], 0.125, params, [RngStream(8, 0)], NaNFrom(fbar, 2))
    if slow_kind == "burgers":
        assert str(joint.value) == "averaged run blew up: non-finite state at macro step 3"
    else:
        assert str(joint.value) == (
            "averaged run failed at macro step 3: "
            "implicit porous_medium solve met a non-finite residual"
        )
    # Failing at the same step, 5, the coupled run comes first: its fast
    # state blows up where the averaged run blows up (Burgers) or its
    # Newton solve fails (porous medium).
    first = 4
    with pytest.raises(failures) as same_step:
        epsilon_grid_errors(
            model, [0.05], 0.125, params, [RngStream(8, 0)], NaNFrom(fbar, first)
        )
    with pytest.raises(failures) as coupled:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)])
    assert same_step.type is coupled.type and str(same_step.value) == str(coupled.value)
    assert str(coupled.value).startswith("coupled run")


def test_fast_blow_up_at_the_last_step_comes_before_an_averaged_newton_failure(monkeypatch):
    # The coupled fast state turns NaN at the last macro step, 8, and the
    # averaged Newton solve fails at step 8 too: the coupled blow-up comes
    # first, as the coupled run alone names it.
    model = make_model(epsilon=0.05, slow_kind="porous_medium")
    params = SchemeParams(dt_macro=1 / 64)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    poison_fast_noise(monkeypatch, {0: 8})
    with pytest.raises(NumericalBlowUp) as alone:
        simulate_coupled(model, 0.125, params, [RngStream(8, 0)])
    with pytest.raises(NumericalBlowUp) as joint:
        epsilon_grid_errors(model, [0.05], 0.125, params, [RngStream(8, 0)], NaNFrom(fbar, 7))
    assert str(joint.value) == str(alone.value) == (
        "coupled run blew up at epsilon=0.05: non-finite state at macro step 8"
    )


@settings(max_examples=25, deadline=None)
@given(
    slow_kind=st.sampled_from(["burgers", "porous_medium", "p_laplace"]),
    fast_kind=st.sampled_from(["linear", "smooth_bounded"]),
    epsilons=st.lists(
        st.sampled_from([0.2, 0.1, 0.05, 0.02, 0.01]), min_size=2, max_size=4, unique=True
    ),
    replicas=st.integers(1, 3),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_epsilon_grid_columns_equal_one_epsilon_runs(
    slow_kind, fast_kind, epsilons, replicas, steps, seed
):
    # Every (epsilon, replica) column of one grid run has the coupled x and
    # y and the path of its run alone.
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=9, epsilon=0.3, slow_kind=slow_kind, fast_kind=fast_kind)
    streams = [RngStream(seed, r) for r in range(replicas)]
    runs = simulate_epsilon_grid(model, epsilons, steps / 64, params, streams)
    assert len(runs) == len(epsilons)
    for epsilon, (trajectory, path) in zip(epsilons, runs):
        assert path.epsilon == epsilon
        at_epsilon = dataclasses.replace(model, epsilon=epsilon)
        for r, stream in enumerate(streams):
            alone, alone_path = simulate_coupled(at_epsilon, steps / 64, params, [stream])
            coupled, alone = trajectory.replica(r), alone.replica(0)
            assert coupled.x.tobytes() == alone.x.tobytes()
            assert coupled.y.tobytes() == alone.y.tobytes()
            own = slice(r, r + 1)
            assert alone_path == NoisePath(
                path.dt_macro, path.n_sub, epsilon, path.slow[own], path.fast[own]
            )


def test_epsilon_grid_with_the_estimator_refreshes_in_one_call(monkeypatch):
    # The averaged equation has no epsilon: one MemoizedFbar column per
    # replica serves every epsilon of converge's grid run. Its errors,
    # refresh counts and frozen runs (_fbar_correction calls) are those of
    # the coupled run at each epsilon alone and simulate_averaged on its
    # path with an estimator of its own.
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=8, epsilon=0.1, fast_kind="smooth_bounded")
    epsilons, replicas = [0.1, 0.05, 0.02], 2
    streams = [RngStream(7, r) for r in range(replicas)]

    def estimator():
        bases = [RngStream(7, 1000 * (r + 1)) for r in range(replicas)]
        return MemoizedFbar(model.fast, model.coupling, model.grid, 2, bases)

    calls = []
    correction = spavg.averaging._fbar_correction

    def counted(*args, **kwargs):
        calls.append(1)
        return correction(*args, **kwargs)

    monkeypatch.setattr(spavg.averaging, "_fbar_correction", counted)
    joint = estimator()
    errors = epsilon_grid_errors(model, epsilons, 4 / 64, params, streams, joint)
    grid_calls, calls[:] = len(calls), []
    assert grid_calls > 0 and joint.refresh_counts.min() > 0
    for epsilon, row in zip(epsilons, errors.tolist()):
        at_epsilon = dataclasses.replace(model, epsilon=epsilon)
        coupled, path = simulate_coupled(at_epsilon, 4 / 64, params, streams)
        alone = estimator()
        averaged = simulate_averaged(model, alone, params, path)
        expected = [
            strong_error(coupled.replica(r), averaged.replica(r), model.grid, model.state_norm)
            for r in range(replicas)
        ]
        assert [e.hex() for e in row] == [e.hex() for e in expected]
        assert joint.refresh_counts.tolist() == alone.refresh_counts.tolist()
        assert len(calls) == grid_calls
        calls.clear()


@settings(max_examples=20, deadline=None)
@given(
    slow_kind=st.sampled_from(["burgers", "porous_medium", "p_laplace"]),
    fast_kind=st.sampled_from(["linear", "smooth_bounded"]),
    replicas=st.sampled_from([1, 2, 5]),
    # 64 macro times fill one fold block (NOISE_BLOCK) exactly; 71 leave a
    # partial second one.
    steps=st.sampled_from([1, 5, 63, 70]),
    seed=st.integers(0, 2**16),
)
def test_epsilon_grid_errors_equal_strong_error_on_the_histories(
    slow_kind, fast_kind, replicas, steps, seed
):
    # converge's run: the averaged equation beside the grid, its gaps
    # folded into a running sup a block of macro steps at a time. Every
    # (epsilon, replica) error has the bytes strong_error gives on runs that
    # share no loop with the grid, simulate_coupled at that epsilon alone
    # and simulate_averaged on its path, in both state norms (H^-1 for
    # porous medium, L2 otherwise). The drift is called once per macro step,
    # on the averaged group (n, R).
    assert spavg.integrators.NOISE_BLOCK == 64
    params = SchemeParams(dt_macro=1 / 64)
    model = make_model(n=9, slow_kind=slow_kind, fast_kind=fast_kind)
    fbar = OracleFbar(FastOperatorSpec("linear"), model.coupling, model.grid)
    streams = [RngStream(seed, r) for r in range(replicas)]
    epsilons = [0.1, 0.05]
    shapes = []

    def seen(x):
        shapes.append(x.shape)
        return fbar(x)

    errors = epsilon_grid_errors(model, epsilons, steps / 64, params, streams, seen)
    assert shapes == [(9, replicas)] * steps
    assert errors.shape == (len(epsilons), replicas)
    for epsilon, row in zip(epsilons, errors.tolist()):
        at_epsilon = dataclasses.replace(model, epsilon=epsilon)
        for error, stream in zip(row, streams):
            coupled, path = simulate_coupled(at_epsilon, steps / 64, params, [stream])
            averaged = simulate_averaged(model, fbar, params, path)
            alone = strong_error(
                coupled.replica(0), averaged.replica(0), model.grid, model.state_norm
            )
            assert error.hex() == alone.hex()
    assert errors.min() > 0.0


def test_a_failing_epsilon_fails_the_grid_run_naming_it(monkeypatch):
    model = make_model(epsilon=0.1)
    params = SchemeParams(dt_macro=1 / 64)
    poison_fast_noise(monkeypatch, {1: 4}, epsilon=0.05)
    streams = [RngStream(8, r) for r in range(3)]
    with pytest.raises(NumericalBlowUp) as grid:
        simulate_epsilon_grid(model, [0.1, 0.05, 0.02], 0.125, params, streams)
    with pytest.raises(NumericalBlowUp) as alone:
        simulate_coupled(dataclasses.replace(model, epsilon=0.05), 0.125, params, streams[1:2])
    assert str(grid.value) == str(alone.value) == (
        "coupled run blew up at epsilon=0.05: non-finite state at macro step 4"
    )
    simulate_epsilon_grid(model, [0.1, 0.02], 0.125, params, streams)


def test_linear_grid_calls_per_macro_step_do_not_grow_with_the_epsilon_count(monkeypatch):
    # The linear fast states of every epsilon advance in one update per
    # macro step: one epsilon or four, the same sine transforms (_matvec)
    # and coupling_f calls. A macro step makes exactly two transforms, x^
    # for the drive and B y^ for F; the run adds one of y0 and one of the
    # whole history.
    counts = collections.Counter()

    def counted(name):
        function = getattr(spavg.integrators, name)

        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        monkeypatch.setattr(spavg.integrators, name, wrapper)

    counted("_matvec")
    counted("coupling_f")
    model = make_model(epsilon=0.1)
    params = SchemeParams(dt_macro=1 / 64)
    streams = [RngStream(5, r) for r in range(3)]
    per_grid = []
    for epsilons in ([0.1], [0.1, 0.05, 0.02, 0.01]):
        for steps in (8, 16):
            counts.clear()
            runs = simulate_epsilon_grid(model, epsilons, steps / 64, params, streams)
            per_grid.append(dict(counts))
    assert per_grid[0] == per_grid[2] and per_grid[1] == per_grid[3]
    assert per_grid[0] == {"_matvec": 2 * 8 + 2, "coupling_f": 8}
    assert per_grid[1] == {"_matvec": 2 * 16 + 2, "coupling_f": 16}
    # Every epsilon's fast noise and fast states are views of one array each.
    assert all(path.fast.base is runs[0][1].fast.base is not None for _, path in runs)
    assert all(trajectory.y.base is runs[0][0].y.base is not None for trajectory, _ in runs)


def test_every_macro_state_is_its_own_array():
    # The macro step writes into arrays that live for the whole run, but
    # each x and y it yields is a fresh array that no later step writes:
    # a caller may keep them all. Checked on a Burgers + linear run with
    # the averaged drift beside it, as converge's fold runs it, and on a
    # run with block-frozen replay columns, as a diagnose batch runs it.
    model = make_model(n=9)
    fbar = OracleFbar(model.fast, model.coupling, model.grid)
    params = SchemeParams(dt_macro=1 / 64)
    streams = [RngStream(3, r) for r in range(2)]
    for drift, replays in ((fbar, ()), (None, ((0, 2), (1, 4)))):
        _, states, _ = spavg.integrators._epsilon_grid(
            model, [0.1, 0.05], 8 / 64, params, streams, drift, replays
        )
        kept, copies = [], []
        for x, y in states:
            kept += [x, y]
            copies += [x.copy(), y.copy()]
        assert len(kept) == 2 * 9
        for i, a in enumerate(kept):
            assert not any(np.shares_memory(a, b) for b in kept[i + 1 :])
        assert all(a.tobytes() == c.tobytes() for a, c in zip(kept, copies))


def test_linear_fast_noise_memory_does_not_grow_with_n_sub():
    # One replica of the default model at epsilon = 0.001 takes hundreds of
    # micro steps per macro step; its path keeps one noise sum per macro
    # step, and recording it holds only a block of raw rows at a time, after
    # the n_sub - 1 rows it keeps for a macro step that straddles two
    # blocks. A grid with a coarse epsilon beside it shares that draw.
    config = ExperimentConfig()
    model, params = build_model(config, 0.001), scheme_params(config)
    n_sub = _FastStepper.for_model(model, params.dt_macro, params).n_sub
    m = whole_steps(config.T, params.dt_macro, "T")
    raw_rows = m * n_sub * model.coupling.g2_modes * 8
    assert raw_rows > 10e6
    for epsilons in ([0.001], [0.1, 0.001]):
        tracemalloc.start()
        try:
            runs = simulate_epsilon_grid(model, epsilons, config.T, params, [RngStream(0, 0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(path.fast.shape == (1, m, model.coupling.g2_modes) for _, path in runs)
        assert peak < raw_rows / 4


def test_macro_step_states_are_column_major(monkeypatch):
    # Every (n, C) state the Burgers + linear macro step takes or makes is
    # laid out column by column, as pttrs, gtsv and _matvec want it, so no
    # elementwise operation mixes the two layouts: the slow step's state and
    # forcing, the block replay's frozen input and fast state, and the
    # Burgers convection, each with its result. Checked in converge's fold
    # and in a diagnose batch, whose fast state holds its replay columns too.
    seen = collections.Counter()

    def checked(name, function, states):
        def wrapper(*args):
            result = function(*args)
            for a in [*(args[i] for i in states), result]:
                seen[name, a.ndim == 2 and a.flags.f_contiguous] += 1
            return result

        return wrapper

    def replay(*args):
        source, step = _block_replay(*args)
        return source, checked("replay", step, (1, 2))

    convection = checked("convection", spavg.integrators.burgers_convection, (1,))
    monkeypatch.setattr(_SlowStepper, "step", checked("slow", _SlowStepper.step, (1, 2)))
    monkeypatch.setattr(spavg.integrators, "burgers_convection", convection)
    monkeypatch.setattr(spavg.integrators, "_block_replay", replay)
    model = make_model(n=9)
    fbar = OracleFbar(model.fast, model.coupling, model.grid)
    streams = [RngStream(3, r) for r in range(2)]
    epsilon_grid_errors(model, [0.1, 0.05], 8 / 64, SchemeParams(dt_macro=1 / 64), streams, fbar)
    config = ExperimentConfig(n_interior=8, T=8 / 64, dt_macro=1 / 64, diag_epsilon=0.05)
    _batch_statistics(config, [0.1, 0.05], [0, 1], {0.1: [4 / 64], 0.05: [2 / 64, 8 / 64]})
    # 8 macro steps a run: three arrays a slow step or replay step, two a
    # convection; one replay step advances every fast column of a run.
    assert seen == {
        ("slow", True): 2 * 8 * 3,
        ("convection", True): 2 * 8 * 2,
        ("replay", True): 2 * 8 * 3,
    }
