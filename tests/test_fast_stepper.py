"""The fast stepper and the block rule against a plain banded implicit Euler reference.

The reference takes every micro step with scipy's general banded solver on
I + a L, with the noise synthesized in physical space, exactly as the scheme
is written down. The stepper's path steps through the micro steps one by
one; the one macro-step rule, _block_replay, takes whole macro blocks in the
sine eigenbasis (linear) or runs that path (smooth_bounded). All must
reproduce the reference to 1e-12 relative. The block rule reads the noise
a path recorded; these tests make it from raw rows themselves (noise_sums).
Both step the linear kind's state in sine-mode coefficients, which these
tests convert with _fast_coordinates at their boundary only (nodal_step,
nodal_path).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from spavg.averaging import BURN_IN, WINDOW, OracleFbar, estimate_fbar
from spavg.grid import Grid1D, sine_basis, sine_mode, solve_neg_laplacian, zeros
import spavg.integrators
from spavg.integrators import (
    DT_FAST,
    NOISE_BLOCK,
    ModelSpec,
    NoisePath,
    _block_replay,
    _fast_coordinates,
    _FastStepper,
    _matvec,
    _record,
)
from spavg.operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    b2_values,
    dissipativity_margin,
    mode_scales,
)
from spavg.randomness import RngStream

RTOL = 1e-12


def reference_path(fast, coupling, grid, epsilon, dt, x, y, coefficients):
    """States after each implicit Euler micro step, one banded solve per step."""
    n, h = grid.n_interior, grid.h
    a = dt / epsilon
    ab = np.zeros((3, n))
    ab[0, 1:] = -a / h**2
    ab[1, :] = 1.0 + 2.0 * a / h**2
    ab[2, :-1] = -a / h**2
    basis = sine_basis(grid, coupling.g2_modes)
    states = []
    for row in coefficients:
        noise = (basis @ row) / math.sqrt(epsilon)
        y = solve_banded((1, 1), ab, y + a * b2_values(fast, x, y) + noise)
        states.append(y)
    return np.array(states)


def assert_close(actual, reference):
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert float(np.max(np.abs(actual - reference))) <= RTOL * scale


def noise_sums(grid, epsilon, dt_micro, rows):
    """The linear kind's noise of a macro step from its raw rows (..., n_sub, modes).

    Per mode k, sum_m d_k^(n_sub - m) row_m / sqrt(epsilon) with d_k = 1 /
    (1 + a lambda_k) and a = dt_micro / epsilon: how much of each micro
    step's noise is left at the end of the block of implicit Euler steps.
    """
    n_sub, modes = rows.shape[-2:]
    d = 1.0 / (1.0 + dt_micro / epsilon * grid.eigenvalues[:modes])
    gains = (1.0 / math.sqrt(epsilon)) * d ** np.arange(n_sub, 0, -1)[:, None]
    return np.einsum("mk,...mk->...k", gains, rows)


def recorded_path(model, epsilon, dt_macro, rows):
    """The NoisePath of raw fast rows (R, n_macro, n_sub, modes) at epsilon.

    It holds what _block_replay reads: noise_sums of the rows for the
    linear kind, the rows themselves for smooth_bounded. The slow rows are
    zero.
    """
    replicas, n_macro, n_sub, _ = rows.shape
    if model.fast.kind == "linear":
        rows = noise_sums(model.grid, epsilon, dt_macro / n_sub, rows)
    return NoisePath(dt_macro, n_sub, epsilon, np.zeros((replicas, n_macro, 1)), rows)


def fast_model(n, kind, modes):
    grid = Grid1D(n)
    fast = FastOperatorSpec(kind, c_b=1.3, b=0.7 if kind == "smooth_bounded" else 0.0)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=1, g2_modes=modes, g2_amplitude=0.8)
    return ModelSpec(
        grid, SlowOperatorSpec("burgers"), fast, coupling, 0.05, zeros(grid), zeros(grid)
    )


def make_case(n, kind, modes, n_sub, a, replicas, seed):
    """A model, a stepper, their inputs and the reference states for one random case.

    The state has one column per replica, or a single column for replicas =
    0 (a single run), and one frozen x (n, 1) lies under every column.
    """
    model = fast_model(n, kind, modes)
    epsilon = model.epsilon
    dt = a * epsilon
    stepper = _FastStepper(model.fast, model.coupling, model.grid, epsilon, dt, n_sub)
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 1))
    columns = max(replicas, 1)
    y = gen.standard_normal((n, columns))
    coefficients = gen.standard_normal((n_sub, modes, columns)) * math.sqrt(dt)
    reference = reference_path(
        model.fast, model.coupling, model.grid, epsilon, dt, x, y, coefficients
    )
    # The stepper takes coefficients replica first: (R, steps, modes).
    coefficients = np.moveaxis(coefficients, -1, 0)
    return model, stepper, x, y, coefficients, reference


def nodal_step(model, step, j, x, y):
    """step(j, x, y) of _block_replay on nodal x and y (n, C); returns nodal values."""
    to_state, to_nodes, _ = _fast_coordinates(model.fast, model.grid)
    return to_nodes(step(j, to_state(x), to_state(y)))


def nodal_path(stepper, grid, x, y, coefficients):
    """The states (steps, n, C) of stepper.path on nodal x and y (n, C), as nodal values.

    They are mapped back in one transform, each column with the bytes of its own.
    """
    to_state, to_nodes, _ = _fast_coordinates(stepper.fast, grid)
    states = np.array(list(stepper.path(to_state(x), to_state(y), coefficients)))
    steps, n, columns = states.shape
    nodal = to_nodes(states.transpose(1, 0, 2).reshape(n, -1))
    return nodal.reshape(n, steps, columns).transpose(1, 0, 2)


def replay_block(model, stepper, x, y, coefficients):
    """y (n, C) after the one macro step of _block_replay on raw rows (R, n_sub, modes).

    Column c takes replica c mod R, and x (n, 1) lies under every column.
    """
    dt_macro = stepper.a * model.epsilon * stepper.n_sub
    path = recorded_path(model, model.epsilon, dt_macro, coefficients[:, None])
    _, step = _block_replay(model, [path], [0] * (y.shape[1] // coefficients.shape[0]))
    return nodal_step(model, step, 0, np.repeat(x, y.shape[1], axis=1), y)


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
@pytest.mark.parametrize("replicas", [0, 3])
def test_block_and_path_match_reference(kind, replicas):
    model, stepper, x, y, coefficients, reference = make_case(64, kind, 8, 17, 0.3, replicas, 1)
    assert_close(replay_block(model, stepper, x, y, coefficients), reference[-1])
    assert_close(nodal_path(stepper, model.grid, x, y, coefficients), reference)


def test_linear_frozen_runs_transform_only_at_their_ends(monkeypatch):
    # The linear path steps in sine modes and makes no transform, and every
    # state it yields has the bytes of the per-step formula y^ <- d (y^ +
    # a c_b x^ + xi^). A smooth_bounded estimate_fbar then makes two, its
    # points into its OU twin's modes and the twin's time sum back to nodes,
    # and a linear one none, the chain being its own twin, whatever the
    # window and the points.
    steps = 2 * NOISE_BLOCK + 22
    model, stepper, x, y, coefficients, _ = make_case(16, "linear", 4, steps, 0.3, 3, 4)
    to_state = _fast_coordinates(model.fast, model.grid)[0]
    x_hat, y_hat = to_state(x), to_state(y)
    transforms = []

    def counted(matrix, v, *args):
        transforms.append(v.shape)
        return _matvec(matrix, v, *args)

    monkeypatch.setattr(spavg.integrators, "_matvec", counted)
    states = list(stepper.path(x_hat, y_hat, coefficients))
    assert transforms == []
    d = stepper._d[:, None]
    forcing = stepper.a * stepper.fast.c_b * x_hat
    noise = coefficients * stepper._noise_weight
    assert len(states) == steps
    for step, state in enumerate(states):
        rhs = y_hat + forcing
        rhs[:4] += noise[:, step].T
        y_hat = d * rhs
        assert state.tobytes() == y_hat.tobytes()

    points = np.stack([x[:, 0], -x[:, 0], 0.5 * x[:, 0]], axis=1)
    bases = [RngStream(9, 100 * s) for s in range(3)]
    for kind, expected in (("linear", 0), ("smooth_bounded", 2)):
        model = fast_model(16, kind, 4)
        fast, coupling, grid = model.fast, model.coupling, model.grid
        for t_avg in (None, 1.0):
            for count in (1, 3):
                transforms.clear()
                estimate_fbar(fast, coupling, grid, points[:, :count], 2, bases[:count], t_avg)
                assert len(transforms) == expected


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
def test_shared_noise_rows_drive_every_column(kind):
    # One replica's rows, (1, steps, modes), drive every column of a batched
    # state: each sees the same increments, as in the synchronous-coupling
    # decay fit.
    model, stepper, x, y, coefficients, _ = make_case(16, kind, 4, 6, 0.5, 0, 2)
    pair = np.concatenate([y, -y], axis=1)
    block = replay_block(model, stepper, x, pair, coefficients)
    for column in range(2):
        alone = replay_block(model, stepper, x, pair[:, [column]], coefficients)
        assert_close(block[:, [column]], alone)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    kind=st.sampled_from(["linear", "smooth_bounded"]),
    mode_fraction=st.floats(0.0, 1.0),
    grid_steps=st.lists(
        st.tuples(st.integers(1, 40), st.floats(1e-4, 10.0)),
        min_size=2,
        max_size=3,
        unique_by=lambda step: step[0],
    ),
    replicas=st.integers(1, 3),
    n_macro=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stepper_matches_reference_property(
    n, kind, mode_fraction, grid_steps, replicas, n_macro, data, seed
):
    # Paths at two or three epsilons, each with its own n_sub and micro
    # step a = dt_micro / epsilon, replayed by _block_replay with copies[g]
    # sets of R columns (the first always more than one), every column on
    # its own frozen x per macro step: each column must follow the
    # reference of its source replica's rows at its own epsilon. This
    # checks the per-column gains, the source gather and the tiling of a
    # path's replicas over its copies. The first path's columns also take
    # their first macro step through the stepper's path, one micro step at
    # a time. The state stays in the coordinates of _block_replay from step
    # to step; only x and the comparison convert.
    modes = 1 + int(mode_fraction * (n - 1))
    dt_macro = 0.01
    copies = [data.draw(st.integers(2, 3), label="copies[0]")] + data.draw(
        st.lists(st.integers(1, 3), min_size=len(grid_steps) - 1, max_size=len(grid_steps) - 1),
        label="copies[1:]",
    )
    model = fast_model(n, kind, modes)
    gen = np.random.default_rng(seed)
    paths, rows = [], []
    for n_sub, a in grid_steps:
        epsilon = dt_macro / (n_sub * a)
        raw = gen.standard_normal((replicas, n_macro, n_sub, modes)) * math.sqrt(dt_macro / n_sub)
        paths.append(recorded_path(model, epsilon, dt_macro, raw))
        rows.append(raw)
    sets = np.repeat(np.arange(len(paths)), copies).tolist()
    source, step = _block_replay(model, paths, sets)
    width = sum(copies) * replicas
    groups = np.repeat(np.arange(len(paths)), np.multiply(copies, replicas))
    assert source.tolist() == [g * replicas + c % replicas for c, g in enumerate(groups)]
    x = gen.standard_normal((n_macro, n, width))
    y = gen.standard_normal((n, width))
    first = paths[0]
    stepper = _FastStepper(
        model.fast, model.coupling, model.grid, first.epsilon, dt_macro / first.n_sub, first.n_sub
    )
    own = copies[0] * replicas
    micro = nodal_path(stepper, model.grid, x[0][:, :own], y[:, :own], rows[0][:, 0])
    to_state, to_nodes, _ = _fast_coordinates(model.fast, model.grid)
    expected = y.copy()
    state = to_state(y)
    for j in range(n_macro):
        state = step(j, to_state(x[j]), state)
        for c, g in enumerate(groups):
            path = paths[g]
            states = reference_path(
                model.fast,
                model.coupling,
                model.grid,
                path.epsilon,
                dt_macro / path.n_sub,
                x[j][:, c],
                expected[:, c],
                rows[g][c % replicas, j],
            )
            if j == 0 and g == 0:
                assert_close(micro[:, :, c], states)
            expected[:, c] = states[-1]
        assert_close(to_nodes(state), expected)


def frozen_schedule(fast, grid):
    """estimate_fbar's (n_steps, dt, burn-in steps) at the default window."""
    margin = dissipativity_margin(fast, grid)
    t_burn, t_avg, dt_fast = BURN_IN / margin, WINDOW / margin, DT_FAST / margin
    n_steps = max(2, math.ceil((t_burn + t_avg) / dt_fast - 1e-12))
    dt = (t_burn + t_avg) / n_steps
    return n_steps, dt, min(n_steps - 1, int(round(t_burn / dt)))


def estimator_case(kind):
    fast = FastOperatorSpec(kind, c_b=1.1, b=0.5 if kind == "smooth_bounded" else 0.0)
    return fast, FastOperatorSpec("linear", c_b=1.1)


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
def test_batched_estimate_fbar_equals_one_replica_at_a_time(kind):
    # The reference runs each replica's chain and its OU twin (b = 0) alone
    # through the banded reference on the same raw rows; the estimate is the
    # twin's closed form plus c_fy times the replica mean of the gaps of
    # their time averages. A linear chain is its own twin: every gap is 0.
    grid = Grid1D(12)
    fast, twin = estimator_case(kind)
    coupling = CouplingSpec(
        f0=sine_mode(grid, 2, 0.2), c_fx=0.3, c_fy=1.5, g1_modes=4, g2_modes=6
    )
    x = sine_mode(grid, 1, 0.7)
    n_replicas = 5
    stream = RngStream(17, 40)
    mean, stderr = estimate_fbar(fast, coupling, grid, x.values[:, None], n_replicas, [stream])

    n_steps, dt, burn = frozen_schedule(fast, grid)
    scales = mode_scales(coupling.g2_amplitude, coupling.g2_modes) * math.sqrt(dt)
    gaps = []
    for r in range(n_replicas):
        gen = RngStream(stream.master_seed, stream.stream_id + r).generator(1)
        coefficients = gen.standard_normal((n_steps, coupling.g2_modes)) * scales
        y0 = np.zeros(grid.n_interior)
        chain, ou = (
            reference_path(spec, coupling, grid, 1.0, dt, x.values, y0, coefficients)
            for spec in (fast, twin)
        )
        gaps.append(chain[burn:].mean(axis=0) - ou[burn:].mean(axis=0))
    gaps = np.array(gaps)
    # The twin's closed form f0 + c_fx x + c_fy c_b L^-1 x, then the gaps.
    expected = coupling.f0.values + 0.3 * x.values + 1.5 * 1.1 * solve_neg_laplacian(grid, x.values)
    expected += 1.5 * gaps.mean(axis=0)
    assert_close(mean[:, 0], expected)
    scale = float(np.max(np.abs(expected)))
    expected_stderr = 1.5 * gaps.std(axis=0, ddof=1) / math.sqrt(n_replicas)
    assert float(np.max(np.abs(stderr[:, 0] - expected_stderr))) <= RTOL * scale
    if kind == "smooth_bounded":
        # The sin drift moves the chain off its twin by more than rounding.
        assert float(np.min(expected_stderr)) > 1e-6

    # Points stacked in one call: column s has the bytes of point s's own call.
    points = np.stack([x.values, sine_mode(grid, 2, -0.4).values, 0.5 * x.values], axis=1)
    bases = [stream, RngStream(17, 90), RngStream(23, 40)]
    stacked = estimate_fbar(fast, coupling, grid, points, n_replicas, bases)
    assert [a.shape for a in stacked] == [points.shape] * 2
    for s, base in enumerate(bases):
        alone = estimate_fbar(fast, coupling, grid, points[:, s : s + 1], n_replicas, [base])
        for batched, own in zip(stacked, alone):
            assert batched[:, s].tobytes() == own[:, 0].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["linear", "smooth_bounded"]),
    count=st.integers(1, 4),
    n_replicas=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_column_has_the_bytes_of_its_own_call(kind, count, n_replicas, seed, data):
    # Random points and base stream ids: each column of a stacked call,
    # mean and stderr, has the bytes of that point's call alone.
    grid = Grid1D(7)
    fast, _ = estimator_case(kind)
    coupling = CouplingSpec(f0=sine_mode(grid, 1, 0.3), c_fx=-0.4, c_fy=1.7, g1_modes=2, g2_modes=5)
    points = np.random.default_rng(seed).standard_normal((grid.n_interior, count))
    ids = data.draw(st.lists(st.integers(0, 10**6), min_size=count, max_size=count), label="ids")
    bases = [RngStream(seed, i) for i in ids]
    stacked = estimate_fbar(fast, coupling, grid, points, n_replicas, bases, t_avg=0.2)
    for s, base in enumerate(bases):
        alone = estimate_fbar(fast, coupling, grid, points[:, s : s + 1], n_replicas, [base], 0.2)
        for batched, own in zip(stacked, alone):
            assert batched[:, s].tobytes() == own[:, 0].tobytes()


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
def test_estimate_fbar_is_the_nodal_time_average_of_its_path(kind):
    # The reference maps every state of the OU twin to nodes on its own and
    # averages the nodal gaps chain - twin, as the drift is defined;
    # estimate_fbar sums the twin's states in sine modes and maps the sum
    # back once. The chain is nodal. For the linear kind the chain is its own
    # twin, every gap is 0 and the estimate has the closed form's bytes.
    # For smooth_bounded the two agree in exact arithmetic, and each side
    # rounds a transform B v by at most n eps |B| |v| <= sqrt(2) n eps |v|_1
    # per node (|B_jk| <= sqrt 2) and a mean of K terms by at most K eps
    # times their largest size. With A the larger of the largest l1 norm of
    # a twin's summed state in modes and the largest nodal value of the
    # chain, each side lies within sqrt(2) (n + K) eps A of
    # the exact nodal mean, so the two within 2 sqrt(2) (n + K) eps A; the
    # drift scales that by |c_fy| and rounds its own sum and replica mean, a
    # few eps of its size.
    grid = Grid1D(16)
    fast, twin = estimator_case(kind)
    coupling = CouplingSpec(
        f0=sine_mode(grid, 2, 0.2), c_fx=0.3, c_fy=1.5, g1_modes=4, g2_modes=6
    )
    x = sine_mode(grid, 1, 0.7).values + sine_mode(grid, 3, -0.4).values
    n_replicas, stream = 4, RngStream(5, 30)
    mean = estimate_fbar(fast, coupling, grid, x[:, None], n_replicas, [stream])[0][:, 0]
    oracle = OracleFbar(twin, coupling, grid)(x[:, None])[:, 0]
    if kind == "linear":
        assert mean.tobytes() == oracle.tobytes()
        return

    n_steps, dt, burn = frozen_schedule(fast, grid)
    columns = [RngStream(stream.master_seed, stream.stream_id + r) for r in range(n_replicas)]
    chain = _FastStepper(fast, coupling, grid, 1.0, dt)
    ou = _FastStepper(twin, coupling, grid, 1.0, dt)
    coefficients = chain.draw(columns, n_steps)
    to_modes, to_nodes, _ = _fast_coordinates(twin, grid)
    frozen = np.repeat(x[:, None], n_replicas, axis=1)
    y0 = np.zeros_like(frozen)
    gap_sum = np.zeros_like(frozen)
    size = 0.0
    paths = zip(chain.path(frozen, y0, coefficients), ou.path(to_modes(frozen), y0, coefficients))
    for m, (y, y_ou) in enumerate(paths):
        if m >= burn:
            gap_sum += y - to_nodes(y_ou)
            l1 = float(np.max(np.sum(np.abs(y_ou), axis=0)))
            size = max(size, l1, float(np.max(np.abs(y))))
    gaps = (gap_sum / (n_steps - burn)).T
    expected = oracle + coupling.c_fy * gaps.mean(axis=0)
    eps, n, k = np.finfo(float).eps, grid.n_interior, n_steps - burn
    bound = 2 * math.sqrt(2) * (n + k) * eps * size * abs(coupling.c_fy)
    bound += 4 * eps * float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(mean - expected))) <= bound


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear", "smooth_bounded"]),
    n_subs=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
    n_macro=st.integers(1, 12),
    replicas=st.integers(1, 3),
    record_block=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
# a kept tail of 36 rows, longer than the 10-row blocks it spans
@example(kind="linear", n_subs=[3, 37], n_macro=5, replicas=2, record_block=10, seed=7)
@example(kind="smooth_bounded", n_subs=[3, 37], n_macro=5, replicas=2, record_block=10, seed=7)
# 5 * 6 = 30 rows, ending exactly on a block boundary
@example(kind="linear", n_subs=[2, 6], n_macro=5, replicas=2, record_block=10, seed=8)
@example(kind="smooth_bounded", n_subs=[2, 6], n_macro=5, replicas=2, record_block=10, seed=8)
# a lone n_sub = 1: no row is kept
@example(kind="linear", n_subs=[1], n_macro=7, replicas=3, record_block=3, seed=9)
@example(kind="smooth_bounded", n_subs=[1], n_macro=7, replicas=3, record_block=3, seed=9)
def test_recorded_noise_is_one_whole_draw_reduced_step_by_step(
    kind, n_subs, n_macro, replicas, record_block, seed
):
    # _record draws each stream once for every n_sub of a grid, in blocks
    # that need not end on a macro step: each stream's draws carry on where
    # the last block stopped, and each stepper takes its prefix of them, so
    # every stepper's noise has the bytes of its own whole draw reduced one
    # macro step at a time: the block sums of the linear kind (noise_sums),
    # the raw rows of smooth_bounded.
    grid = Grid1D(9)
    fast = FastOperatorSpec(kind, c_b=1.3, b=0.7 if kind == "smooth_bounded" else 0.0)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=1, g2_modes=5, g2_amplitude=0.8)
    dt_macro = 0.2
    steppers = [
        _FastStepper(fast, coupling, grid, 0.05, dt_macro / n_sub, n_sub) for n_sub in n_subs
    ]
    streams = [RngStream(seed, r) for r in range(replicas)]
    with mock.patch.object(spavg.integrators, "RECORD_BLOCK", record_block):
        recorded = _record(steppers, streams, n_macro)
    assert len(recorded) == len(steppers)
    for stepper, noise in zip(steppers, recorded):
        n_sub = stepper.n_sub
        whole = stepper.draw(streams, n_macro * n_sub).reshape(replicas, n_macro, n_sub, 5)
        expected = whole
        if kind == "linear":
            steps = [
                noise_sums(grid, 0.05, dt_macro / n_sub, whole[:, j]) for j in range(n_macro)
            ]
            expected = np.stack(steps, axis=1)
        assert noise.shape == expected.shape
        assert noise.tobytes() == expected.tobytes()
