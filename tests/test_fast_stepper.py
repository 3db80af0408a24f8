"""The fast stepper and the block rule against a plain banded implicit Euler reference.

The reference takes every micro step with scipy's general banded solver on
I + a L, with the noise synthesized in physical space, exactly as the scheme
is written down. The stepper's path steps through the micro steps one by
one; the one macro-step rule, _block_replay, takes whole macro blocks in the
sine eigenbasis (linear) or runs that path (smooth_bounded). All must
reproduce the reference to 1e-12 relative. The block rule reads the noise
a path recorded; these tests make it from raw rows themselves (noise_sums).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from spavg.averaging import BURN_IN, WINDOW, estimate_fbar
from spavg.grid import Grid1D, sine_basis, sine_mode, zeros
import spavg.integrators
from spavg.integrators import (
    DT_FAST,
    NOISE_BLOCK,
    ModelSpec,
    NoisePath,
    _block_replay,
    _FastStepper,
    _matvec,
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


def replay_block(model, stepper, x, y, coefficients):
    """y (n, C) after the one macro step of _block_replay on raw rows (R, n_sub, modes).

    Column c takes replica c mod R, and x (n, 1) lies under every column.
    """
    dt_macro = stepper.a * model.epsilon * stepper.n_sub
    path = recorded_path(model, model.epsilon, dt_macro, coefficients[:, None])
    _, step = _block_replay(model, [path], [y.shape[1] // coefficients.shape[0]])
    return step(0, np.repeat(x, y.shape[1], axis=1), y)


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
@pytest.mark.parametrize("replicas", [0, 3])
def test_block_and_path_match_reference(kind, replicas):
    model, stepper, x, y, coefficients, reference = make_case(64, kind, 8, 17, 0.3, replicas, 1)
    assert_close(replay_block(model, stepper, x, y, coefficients), reference[-1])
    assert_close(np.array(list(stepper.path(x, y, coefficients))), reference)


def test_linear_path_transforms_a_block_of_states_at_once(monkeypatch):
    # The linear path steps NOISE_BLOCK micro steps in mode coefficients and
    # transforms them in one call, yet every state it yields has the bytes
    # of its own per-step transform.
    steps = 2 * NOISE_BLOCK + 22
    _, stepper, x, y, coefficients, _ = make_case(16, "linear", 4, steps, 0.3, 3, 4)
    transforms = []

    def counted(matrix, v):
        transforms.append(v.shape)
        return _matvec(matrix, v)

    monkeypatch.setattr(spavg.integrators, "_matvec", counted)
    states = list(stepper.path(x, y, coefficients))
    # Two analysis transforms (x and y), then one synthesis per block.
    assert len(transforms) == 2 + math.ceil(steps / NOISE_BLOCK)
    d = stepper._d[:, None]
    forcing = stepper.a * stepper.fast.c_b * _matvec(stepper._analysis, x)
    noise = coefficients * stepper._noise_weight
    y_hat = _matvec(stepper._analysis, y)
    assert len(states) == steps
    for step, state in enumerate(states):
        rhs = y_hat + forcing
        rhs[:4] += noise[:, step].T
        y_hat = d * rhs
        assert state.tobytes() == _matvec(stepper._basis, y_hat).tobytes()


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
    # a time.
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
    source, step = _block_replay(model, paths, copies)
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
    micro = np.array(list(stepper.path(x[0][:, :own], y[:, :own], rows[0][:, 0])))
    expected = y.copy()
    for j in range(n_macro):
        y = step(j, x[j], y)
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
        assert_close(y, expected)


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
def test_batched_estimate_fbar_equals_one_replica_at_a_time(kind):
    grid = Grid1D(12)
    fast = FastOperatorSpec(kind, c_b=1.1, b=0.5 if kind == "smooth_bounded" else 0.0)
    coupling = CouplingSpec(
        f0=sine_mode(grid, 2, 0.2), c_fx=0.3, c_fy=1.5, g1_modes=4, g2_modes=6
    )
    x = sine_mode(grid, 1, 0.7)
    n_replicas = 5
    stream = RngStream(17, 40)
    mean, stderr = estimate_fbar(fast, coupling, grid, x.values[:, None], n_replicas, [stream])

    margin = dissipativity_margin(fast, coupling, grid)
    t_burn, t_avg, dt_fast = BURN_IN / margin, WINDOW / margin, DT_FAST / margin
    n_steps = max(2, math.ceil((t_burn + t_avg) / dt_fast - 1e-12))
    dt = (t_burn + t_avg) / n_steps
    burn = min(n_steps - 1, int(round(t_burn / dt)))
    scales = mode_scales(coupling.g2_amplitude, coupling.g2_modes) * math.sqrt(dt)
    means = []
    for r in range(n_replicas):
        gen = RngStream(stream.master_seed, stream.stream_id + r).generator(1)
        coefficients = gen.standard_normal((n_steps, coupling.g2_modes)) * scales
        states = reference_path(
            fast, coupling, grid, 1.0, dt, x.values, np.zeros(grid.n_interior), coefficients
        )
        y_mean = states[burn:].mean(axis=0)
        means.append(coupling.f0.values + coupling.c_fx * x.values + coupling.c_fy * y_mean)
    means = np.array(means)
    assert_close(mean[:, 0], means.mean(axis=0))
    scale = float(np.max(np.abs(means)))
    expected_stderr = means.std(axis=0, ddof=1) / math.sqrt(n_replicas)
    assert float(np.max(np.abs(stderr[:, 0] - expected_stderr))) <= RTOL * scale

    # Points stacked in one call: column s has the bytes of point s's own call.
    points = np.stack([x.values, sine_mode(grid, 2, -0.4).values, 0.5 * x.values], axis=1)
    bases = [stream, RngStream(17, 90), RngStream(23, 40)]
    stacked = estimate_fbar(fast, coupling, grid, points, n_replicas, bases)
    assert [a.shape for a in stacked] == [points.shape] * 2
    for s, base in enumerate(bases):
        alone = estimate_fbar(fast, coupling, grid, points[:, s : s + 1], n_replicas, [base])
        for batched, own in zip(stacked, alone):
            assert batched[:, s].tobytes() == own[:, 0].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear", "smooth_bounded"]),
    n_sub=st.integers(1, 40),
    n_macro=st.integers(1, 12),
    replicas=st.integers(1, 3),
    record_block=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_recorded_noise_is_one_whole_draw_reduced_step_by_step(
    kind, n_sub, n_macro, replicas, record_block, seed
):
    # However record splits the horizon into blocks, each stream's draws
    # carry on where the last block stopped, so the recorded noise has the
    # bytes of one whole draw reduced one macro step at a time: the block
    # sums of the linear kind (noise_sums), the raw rows of smooth_bounded.
    grid = Grid1D(9)
    fast = FastOperatorSpec(kind, c_b=1.3, b=0.7 if kind == "smooth_bounded" else 0.0)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=1, g2_modes=5, g2_amplitude=0.8)
    stepper = _FastStepper(fast, coupling, grid, 0.05, 0.01, n_sub)
    streams = [RngStream(seed, r) for r in range(replicas)]
    whole = stepper.draw(streams, n_macro * n_sub).reshape(replicas, n_macro, n_sub, 5)
    expected = whole
    if kind == "linear":
        steps = [noise_sums(grid, 0.05, 0.01, whole[:, j]) for j in range(n_macro)]
        expected = np.stack(steps, axis=1)
    with mock.patch.object(spavg.integrators, "RECORD_BLOCK", record_block):
        recorded = stepper.record(streams, n_macro)
    assert recorded.shape == expected.shape
    assert recorded.tobytes() == expected.tobytes()
