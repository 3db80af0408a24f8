"""The fast stepper against a plain banded implicit Euler reference.

The reference takes every micro step with scipy's general banded solver on
I + a L, with the noise synthesized in physical space, exactly as the scheme
is written down. The stepper takes whole macro blocks in the sine eigenbasis
(linear) or steps through a prefactored pttrs solve (smooth_bounded); both
must reproduce the reference to 1e-12 relative.
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
from spavg.integrators import DT_FAST, NOISE_BLOCK, _FastStepper, _matvec
from spavg.operators import (
    CouplingSpec,
    FastOperatorSpec,
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


def make_case(n, kind, modes, n_sub, a, replicas, seed):
    """A stepper, its inputs and the reference states for one random case.

    The state has one column per replica, or a single column for replicas =
    0 (a single run), and one frozen x (n, 1) lies under every column.
    """
    grid = Grid1D(n)
    fast = FastOperatorSpec(kind, c_b=1.3, b=0.7 if kind == "smooth_bounded" else 0.0)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=1, g2_modes=modes, g2_amplitude=0.8)
    epsilon = 0.05
    dt = a * epsilon
    stepper = _FastStepper(fast, coupling, grid, epsilon, dt, n_sub)
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 1))
    columns = max(replicas, 1)
    y = gen.standard_normal((n, columns))
    coefficients = gen.standard_normal((n_sub, modes, columns)) * math.sqrt(dt)
    reference = reference_path(fast, coupling, grid, epsilon, dt, x, y, coefficients)
    # The stepper takes coefficients replica first: (R, steps, modes).
    coefficients = np.moveaxis(coefficients, -1, 0)
    return stepper, x, y, coefficients, reference


@pytest.mark.parametrize("kind", ["linear", "smooth_bounded"])
@pytest.mark.parametrize("replicas", [0, 3])
def test_block_and_path_match_reference(kind, replicas):
    stepper, x, y, coefficients, reference = make_case(64, kind, 8, 17, 0.3, replicas, 1)
    assert_close(stepper.run_block(x, y, stepper.reduce(coefficients)), reference[-1])
    assert_close(np.array(list(stepper.path(x, y, coefficients))), reference)


def test_linear_path_transforms_a_block_of_states_at_once(monkeypatch):
    # The linear path steps NOISE_BLOCK micro steps in mode coefficients and
    # transforms them in one call, yet every state it yields has the bytes
    # of its own per-step transform.
    steps = 2 * NOISE_BLOCK + 22
    stepper, x, y, coefficients, _ = make_case(16, "linear", 4, steps, 0.3, 3, 4)
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
    stepper, x, y, coefficients, _ = make_case(16, kind, 4, 6, 0.5, 0, 2)
    pair = np.concatenate([y, -y], axis=1)
    noise = stepper.reduce(coefficients)
    block = stepper.run_block(x, pair, noise)
    for column in range(2):
        assert_close(block[:, [column]], stepper.run_block(x, pair[:, [column]], noise))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    kind=st.sampled_from(["linear", "smooth_bounded"]),
    mode_fraction=st.floats(0.0, 1.0),
    n_sub=st.integers(1, 40),
    a=st.floats(1e-4, 10.0),
    replicas=st.sampled_from([0, 1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stepper_matches_reference_property(n, kind, mode_fraction, n_sub, a, replicas, seed):
    modes = 1 + int(mode_fraction * (n - 1))
    stepper, x, y, coefficients, reference = make_case(
        n, kind, modes, n_sub, a, replicas, seed
    )
    assert_close(stepper.run_block(x, y, stepper.reduce(coefficients)), reference[-1])
    assert_close(np.array(list(stepper.path(x, y, coefficients))), reference)


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
    (estimate,) = estimate_fbar(fast, coupling, grid, x.values[:, None], n_replicas, [stream])

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
    assert_close(estimate.mean.values, means.mean(axis=0))
    scale = float(np.max(np.abs(means)))
    stderr = means.std(axis=0, ddof=1) / math.sqrt(n_replicas)
    assert float(np.max(np.abs(estimate.stderr.values - stderr))) <= RTOL * scale

    # Points stacked in one call: each estimate has the bytes of its own call.
    points = np.stack([x.values, sine_mode(grid, 2, -0.4).values, 0.5 * x.values], axis=1)
    bases = [stream, RngStream(17, 90), RngStream(23, 40)]
    stacked = estimate_fbar(fast, coupling, grid, points, n_replicas, bases)
    assert len(stacked) == len(bases)
    for s, base in enumerate(bases):
        (alone,) = estimate_fbar(fast, coupling, grid, points[:, s : s + 1], n_replicas, [base])
        assert stacked[s].mean.values.tobytes() == alone.mean.values.tobytes()
        assert stacked[s].stderr.values.tobytes() == alone.stderr.values.tobytes()


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
    # sums of the linear kind, the raw rows of smooth_bounded.
    grid = Grid1D(9)
    fast = FastOperatorSpec(kind, c_b=1.3, b=0.7 if kind == "smooth_bounded" else 0.0)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=1, g2_modes=5, g2_amplitude=0.8)
    stepper = _FastStepper(fast, coupling, grid, 0.05, 0.01, n_sub)
    streams = [RngStream(seed, r) for r in range(replicas)]
    whole = stepper.draw(streams, n_macro * n_sub).reshape(replicas, n_macro, n_sub, 5)
    expected = np.stack([stepper.reduce(whole[:, j]) for j in range(n_macro)], axis=1)
    with mock.patch.object(spavg.integrators, "RECORD_BLOCK", record_block):
        recorded = stepper.record(streams, n_macro)
    assert recorded.shape == (replicas, n_macro, *stepper.noise_shape)
    assert recorded.tobytes() == expected.tobytes()
