"""Numerical checks of the structural inequalities behind the well-posedness
and averaging theory, evaluated on randomized smooth fields.

All six checks follow one rule. Each sample states an inequality
lhs <= C * base + slack and gets the margin C * base + slack - lhs. A
sample whose margin is not > 0 is a violation, and the report carries the
smallest margin. C is one of two kinds:

- known: a constant the theory gives. A2 for porous medium and p-Laplace
  is plain monotonicity (C = 0, base 0); A3 is the exact coercivity identity
  (C = -theta, base the V-energy); B2 has C = 0, base 0, no slack and the
  pairing divided by ||u - v||^2, so the margin is the contraction rate.
- fitted: the theory only asserts a finite constant of a stated form (the
  Burgers local-monotonicity modulus, the coupling term of B3, the growth
  bounds A4 and B4). C is then the smallest value >= 0 covering the samples
  and is reported as "C"; tests probe that the fit is stable under
  amplitude changes rather than pretending a fitted bound could fail on its
  own fitting set.

A margin that cannot be computed is NaN, and NaN is not > 0: it counts as
a violation and makes the worst margin NaN (a NaN sample also makes a
fitted C NaN). So a check the floating-point arithmetic cannot carry, such
as a p-Laplace energy that overflows, fails instead of passing, and a
non-positive or NaN worst margin always comes with a counted violation.
The same holds for a B2 sample with u = v exactly, whose rate is 0 / 0:
it has probability zero under these draws and is not redrawn.

Duality pairings follow the state geometry: the porous-medium drift pairs
through L^-1 (so the pairing of -L psi(u) with v reduces to -h <psi(u), v>),
everything else pairs in the h-weighted l2 sense. Sample fields are
truncated sine series with Gaussian coefficients decaying like 1/k, with
amplitudes cycling over 0.1, 1 and 10, drawn for every sample of a check at
once as the columns of (n, samples) arrays; the dissipativity check prepends
pure-mode difference probes, which is what pins its rate at the spectral
value instead of a loose sample minimum.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .grid import (
    H1_0,
    H_MINUS1,
    L2,
    Array,
    Grid1D,
    NormKind,
    lp_norm_kind,
    row_norms,
    sine_basis,
    solve_neg_laplacian,
)
from .operators import (
    FastOperatorSpec,
    SlowOperatorSpec,
    _psi,
    face_gradients,
    fast_drift,
    slow_drift,
)
from .randomness import RngStream

__all__ = ["CONDITION_IDS", "ConditionReport", "check_condition", "sample_field"]

@dataclasses.dataclass(frozen=True)
class ConditionReport:
    condition: str
    samples: int
    violations: int
    worst_margin: float
    fitted_constants: dict[str, float]

    def __post_init__(self) -> None:
        if self.violations > self.samples:
            raise ValueError("cannot have more violations than samples")


def _fields(grid: Grid1D, gen: np.random.Generator, amplitudes: Array, count: int) -> tuple:
    """count fields of shape (n, S), column s scaled by amplitudes[s].

    The normals come sample-major, in the order S * count sample_field calls
    draw them, and one stacked matmul makes a gemv per column; field.T is C-ordered.
    """
    k_max = min(grid.n_interior, 24)
    normals = gen.standard_normal((len(amplitudes), count, k_max))
    coeffs = np.ascontiguousarray((normals / np.arange(1, k_max + 1)).transpose(1, 0, 2))
    values = np.matmul(sine_basis(grid, k_max), coeffs[..., None])[..., 0] * amplitudes[:, None]
    return tuple(field.T for field in values)


def sample_field(grid: Grid1D, gen: np.random.Generator, amplitude: float) -> Array:
    """amplitude * sum_k (xi_k / k) e_k over the first min(n, 24) modes."""
    return _fields(grid, gen, np.array([amplitude]), 1)[0][:, 0]


def _amplitudes(start: int, stop: int) -> Array:
    return np.array([0.1, 1.0, 10.0])[np.arange(start, stop) % 3]


def _dot(grid: Grid1D, a: Array, v: Array) -> Array:
    """h <a, v> per column; vecdot on contiguous rows keeps np.dot's bytes."""
    return grid.h * np.vecdot(np.ascontiguousarray(a.T), np.ascontiguousarray(v.T))


def _norms(grid: Grid1D, v: Array, kind: NormKind) -> Array:
    """row_norms of the columns of v, as contiguous rows."""
    return row_norms(grid, np.ascontiguousarray(v.T), kind)


def _pairing(grid: Grid1D, slow: SlowOperatorSpec, a: Array, v: Array) -> Array:
    """Duality pairing of drift values a against v in the slow geometry."""
    return _dot(grid, a, solve_neg_laplacian(grid, v) if slow.state_norm == H_MINUS1 else v)


def _v_energy(slow: SlowOperatorSpec, grid: Grid1D, v: Array) -> Array:
    """||v||_V^alpha: the coercivity energy of the variational space."""
    if slow.kind == "porous_medium":
        return _norms(grid, v, lp_norm_kind(slow.p)) ** slow.p
    if slow.kind == "p_laplace":
        return grid.h * np.sum(np.abs(face_gradients(grid, v).T) ** slow.p, axis=-1)
    return _norms(grid, v, H1_0) ** 2


def check_condition(
    condition: str,
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    grid: Grid1D,
    samples: int,
    stream: RngStream,
) -> ConditionReport:
    checker = _CHECKS.get(condition)
    if checker is None:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITION_IDS}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _report(condition, *checker(slow, fast, grid, samples, stream.generator()))


def _report(
    condition: str,
    lhs: Array,
    base: Array | float,
    slack: Array | float,
    known_c: float | None,
    constants: dict[str, float],
) -> ConditionReport:
    """The rule of every check: lhs <= C * base + slack per sample.

    C is known_c, or, when that is None, the largest ratio lhs / base over
    samples with base > 0, floored at 0 and reported as "C" after the given
    constants. A sample's margin is C * base + slack - lhs; a margin that is
    not > 0 (NaN included) is a violation.
    """
    base = np.asarray(base, dtype=np.float64)
    c = known_c
    if c is None:
        positive = base > 0.0
        c = float(np.max(lhs[positive] / base[positive], initial=0.0))
        constants = {**constants, "C": c}
    margins = c * base + np.asarray(slack) - lhs
    violations = int(np.count_nonzero(~(margins > 0.0)))
    return ConditionReport(condition, lhs.size, violations, float(np.min(margins)), constants)


def _check_a2(slow, fast, grid, samples, gen):
    """2 <A(u) - A(v), u - v> <= rho(v) ||u - v||^2, slow noise additive.

    rho = 0 (plain monotonicity) for porous medium and p-Laplace; for Burgers
    the modulus has the form C (1 + ||v||_L4^4) and C is fitted.
    """
    u, v = _fields(grid, gen, _amplitudes(0, samples), 2)
    w = u - v
    pa = _pairing(grid, slow, slow_drift(slow, grid, u), w)
    pb = _pairing(grid, slow, slow_drift(slow, grid, v), w)
    lhs, slack = 2.0 * (pa - pb), 1e-7 * (1.0 + np.abs(pa) + np.abs(pb))
    if slow.kind != "burgers":
        return lhs, 0.0, slack, 0.0, {"rho": 0.0}
    w_sq = _norms(grid, w, L2) ** 2
    return lhs, (1.0 + _norms(grid, v, lp_norm_kind(4.0)) ** 4) * w_sq, slack, None, {}


def _check_a3(slow, fast, grid, samples, gen):
    """<A(v), v> <= -theta ||v||_V^alpha with the known theta of each operator.

    theta is c for porous medium (the pairing reduces to -c ||v||_p^p), 1 for
    p-Laplace (discrete integration by parts is exact for the face fluxes),
    and the viscosity for Burgers (the skew convection pairs to zero). The
    reported theta is the largest one the samples allow (inf when no sample
    has positive energy). A sample whose energy is not > 0, say one that
    underflowed, bounds nothing: its margin is NaN, a violation.
    """
    theta = {"porous_medium": slow.c, "p_laplace": 1.0, "burgers": slow.viscosity}[slow.kind]
    (v,) = _fields(grid, gen, _amplitudes(0, samples), 1)
    lhs = _pairing(grid, slow, slow_drift(slow, grid, v), v)
    energy = _v_energy(slow, grid, v)
    positive = energy > 0.0
    theta_fit = float(np.min(-lhs[positive] / energy[positive], initial=np.inf))
    slack = 1e-7 * (1.0 + np.abs(lhs) + theta * energy)
    base = np.where(positive, energy, np.nan)
    return lhs, base, slack, -theta, {"theta": theta_fit, "alpha": slow.alpha}


def _dual_norm_pow(slow: SlowOperatorSpec, grid: Grid1D, v: Array) -> Array:
    """||A(v)||_{V*}^{alpha/(alpha-1)}, computed through exact dualities.

    Porous medium: the functional w -> -h <psi(v), w> on L^p has dual norm
    ||psi(v)||_q with 1/p + 1/q = 1 (discrete Hoelder is sharp). p-Laplace:
    the face-flux bound gives ||A(v)||^q = h sum |grad v|^p, the V-energy.
    Burgers: the dual of H^1_0 is the discrete H^-1 norm of the drift.
    """
    if slow.kind == "porous_medium":
        q = slow.p / (slow.p - 1.0)
        return grid.h * np.sum(np.abs(_psi(slow, v.T)) ** q, axis=-1)
    if slow.kind == "p_laplace":
        return _v_energy(slow, grid, v)
    return _norms(grid, slow_drift(slow, grid, v), H_MINUS1) ** 2


def _check_a4(slow, fast, grid, samples, gen):
    """||A(v)||_{V*}^{alpha/(alpha-1)} <= C (1 + ||v||_V^alpha)(1 + ||v||_H^2)."""
    (v,) = _fields(grid, gen, _amplitudes(0, samples), 1)
    lhs = _dual_norm_pow(slow, grid, v)
    base = (1.0 + _v_energy(slow, grid, v)) * (1.0 + _norms(grid, v, slow.state_norm) ** 2)
    return lhs, base, 1e-7 * (1.0 + lhs), None, {}


def _check_b2(slow, fast, grid, samples, gen):
    """2 <B(x, u) - B(x, v), u - v> / ||u - v||^2 <= -gamma with gamma > 0.

    The margin of a sample is its contraction rate, and gamma_hat is the
    worst margin. Pure-mode probes at small amplitude come first: on
    mode k the linear part contracts at exactly 2 lambda_k, so the rate
    lands at 2 lambda_1 - 2 b up to the sin curvature, and a spec with
    b > lambda_1 is caught immediately. The random samples after them
    continue the amplitude cycle at index probes.
    """
    probes = min(8, grid.n_interior, samples - 1)
    (x_probe,) = _fields(grid, gen, np.ones(probes), 1)
    x, u, v = _fields(grid, gen, _amplitudes(probes, samples), 3)
    x = np.hstack((x_probe, x))
    u = np.hstack((1e-4 * sine_basis(grid, probes), u))
    v = np.hstack((np.zeros((grid.n_interior, probes)), v))
    d = u - v
    gap = fast_drift(fast, grid, x, u) - fast_drift(fast, grid, x, v)
    lhs = 2.0 * _dot(grid, gap, d) / _dot(grid, d, d)
    # 0.0 - lhs are the margins _report computes, signed zeros included.
    return lhs, 0.0, 0.0, 0.0, {"gamma_hat": float(np.min(0.0 - lhs))}


def _check_b3(slow, fast, grid, samples, gen):
    """<B(x, v), v> <= -||v||_{H1_0}^2 + C (1 + ||x||^2 + ||v||^2).

    The linear part pairs to exactly -||v||_{H1_0}^2; what is fitted is the
    constant absorbing the coupling term.
    """
    x, v = _fields(grid, gen, _amplitudes(0, samples), 2)
    lhs = _dot(grid, fast_drift(fast, grid, x, v), v) + _norms(grid, v, H1_0) ** 2
    base = 1.0 + _norms(grid, x, L2) ** 2 + _norms(grid, v, L2) ** 2
    return lhs, base, 1e-7 * (1.0 + np.abs(lhs)), None, {"eta": 1.0}


def _check_b4(slow, fast, grid, samples, gen):
    """||B(x, v)||_{H^-1} <= C (1 + ||v||_{H1_0} + ||x||_L2)."""
    x, v = _fields(grid, gen, _amplitudes(0, samples), 2)
    lhs = _norms(grid, fast_drift(fast, grid, x, v), H_MINUS1)
    base = 1.0 + _norms(grid, v, H1_0) + _norms(grid, x, L2)
    return lhs, base, 1e-7 * (1.0 + lhs), None, {}


_CHECKS = {
    "A2_local_monotone": _check_a2,
    "A3_coercive": _check_a3,
    "A4_growth": _check_a4,
    "B2_dissipative": _check_b2,
    "B3_coercive": _check_b3,
    "B4_growth": _check_b4,
}
CONDITION_IDS = tuple(_CHECKS)
