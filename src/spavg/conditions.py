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

Duality pairings follow the state geometry: the porous-medium drift pairs
through L^-1 (so the pairing of -L psi(u) with v reduces to -h <psi(u), v>),
everything else pairs in the h-weighted l2 sense. Sample fields are
truncated sine series with Gaussian coefficients decaying like 1/k, with
amplitudes cycling over 0.1, 1 and 10; the dissipativity check prepends
pure-mode difference probes, which is what pins its rate at the spectral
value instead of a loose sample minimum.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .grid import (
    H1_0,
    H_MINUS1,
    L2,
    Array,
    Grid1D,
    lp_norm_kind,
    norm_values,
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

CONDITION_IDS = (
    "A2_local_monotone",
    "A3_coercive",
    "A4_growth",
    "B2_dissipative",
    "B3_coercive",
    "B4_growth",
)

_AMPLITUDES = (0.1, 1.0, 10.0)


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


def sample_field(grid: Grid1D, gen: np.random.Generator, amplitude: float) -> Array:
    """amplitude * sum_k (xi_k / k) e_k over the first min(n, 24) modes."""
    k_max = min(grid.n_interior, 24)
    coeffs = gen.standard_normal(k_max) / np.arange(1, k_max + 1)
    return amplitude * (sine_basis(grid, k_max) @ coeffs)


def _pairing(grid: Grid1D, slow: SlowOperatorSpec, a: Array, v: Array) -> float:
    """Duality pairing of a drift value a against v in the slow geometry."""
    if slow.state_norm == H_MINUS1:
        return grid.h * float(np.dot(a, solve_neg_laplacian(grid, v)))
    return grid.h * float(np.dot(a, v))


def _v_energy(slow: SlowOperatorSpec, grid: Grid1D, v: Array) -> float:
    """||v||_V^alpha: the coercivity energy of the variational space."""
    if slow.kind == "porous_medium":
        return norm_values(grid, v, lp_norm_kind(slow.p)) ** slow.p
    if slow.kind == "p_laplace":
        g = face_gradients(grid, v)
        return float(grid.h * np.sum(np.abs(g) ** slow.p))
    return norm_values(grid, v, H1_0) ** 2


def check_condition(
    condition: str,
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    grid: Grid1D,
    samples: int,
    stream: RngStream,
) -> ConditionReport:
    if condition not in CONDITION_IDS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITION_IDS}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    checker = {
        "A2_local_monotone": _check_a2,
        "A3_coercive": _check_a3,
        "A4_growth": _check_a4,
        "B2_dissipative": _check_b2,
        "B3_coercive": _check_b3,
        "B4_growth": _check_b4,
    }[condition]
    return checker(slow, fast, grid, samples, stream.generator())


def _amplitude(i: int) -> float:
    return _AMPLITUDES[i % len(_AMPLITUDES)]


def _report(
    condition: str,
    lhs: Sequence[float],
    base: Sequence[float] | float,
    slack: Sequence[float] | float,
    known_c: float | None,
    constants: dict[str, float],
) -> ConditionReport:
    """The rule of every check: lhs <= C * base + slack per sample.

    C is known_c, or, when that is None, the largest ratio lhs / base over
    samples with base > 0, floored at 0 and reported as "C" after the given
    constants. A sample's margin is C * base + slack - lhs; a margin that is
    not > 0 (NaN included) is a violation.
    """
    lhs = np.asarray(lhs, dtype=np.float64)
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
    fitted = slow.kind == "burgers"
    lhs, base, slack = [], [], []
    for i in range(samples):
        amp = _amplitude(i)
        u = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        w = u - v
        pa = _pairing(grid, slow, slow_drift(slow, grid, u), w)
        pb = _pairing(grid, slow, slow_drift(slow, grid, v), w)
        lhs.append(2.0 * (pa - pb))
        slack.append(1e-7 * (1.0 + abs(pa) + abs(pb)))
        if fitted:
            w_sq = norm_values(grid, w, L2) ** 2
            base.append((1.0 + norm_values(grid, v, lp_norm_kind(4.0)) ** 4) * w_sq)
    if fitted:
        return _report("A2_local_monotone", lhs, base, slack, None, {})
    return _report("A2_local_monotone", lhs, 0.0, slack, 0.0, {"rho": 0.0})


def _check_a3(slow, fast, grid, samples, gen):
    """<A(v), v> <= -theta ||v||_V^alpha with the known theta of each operator.

    theta is c for porous medium (the pairing reduces to -c ||v||_p^p), 1 for
    p-Laplace (discrete integration by parts is exact for the face fluxes),
    and the viscosity for Burgers (the skew convection pairs to zero). The
    reported theta is the largest one the samples allow (inf when no sample
    has positive energy).
    """
    theta = {"porous_medium": slow.c, "p_laplace": 1.0, "burgers": slow.viscosity}[slow.kind]
    lhs, energy, slack = [], [], []
    for i in range(samples):
        v = sample_field(grid, gen, _amplitude(i))
        pairing = _pairing(grid, slow, slow_drift(slow, grid, v), v)
        e = _v_energy(slow, grid, v)
        lhs.append(pairing)
        energy.append(e)
        slack.append(1e-7 * (1.0 + abs(pairing) + theta * e))
    lhs, energy = np.array(lhs), np.array(energy)
    positive = energy > 0.0
    theta_fit = float(np.min(-lhs[positive] / energy[positive], initial=np.inf))
    return _report(
        "A3_coercive", lhs, energy, slack, -theta, {"theta": theta_fit, "alpha": slow.alpha}
    )


def _dual_norm_pow(slow: SlowOperatorSpec, grid: Grid1D, v: Array) -> float:
    """||A(v)||_{V*}^{alpha/(alpha-1)}, computed through exact dualities.

    Porous medium: the functional w -> -h <psi(v), w> on L^p has dual norm
    ||psi(v)||_q with 1/p + 1/q = 1 (discrete Hoelder is sharp). p-Laplace:
    the face-flux bound gives ||A(v)||^q = h sum |grad v|^p, the V-energy.
    Burgers: the dual of H^1_0 is the discrete H^-1 norm of the drift.
    """
    if slow.kind == "porous_medium":
        q = slow.p / (slow.p - 1.0)
        return float(grid.h * np.sum(np.abs(_psi(slow, v)) ** q))
    if slow.kind == "p_laplace":
        return _v_energy(slow, grid, v)
    return norm_values(grid, slow_drift(slow, grid, v), H_MINUS1) ** 2


def _check_a4(slow, fast, grid, samples, gen):
    """||A(v)||_{V*}^{alpha/(alpha-1)} <= C (1 + ||v||_V^alpha)(1 + ||v||_H^2)."""
    lhs, base = [], []
    for i in range(samples):
        v = sample_field(grid, gen, _amplitude(i))
        lhs.append(_dual_norm_pow(slow, grid, v))
        state_sq = norm_values(grid, v, slow.state_norm) ** 2
        base.append((1.0 + _v_energy(slow, grid, v)) * (1.0 + state_sq))
    lhs = np.array(lhs)
    return _report("A4_growth", lhs, base, 1e-7 * (1.0 + lhs), None, {})


def _check_b2(slow, fast, grid, samples, gen):
    """2 <B(x, u) - B(x, v), u - v> / ||u - v||^2 <= -gamma with gamma > 0.

    The margin of a sample is its contraction rate, and gamma_hat is the
    worst margin. Pure-mode probes at small amplitude are checked first: on
    mode k the linear part contracts at exactly 2 lambda_k, so the rate
    lands at 2 lambda_1 - 2 b up to the sin curvature, and a spec with
    b > lambda_1 is caught immediately.
    """
    h = grid.h
    lhs = []

    def add(x, u, v):
        d = u - v
        d_sq = h * float(np.dot(d, d))
        if d_sq > 0.0:
            drift_gap = fast_drift(fast, grid, x, u) - fast_drift(fast, grid, x, v)
            lhs.append(2.0 * h * float(np.dot(drift_gap, d)) / d_sq)

    for k in range(1, min(8, grid.n_interior, samples - 1) + 1):
        x = sample_field(grid, gen, 1.0)
        add(x, 1e-4 * sine_basis(grid, k)[:, k - 1], np.zeros(grid.n_interior))
    while len(lhs) < samples:
        amp = _amplitude(len(lhs))
        x, u, v = (sample_field(grid, gen, amp) for _ in range(3))
        add(x, u, v)
    report = _report("B2_dissipative", lhs, 0.0, 0.0, 0.0, {})
    return dataclasses.replace(report, fitted_constants={"gamma_hat": report.worst_margin})


def _check_b3(slow, fast, grid, samples, gen):
    """<B(x, v), v> <= -||v||_{H1_0}^2 + C (1 + ||x||^2 + ||v||^2).

    The linear part pairs to exactly -||v||_{H1_0}^2; what is fitted is the
    constant absorbing the coupling term.
    """
    lhs, base = [], []
    for i in range(samples):
        amp = _amplitude(i)
        x = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        pairing = grid.h * float(np.dot(fast_drift(fast, grid, x, v), v))
        lhs.append(pairing + norm_values(grid, v, H1_0) ** 2)
        base.append(1.0 + norm_values(grid, x, L2) ** 2 + norm_values(grid, v, L2) ** 2)
    lhs = np.array(lhs)
    return _report("B3_coercive", lhs, base, 1e-7 * (1.0 + np.abs(lhs)), None, {"eta": 1.0})


def _check_b4(slow, fast, grid, samples, gen):
    """||B(x, v)||_{H^-1} <= C (1 + ||v||_{H1_0} + ||x||_L2)."""
    lhs, base = [], []
    for i in range(samples):
        amp = _amplitude(i)
        x = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        lhs.append(norm_values(grid, fast_drift(fast, grid, x, v), H_MINUS1))
        base.append(1.0 + norm_values(grid, v, H1_0) + norm_values(grid, x, L2))
    lhs = np.array(lhs)
    return _report("B4_growth", lhs, base, 1e-7 * (1.0 + lhs), None, {})
