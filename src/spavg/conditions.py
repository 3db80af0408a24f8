"""Numerical checks of the structural inequalities behind the well-posedness
and averaging theory, evaluated on randomized smooth fields.

Two modes per condition. Where the discrete operator satisfies an identity
with known constants (monotone pairings for porous medium and p-Laplace,
exact coercivity identities, the spectral bound behind dissipativity), the
checker verifies the inequality directly and a sample that breaks it counts
as a violation. Where the theory only asserts existence of a finite constant
of a stated form (the Burgers local-monotonicity modulus, growth bounds), the
checker fits the constant as the smallest value covering the samples and
reports it; tests then probe that the fit is stable under amplitude changes
rather than pretending a fitted bound could fail on its own fitting set.

Margins are defined per condition so that a non-positive worst margin always
coincides with at least one counted violation. Duality pairings follow the
state geometry: the porous-medium drift pairs through L^-1 (so the pairing of
-L psi(u) with v reduces to -h <psi(u), v>), everything else pairs in the
h-weighted l2 sense. Sample fields are truncated sine series with Gaussian
coefficients decaying like 1/k, with amplitudes cycling over 0.1, 1 and 10;
the dissipativity check prepends pure-mode difference probes, which is what
pins its fitted rate at the spectral value instead of a loose sample minimum.
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
    lp_norm_kind,
    norm_values,
    sine_basis,
    solve_neg_laplacian,
)
from .operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    b2_values,
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
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    stream: RngStream,
) -> ConditionReport:
    if condition not in CONDITION_IDS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITION_IDS}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    gen = stream.generator()
    checker = {
        "A2_local_monotone": _check_a2,
        "A3_coercive": _check_a3,
        "A4_growth": _check_a4,
        "B2_dissipative": _check_b2,
        "B3_coercive": _check_b3,
        "B4_growth": _check_b4,
    }[condition]
    return checker(slow, fast, coupling, grid, samples, gen)


def _amplitude(i: int) -> float:
    return _AMPLITUDES[i % len(_AMPLITUDES)]


def _fitted(
    condition: str,
    lhs: list[float],
    base: list[float],
    slack: list[float],
    constants: dict[str, float],
) -> ConditionReport:
    """Report for lhs <= C * base per sample, with C fitted to the samples.

    C is the largest ratio lhs / base over samples with base > 0, floored
    at 0, and is reported as "C" after the given constants. A sample's
    margin is C * base + slack - lhs; a margin <= 0 is a violation.
    """
    c_fit = max(0.0, max(l / b for l, b in zip(lhs, base) if b > 0.0))
    margins = [c_fit * b + s - l for l, b, s in zip(lhs, base, slack)]
    violations = sum(1 for m in margins if m <= 0.0)
    return ConditionReport(
        condition, len(lhs), violations, min(margins), {**constants, "C": c_fit}
    )


def _check_a2(
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    gen: np.random.Generator,
) -> ConditionReport:
    """2 <A(u) - A(v), u - v> <= rho(v) ||u - v||^2, slow noise additive.

    rho = 0 (plain monotonicity) for porous medium and p-Laplace; for Burgers
    the modulus has the form C (1 + ||v||_L4^4) and C is fitted.
    """
    fitted = slow.kind == "burgers"
    lhs_list: list[float] = []
    base_list: list[float] = []
    slack_list: list[float] = []
    for i in range(samples):
        amp = _amplitude(i)
        u = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        w = u - v
        pa = _pairing(grid, slow, slow_drift(slow, grid, u), w)
        pb = _pairing(grid, slow, slow_drift(slow, grid, v), w)
        lhs_list.append(2.0 * (pa - pb))
        slack_list.append(1e-7 * (1.0 + abs(pa) + abs(pb)))
        if fitted:
            w_sq = norm_values(grid, w, L2) ** 2
            base_list.append((1.0 + norm_values(grid, v, lp_norm_kind(4.0)) ** 4) * w_sq)
    if fitted:
        return _fitted("A2_local_monotone", lhs_list, base_list, slack_list, {})
    margins = [s - l for l, s in zip(lhs_list, slack_list)]
    violations = sum(1 for m in margins if m <= 0.0)
    return ConditionReport(
        "A2_local_monotone", samples, violations, min(margins), {"rho": 0.0}
    )


def _check_a3(
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    gen: np.random.Generator,
) -> ConditionReport:
    """<A(v), v> <= -theta ||v||_V^alpha with the known theta of each operator.

    theta is c for porous medium (the pairing reduces to -c ||v||_p^p), 1 for
    p-Laplace (discrete integration by parts is exact for the face fluxes),
    and the viscosity for Burgers (the skew convection pairs to zero).
    """
    theta_known = {"porous_medium": slow.c, "p_laplace": 1.0, "burgers": slow.viscosity}[
        slow.kind
    ]
    margins: list[float] = []
    theta_fits: list[float] = []
    violations = 0
    for i in range(samples):
        v = sample_field(grid, gen, _amplitude(i))
        lhs = _pairing(grid, slow, slow_drift(slow, grid, v), v)
        energy = _v_energy(slow, grid, v)
        slack = 1e-7 * (1.0 + abs(lhs) + theta_known * energy)
        margin = (-theta_known * energy + slack) - lhs
        if margin <= 0.0:
            violations += 1
        margins.append(margin)
        if energy > 0.0:
            theta_fits.append(-lhs / energy)
    return ConditionReport(
        "A3_coercive",
        samples,
        violations,
        min(margins),
        {"theta": min(theta_fits), "alpha": slow.alpha},
    )


def _dual_norm_pow(slow: SlowOperatorSpec, grid: Grid1D, v: Array) -> float:
    """||A(v)||_{V*}^{alpha/(alpha-1)}, computed through exact dualities.

    Porous medium: the functional w -> -h <psi(v), w> on L^p has dual norm
    ||psi(v)||_q with 1/p + 1/q = 1 (discrete Hoelder is sharp). p-Laplace:
    the face-flux bound gives ||A(v)||^q = h sum |grad v|^p. Burgers: the
    dual of H^1_0 is the discrete H^-1 norm of the drift.
    """
    if slow.kind == "porous_medium":
        q = slow.p / (slow.p - 1.0)
        psi = slow.c * v * np.abs(v) ** (slow.p - 2.0)
        return float(grid.h * np.sum(np.abs(psi) ** q))
    if slow.kind == "p_laplace":
        g = face_gradients(grid, v)
        return float(grid.h * np.sum(np.abs(g) ** slow.p))
    return norm_values(grid, slow_drift(slow, grid, v), H_MINUS1) ** 2


def _check_a4(
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    gen: np.random.Generator,
) -> ConditionReport:
    """||A(v)||_{V*}^{alpha/(alpha-1)} <= C (1 + ||v||_V^alpha)(1 + ||v||_H^2)."""
    lhs_list: list[float] = []
    base_list: list[float] = []
    for i in range(samples):
        v = sample_field(grid, gen, _amplitude(i))
        lhs_list.append(_dual_norm_pow(slow, grid, v))
        energy = _v_energy(slow, grid, v)
        state_sq = norm_values(grid, v, slow.state_norm) ** 2
        base_list.append((1.0 + energy) * (1.0 + state_sq))
    slack = [1e-7 * (1.0 + l) for l in lhs_list]
    return _fitted("A4_growth", lhs_list, base_list, slack, {})


def _check_b2(
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    gen: np.random.Generator,
) -> ConditionReport:
    """2 <B(x, u) - B(x, v), u - v> <= -gamma ||u - v||^2 with gamma > 0.

    The margin of a sample is its contraction rate -lhs / ||u - v||^2; the
    fitted gamma_hat is the worst rate seen. Pure-mode probes at small
    amplitude are checked first: on mode k the linear part contracts at
    exactly 2 lambda_k, so the fit lands at 2 lambda_1 - 2 b up to the sin
    curvature, and a spec with b > lambda_1 is caught immediately.
    """
    h = grid.h
    rates: list[float] = []
    count = 0
    n_probes = min(8, grid.n_interior, max(0, samples - 1))
    for k in range(1, n_probes + 1):
        x = sample_field(grid, gen, 1.0)
        d = 1e-4 * sine_basis(grid, k)[:, k - 1]
        u = d.copy()
        v = np.zeros_like(d)
        lhs = 2.0 * h * float(np.dot(fast_drift(fast, grid, x, u) - fast_drift(fast, grid, x, v), d))
        rates.append(-lhs / (h * float(np.dot(d, d))))
        count += 1
    while count < samples:
        amp = _amplitude(count)
        x = sample_field(grid, gen, amp)
        u = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        d = u - v
        d_sq = h * float(np.dot(d, d))
        if d_sq == 0.0:
            continue
        lhs = 2.0 * h * float(np.dot(fast_drift(fast, grid, x, u) - fast_drift(fast, grid, x, v), d))
        rates.append(-lhs / d_sq)
        count += 1
    gamma_fit = min(rates)
    violations = sum(1 for r in rates if r <= 0.0)
    return ConditionReport(
        "B2_dissipative", samples, violations, gamma_fit, {"gamma_hat": gamma_fit}
    )


def _check_b3(
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    gen: np.random.Generator,
) -> ConditionReport:
    """<B(x, v), v> <= -||v||_{H1_0}^2 + C (1 + ||x||^2 + ||v||^2).

    The linear part pairs to exactly -||v||_{H1_0}^2; what is fitted is the
    constant absorbing the coupling term.
    """
    h = grid.h
    lhs_plus_energy: list[float] = []
    base_list: list[float] = []
    for i in range(samples):
        amp = _amplitude(i)
        x = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        lhs = h * float(np.dot(fast_drift(fast, grid, x, v), v))
        energy = norm_values(grid, v, H1_0) ** 2
        base = 1.0 + norm_values(grid, x, L2) ** 2 + norm_values(grid, v, L2) ** 2
        lhs_plus_energy.append(lhs + energy)
        base_list.append(base)
    slack = [1e-7 * (1.0 + abs(l)) for l in lhs_plus_energy]
    return _fitted("B3_coercive", lhs_plus_energy, base_list, slack, {"eta": 1.0})


def _check_b4(
    slow: SlowOperatorSpec,
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    samples: int,
    gen: np.random.Generator,
) -> ConditionReport:
    """||B(x, v)||_{H^-1} <= C (1 + ||v||_{H1_0} + ||x||_L2)."""
    lhs_list: list[float] = []
    base_list: list[float] = []
    for i in range(samples):
        amp = _amplitude(i)
        x = sample_field(grid, gen, amp)
        v = sample_field(grid, gen, amp)
        lhs_list.append(norm_values(grid, fast_drift(fast, grid, x, v), H_MINUS1))
        base_list.append(
            1.0 + norm_values(grid, v, H1_0) + norm_values(grid, x, L2)
        )
    slack = [1e-7 * (1.0 + l) for l in lhs_list]
    return _fitted("B4_growth", lhs_list, base_list, slack, {})
