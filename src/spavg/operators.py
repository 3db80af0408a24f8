"""Drift operators, coupling terms and mode-truncated noise on the grid.

Slow drifts (all built from the grid Laplacian L and face differences):

  porous_medium   A(u) = -L psi(u),  psi(s) = c * s * |s|**(p-2)
  p_laplace       A(u) = div(|grad u|**(p-2) grad u), face-centered; p = 2
                  reduces exactly to -L u
  burgers         A(u) = -viscosity * L u + conv(u)

The convection term uses the energy-conserving skew average

  conv(u) = (D(u*u) + u * D u) / 3

with D the central difference under zero Dirichlet boundary. D is exactly
skew-adjoint in the h-weighted inner product, which makes <conv(u), u> = 0
algebraically, so the viscous part alone controls the energy balance. A
plain central difference of u**2/2 does not have this property on Dirichlet
grids; the skew average is the standard fix and discretizes the same
conservative form.

The fast drift is -L y + B2(x, y) with B2 either c_b * x (linear) or
c_b * x + b * sin(y) pointwise (smooth bounded, Lipschitz constant b in y).

Noise is additive and diagonal in the sine modes: an increment over dt is
sum_k (amplitude / k**2) * sqrt(dt) * xi_k * e_k with i.i.d. standard normal
xi_k, so E ||increment||_L2^2 = dt * sum_k (amplitude / k**2)**2 exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .grid import (
    H_MINUS1,
    L2,
    Array,
    Field,
    Grid1D,
    NormKind,
    smallest_eigenvalue,
)

__all__ = [
    "CouplingSpec",
    "FastOperatorSpec",
    "SlowOperatorSpec",
    "b2_values",
    "burgers_convection",
    "contraction_margin",
    "coupling_f",
    "dissipativity_margin",
    "face_gradients",
    "fast_drift",
    "mode_scales",
    "slow_drift",
]

SLOW_KINDS = ("porous_medium", "p_laplace", "burgers")
FAST_KINDS = ("linear", "smooth_bounded")


@dataclasses.dataclass(frozen=True)
class SlowOperatorSpec:
    """Which monotone slow operator to use, with its parameters.

    p is the nonlinearity exponent for porous_medium / p_laplace (>= 2),
    c the porous-medium scale (> 0), viscosity the Burgers viscosity (> 0).
    Parameters not used by the chosen kind are ignored by the drift but
    still validated so a config typo cannot pass silently.
    """

    kind: str
    p: float = 2.0
    c: float = 1.0
    viscosity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SLOW_KINDS:
            raise ValueError(f"unknown slow operator kind {self.kind!r}")
        if self.p < 2.0:
            raise ValueError(f"exponent p must be >= 2, got {self.p}")
        if self.c <= 0.0:
            raise ValueError(f"porous-medium scale c must be positive, got {self.c}")
        if self.viscosity <= 0.0:
            raise ValueError(f"viscosity must be positive, got {self.viscosity}")

    @property
    def state_norm(self) -> NormKind:
        """The slow state space: H^-1 for porous medium, L2 otherwise."""
        return H_MINUS1 if self.kind == "porous_medium" else L2

    @property
    def alpha(self) -> float:
        """Coercivity exponent of the variational space (2 for Burgers)."""
        return 2.0 if self.kind == "burgers" else self.p


@dataclasses.dataclass(frozen=True)
class FastOperatorSpec:
    """Fast drift -L y + B2(x, y); lipschitz_y bounds dB2/dy."""

    kind: str
    c_b: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAST_KINDS:
            raise ValueError(f"unknown fast operator kind {self.kind!r}")
        if self.kind == "linear" and self.b != 0.0:
            raise ValueError("linear fast operator has no sin amplitude; set b = 0")
        if self.b < 0.0:
            raise ValueError(f"sin amplitude b must be >= 0, got {self.b}")

    @property
    def lipschitz_y(self) -> float:
        return self.b


@dataclasses.dataclass(frozen=True)
class CouplingSpec:
    """Affine slow-fast coupling F(x, y) = f0 + c_fx * x + c_fy * y and noise.

    Both Wiener processes are additive with sine-diagonal covariance; mode k
    enters with amplitude g*_amplitude / k**2. lipschitz_g2 records the state
    dependence of the fast noise and is pinned to zero here (additive noise);
    it still enters the dissipativity margin formula explicitly so the margin
    computation states its assumptions.
    """

    f0: Field
    c_fx: float = 0.0
    c_fy: float = 1.0
    g1_amplitude: float = 0.5
    g1_modes: int = 8
    g2_amplitude: float = 0.5
    g2_modes: int = 8
    lipschitz_g2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("g1_modes", "g2_modes"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.g1_amplitude < 0.0 or self.g2_amplitude < 0.0:
            raise ValueError("noise amplitudes must be >= 0")
        if self.lipschitz_g2 != 0.0:
            raise ValueError("only additive fast noise is supported (lipschitz_g2 = 0)")
        if self.g1_modes > self.f0.grid.n_interior or self.g2_modes > self.f0.grid.n_interior:
            raise ValueError("noise mode count cannot exceed n_interior")


def face_gradients(grid: Grid1D, v: Array) -> Array:
    """Forward differences on the n_interior + 1 faces along the first axis.

    v is (n,) or (n, C), boundaries included; each column of the result is
    contiguous. Built in one zeroed array: v is copied onto the first n
    faces and subtracted from the last n, so the first face is v[0] and the
    last 0.0 - v[-1], not -v[-1], which gives a zero node the +0.0 a
    difference gives.
    """
    g = np.zeros((v.shape[0] + 1,) + v.shape[1:], order="F")
    g[:-1] = v
    g[1:] -= v
    g /= grid.h
    return g


def burgers_convection(grid: Grid1D, u: Array) -> Array:
    """(D(u*u) + u * D u) / 3 along the first axis, for u of shape (n,) or (n, R).

    D is the central difference (v[i+1] - v[i-1]) / (2h) with zero Dirichlet
    neighbours at both ends. Both differences come from one zero-padded copy
    holding u*u and u, each computed as (0.0 + right) - left, so a zero
    neighbour gives the signed zero a difference gives.
    """
    padded = np.zeros((2, u.shape[0] + 2) + u.shape[1:])
    np.multiply(u, u, out=padded[0, 1:-1])
    padded[1, 1:-1] = u
    d = np.add(0.0, padded[:, 2:])
    d -= padded[:, :-2]
    d /= 2.0 * grid.h
    return (d[0] + u * d[1]) / 3.0


def _psi(spec: SlowOperatorSpec, u: Array, powers: Array | None = None) -> Array:
    return spec.c * u * (np.abs(u) ** (spec.p - 2.0) if powers is None else powers)


def slow_drift(
    spec: SlowOperatorSpec,
    grid: Grid1D,
    x: Array,
    gradients: Array | None = None,
    powers: Array | None = None,
) -> Array:
    """A(x), along the first axis for x of shape (n,) or (n, C).

    For p_laplace, gradients may pass face_gradients(grid, x) in. For
    porous_medium and p_laplace, powers may pass |v| ** (p - 2) of the
    values the drift raises to a power: x, or its face gradients.
    """
    if spec.kind == "porous_medium":
        return -grid.apply_neg_laplacian(_psi(spec, x, powers))
    if spec.kind == "p_laplace":
        g = face_gradients(grid, x) if gradients is None else gradients
        flux = (np.abs(g) ** (spec.p - 2.0) if powers is None else powers) * g
        return (flux[1:] - flux[:-1]) / grid.h
    return -spec.viscosity * grid.apply_neg_laplacian(x) + burgers_convection(grid, x)


def b2_values(fast: FastOperatorSpec, x: Array, y: Array) -> Array:
    if fast.kind == "linear":
        return fast.c_b * x
    return fast.c_b * x + fast.b * np.sin(y)


def fast_drift(fast: FastOperatorSpec, grid: Grid1D, x: Array, y: Array) -> Array:
    return -grid.apply_neg_laplacian(y) + b2_values(fast, x, y)


def coupling_f(coupling: CouplingSpec, x: Array, y: Array) -> Array:
    """F(x, y) for states of shape (n,) or batches of columns (n, R)."""
    f0 = coupling.f0.values if x.ndim == 1 else coupling.f0.values[:, None]
    return f0 + coupling.c_fx * x + coupling.c_fy * y


def mode_scales(amplitude: float, modes: int) -> Array:
    k = np.arange(1, modes + 1, dtype=np.float64)
    return amplitude / k**2


def dissipativity_margin(fast: FastOperatorSpec, coupling: CouplingSpec, grid: Grid1D) -> float:
    """2 * lambda_1^h - 2 * lipschitz_y - lipschitz_g2**2.

    Positive margin is the structural requirement for the fast equation to
    contract pathwise and admit a unique invariant measure; every simulation
    entry point refuses to run without it, through contraction_margin.
    """
    return 2.0 * smallest_eigenvalue(grid) - 2.0 * fast.lipschitz_y - coupling.lipschitz_g2**2


def contraction_margin(fast: FastOperatorSpec, coupling: CouplingSpec, grid: Grid1D) -> float:
    """The dissipativity margin, or ValueError unless it is positive."""
    margin = dissipativity_margin(fast, coupling, grid)
    if not margin > 0.0:
        raise ValueError(
            f"dissipativity margin must be positive, got {margin:.6g}; "
            "the fast equation would not contract"
        )
    return margin
