"""Uniform Dirichlet grid on (0, 1) and the discrete machinery built on it.

Interior nodes are x_i = i*h for i = 1..n with h = 1/(n+1); boundary values
are identically zero and never stored. The negative Dirichlet Laplacian L
acts on interior values through the stencil

    (L v)_i = (-v[i-1] + 2*v[i] - v[i+1]) / h**2

and is symmetric positive definite. Its eigenvectors are the discrete sine
modes e_k(i) = sqrt(2) * sin(k*pi*x_i), which are exactly orthonormal in the
h-weighted l2 inner product, with eigenvalues (2/h**2) * (1 - cos(k*pi*h)).

Every norm here carries the h weight so that values converge to the continuum
L^2(0,1), H^1_0, L^p and H^-1 norms under grid refinement. The H^-1 norm uses
the same operator L as the drifts, sqrt(h * <v, L^-1 v>).

Every linear solve with shift * I + scale * L goes through ShiftedLaplacian:
the matrix is symmetric positive definite and tridiagonal, so LAPACK pttrf
factors it once as L D L^T and each solve is a single pttrs call. The one
tridiagonal solve outside it is the Newton direction of the implicit
porous-medium and p-Laplace step (integrators._newton_direction, one solve
for the Jacobians of all columns of a batch, laid end to end), because the
Jacobian changes with every iterate and every column. The p-Laplace
Jacobian I + (dt / h^2) D^T diag(w) D, w >= 0, is symmetric positive
definite too, and each of its directions takes a fresh pttrf factor and
one pttrs call; the porous-medium Jacobian I + dt L diag(psi'(u)) is not
symmetric, and its directions take LAPACK gtsv, an LU with partial pivoting.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpttrf, dpttrs

Array = NDArray[np.float64]

__all__ = [
    "Array",
    "Field",
    "Grid1D",
    "H1_0",
    "H_MINUS1",
    "L2",
    "NormKind",
    "ShiftedLaplacian",
    "lp_norm_kind",
    "norm_values",
    "row_norms",
    "sine_basis",
    "sine_mode",
    "smallest_eigenvalue",
    "solve_neg_laplacian",
    "zeros",
]


@dataclasses.dataclass(frozen=True)
class Grid1D:
    """Uniform grid of interior nodes on (0, 1) with zero Dirichlet boundary."""

    n_interior: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_interior, (int, np.integer)) or self.n_interior < 1:
            raise ValueError(f"n_interior must be a positive integer, got {self.n_interior!r}")

    @functools.cached_property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @functools.cached_property
    def nodes(self) -> Array:
        x = np.arange(1, self.n_interior + 1, dtype=np.float64) * self.h
        x.setflags(write=False)
        return x

    @functools.cached_property
    def eigenvalues(self) -> Array:
        """All eigenvalues of L, ascending: (2/h^2) * (1 - cos(k*pi*h))."""
        k = np.arange(1, self.n_interior + 1, dtype=np.float64)
        lam = (2.0 / self.h**2) * (1.0 - np.cos(k * np.pi * self.h))
        lam.setflags(write=False)
        return lam

    def apply_neg_laplacian(self, v: Array) -> Array:
        """Stencil application of L along the first axis, without a matrix."""
        out = 2.0 * v
        out[:-1] -= v[1:]
        out[1:] -= v[:-1]
        out /= self.h**2
        return out

    @functools.cached_property
    def _neg_laplacian(self) -> "ShiftedLaplacian":
        return ShiftedLaplacian(self, 0.0, 1.0)


class ShiftedLaplacian:
    """Prefactored solves with shift * I + scale * L (shift >= 0, scale > 0).

    solve takes a right-hand side of shape (n,) or (n, R) and solves every
    column at once; with overwrite, a column-major rhs receives the solution.
    """

    def __init__(self, grid: Grid1D, shift: float, scale: float) -> None:
        n = grid.n_interior
        off = scale / grid.h**2
        # The pttrf wrapper wants a nonempty off-diagonal even when n = 1.
        diagonal = np.full(n, shift + 2.0 * off)
        self._d, self._e, info = dpttrf(diagonal, np.full(max(n - 1, 1), -off))
        if info != 0:
            raise ArithmeticError(f"shift * I + scale * L is not positive definite (info {info})")

    def solve(self, rhs: Array, overwrite: bool = False) -> Array:
        # overwrite_b passed by position: f2py's keyword lookup costs a
        # fifth of the call on a single column.
        return dpttrs(self._d, self._e, rhs, overwrite)[0]


class Field:
    """Immutable interior nodal values attached to a grid.

    Values are validated to be finite float64 of the right length and the
    backing array is write-protected, so a Field can be shared freely.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid: Grid1D, values: Array) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (grid.n_interior,):
            raise ValueError(
                f"expected {grid.n_interior} interior values, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self.grid = grid
        self._values = arr

    @property
    def values(self) -> Array:
        return self._values

    def __repr__(self) -> str:
        return f"Field(n={self.grid.n_interior}, values={self._values!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash((self.grid, self._values.tobytes()))


def zeros(grid: Grid1D) -> Field:
    return Field(grid, np.zeros(grid.n_interior))


def sine_mode(grid: Grid1D, k: int, amplitude: float = 1.0) -> Field:
    """amplitude * sqrt(2) * sin(k*pi*x), the k-th L2-normalized eigenvector.

    A zero amplitude, -0.0 included, gives the zero field of +0.0 nodes.
    """
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode index must lie in 1..{grid.n_interior}, got {k}")
    if amplitude == 0.0:
        return zeros(grid)
    return Field(grid, amplitude * np.sqrt(2.0) * np.sin(k * np.pi * grid.nodes))


@functools.lru_cache(maxsize=32)
def sine_basis(grid: Grid1D, k_max: int) -> Array:
    """Matrix (n_interior, k_max) whose columns are the first k_max sine modes."""
    if not 1 <= k_max <= grid.n_interior:
        raise ValueError(f"k_max must lie in 1..{grid.n_interior}, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=np.float64)
    basis = np.sqrt(2.0) * np.sin(np.outer(grid.nodes, k) * np.pi)
    basis.setflags(write=False)
    return basis


@dataclasses.dataclass(frozen=True)
class NormKind:
    """Which discrete norm to evaluate; Lp carries its exponent."""

    tag: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("l2", "h1_0", "h_minus1", "lp"):
            raise ValueError(f"unknown norm tag {self.tag!r}")
        if self.tag == "lp":
            if self.p is None or self.p < 1.0:
                raise ValueError(f"lp norm needs an exponent >= 1, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"norm {self.tag!r} does not take an exponent")


L2 = NormKind("l2")
H1_0 = NormKind("h1_0")
H_MINUS1 = NormKind("h_minus1")


def lp_norm_kind(p: float) -> NormKind:
    return NormKind("lp", p)


def row_norms(grid: Grid1D, v: Array, kind: NormKind) -> Array:
    """Norms along the last axis: one value per row of a (m, n) array.

    See the module docstring for conventions.
    """
    h = grid.h
    if kind.tag == "l2":
        return np.sqrt(h * np.sum(v * v, axis=-1))
    if kind.tag == "h1_0":
        d = np.diff(v, axis=-1, prepend=0.0, append=0.0)
        return np.sqrt(np.sum(d * d, axis=-1) / h)
    if kind.tag == "lp":
        p = kind.p
        assert p is not None
        return (h * np.sum(np.abs(v) ** p, axis=-1)) ** (1.0 / p)
    # h_minus1: quadratic form through the inverse of L, rounded up to zero
    # in case cancellation produces a tiny negative value.
    w = solve_neg_laplacian(grid, v.T).T
    return np.sqrt(np.maximum(h * np.sum(v * w, axis=-1), 0.0))


def norm_values(grid: Grid1D, v: Array, kind: NormKind) -> float:
    """Norm of one nodal vector; see the module docstring for conventions."""
    return float(row_norms(grid, v, kind))


def solve_neg_laplacian(grid: Grid1D, rhs: Array) -> Array:
    """Solve L u = rhs with one prefactored pttrs solve; rhs may be (n,) or (n, R).

    Each column is solved on its own, with bytes that do not depend on the
    others. The stencil residual rhs - L u carries rounding near
    eps * (max|rhs| + 4 max|u| / h^2) whatever the solve does; a residual
    above 8 times that, or not finite, raises ArithmeticError: it would mean
    a corrupted system rather than a user error.
    """
    u = grid._neg_laplacian.solve(rhs)
    residual, rhs_max, u_max = (
        float(np.max(np.abs(a), initial=0.0)) for a in (rhs - grid.apply_neg_laplacian(u), rhs, u)
    )
    # Measured worst: 0.77 times that scale, over 3890 random, sine-mode and
    # constant right-hand sides for n = 1 ... 4096, amplitudes 1e-6 ... 1e6.
    if not residual <= 8.0 * np.finfo(float).eps * (rhs_max + 4.0 * u_max / grid.h**2):
        raise ArithmeticError("Poisson solve failed to reach the residual tolerance")
    return u


def smallest_eigenvalue(grid: Grid1D) -> float:
    """Closed form (2/h^2) * (1 - cos(pi*h)); increases toward pi^2 as h shrinks."""
    h = grid.h
    return (2.0 / h**2) * (1.0 - np.cos(np.pi * h))
