"""Uniform 1-D grids on (0, L), nodal fields, and discrete norms.

The interval (0, L) is split into ``n_cells`` cells of width ``dx``.
Dirichlet grids store the interior nodes only (boundary values are
implicitly zero); Neumann grids store every node including both endpoints.
All integrals use trapezoid quadrature on the nodes; the H1 seminorm uses
one first difference per cell (with the implicit zero boundary values on
Dirichlet grids), which makes the discrete Laplacian exactly self-adjoint
against the quadrature weights on both boundary types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import kernels


class BoundaryCondition(str, enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on the open interval (0, L).

    Parameters
    ----------
    L : float
        Interval length, > 0.
    n_cells : int
        Number of cells, >= 4; the mesh width is ``dx = L / n_cells``.
    bc : BoundaryCondition
        Boundary type.  Dirichlet grids carry ``n_cells - 1`` interior
        nodes at ``i*dx`` (i = 1..n_cells-1); Neumann grids carry
        ``n_cells + 1`` nodes at ``i*dx`` (i = 0..n_cells).
    """

    L: float
    n_cells: int
    bc: BoundaryCondition

    @property
    def dx(self) -> float:
        return self.L / self.n_cells

    @property
    def n_nodes(self) -> int:
        if self.bc is BoundaryCondition.DIRICHLET:
            return self.n_cells - 1
        return self.n_cells + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates, ordered left to right."""
        if self.bc is BoundaryCondition.DIRICHLET:
            x = self.dx * np.arange(1, self.n_cells)
        else:
            x = self.dx * np.arange(0, self.n_cells + 1)
        x.flags.writeable = False
        return x

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights matching ``nodes``."""
        w = np.full(self.n_nodes, self.dx)
        if self.bc is BoundaryCondition.NEUMANN:
            w[0] *= 0.5
            w[-1] *= 0.5
        w.flags.writeable = False
        return w


def make_grid(L: float, n_cells: int, bc: BoundaryCondition | str) -> Grid1D:
    """Construct a validated :class:`Grid1D`.

    Raises
    ------
    ValueError
        If ``L <= 0``, ``n_cells < 4``, or ``bc`` is not a known boundary
        condition.
    """
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"interval length must be positive, got {L}")
    if int(n_cells) != n_cells or n_cells < 4:
        raise ValueError(f"n_cells must be an integer >= 4, got {n_cells}")
    if isinstance(bc, str):
        try:
            bc = BoundaryCondition(bc.lower())
        except ValueError:
            raise ValueError(f"unknown boundary condition {bc!r}") from None
    return Grid1D(float(L), int(n_cells), bc)


@dataclass(frozen=True)
class Field:
    """Nodal scalar field on a grid; values are read-only after construction."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field needs {self.grid.n_nodes} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def zeros(grid: Grid1D) -> Field:
    return Field(grid, np.zeros(grid.n_nodes))


def integral(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Trapezoid integral over (0, L) of the product f*g, along the last axis.

    The weighted product is summed in one pass, without temporaries and
    without BLAS, so a row of a ``(K, n)`` block gets the same number, bit
    for bit, as the row alone.
    """
    return np.einsum("i,...i,...i->...", grid.quad_weights, f, g)


def h1_seminorm_sq(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Discrete ||u'||^2 along the last axis: one first difference per cell.

    Dirichlet grids count the first and last cells, which end at the
    implicit zero boundary values.  Chosen so that ``(-lap u, u) ==
    h1_seminorm_sq(u)`` holds exactly for the :func:`laplacian_stencil`,
    which makes the undamped discrete wave energy a conserved quantity of
    the Crank--Nicolson step.  Summed like :func:`integral`.
    """
    du = u[..., 1:] - u[..., :-1]
    h1 = np.einsum("...i,...i->...", du, du)
    if grid.bc is BoundaryCondition.DIRICHLET:
        h1 = h1 + u[..., 0] * u[..., 0] + u[..., -1] * u[..., -1]
    return h1 / grid.dx


def laplacian_stencil(bc: BoundaryCondition) -> Callable[[np.ndarray, float], np.ndarray]:
    """The second-order FD Laplacian ``(values, dx) -> values`` for a boundary type.

    Dirichlet uses zero ghost values; Neumann reflects the first interior
    node across the boundary (f[-1] = f[1]), the standard second-order
    treatment of a zero-flux condition.  Read from ``kernels`` at each call.
    """
    if bc is BoundaryCondition.DIRICHLET:
        return kernels.laplacian_dirichlet
    return kernels.laplacian_neumann
