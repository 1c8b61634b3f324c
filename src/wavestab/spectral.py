"""Dirichlet spectrum, subdomain geometry, and spectral certificates.

On (0, L) with zero boundary values, the Laplacian eigenpairs are
``w_k(x) = sqrt(2/L) sin(k pi x / L)`` with ``lambda_k = (k pi / L)^2``;
:func:`dirichlet_eigenvalue` and :func:`sine_mode` are the one place each
is written.  Low-mode projections against the sampled modes drive the
spectral feedback laws; the tail bound and the indicator-gain threshold
``mu_zero`` supply the quantitative certificates the gain checkers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grid import BoundaryCondition, Field, Grid1D, h1_seminorm_sq, integral

MU_BISECTION_MAX = 1.0e6
MU_BISECTION_RTOL = 1.0e-3


def dirichlet_eigenvalue(L: float, k: int) -> float:
    """lambda_k = (k pi / L)^2, the k-th eigenvalue of -d^2/dx^2 on (0, L) with zero ends."""
    return (k * np.pi / L) ** 2


def sine_mode(grid: Grid1D, k) -> np.ndarray:
    """w_k sampled at the nodes; ``k`` is one index, or a column of them for one row each."""
    return np.sqrt(2.0 / grid.L) * np.sin(k * np.pi * grid.nodes / grid.L)


@lru_cache(maxsize=64)
def mode_matrix(grid: Grid1D, N: int) -> np.ndarray:
    """Rows w_1 .. w_N sampled at the nodes of a Dirichlet grid (cached, read-only)."""
    if grid.bc is not BoundaryCondition.DIRICHLET:
        raise ValueError("the sine modes are sampled on a Dirichlet grid")
    if N < 1:
        raise ValueError(f"need at least one mode, got N={N}")
    W = sine_mode(grid, np.arange(1, N + 1)[:, None])
    W.flags.writeable = False
    return W


def project_modes(f: Field, N: int) -> np.ndarray:
    """First N modal coefficients (f, w_k) under the grid quadrature."""
    return mode_matrix(f.grid, N) @ (f.grid.quad_weights * f.values)


def tail_bound_check(f: Field, N: int) -> tuple[float, float, bool]:
    """Spectral tail bound after removing the first N modes.

    Returns ``(lhs, rhs, ok)`` with ``lhs = ||f - P_N f||^2``,
    ``rhs = ||f'||^2 / lambda_{N+1}`` and ``ok = lhs <= 1.01 * rhs``
    (the 1.01 covers quadrature slack on the discretized integrals).
    """
    residual = f.values - project_modes(f, N) @ mode_matrix(f.grid, N)
    lhs = integral(f.grid, residual, residual)
    rhs = h1_seminorm_sq(f.grid, f.values) / dirichlet_eigenvalue(f.grid.L, N + 1)
    return lhs, rhs, bool(lhs <= 1.01 * rhs)


@dataclass(frozen=True)
class Subdomain:
    """Actuation subinterval (lo, hi) of a grid's (0, L); the law checks hi <= L when built."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:
            raise ValueError(f"need 0 <= lo < hi, got lo={self.lo}, hi={self.hi}")

    def indicator(self, x: np.ndarray) -> np.ndarray:
        """Sharp indicator sampled at nodes: 1 where lo <= x < hi."""
        return ((x >= self.lo) & (x < self.hi)).astype(np.float64)


def complement_eigenvalue(omega: Subdomain, grid: Grid1D) -> float:
    """Smallest Dirichlet eigenvalue over the components of (0,L) \\ omega, L the grid's.

    Each component is an interval; the smallest eigenvalue comes from the
    longest one, so the value is ``(pi / max(lo, L - hi))^2``.
    """
    ell = max(omega.lo, grid.L - omega.hi)
    if ell <= 0.0:
        raise ValueError("omega touches both ends: complement has no interior component")
    return dirichlet_eigenvalue(ell, 1)


def _min_eig_shifted(grid: Grid1D, indicator: np.ndarray, mu: float) -> float:
    """Smallest eigenvalue of -Laplacian + mu*indicator on the Dirichlet grid."""
    inv_dx2 = 1.0 / grid.dx**2
    d = np.full(grid.n_nodes, 2.0 * inv_dx2) + mu * indicator
    e = np.full(grid.n_nodes - 1, -inv_dx2)
    vals = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0))
    return float(vals[0])


def mu_zero(omega: Subdomain, d: float, grid: Grid1D) -> float:
    """Smallest indicator gain whose shifted operator clears the gap target.

    Bisects mu in [0, 1e6] for the smallest value with
    ``min eig(-Laplacian + mu * indicator) >= complement_eigenvalue - d``,
    to relative tolerance 1e-3, returning the certified (satisfying) upper
    endpoint.  The minimum eigenvalue is nondecreasing in mu, so bisection
    on the predicate is exact.

    Raises
    ------
    ValueError
        If ``d`` is outside (0, complement_eigenvalue), the grid is not
        Dirichlet, or the target is not reached at mu = 1e6.
    """
    lam_c = complement_eigenvalue(omega, grid)
    if not 0.0 < d < lam_c:
        raise ValueError(f"need 0 < d < {lam_c:.6g}, got d={d}")
    if grid.bc is not BoundaryCondition.DIRICHLET:
        raise ValueError("mu_zero requires a Dirichlet grid")

    target = lam_c - d
    chi = omega.indicator(grid.nodes)
    if not chi.any():
        raise ValueError("omega contains no grid nodes; refine the grid")

    if _min_eig_shifted(grid, chi, 0.0) >= target:
        return 0.0
    hi = MU_BISECTION_MAX
    if _min_eig_shifted(grid, chi, hi) < target:
        raise ValueError(
            f"gap target {target:.6g} unreachable with gains up to {hi:.1e}; "
            "refine the grid or move omega"
        )
    lo = 0.0
    while hi - lo > MU_BISECTION_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if _min_eig_shifted(grid, chi, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
