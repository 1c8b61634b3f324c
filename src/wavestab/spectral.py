"""Dirichlet spectrum, subdomain geometry, and spectral certificates.

On (0, L) with zero boundary values, the Laplacian eigenpairs are
``w_k(x) = sqrt(2/L) sin(k pi x / L)`` with ``lambda_k = (k pi / L)^2``;
:func:`dirichlet_eigenvalue` and :func:`sine_mode` are the one place each
is written.  Low-mode projections against the sampled modes drive the
spectral feedback laws; the indicator-gain threshold ``mu_zero`` supplies
the subdomain certificate.  :func:`grid_eigenvalue` is the spectrum of the
grid's own Laplacian, whose eigenvectors are the sampled modes.

``mu_zero`` needs no eigenvalue: it tests definiteness with the LDL^T
factorization that the IMEX solve uses (:func:`wavestab.kernels.dpttrf`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .grid import BoundaryCondition, Grid1D

MU_BISECTION_MAX = 1.0e6
MU_BISECTION_RTOL = 1.0e-3


def dirichlet_eigenvalue(L: float, k: int) -> float:
    """lambda_k = (k pi / L)^2, the k-th eigenvalue of -d^2/dx^2 on (0, L) with zero ends."""
    return (k * np.pi / L) ** 2


def grid_eigenvalue(grid: Grid1D, k: int) -> float:
    """lambda_{h,k} = (4 / dx^2) sin^2(k pi dx / 2L), the k-th eigenvalue of a Dirichlet grid's Laplacian.

    Its eigenvector is w_k sampled at the nodes, so ``h1_seminorm_sq`` of that
    sample is lambda_{h,k} times its squared norm.
    """
    return float(2.0 / grid.dx * np.sin(k * np.pi * grid.dx / (2.0 * grid.L))) ** 2


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


def trig_table(grid: Grid1D, degree: int) -> np.ndarray:
    """Rows 1, cos(j pi x/L), sin(j pi x/L), j = 1..degree, at the nodes; sines alone on Dirichlet."""
    theta = np.arange(1, degree + 1)[:, None] * np.pi * grid.nodes / grid.L
    if grid.bc is BoundaryCondition.DIRICHLET:
        return np.sin(theta)
    rows = np.ones((2 * degree + 1, grid.n_nodes))
    rows[1::2] = np.cos(theta)
    rows[2::2] = np.sin(theta)
    return rows


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


def _clears(grid: Grid1D, chi: np.ndarray, mu: float, target: float) -> bool:
    """Whether -Laplacian + mu*chi - target*I is positive definite on the Dirichlet grid."""
    inv_dx2 = 1.0 / grid.dx**2
    d = 2.0 * inv_dx2 + mu * chi - target
    e = np.full(grid.n_nodes - 1, -inv_dx2)
    _, _, info = kernels.dpttrf(d, e)  # info > 0: a pivot is not positive
    return info == 0


def mu_zero(omega: Subdomain, d: float, grid: Grid1D) -> float:
    """Smallest indicator gain whose shifted operator clears the gap target.

    Bisects mu in [0, 1e6] for the smallest value at which
    ``-Laplacian + mu * indicator - (complement_eigenvalue - d) * I`` is
    positive definite, that is, its smallest eigenvalue exceeds the target,
    to relative tolerance 1e-3, returning the certified (satisfying) upper
    endpoint.  The matrix is symmetric tridiagonal, so it is positive
    definite exactly when its LDL^T factorization has only positive pivots
    (Sylvester's law of inertia: the negative pivots count the negative
    eigenvalues).  The smallest eigenvalue is nondecreasing in mu, so
    bisection on the predicate is exact.

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

    if _clears(grid, chi, 0.0, target):
        return 0.0
    hi = MU_BISECTION_MAX
    if not _clears(grid, chi, hi, target):
        raise ValueError(
            f"gap target {target:.6g} unreachable with gains up to {hi:.1e}; "
            "refine the grid or move omega"
        )
    lo = 0.0
    while hi - lo > MU_BISECTION_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if _clears(grid, chi, mid, target):
            hi = mid
        else:
            lo = mid
    return hi
