"""Hot numerical kernels: FD Laplacian stencils and a tridiagonal solve.

Plain numpy stencils and a prefactored LAPACK tridiagonal solve.  The IMEX
matrix is fixed for a whole run, so it is LU-factored once with ``dgttrf``
(:func:`factor_tridiagonal`) and each step only back-substitutes with
``dgttrs`` (:func:`thomas_solve`).  The solve does not check its input for
non-finite values: a NaN or inf in the right-hand side comes back as NaN,
and the stepping loop reports it as a blow-up.  ``perfbench/README.md``
describes the benchmark that times these kernels on the CLI's real
workloads.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs


# ---------------------------------------------------------------------------
# second-order Laplacian stencils
# ---------------------------------------------------------------------------

def laplacian_dirichlet(values: np.ndarray, dx: float) -> np.ndarray:
    # zero ghost values outside both ends
    out = -2.0 * values
    out[:-1] += values[1:]
    out[1:] += values[:-1]
    out /= dx * dx
    return out


def laplacian_neumann(values: np.ndarray, dx: float) -> np.ndarray:
    # reflected ghosts: f[-1] = f[1], f[n+1] = f[n-1]
    out = -2.0 * values
    out[1:-1] += values[2:] + values[:-2]
    out[0] += 2.0 * values[1]
    out[-1] += 2.0 * values[-2]
    out /= dx * dx
    return out


# ---------------------------------------------------------------------------
# tridiagonal solve (LAPACK LU with partial pivoting)
# ---------------------------------------------------------------------------
# Convention: lower[i] multiplies x[i-1] (lower[0] unused), diag[i] x[i],
# upper[i] multiplies x[i+1] (upper[-1] unused).

def factor_tridiagonal(lower, diag, upper) -> tuple:
    """LU factors of the tridiagonal matrix, to be passed to :func:`thomas_solve`.

    Raises ``ValueError`` if the matrix is exactly singular.
    """
    *factors, info = dgttrf(lower[1:], diag, upper[:-1])
    if info != 0:
        raise ValueError(f"tridiagonal matrix is singular (dgttrf info={info})")
    return tuple(factors)


def thomas_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`factor_tridiagonal`; ``rhs`` is not modified."""
    x, _ = dgttrs(*factors, rhs)
    return x
