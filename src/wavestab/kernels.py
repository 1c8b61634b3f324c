"""Hot numerical kernels: FD Laplacian stencils and a tridiagonal solve.

Plain numpy stencils and a banded LAPACK solve.  ``perfbench/README.md``
describes the benchmark that times them on the CLI's real workloads.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


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
# tridiagonal solve (banded LAPACK)
# ---------------------------------------------------------------------------
# Convention: lower[i] multiplies x[i-1] (lower[0] unused), diag[i] x[i],
# upper[i] multiplies x[i+1] (upper[-1] unused).

def thomas_solve(lower, diag, upper, rhs):
    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)
