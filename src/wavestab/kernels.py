"""Hot numerical kernels: FD Laplacian stencils and a tridiagonal solve.

Each stencil is one C call: the nodal values convolved with (1, -2, 1),
which reads zero ghost values outside both ends; the Neumann stencil then
adds its reflected ghosts at the two ends.  The kernel is symmetric, so
the convolution is ``np.correlate``, which skips ``np.convolve``'s argument
checks and kernel reversal.  The values need at least three nodes (a grid
has at least four cells): on a shorter array the convolution swaps its
arguments and returns three values.  The IMEX matrix is fixed
for a whole run, so it is factored once as LDL^T with ``dpttrf``
(:func:`factor_tridiagonal`) and each step only substitutes with
``dpttrs`` (:func:`thomas_solve`), without pivoting, in place: the solve
consumes its right-hand side.  The matrix s*I - kappa*Lap_h is symmetric
positive definite once its two Neumann end rows are halved, because the
Laplacian is self-adjoint under the trapezoid weights, which are one half
at the ends.  The solve does not check its input for non-finite values: a
NaN or inf in the right-hand side comes back non-finite, and the stepping
loop reports it as a blow-up.  ``perfbench/README.md`` describes the
benchmark that times these kernels on the CLI's real workloads.

``dpttrf`` and ``dpttrs`` are loaded straight from scipy's f2py LAPACK
extension, ``scipy/linalg/_flapack``: they are the compiled functions that
``scipy.linalg.lapack`` re-exports, but importing that package runs
``scipy.linalg``'s ``__init__``, which pulls in scipy's array-API layer,
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, about 0.2 s and 24 MB
of every process's start-up.  No command imports ``scipy.linalg``: the
subdomain certificate's threshold is also found with ``dpttrf``
(``spectral.mu_zero``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


# ---------------------------------------------------------------------------
# second-order Laplacian stencils
# ---------------------------------------------------------------------------

_STENCIL = np.array([1.0, -2.0, 1.0])  # symmetric: correlating with it is convolving


def laplacian_dirichlet(values: np.ndarray, dx: float) -> np.ndarray:
    # zero ghost values outside both ends, as the convolution pads
    out = np.correlate(values, _STENCIL, "same")
    out /= dx * dx
    return out


def laplacian_neumann(values: np.ndarray, dx: float) -> np.ndarray:
    # reflected ghosts: f[-1] = f[1], f[n+1] = f[n-1]
    out = np.correlate(values, _STENCIL, "same")
    out[0] += values[1]
    out[-1] += values[-2]
    out /= dx * dx
    return out


# ---------------------------------------------------------------------------
# LAPACK's dpttrf and dpttrs without importing scipy.linalg
# ---------------------------------------------------------------------------

_FLAPACK = "scipy.linalg._flapack"


def _load_pt_routines(linalg_dir: str) -> tuple:
    """``(dpttrf, dpttrs)`` from the ``_flapack`` extension in ``linalg_dir``.

    An already imported ``scipy.linalg._flapack`` is reused.  When the
    directory has no such file, or it will not load on its own, the two
    functions come from ``scipy.linalg.lapack`` as usual.  A module loaded
    here is dropped from ``sys.modules`` again, so that a later import of
    ``scipy.linalg`` loads it as its own submodule; the extension is
    initialised once per process, so both hold the same function objects.
    """
    module = sys.modules.get(_FLAPACK)
    paths = [os.path.join(linalg_dir, "_flapack" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if module is None and path is not None:
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:  # e.g. a library path that only scipy's __init__ sets up
            module = None
        sys.modules.pop(_FLAPACK, None)
    if module is None:
        from scipy.linalg.lapack import dpttrf, dpttrs

        return dpttrf, dpttrs
    return module.dpttrf, module.dpttrs


dpttrf, dpttrs = _load_pt_routines(
    os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "linalg")
)


# ---------------------------------------------------------------------------
# tridiagonal solve (LAPACK LDL^T of a symmetric positive definite matrix)
# ---------------------------------------------------------------------------
# M has diagonal ``diag`` and off-diagonal ``off`` (n and n - 1 entries), and
# is symmetric except that, with ``doubled_ends``, its first and last rows
# couple to their neighbours by 2*off, as reflected Neumann ghosts make them.
# Halving those two rows gives W*M, which is symmetric; it is the matrix
# factored, and the solve halves the same two entries of the right-hand side.

def factor_tridiagonal(diag, off, doubled_ends: bool) -> tuple:
    """LDL^T factors of W*M, to be passed to :func:`thomas_solve`.

    Raises ``ValueError`` if W*M is not positive definite.
    """
    if doubled_ends:
        diag = np.array(diag, dtype=float)
        diag[[0, -1]] *= 0.5
    d, e, info = dpttrf(diag, off)
    if info != 0:
        raise ValueError(f"tridiagonal matrix is not positive definite (dpttrf info={info})")
    return d, e, doubled_ends


def thomas_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs with factors from :func:`factor_tridiagonal`, solved in ``rhs``'s memory.

    ``rhs`` is consumed: a contiguous float64 ``rhs`` is overwritten and
    returned as the solution.  The name is kept from the solve it replaced:
    it is the seam that perfbench's layer tracer patches, and the stepper
    looks it up through this module at each call.
    """
    d, e, doubled_ends = factors
    if doubled_ends:  # W*M x = W*rhs: halve the two end entries
        rhs[0] *= 0.5
        rhs[-1] *= 0.5
    x, _ = dpttrs(d, e, rhs, True)  # overwrite_b, by position
    return x
