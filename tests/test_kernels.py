"""The Laplacian stencils and the tridiagonal solve against dense matrices."""

import importlib.machinery
import os
import sys

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from wavestab import kernels, make_grid


def dense_laplacian(n, dx, bc):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = -2.0
        if i > 0:
            A[i, i - 1] = 1.0
        if i < n - 1:
            A[i, i + 1] = 1.0
    if bc == "neumann":
        A[0, 1] = 2.0
        A[-1, -2] = 2.0
    return A / dx**2


@pytest.mark.parametrize("n", [5, 64, 257])
def test_dirichlet_matches_dense(n):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    dx = 0.37
    got = kernels.laplacian_dirichlet(f, dx)
    np.testing.assert_allclose(got, dense_laplacian(n, dx, "dirichlet") @ f, rtol=1e-12)


@pytest.mark.parametrize("n", [5, 64, 257])
def test_neumann_matches_dense(n):
    rng = np.random.default_rng(n + 1)
    f = rng.standard_normal(n)
    dx = 0.21
    got = kernels.laplacian_neumann(f, dx)
    np.testing.assert_allclose(got, dense_laplacian(n, dx, "neumann") @ f, rtol=1e-12)


@pytest.mark.parametrize("bc, n_nodes", [("dirichlet", 3), ("neumann", 5)])
def test_stencils_on_the_smallest_grid(bc, n_nodes):
    # np.convolve swaps its arguments on an array shorter than the kernel;
    # the coarsest grid, 4 cells, still gives each stencil 3 or more nodes
    g = make_grid(np.pi, 4, bc)
    assert g.n_nodes == n_nodes
    f = np.random.default_rng(n_nodes).standard_normal(n_nodes)
    got = getattr(kernels, f"laplacian_{bc}")(f, g.dx)
    assert got.shape == (n_nodes,)
    np.testing.assert_allclose(got, dense_laplacian(n_nodes, g.dx, bc) @ f, rtol=1e-12)


def stepper_like_matrix(n, bc, seed):
    """A random matrix of the IMEX matrix's shape: symmetric, diagonally dominant
    tridiagonal, with both end couplings doubled on Neumann grids as reflected
    ghosts double them.  Returns its diagonal, its off-diagonal before the
    doubling, the dense matrix and the generator.
    """
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1, 0, n - 1)
    diag = 3.0 + rng.uniform(0, 1, n)
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if bc == "neumann":
        A[0, 1] *= 2.0
        A[-1, -2] *= 2.0
    return diag, off, A, rng


def factor(diag, off, bc):
    return kernels.factor_tridiagonal(diag, off, bc == "neumann")


BCS = ("dirichlet", "neumann")


@pytest.mark.parametrize("n", [3, 17, 256])
def test_thomas_matches_dense_solve(n):
    for bc in BCS:
        diag, off, A, rng = stepper_like_matrix(n, bc, n + 2)
        rhs = rng.standard_normal(n)
        kept = diag.copy()
        b = rhs.copy()  # the solve consumes its right-hand side
        x = kernels.thomas_solve(factor(diag, off, bc), b)
        assert np.shares_memory(x, b)  # solved in place
        np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=1e-10)
        np.testing.assert_array_equal(diag, kept)  # the matrix is left alone


def test_one_factorisation_serves_many_solves():
    for bc in BCS:
        diag, off, A, rng = stepper_like_matrix(64, bc, 7)
        factors = factor(diag, off, bc)
        for _ in range(5):
            rhs = rng.standard_normal(64)
            b = rhs.copy()  # the solve consumes its right-hand side
            x = kernels.thomas_solve(factors, b)
            assert np.shares_memory(x, b)  # solved in place
            np.testing.assert_allclose(A @ x, rhs, rtol=1e-12, atol=1e-12)


def test_matrix_that_is_not_positive_definite_raises():
    n = 6
    with pytest.raises(ValueError, match="not positive definite"):
        kernels.factor_tridiagonal(np.zeros(n), np.zeros(n - 1), False)
    # symmetric and nonsingular, but indefinite: the block [[1, 2], [2, 1]]
    # has eigenvalues 3 and -1, so the second pivot is negative
    diag, off = np.ones(n), np.zeros(n - 1)
    off[0] = 2.0
    assert np.linalg.det(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) != 0.0
    with pytest.raises(ValueError, match=r"not positive definite \(dpttrf info=2\)"):
        kernels.factor_tridiagonal(diag, off, False)


def test_non_finite_rhs_gives_nan_not_an_error():
    for bc in BCS:
        diag, off, _, _ = stepper_like_matrix(8, bc, 3)
        for bad in (np.inf, -np.inf, np.nan):
            rhs = np.ones(8)
            rhs[2] = bad
            x = kernels.thomas_solve(factor(diag, off, bc), rhs)
            assert not np.all(np.isfinite(x))


LINALG_DIR = os.path.dirname(lapack.__file__)


def factor_and_solve(routines, diag, off, rhs):
    dpttrf, dpttrs = routines
    d, e, info = dpttrf(diag, off)
    assert info == 0
    x, info = dpttrs(d, e, rhs)
    assert info == 0
    return d, e, x


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("n", [5, 64, 257])
def test_loaded_routines_solve_bit_for_bit_like_scipy_linalg(n, bc, monkeypatch):
    diag, off, _, rng = stepper_like_matrix(n, bc, n + 5)
    rhs = rng.standard_normal(n)
    if bc == "neumann":  # W*M and W*rhs, the doubled ends halved as the solve halves them
        diag[[0, -1]] *= 0.5
        rhs[[0, -1]] *= 0.5
    want = factor_and_solve((lapack.dpttrf, lapack.dpttrs), diag, off, rhs)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    from_file = kernels._load_pt_routines(LINALG_DIR)  # loads the extension, not the cached module
    for routines in ((kernels.dpttrf, kernels.dpttrs), from_file):
        for got, ref in zip(factor_and_solve(routines, diag, off, rhs), want):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("present", [False, True], ids=["missing", "unloadable"])
def test_loader_without_the_extension_falls_back_to_scipy_linalg(present, tmp_path, monkeypatch):
    if present:  # a file by the extension's name that is not one
        (tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"")
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    dpttrf, dpttrs = kernels._load_pt_routines(str(tmp_path))
    assert dpttrf is lapack.dpttrf and dpttrs is lapack.dpttrs
