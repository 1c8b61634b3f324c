"""The Laplacian stencils and the tridiagonal solve against dense matrices."""

import numpy as np
import pytest

from wavestab import kernels


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


@pytest.mark.parametrize("n", [3, 17, 256])
def test_thomas_matches_dense_solve(n):
    rng = np.random.default_rng(n + 2)
    lower = rng.uniform(-1, 0, n)
    upper = rng.uniform(-1, 0, n)
    diag = 3.0 + rng.uniform(0, 1, n)  # diagonally dominant
    rhs = rng.standard_normal(n)
    A = np.diag(diag)
    for i in range(1, n):
        A[i, i - 1] = lower[i]
        A[i - 1, i] = upper[i - 1]
    x = kernels.thomas_solve(lower, diag, upper, rhs)
    np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=1e-10)
