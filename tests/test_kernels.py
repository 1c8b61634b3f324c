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


def random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1, 0, n)
    upper = rng.uniform(-1, 0, n)
    diag = 3.0 + rng.uniform(0, 1, n)  # diagonally dominant
    A = np.diag(diag)
    for i in range(1, n):
        A[i, i - 1] = lower[i]
        A[i - 1, i] = upper[i - 1]
    return lower, diag, upper, A, rng


@pytest.mark.parametrize("n", [3, 17, 256])
def test_thomas_matches_dense_solve(n):
    lower, diag, upper, A, rng = random_tridiagonal(n, n + 2)
    rhs = rng.standard_normal(n)
    x = kernels.thomas_solve(kernels.factor_tridiagonal(lower, diag, upper), rhs)
    np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=1e-10)


def test_one_factorisation_serves_many_solves():
    lower, diag, upper, A, rng = random_tridiagonal(64, 7)
    factors = kernels.factor_tridiagonal(lower, diag, upper)
    for _ in range(5):
        rhs = rng.standard_normal(64)
        kept = rhs.copy()
        x = kernels.thomas_solve(factors, rhs)
        np.testing.assert_allclose(A @ x, rhs, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(rhs, kept)  # the right-hand side is left alone


def test_singular_matrix_raises():
    n = 6
    with pytest.raises(ValueError, match="singular"):
        kernels.factor_tridiagonal(np.zeros(n), np.zeros(n), np.zeros(n))
    # two equal rows: [1 1 0 ...], [1 1 0 ...]
    lower, diag, upper = np.zeros(n), np.ones(n), np.zeros(n)
    upper[0], lower[1] = 1.0, 1.0
    with pytest.raises(ValueError, match="singular"):
        kernels.factor_tridiagonal(lower, diag, upper)


def test_non_finite_rhs_gives_nan_not_an_error():
    lower, diag, upper, _, _ = random_tridiagonal(8, 3)
    rhs = np.ones(8)
    rhs[2] = np.inf
    x = kernels.thomas_solve(kernels.factor_tridiagonal(lower, diag, upper), rhs)
    assert not np.all(np.isfinite(x))
