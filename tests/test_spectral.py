"""Dirichlet spectrum, projections, tail bound, and the indicator-gain bisection."""

import numpy as np
import pytest

from wavestab import (
    Field,
    Subdomain,
    SubdomainControl,
    complement_eigenvalue,
    dirichlet_eigenvalue,
    integral,
    make_control_operator,
    make_grid,
    mode_matrix,
    mu_zero,
    project_modes,
    tail_bound_check,
    zeros,
)
from wavestab.spectral import MU_BISECTION_RTOL


@pytest.fixture(scope="module")
def grid():
    return make_grid(np.pi, 256, "dirichlet")


def test_eigenvalues():
    assert dirichlet_eigenvalue(np.pi, 1) == pytest.approx(1.0)
    assert dirichlet_eigenvalue(np.pi, 3) == pytest.approx(9.0)
    assert dirichlet_eigenvalue(2.0, 2) == pytest.approx(np.pi**2)


def test_modes_orthonormal_under_quadrature(grid):
    # trapezoid quadrature diagonalizes sampled sines exactly
    W = mode_matrix(grid, 8)
    gram = (W * grid.quad_weights) @ W.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_project_pure_mode(grid):
    f = Field(grid, mode_matrix(grid, 1)[0])
    np.testing.assert_allclose(project_modes(f, 5), [1, 0, 0, 0, 0], atol=1e-6)


def test_project_mixture(grid):
    W = mode_matrix(grid, 5)
    f = Field(grid, 3.0 * W[1] + 0.5 * W[4])
    np.testing.assert_allclose(project_modes(f, 5), [0, 3, 0, 0, 0.5], atol=1e-6)


def test_project_zero(grid):
    assert not project_modes(zeros(grid), 4).any()


def test_project_requires_dirichlet():
    g = make_grid(np.pi, 64, "neumann")
    with pytest.raises(ValueError):
        project_modes(zeros(g), 2)


class TestTailBound:
    def test_residual_of_low_mode_vanishes(self, grid):
        f = Field(grid, mode_matrix(grid, 1)[0])
        lhs, rhs, ok = tail_bound_check(f, 1)
        assert ok
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_third_mode_against_second_eigenvalue(self, grid):
        f = Field(grid, mode_matrix(grid, 3)[2])
        lhs, rhs, ok = tail_bound_check(f, 1)
        assert ok
        assert lhs == pytest.approx(1.0, rel=1e-3)
        assert rhs == pytest.approx(9.0 / 4.0, rel=1e-3)

    def test_random_trig_sweep(self, grid):
        W = mode_matrix(grid, 12)
        for i in range(200):
            rng = np.random.default_rng([99, i])
            f = Field(grid, rng.uniform(-1, 1, 12) @ W)
            N = int(rng.integers(1, 7))
            _, _, ok = tail_bound_check(f, N)
            assert ok


class TestComplementEigenvalue:
    @pytest.mark.parametrize(
        "L,lo,hi,expected",
        [
            (1.0, 0.4, 0.6, (np.pi / 0.4) ** 2),
            (1.0, 0.5, 0.9, (np.pi / 0.5) ** 2),
            (np.pi, np.pi / 3, 2 * np.pi / 3, 9.0),
        ],
    )
    def test_longest_component_rules(self, L, lo, hi, expected):
        grid = make_grid(L, 64, "dirichlet")
        assert complement_eigenvalue(Subdomain(lo, hi), grid) == pytest.approx(expected)

    def test_matches_dense_eigensolve(self):
        # discrete eigenvalue of the longest complement component, resolved
        L, lo, hi, n = 1.0, 0.35, 0.55, 2048
        lam = complement_eigenvalue(Subdomain(lo, hi), make_grid(L, n, "dirichlet"))
        ell = max(lo, L - hi)
        sub = make_grid(ell, n, "dirichlet")
        inv_dx2 = 1.0 / sub.dx**2
        from scipy.linalg import eigh_tridiagonal

        vals = eigh_tridiagonal(
            np.full(sub.n_nodes, 2 * inv_dx2),
            np.full(sub.n_nodes - 1, -inv_dx2),
            eigvals_only=True,
            select="i",
            select_range=(0, 0),
        )
        assert vals[0] == pytest.approx(lam, rel=1e-5)

    def test_subdomain_validation(self):
        with pytest.raises(ValueError):
            Subdomain(0.6, 0.4)
        with pytest.raises(ValueError):
            Subdomain(-0.1, 0.5)
        # the interval's right end is checked against the grid's L when the law is built
        with pytest.raises(ValueError, match="beyond the grid's L=1.0"):
            law = SubdomainControl(Subdomain(0.2, 1.3), 1.0)
            make_control_operator(law, make_grid(1.0, 64, "dirichlet"))

    def test_indicator_half_open(self):
        om = Subdomain(0.25, 0.5)
        x = np.array([0.2, 0.25, 0.4, 0.5, 0.6])
        np.testing.assert_array_equal(om.indicator(x), [0.0, 1.0, 1.0, 0.0, 0.0])


class TestMuZero:
    def test_already_satisfied_returns_zero(self):
        # d close to lambda_c - lambda_1: bare operator already clears target
        L = 1.0
        om = Subdomain(0.4, 0.6)
        g = make_grid(L, 256, "dirichlet")
        lam_c = complement_eigenvalue(om, g)
        d = lam_c - np.pi**2 * 0.5  # target 0.5*lambda_1 < lambda_1^h
        assert mu_zero(om, d, g) == 0.0

    def test_certificate_at_mu0_and_failure_below(self):
        from wavestab.spectral import _min_eig_shifted

        L = 1.0
        om = Subdomain(0.4, 0.6)
        g = make_grid(L, 512, "dirichlet")
        lam_c = complement_eigenvalue(om, g)
        d = lam_c / 2
        mu0 = mu_zero(om, d, g)
        chi = om.indicator(g.nodes)
        assert _min_eig_shifted(g, chi, mu0) >= lam_c - d
        assert _min_eig_shifted(g, chi, 0.9 * mu0) < lam_c - d
        # bisection returns the certified endpoint to relative tolerance
        assert _min_eig_shifted(g, chi, (1 - 2 * MU_BISECTION_RTOL) * mu0) < lam_c - d

    def test_monotone_in_gap(self):
        L = 1.0
        om = Subdomain(0.5, 0.9)
        g = make_grid(L, 256, "dirichlet")
        lam_c = complement_eigenvalue(om, g)
        gaps = [0.3 * lam_c, 0.5 * lam_c, 0.7 * lam_c]
        mus = [mu_zero(om, d, g) for d in gaps]
        assert mus[0] >= mus[1] >= mus[2]

    def test_rejects_bad_gap(self):
        L = 1.0
        om = Subdomain(0.5, 0.9)
        g = make_grid(L, 128, "dirichlet")
        lam_c = complement_eigenvalue(om, g)
        with pytest.raises(ValueError):
            mu_zero(om, 0.0, g)
        with pytest.raises(ValueError):
            mu_zero(om, lam_c * 1.5, g)

    def test_rejects_neumann_grid(self):
        om = Subdomain(0.5, 0.9)
        with pytest.raises(ValueError):
            mu_zero(om, 10.0, make_grid(1.0, 128, "neumann"))

    def test_unreachable_target_raises(self):
        # indicator over a sliver cannot lift the bottom eigenvalue near
        # lambda_c when the complement target is demanding
        L = 1.0
        om = Subdomain(0.998, 0.999)
        g = make_grid(L, 1000, "dirichlet")
        lam_c = complement_eigenvalue(om, g)
        with pytest.raises(ValueError, match="unreachable .* refine the grid or move omega"):
            mu_zero(om, 0.001 * lam_c, g)


def test_mode_matrix_requires_enough_modes(grid):
    with pytest.raises(ValueError):
        mode_matrix(grid, 0)


def test_mode_matrix_is_cached_and_read_only(grid):
    W = mode_matrix(grid, 6)
    assert mode_matrix(grid, 6) is W
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0] = 1.0


@pytest.mark.parametrize("L,n_cells", [(np.pi, 8), (1.0, 64), (2.5, 256), (np.pi, 2048)])
def test_mode_rows_equal_the_single_mode_formula(L, n_cells):
    # each row is bit for bit sqrt(2/L) sin(k pi x / L) evaluated on its own
    g = make_grid(L, n_cells, "dirichlet")
    W = mode_matrix(g, 18)
    for k in range(1, 19):
        row = np.sqrt(2.0 / g.L) * np.sin(k * np.pi * g.nodes / g.L)
        np.testing.assert_array_equal(W[k - 1], row)


def test_sampled_modes_have_unit_norm(grid):
    W = mode_matrix(grid, 8)
    for k in (1, 4, 8):
        assert integral(grid, W[k - 1], W[k - 1]) == pytest.approx(1.0, rel=1e-12)
