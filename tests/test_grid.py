"""Grid construction, quadrature, norms, and the discrete Laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestab import (
    BoundaryCondition,
    Field,
    h1_seminorm_sq,
    integral,
    laplacian_stencil,
    make_grid,
    zeros,
)

from wavestab import kernels

from conftest import random_trig_field


class TestMakeGrid:
    def test_dirichlet_nodes_are_interior(self):
        g = make_grid(np.pi, 100, "dirichlet")
        assert g.n_nodes == 99
        np.testing.assert_allclose(g.nodes, np.arange(1, 100) * np.pi / 100)

    def test_neumann_nodes_include_endpoints(self):
        g = make_grid(1.0, 10, "neumann")
        assert g.n_nodes == 11
        np.testing.assert_allclose(g.nodes, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize(
        "L,n",
        [(-1.0, 10), (0.0, 10), (np.inf, 10), (1.0, 3), (1.0, 0), (1.0, -4)],
    )
    def test_rejects_bad_domain(self, L, n):
        with pytest.raises(ValueError):
            make_grid(L, n, "dirichlet")

    def test_rejects_unknown_bc(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 10, "periodic")

    def test_nodes_are_read_only(self):
        g = make_grid(1.0, 10, "neumann")
        with pytest.raises(ValueError):
            g.nodes[0] = 99.0


class TestQuadrature:
    def test_neumann_weights_sum_to_length(self):
        g = make_grid(2.5, 64, "neumann")
        assert np.sum(g.quad_weights) == pytest.approx(2.5)

    def test_dirichlet_weights_omit_boundary_cells(self):
        # trapezoid with the two zero boundary values folded in
        g = make_grid(2.5, 64, "dirichlet")
        assert np.sum(g.quad_weights) == pytest.approx(2.5 - g.dx)

    def test_neumann_endpoint_weights_halved(self):
        g = make_grid(1.0, 10, "neumann")
        assert g.quad_weights[0] == pytest.approx(g.dx / 2)
        assert g.quad_weights[-1] == pytest.approx(g.dx / 2)
        np.testing.assert_allclose(g.quad_weights[1:-1], g.dx)

    def test_sine_squared_integrates_exactly(self):
        # trapezoid is exact for sin^2(kx) on (0, pi) by discrete orthogonality
        g = make_grid(np.pi, 400, "dirichlet")
        f = np.sin(g.nodes)
        assert integral(g, f, f) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_ramp_norms(self):
        g = make_grid(1.0, 400, "neumann")
        f = g.nodes
        assert integral(g, f, f) == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert h1_seminorm_sq(g, f) == pytest.approx(1.0, abs=1e-3)

    def test_zero_field_has_zero_norms(self, dirichlet_grid):
        z = zeros(dirichlet_grid).values
        assert integral(dirichlet_grid, z, z) == 0.0
        assert h1_seminorm_sq(dirichlet_grid, z) == 0.0


@given(scale=st.floats(-8.0, 8.0, allow_nan=False), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_norm_homogeneity(scale, seed):
    g = make_grid(np.pi, 64, "neumann")
    f = random_trig_field(g, np.random.default_rng(seed), degree=6).values
    scaled = scale * f
    square = scale * scale
    assert integral(g, scaled, scaled) == pytest.approx(square * integral(g, f, f), rel=1e-9, abs=1e-12)
    assert h1_seminorm_sq(g, scaled) == pytest.approx(square * h1_seminorm_sq(g, f), rel=1e-9, abs=1e-12)


def laplacian(f):
    """The grid's Laplacian stencil applied to a field, as a field."""
    return Field(f.grid, laplacian_stencil(f.grid.bc)(f.values, f.grid.dx))


class TestLaplacian:
    def test_constant_on_neumann_is_flat(self):
        g = make_grid(np.pi, 64, "neumann")
        out = laplacian(Field(g, np.full(g.n_nodes, 3.7)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_dirichlet_eigenfunction(self):
        g = make_grid(np.pi, 200, "dirichlet")
        f = Field(g, np.sin(g.nodes))
        out = laplacian(f)
        assert np.max(np.abs(out.values + f.values)) <= 1e-3

    def test_neumann_eigenfunction(self):
        L = 2.0
        g = make_grid(L, 400, "neumann")
        f = Field(g, np.cos(np.pi * g.nodes / L))
        out = laplacian(f)
        expected = -((np.pi / L) ** 2) * f.values
        assert np.max(np.abs(out.values - expected)) <= 2e-4

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_self_adjoint(self, bc):
        g = make_grid(np.pi, 96, bc)
        rng = np.random.default_rng(11)
        f = Field(g, rng.standard_normal(g.n_nodes))
        h = Field(g, rng.standard_normal(g.n_nodes))
        assert integral(g, laplacian(f).values, h.values) == pytest.approx(
            integral(g, f.values, laplacian(h).values), rel=1e-10
        )

    def test_seminorm_is_laplacian_quadratic_form(self):
        # h1_seminorm_sq(f) == (-lap f, f) exactly: one first difference per
        # cell with zero Dirichlet ghosts. This identity is what makes the
        # undamped Crank-Nicolson step conserve the discrete energy.
        g = make_grid(np.pi, 64, "dirichlet")
        f = random_trig_field(g, np.random.default_rng(3)).values
        lap = laplacian_stencil(g.bc)(f, g.dx)
        assert h1_seminorm_sq(g, f) == pytest.approx(-integral(g, lap, f), rel=1e-12)

    def test_stencil_is_read_from_kernels(self, monkeypatch):
        # a wrapper set on the kernels module sees every stepper built afterwards
        for bc, name in ((BoundaryCondition.DIRICHLET, "laplacian_dirichlet"),
                         (BoundaryCondition.NEUMANN, "laplacian_neumann")):
            assert laplacian_stencil(bc) is getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda values, dx: values)
            assert laplacian_stencil(bc) is getattr(kernels, name)


class TestFieldState:
    def test_field_rejects_wrong_shape(self, neumann_grid):
        with pytest.raises(ValueError):
            Field(neumann_grid, np.zeros(7))

    def test_field_rejects_non_finite(self, neumann_grid):
        vals = np.zeros(neumann_grid.n_nodes)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field(neumann_grid, vals)

    def test_field_values_read_only(self, neumann_grid):
        f = zeros(neumann_grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_seminorm_counts_one_difference_per_cell(self):
        # a unit spike at one node: two cells change, on either boundary type,
        # and on Dirichlet grids the end node's outer cell ends at zero
        for bc in ("dirichlet", "neumann"):
            g = make_grid(1.0, 16, bc)
            spike = np.zeros((2, g.n_nodes))
            spike[0, 3] = spike[1, 0] = 1.0
            edge = 2.0 if bc == "dirichlet" else 1.0
            np.testing.assert_array_equal(h1_seminorm_sq(g, spike), np.array([2.0, edge]) / g.dx)
