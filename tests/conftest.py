import numpy as np
import pytest

from wavestab import BoundaryCondition, Field, State, laplacian_stencil, make_control_operator, make_grid

L_PI = float(np.pi)


@pytest.fixture
def neumann_grid():
    return make_grid(L_PI, 128, BoundaryCondition.NEUMANN)


@pytest.fixture
def dirichlet_grid():
    return make_grid(L_PI, 128, BoundaryCondition.DIRICHLET)


def random_trig_field(grid, rng, degree=12):
    """Trigonometric polynomial with uniform[-1,1] coefficients.

    Dirichlet grids get sines only so the boundary values stay exactly zero.
    """
    x = grid.nodes
    vals = np.zeros_like(x)
    if grid.bc is BoundaryCondition.NEUMANN:
        vals += rng.uniform(-1.0, 1.0)
    for j in range(1, degree + 1):
        vals += rng.uniform(-1.0, 1.0) * np.sin(j * np.pi * x / grid.L)
        if grid.bc is BoundaryCondition.NEUMANN:
            vals += rng.uniform(-1.0, 1.0) * np.cos(j * np.pi * x / grid.L)
    return Field(grid, vals)


def random_state(grid, rng, degree=12):
    return State(random_trig_field(grid, rng, degree), random_trig_field(grid, rng, degree))


def closed_loop_abscissa(model, ctrl, grid):
    """Largest real part of the spectrum of the discretized closed loop, linearized at zero.

    The stencil's and the feedback's matrices are their images of the unit
    vectors.  Linearizing replaces a by a - f'(0): f'(0) is 1 for the power
    law at p = 2 and 0 for f = 0 or p > 2.
    """
    eye = np.eye(grid.n_nodes)
    lap = laplacian_stencil(grid.bc)
    ctl = make_control_operator(ctrl, grid)
    stencil = np.column_stack([lap(e, grid.dx) for e in eye])
    feedback = np.column_stack([ctl(e) for e in eye])
    a_lin = model.a - (1.0 if model.nonlinearity.p == 2.0 else 0.0)
    A = np.block([
        [np.zeros_like(eye), eye],
        [model.nu * stencil + a_lin * eye + feedback, model.viscosity * stencil - model.linear_damping * eye],
    ])
    return float(np.max(np.linalg.eigvals(A).real))
