import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from wavestab import (
    BoundaryCondition,
    Family,
    Field,
    FourierModes,
    Nodal,
    NoControl,
    SubdomainControl,
    VolumeElements,
    laplacian_stencil,
    make_control_operator,
    make_grid,
    mode_matrix,
)

L_PI = float(np.pi)
# a nodal law whose 13 observation and 13 actuation points are drawn inside their elements (numpy seed 3)
_DRAW = np.random.default_rng(3).uniform(size=(2, 13))
DISTINCT = Nodal(13, 1.0, *(tuple((np.arange(13) + row) * L_PI / 13) for row in _DRAW))


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


def min_eig_shifted(grid, chi, mu):
    """Smallest eigenvalue of -Laplacian + mu*chi on a Dirichlet grid, by scipy's eigensolver.

    An independent reference for ``spectral.mu_zero``, which tests
    definiteness by an LDL^T factorization instead of solving for eigenvalues.
    """
    inv_dx2 = 1.0 / grid.dx**2
    d = np.full(grid.n_nodes, 2.0 * inv_dx2) + mu * chi
    e = np.full(grid.n_nodes - 1, -inv_dx2)
    return float(eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0))[0])


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
    a_lin = model.a - (1.0 if model.p == 2.0 else 0.0)
    A = np.block([
        [np.zeros_like(eye), eye],
        [model.nu * stencil + a_lin * eye + feedback, model.viscosity * stencil - model.linear_damping * eye],
    ])
    return float(np.max(np.linalg.eigvals(A).real))


def one_state_observation(spec, grid):
    """The law's observation as it was written for one state ``(n,)``, before laws took blocks.

    Volume averages with a dense trapezoid matrix, Fourier with a BLAS
    matrix-vector product, nodal with ``np.interp``: the paths the block
    observations replaced, kept as references.
    """
    if isinstance(spec, NoControl):
        return lambda u: u[:0]
    if isinstance(spec, VolumeElements):
        m = grid.n_cells // spec.N
        avg = np.zeros((spec.N, grid.n_nodes))
        for k in range(spec.N):
            sl = slice(k * m, k * m + m + 1)
            avg[k, sl] = 1.0
            avg[k, k * m] = 0.5
            avg[k, k * m + m] = 0.5
        avg *= grid.dx / (m * grid.dx)
        return lambda u: avg @ u
    if isinstance(spec, FourierModes):
        Wq = mode_matrix(grid, spec.N) * grid.quad_weights
        return lambda u: Wq @ u
    if isinstance(spec, Nodal):
        obs, _ = spec.points(grid.L)
        xs = np.concatenate(([0.0], grid.nodes, [grid.L]))
        return lambda u: np.interp(obs, xs, np.concatenate(([0.0], u, [0.0])))
    if isinstance(spec, SubdomainControl):
        return lambda u: u
    raise TypeError(type(spec).__name__)


def reference_acceleration(model, grid, u, v, control):
    """v_t of the semi-discrete model, written straight from the PDEs in the ``models`` docstring.

    An independent reference for the time stepper: the Laplacian pads the
    nodal values with their ghosts (zeros beyond Dirichlet ends, reflections
    beyond Neumann ones) and takes one second difference, and the power laws
    are spelled out here, so neither ``models.source`` nor ``kernels`` is
    called.  ``control`` is the feedback's forcing, added last.
    """
    ghosts = "reflect" if grid.bc is BoundaryCondition.NEUMANN else "constant"

    def lap(w):
        padded = np.pad(w, 1, mode=ghosts)
        return (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / grid.dx**2

    p, b = model.p, model.b
    f = 0.0 if p is None else np.abs(u) ** (p - 2.0) * u
    common = model.nu * lap(u) + model.a * u - f + control
    if model.family is Family.DAMPED_WAVE:
        return common - b * v
    if model.family is Family.NONLINEAR_DAMPING:
        return common - b * np.abs(v) ** (model.m - 2.0) * v
    return common + b * lap(v)  # STRONGLY_DAMPED


def reference_solution(model, law, u0, v0, t_end):
    """(u, v) at ``t_end`` from :func:`reference_acceleration` under ``law``,
    integrated by ``solve_ivp``'s DOP853 with rtol = atol = 1e-12."""
    grid = u0.grid
    ctl = make_control_operator(law, grid)
    n = grid.n_nodes

    def rhs(t, y):
        u, v = y[:n], y[n:]
        return np.concatenate((v, reference_acceleration(model, grid, u, v, ctl(u))))

    y0 = np.concatenate((u0.values, v0.values))
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    assert sol.success, sol.message
    return sol.y[:n, -1], sol.y[n:, -1]
