"""Time integration and the perturbed-energy (Lyapunov) functional.

Every run takes the one time stepper, an IMEX Crank--Nicolson step: the
linear stiff terms (nu*u_xx, the viscous b*v_xx, and linear damping b*v)
are advanced with the trapezoidal rule, while the source terms (a*u, the
monotone nonlinearity, nonlinear velocity damping, and the feedback) are
evaluated explicitly at the half step.  Eliminating the displacement
update leaves one tridiagonal solve per step, and rearranging the
trapezoid's right-hand side around the solve's own matrix (see
:class:`_ImexStepper`) leaves one stencil of u per step, the same scheme
in exact arithmetic.  The matrix depends only on
dt, nu, b and the boundary type, so it is factored once per run as LDL^T
(LAPACK ``dpttrf``) and each step substitutes (``dpttrs``).  It is
symmetric positive definite once its two Neumann end rows are halved,
because the discrete Laplacian is self-adjoint under the trapezoid
weights, which are one half at the ends.  On the undamped linear wave the
scheme reduces to plain Crank--Nicolson and conserves the discrete energy
to round-off, because the discrete Laplacian is exactly self-adjoint under
the trapezoid weights and the H1 seminorm is its associated quadratic
form.  Each step's work is one stencil of u, one solve, one evaluation of
the feedback (two for nonlinear damping, whose predictor needs its own),
the explicit terms written into a workspace built with the stepper, and a
sum-of-squares screen of the new state; the solve works in place, so a
step allocates little besides the new state it returns.  The feedback is
the law's observation of the state, actuated (see
``controllers.feedback_law``).  The tests check the step at order 2
against a ``scipy.integrate.solve_ivp`` reference of the same semi-discrete
system, written independently, on every family.

The loop records the energy ledger a block of states at a time: each norm
of :func:`energy_record`, and the controller energy, is one pass over the
block, and a record holds the numbers its state gets alone, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .controllers import (
    ControllerSpec,
    certificate,
    controller_energy,
    make_control_operator,
    make_energy_operator,
)
from .grid import BoundaryCondition, Field, Grid1D, laplacian_stencil
from .models import LEDGER_COLUMNS, ModelSpec, energy_record, source

BLOWUP_LIMIT = 1.0e12
# max^2 <= the sum of squares, so a sum of squares within this passes no node
# above BLOWUP_LIMIT: the 1/4 absorbs the sum's rounding
_SCREEN_LIMIT = 0.25 * BLOWUP_LIMIT**2


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters.

    ``record_every`` controls energy-ledger cadence in steps; the initial
    state and the final step are always recorded (:attr:`record_steps`).
    ``dt`` must divide ``t_end`` (to 1e-9 relative), so a run takes
    ``n_steps`` equal steps and ends at ``t_end``; there is no partial last step.
    """

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.t_end > 0.0 and self.dt > self.t_end:
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end/dt = {self.t_end}/{self.dt} overflows: the step count must be finite")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"dt={self.dt} does not divide t_end={self.t_end}; the nearest dt "
                f"that does is {self.t_end / self.n_steps!r}"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt) if self.t_end > 0.0 else 0

    @property
    def record_steps(self) -> np.ndarray:
        """The steps a run records: 0, each multiple of ``record_every``, and ``n_steps``."""
        return np.append(np.arange(0, self.n_steps, self.record_every), self.n_steps)


def default_dt(grid: Grid1D) -> float:
    """Desk-scale default: min(0.25*dx, 1e-2)."""
    return min(0.25 * grid.dx, 1.0e-2)


# nodal values each of the loop's two record buffers holds (128 KB); a block
# of records is that many over the node count, so it stays small on fine grids
LEDGER_BLOCK_VALUES = 1 << 14


@dataclass
class RunResult:
    """One trajectory's energy ledger, last state and blow-up bookkeeping.

    ``ledger`` has one row per record and ``models.LEDGER_COLUMNS``'s
    columns, without ``lyapunov`` when the (law, family) pair has no
    perturbed-energy functional.  ``u`` and ``v`` are the nodal values of
    the last state the run reached, the last good one after a blow-up,
    and ``t`` is its time.
    """

    ledger: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float
    blowup_time: Optional[float] = None
    ledger_seconds: float = 0.0  # wall time spent evaluating the ledger
    setup_seconds: float = 0.0  # wall time before the first step: operators and factorization

    @property
    def blew_up(self) -> bool:
        return self.blowup_time is not None


# ---------------------------------------------------------------------------
# the IMEX step
# ---------------------------------------------------------------------------

class _ImexStepper:
    """One assembled IMEX Crank--Nicolson update u,v -> u,v.

    With s = 1 + (dt/2)*c, kappa = (dt/2)*beta + (dt^2/4)*nu and
    M = s*I - kappa*Lap_h, the step is u* = u + (dt/2)*v,
    v_new = M^-1 (2v + dt*(nu*Lap_h u + g)) - v and
    u_new = u* + (dt/2)*v_new, with g the source and feedback at u*.
    This is the trapezoid on every stiff term, rearranged: the trapezoid's
    right-hand side (1 - (dt/2)*c)*v + dt*g + (dt*nu/2)*Lap_h(u + u*)
    + (dt*beta/2)*Lap_h v equals 2v - M*v + dt*(nu*Lap_h u + g), because
    u + u* = 2u + (dt/2)*v, so in exact arithmetic it is the same scheme,
    and each step takes one stencil of u and none of v on every family.
    The nonlinear-damping predictor reuses nu*Lap_h u, which the stencil
    returns without a pass of its own: it divides by its spacing squared,
    and is given the spacing dx/sqrt(nu).

    :meth:`advance` returns a fresh new u and v.  Its intermediate arrays
    live in a workspace built once and overwritten in place at each step;
    the solve consumes a right-hand side built fresh at each step, and its
    result becomes v_new.
    """

    def __init__(self, model: ModelSpec, grid: Grid1D, dt: float, ctl: Callable):
        self.model = model
        self.grid = grid
        self.dt = dt
        self.ctl = ctl
        self.lap = laplacian_stencil(grid.bc)
        self.half_dt = 0.5 * dt
        self.nu_dx = grid.dx / math.sqrt(model.nu)  # the stencil's spacing for nu*Lap_h
        kappa = 0.5 * dt * model.viscosity + 0.25 * dt * dt * model.nu
        inv_dx2 = 1.0 / grid.dx**2
        n = grid.n_nodes
        s = 1.0 + 0.5 * dt * model.linear_damping
        diag = np.full(n, s + 2.0 * kappa * inv_dx2)
        off = np.full(n - 1, -kappa * inv_dx2)
        # the matrix is fixed for the run: factor once, substitute per step;
        # reflected Neumann ghosts double the coupling at both ends
        doubled_ends = grid.bc is BoundaryCondition.NEUMANN
        self.factors = kernels.factor_tridiagonal(diag, off, doubled_ends)
        # the workspace: u_star and the explicit term
        self.u_star, self.g = np.empty((2, n))

    def advance(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # ``out`` goes by position and the fresh arrays by operator: a
        # keyword or an ``np.*`` call costs more dispatch than the arithmetic
        mdl, half_dt = self.model, self.half_dt
        u_star, g = self.u_star, self.g
        np.multiply(v, half_dt, u_star)
        u_star += u
        nu_lap_u = self.lap(u, self.nu_dx)
        v_half = v
        if mdl.m is not None:
            # only nonlinear damping reads v: predict it at the half step
            v_half = v + half_dt * (source(mdl, u, v, nu_lap_u) + self.ctl(u))
        source(mdl, u_star, v_half, nu_lap_u, g)
        g += self.ctl(u_star)
        g *= self.dt
        rhs = v + v
        rhs += g
        v_new = kernels.thomas_solve(self.factors, rhs)
        v_new -= v
        u_new = v_new * half_dt
        u_new += u_star
        return u_new, v_new


# ---------------------------------------------------------------------------
# the perturbed energy
# ---------------------------------------------------------------------------

def lyapunov_eb(
    model: ModelSpec, ctrl: ControllerSpec, grid: Grid1D, u: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Phi = 1/2||v||^2 + grad/2||u_x||^2 + quad||u||^2 + int F(u) + E_ctrl(u) + eps*(u, v),
    weighted as ``controllers.CERTIFIED`` says; a pair with no functional is a TypeError.

    ``u`` is one state's displacement, ``(n,)``, or a block of them,
    ``(K, n)``, and ``rows`` are the rows :func:`energy_record` computed for
    them, whose norms are reused; Phi is then a number or a length-K row.
    The controller energy is evaluated again here, although ``rows[4]``
    holds it: perfbench's layer tracer patches :func:`controller_energy`
    and counts this call, so it stays until the benchmark stops patching
    library internals (ROADMAP, "Unpin the benchmark from library
    internals").
    """
    cert = certificate(model, ctrl)
    if cert is None or cert.weights is None:
        pair = f"{type(ctrl).__name__} feedback on the {model.family.value} family"
        raise TypeError(f"no certified functional for {pair}")
    eps, grad, quad = cert.weights(model, grid)
    kin, _, _, lp, _, _, _, h1_sq, l2_sq, cross = rows
    return (
        kin
        + 0.5 * grad * h1_sq
        + quad * l2_sq
        + lp
        + controller_energy(ctrl, grid, u)
        + eps * cross
    )


# kept as an alias: perfbench's layer tracer getattr()s both names at install
lyapunov_volume = lyapunov_eb


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

def _within_limit(u: np.ndarray, v: np.ndarray) -> bool:
    """True when every node of u and v is finite and at most BLOWUP_LIMIT in magnitude.

    The exact test.  :func:`run` screens each state's sum of squares first,
    as it is cheaper than two maxima, and calls this only for a state that
    fails the screen.
    """
    return bool(abs(u).max() <= BLOWUP_LIMIT and abs(v).max() <= BLOWUP_LIMIT)


def run(
    model: ModelSpec,
    ctrl: ControllerSpec,
    u0: Field,
    u1: Field,
    cfg: StepperConfig,
) -> RunResult:
    """Integrate from (u0, u1) to t_end, sampling the energy ledger.

    Each record carries the perturbed energy of the (law, family) pair's
    certificate, when it has one (see ``controllers.CERTIFIED``).  The loop copies each
    recorded state into a block buffer and evaluates the ledger of a full
    block in one pass over its rows, so each norm costs one array operation
    per block, not per record, and each record still gets the numbers its
    state gets alone (see :func:`energy_record`).  Blow-up (any nodal magnitude
    above 1e12, or non-finite values) aborts the loop and is reported
    through ``RunResult.blowup_time``; the records collected so far are
    kept.  Identical inputs produce bit-identical trajectories.
    """
    t_setup = time.perf_counter()
    if u0.grid != u1.grid:
        raise ValueError("u0 and u1 live on different grids")
    grid = u0.grid
    if grid.bc is not model.bc:
        raise ValueError(
            f"model is posed with {model.bc.value} boundaries, grid has {grid.bc.value}"
        )
    ctl = make_control_operator(ctrl, grid)
    energy_op = make_energy_operator(ctrl, grid)
    stepper = _ImexStepper(model, grid, cfg.dt, ctl)
    cert = certificate(model, ctrl)
    has_functional = cert is not None and cert.weights is not None

    record_steps = cfg.record_steps
    record_at = record_steps.tolist()  # as ints, so the per-step test indexes no array
    n_records = len(record_at)
    n_energy = len(LEDGER_COLUMNS) - 2  # the columns between t and lyapunov
    ledger = np.empty((n_records, 1 + n_energy + has_functional))
    width = max(1, min(n_records, LEDGER_BLOCK_VALUES // grid.n_nodes))
    # one recorded state per row, so each copy is contiguous
    us, vs = np.empty((width, grid.n_nodes)), np.empty((width, grid.n_nodes))
    done = 0  # ledger rows written
    ledger_s = 0.0  # seconds spent in flush()

    def flush(k: int) -> None:
        """Write the ledger rows of the first k buffered records, and time them."""
        nonlocal done, ledger_s
        t0 = time.perf_counter()
        u, v = us[:k], vs[:k]
        rows = energy_record(model, grid, u, v, energy_op(u))
        out = ledger[done:done + k]
        out[:, 0] = record_steps[done:done + k] * cfg.dt
        out[:, 1:1 + n_energy] = rows[:n_energy].T  # energy_record's first rows are those columns
        if has_functional:
            out[:, -1] = lyapunov_eb(model, ctrl, grid, u, rows)
        done += k
        ledger_s += time.perf_counter() - t0

    u = u0.values.copy()
    v = u1.values.copy()
    us[0], vs[0] = u, v
    held = 1  # records in the buffers
    blowup_time = None
    t = 0.0
    setup_s = time.perf_counter() - t_setup
    for k in range(1, cfg.n_steps + 1):
        # looked up at each step, not bound once: a caller may swap the method
        u_new, v_new = stepper.advance(u, v)
        t_new = k * cfg.dt
        # the sum-of-squares screen; NaN, and a square that overflows to inf,
        # fail it and reach the exact test.  The method dot is the same BLAS
        # ddot as np.dot and @, bit for bit, without numpy's function dispatch
        if not u_new.dot(u_new) + v_new.dot(v_new) <= _SCREEN_LIMIT and not _within_limit(u_new, v_new):
            # the aborting step may hold non-finite values; keep the last good state
            blowup_time = t_new
            break
        u, v, t = u_new, v_new, t_new
        if k == record_at[done + held]:  # the next record's step
            if held == width:
                flush(held)
                held = 0
            us[held], vs[held] = u, v
            held += 1
    flush(held)
    return RunResult(ledger[:done], u, v, t, blowup_time, ledger_s, setup_s)
