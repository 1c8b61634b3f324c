"""Wave-equation families on (0, L) and their energy bookkeeping.

Three families share the first-order form u_t = v; they differ in v_t:

* ``DAMPED_WAVE``:      v_t = nu*u_xx - b*v + a*u - f(u) + control
* ``NONLINEAR_DAMPING``: v_t = nu*u_xx - b*|v|^(m-2)*v + a*u - |u|^(p-2)*u + control
* ``STRONGLY_DAMPED``:  v_t = nu*u_xx + b*v_xx + a*u - |u|^(p-2)*u + control

The linear ``a*u`` term is destabilizing (it is what the feedback has to
beat); damping and the monotone nonlinearity dissipate.  The power-law
nonlinearity is hard-wired for the second and third family; the first
also admits f = 0.
Each right-hand side splits into linear stiff terms (the Laplacians and
the linear damping ``b*v``), which the IMEX step treats implicitly, and the
explicit :func:`source`, which it evaluates at the half step.  The tests
write these three right-hand sides out again, from the lines above, as the
reference the step is checked against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import BoundaryCondition, Grid1D, h1_seminorm_sq, integral


class Family(str, enum.Enum):
    DAMPED_WAVE = "damped_wave"
    NONLINEAR_DAMPING = "nonlinear_damping"
    STRONGLY_DAMPED = "strongly_damped"


@dataclass(frozen=True)
class Nonlinearity:
    """Monotone source term f with antiderivative F (F(0) = 0), held as its exponent.

    ``p = None`` is f = 0; a number p >= 2 is the power law
    f(u) = |u|^(p-2) u with F(u) = |u|^p / p.  Both meet the admissibility
    the certificates need: f(s)*s - F(s) >= 0 and f'(s) >= 0.
    """

    p: Optional[float] = None

    def __post_init__(self):
        if self.p is not None and not (math.isfinite(self.p) and self.p >= 2.0):
            raise ValueError(f"power law needs a finite p >= 2, got {self.p}")

    def power(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """|u|^(p-2) of a power law, written into ``out`` when it is given.

        ``**=`` keeps numpy's fast paths for its exponents, a square at p = 4.
        """
        w = np.abs(u, out=out)
        w **= self.p - 2.0
        return w

    def f(self, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(u) if self.p is None else self.power(u) * u

    def F(self, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(u) if self.p is None else np.abs(u) ** self.p / self.p


@dataclass(frozen=True)
class ModelSpec:
    """One concrete PDE instance: family + coefficients + boundary type."""

    family: Family
    nu: float
    a: float
    b: float
    bc: BoundaryCondition
    nonlinearity: Nonlinearity
    m: Optional[float] = None  # damping exponent, NONLINEAR_DAMPING only

    def __post_init__(self):
        for name in ("nu", "a", "b", "m"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite, got {value}")
        if self.nu <= 0.0:
            raise ValueError(f"diffusion coefficient nu must be > 0, got {self.nu}")
        if self.a < 0.0:
            raise ValueError(f"destabilizing coefficient a must be >= 0, got {self.a}")
        if self.family is Family.DAMPED_WAVE:
            # b = 0 (no damping at all) is a legitimate conservation test case
            # for this family only; the stabilization theory itself needs b > 0.
            if self.b < 0.0:
                raise ValueError(f"damping coefficient b must be >= 0, got {self.b}")
        else:
            if self.bc is not BoundaryCondition.DIRICHLET:
                raise ValueError(f"{self.family.value} is posed with Dirichlet boundaries")
            if self.nonlinearity.p is None:
                raise ValueError(f"{self.family.value} hard-wires a power-law source")
            if self.b <= 0.0:
                raise ValueError(f"damping coefficient b must be > 0, got {self.b}")
        if self.family is Family.NONLINEAR_DAMPING:
            if self.m is None or self.m <= 2.0:
                raise ValueError(f"nonlinear damping needs exponent m > 2, got {self.m}")
        elif self.m is not None:
            raise ValueError("damping exponent m only applies to nonlinear damping")

    @property
    def linear_damping(self) -> float:
        """Coefficient c of the linear damping term -c*v (b for the damped wave)."""
        return self.b if self.family is Family.DAMPED_WAVE else 0.0

    @property
    def viscosity(self) -> float:
        """Coefficient beta of the viscous term beta*v_xx (b for the strongly damped wave)."""
        return self.b if self.family is Family.STRONGLY_DAMPED else 0.0


def damped_wave(
    nu: float,
    a: float,
    b: float,
    bc: BoundaryCondition | str,
    nonlinearity: Nonlinearity | None = None,
) -> ModelSpec:
    if isinstance(bc, str):
        bc = BoundaryCondition(bc)
    nl = nonlinearity if nonlinearity is not None else Nonlinearity()
    return ModelSpec(Family.DAMPED_WAVE, nu, a, b, bc, nl)


def nonlinear_damping_wave(nu: float, a: float, b: float, m: float, p: float) -> ModelSpec:
    return ModelSpec(
        Family.NONLINEAR_DAMPING,
        nu,
        a,
        b,
        BoundaryCondition.DIRICHLET,
        Nonlinearity(p),
        m=m,
    )


def strongly_damped_wave(nu: float, a: float, b: float, p: float) -> ModelSpec:
    return ModelSpec(
        Family.STRONGLY_DAMPED,
        nu,
        a,
        b,
        BoundaryCondition.DIRICHLET,
        Nonlinearity(p),
    )


def source(
    model: ModelSpec,
    u: np.ndarray,
    v: np.ndarray,
    base: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Explicit source terms of v_t: a*u - f(u), less b*|v|^(m-2)*v for nonlinear damping.

    a*u - f(u) is written as u*(a - |u|^(p-2)) (a*u when f = 0), then
    ``base`` is added, in one fixed summation order: the IMEX step passes
    the stiff term nu*u_xx.  The sum is written into ``out``, an array
    shaped like ``u`` that aliases neither ``u``, ``v`` nor ``base``, when
    it is given: a time step passes one from its workspace, and the terms
    of every family but nonlinear damping then take no temporary array.
    """
    nl = model.nonlinearity
    if nl.p is None:
        s = np.multiply(model.a, u, out=out)
    else:
        s = nl.power(u, out=out)
        np.subtract(model.a, s, out=s)
        s *= u
    if base is not None:
        s += base
    if model.family is Family.NONLINEAR_DAMPING:
        s -= model.b * np.abs(v) ** (model.m - 2.0) * v
    return s


# The energy ledger's columns: the record's time, the energy terms with
# total = kinetic + grad + quadratic + lp + controller, stab_norm =
# ||v||^2 + ||u_x||^2 (the quantity the decay certificates control), and
# the pair's perturbed energy, a column only when the pair has one.
LEDGER_COLUMNS = (
    "t", "kinetic", "grad", "quadratic", "lp", "controller", "total", "stab_norm", "lyapunov",
)


def ledger_column(ledger: np.ndarray, name: str) -> np.ndarray:
    """The column of a ledger (one row per record) named in :data:`LEDGER_COLUMNS`."""
    return ledger[:, LEDGER_COLUMNS.index(name)]


def energy_record(
    model: ModelSpec, grid: Grid1D, u: np.ndarray, v: np.ndarray, controller: float | np.ndarray
) -> np.ndarray:
    """The energy ledger of nodal arrays, each norm computed once.

    The rows are the ledger's columns from ``kinetic`` to ``stab_norm``,
    then the three norms a perturbed energy weighs: |u|_H1^2, ||u||^2 and
    (u, v).  ``u`` and ``v`` are ``(n,)`` for one state or ``(K, n)`` for a
    block of K states, one per row; each row of the result is then a number
    or a length-K row.  ``controller`` is the controller's quadratic energy
    (see ``controllers.make_energy_operator``), of the same shape as a row.
    Each norm is one :func:`grid.integral` of its two factors, a pass over
    the block with no temporary; ``lp`` integrates F(u) as (f(u), u)/p.
    A state gets the same numbers, bit for bit, alone or in a block.
    """
    vv = integral(grid, v, v)
    uu = integral(grid, u, u)
    h1 = h1_seminorm_sq(grid, u)
    kin = 0.5 * vv
    grad = 0.5 * model.nu * h1
    quad = -0.5 * model.a * uu
    nl = model.nonlinearity
    lp = np.zeros(np.shape(vv)) if nl.p is None else integral(grid, nl.f(u), u) / nl.p
    total = kin + grad + quad + lp + controller
    return np.array([kin, grad, quad, lp, controller, total, vv + h1, h1, uu, integral(grid, u, v)])
