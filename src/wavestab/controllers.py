"""Finite-parameter feedback laws and their explicit gain certificates.

Four ways to close the loop from finitely many observables, each returning
the full signed forcing term that is *added* to the acceleration:

* volume elements   -mu * sum_k ubar_k * chi_k(x)   (cell averages, Neumann)
* spectral modes    -mu * sum_{k<=N} (u, w_k) w_k    (Dirichlet sines)
* nodal sampling    -mu * sum_k h * u(xbar_k) * delta_h(x - x_k)
* subdomain         -mu * chi_omega(x) * u(x)

Each law comes with a checker that evaluates the printed sufficient gain /
resolution conditions verbatim and reports per-condition margins plus the
predicted decay rate, so a simulation can be compared against its
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .grid import BoundaryCondition, Field, Grid1D, State
from .spectral import Subdomain, complement_eigenvalue, dirichlet_eigenvalue, mode_matrix, mu_zero


# ---------------------------------------------------------------------------
# controller specifications
# ---------------------------------------------------------------------------

def _check_gain(mu: float) -> None:
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"gain must be finite and >= 0, got mu={mu}")


@dataclass(frozen=True)
class NoControl:
    """Open loop (useful as a baseline)."""

    mu: float = 0.0


@dataclass(frozen=True)
class VolumeElements:
    """Feedback from cell averages over N equal elements J_k; Neumann only."""

    N: int
    mu: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need at least one element, got N={self.N}")
        _check_gain(self.mu)


@dataclass(frozen=True)
class FourierModes:
    """Feedback from the first N Dirichlet sine modes."""

    N: int
    mu: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need at least one mode, got N={self.N}")
        _check_gain(self.mu)


@dataclass(frozen=True)
class Nodal:
    """Point observations at xbar_k actuated through discrete deltas at x_k.

    Both point families must place one point in each element
    J_k = [(k-1)h, kh), h = L/N; ``None`` means element midpoints.
    """

    N: int
    mu: float
    obs_points: Optional[tuple[float, ...]] = None
    act_points: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need at least one node, got N={self.N}")
        _check_gain(self.mu)
        for name in ("obs_points", "act_points"):
            pts = getattr(self, name)
            if pts is not None:
                pts = tuple(float(x) for x in pts)
                if len(pts) != self.N:
                    raise ValueError(f"{name} must supply exactly N={self.N} points")
                object.__setattr__(self, name, pts)

    def points(self, L: float) -> tuple[np.ndarray, np.ndarray]:
        """Resolved (obs, act) coordinates, validated against the elements."""
        h = L / self.N
        mid = (np.arange(self.N) + 0.5) * h
        obs = np.asarray(self.obs_points, dtype=float) if self.obs_points else mid
        act = np.asarray(self.act_points, dtype=float) if self.act_points else mid.copy()
        for name, pts in (("obs", obs), ("act", act)):
            lo = np.arange(self.N) * h
            hi = lo + h
            hi[-1] = L  # last element is closed at L
            inside = (pts >= lo) & ((pts < hi) | ((np.arange(self.N) == self.N - 1) & (pts <= L)))
            if not inside.all():
                k = int(np.argmin(inside))
                raise ValueError(
                    f"{name} point {pts[k]:.6g} falls outside element {k + 1} "
                    f"[{lo[k]:.6g}, {hi[k]:.6g})"
                )
        return obs, act


@dataclass(frozen=True)
class SubdomainControl:
    """Static damping -mu*u localized on an open subinterval omega."""

    omega: Subdomain
    mu: float

    def __post_init__(self):
        _check_gain(self.mu)


ControllerSpec = Union[NoControl, VolumeElements, FourierModes, Nodal, SubdomainControl]


# ---------------------------------------------------------------------------
# feedback field assembly
# ---------------------------------------------------------------------------

def element_layout(grid: Grid1D, N: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Trapezoid cell-average matrix, node->element owner map, and stride.

    Elements J_k are half-open on the left (the terminal node belongs to
    the last, closed element); N must divide n_cells so element boundaries
    sit on grid nodes and the averages are exact trapezoid integrals.
    """
    if grid.bc is not BoundaryCondition.NEUMANN:
        raise ValueError("volume-element feedback is posed with Neumann boundaries")
    if grid.n_cells % N != 0:
        raise ValueError(
            f"element count N={N} must divide n_cells={grid.n_cells} so that "
            "element boundaries fall on grid nodes"
        )
    m = grid.n_cells // N
    # trapezoid average over each element: matrix row per element
    avg = np.zeros((N, grid.n_nodes))
    for k in range(N):
        sl = slice(k * m, k * m + m + 1)
        avg[k, sl] = 1.0
        avg[k, k * m] = 0.5
        avg[k, k * m + m] = 0.5
    avg *= grid.dx / (m * grid.dx)
    # node -> element assignment (elements are half-open on the left to match
    # chi_{J_k}; the terminal node belongs to the last, closed element)
    owner = np.minimum(np.arange(grid.n_nodes) // m, N - 1)
    return avg, owner, m


def _nearest_interior_index(grid: Grid1D, x: np.ndarray) -> np.ndarray:
    """Index into the stored nodes of the full-line node nearest each x."""
    full = np.rint(x / grid.dx).astype(int)
    if grid.bc is BoundaryCondition.DIRICHLET:
        if np.any(full <= 0) or np.any(full >= grid.n_cells):
            bad = x[(full <= 0) | (full >= grid.n_cells)][0]
            raise ValueError(
                f"actuation point {bad:.6g} is nearest to a boundary node, where "
                "a Dirichlet field cannot carry a delta; move it inward or refine"
            )
        return full - 1
    return np.clip(full, 0, grid.n_cells)


def _require_dirichlet(grid: Grid1D, what: str) -> None:
    if grid.bc is not BoundaryCondition.DIRICHLET:
        raise ValueError(f"{what} feedback is posed with Dirichlet boundaries")


def _frozen_law(observe: Callable, actuate: Callable, s: np.ndarray, *held: np.ndarray):
    """The law triple, with ``s`` and the arrays its closures hold made read-only."""
    for arr in (s, *held):
        arr.flags.writeable = False
    return observe, actuate, s


@lru_cache(maxsize=16)
def _feedback_law(spec: ControllerSpec, grid: Grid1D) -> tuple[Callable, Callable, np.ndarray]:
    """The law as (observe, actuate, s), validated and built once per (spec, grid).

    ``observe(u)`` gives the finitely many observed numbers y,
    ``actuate(y, gain)`` spreads ``gain * y`` back onto the nodes, and the
    controller energy is ``1/2 * mu * sum(s * y**2)``.  Except for the nodal
    law, whose observation and actuation points differ, the actuation is
    the adjoint of the observation (weights s on y, trapezoid weights on
    the nodes), so the feedback ``actuate(observe(u), -mu)`` is minus the
    weighted gradient of that energy.  The actuation takes the gain itself
    so that each law multiplies it in where rounding matches the direct
    formula (the nodal law folds it into its ``h/dx`` scale).

    The laws are cached (both key types are frozen dataclasses), so the
    ledger's per-record energy calls cost a lookup, not a rebuild; the
    arrays they hold are read-only.
    """
    if isinstance(spec, NoControl):
        return _frozen_law(lambda u: u[:0], lambda y, gain: np.zeros(grid.n_nodes), np.zeros(0))

    if isinstance(spec, VolumeElements):
        avg, owner, m = element_layout(grid, spec.N)
        # elements on the left and right of each node; they differ only at
        # the nodes two elements share, which get the mean of both averages
        left = np.concatenate((owner[:1], owner[:-1]))

        def actuate_volume(y, gain):
            return gain * (0.5 * (y[left] + y[owner]))

        s = np.full(spec.N, m * grid.dx)
        return _frozen_law(lambda u: avg @ u, actuate_volume, s, avg, owner, left)

    if isinstance(spec, FourierModes):
        _require_dirichlet(grid, "modal")
        if spec.N >= grid.n_cells:  # mode n_cells vanishes at the nodes; higher ones alias
            raise ValueError(f"modal feedback needs N < n_cells={grid.n_cells}, got N={spec.N}")
        W = mode_matrix(grid, spec.N)
        Wq = W * grid.quad_weights
        return _frozen_law(lambda u: Wq @ u, lambda c, gain: gain * (c @ W), np.ones(spec.N), Wq)

    if isinstance(spec, Nodal):
        _require_dirichlet(grid, "nodal")
        obs, act = spec.points(grid.L)
        act_idx = _nearest_interior_index(grid, act)
        h = grid.L / spec.N
        # interpolation with the implicit zero boundary values
        xs = np.concatenate(([0.0], grid.nodes, [grid.L]))

        def observe_nodal(u):
            return np.interp(obs, xs, np.concatenate(([0.0], u, [0.0])))

        def actuate_nodal(y, gain):
            out = np.zeros(grid.n_nodes)
            np.add.at(out, act_idx, gain * h / grid.dx * y)
            return out

        return _frozen_law(observe_nodal, actuate_nodal, np.full(spec.N, h), obs, act_idx, xs)

    if isinstance(spec, SubdomainControl):
        _require_dirichlet(grid, "subdomain")
        chi = spec.omega.indicator(grid.nodes)
        s = grid.quad_weights * chi
        return _frozen_law(lambda u: u, lambda y, gain: gain * chi * y, s, chi)

    raise TypeError(f"unknown controller specification {type(spec).__name__}")


def make_control_operator(spec: ControllerSpec, grid: Grid1D) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the feedback law into an array-in/array-out closure.

    Validation (boundary type, alignment, point placement) happens once
    here; the returned closure is what a time stepper should call.
    """
    observe, actuate, _ = _feedback_law(spec, grid)
    gain = -spec.mu
    return lambda u: actuate(observe(u), gain)


def control_field(spec: ControllerSpec, state: State) -> Field:
    """The feedback forcing evaluated at the current state."""
    op = make_control_operator(spec, state.grid)
    return Field(state.grid, op(state.u.values))


def make_energy_operator(spec: ControllerSpec, grid: Grid1D) -> Callable[[np.ndarray], float]:
    """Controller's quadratic contribution to the energy ledger, as a closure."""
    observe, _, s = _feedback_law(spec, grid)
    half_mu = 0.5 * spec.mu
    return lambda u: half_mu * float(np.dot(s, observe(u) ** 2))


def controller_energy(spec: ControllerSpec, state: State) -> float:
    return make_energy_operator(spec, state.grid)(state.u.values)


# ---------------------------------------------------------------------------
# gain certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Margin:
    """One printed condition ``lhs >= rhs`` (or ``>`` when strict)."""

    name: str
    lhs: float
    rhs: float
    strict: bool = False

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def ok(self) -> bool:
        return self.slack > 0.0 if self.strict else self.slack >= 0.0


@dataclass(frozen=True)
class GainReport:
    """Outcome of evaluating a controller's sufficient conditions."""

    variant: str
    satisfied: bool
    kind: str  # "exponential" | "polynomial"
    predicted_rate: Optional[float]
    margins: tuple[Margin, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "satisfied": self.satisfied,
            "kind": self.kind,
            "predicted_rate": self.predicted_rate,
            "margins": [
                {
                    "name": m.name,
                    "lhs": m.lhs,
                    "rhs": m.rhs,
                    "slack": m.slack,
                    "strict": m.strict,
                    "ok": m.ok,
                }
                for m in self.margins
            ],
            "notes": list(self.notes),
        }


def _report(variant, kind, rate, margins, notes=()):
    return GainReport(
        variant=variant,
        satisfied=all(m.ok for m in margins),
        kind=kind,
        predicted_rate=rate,
        margins=tuple(margins),
        notes=tuple(notes),
    )


def check_volume_gains(L: float, nu: float, a: float, b: float, mu: float, N: int) -> GainReport:
    """Cell-average feedback: gain and element-resolution conditions.

    delta0 = (b/2) min(1, nu) is the certified exponential rate of the
    squared stabilization norm.  The resolution threshold uses the sharper
    printed mean-oscillation constant; a conservative reading of that
    constant doubles the required N (noted in the report).
    """
    delta0 = 0.5 * b * min(1.0, nu)
    load = a + 0.5 * delta0 * b
    margins = [
        Margin("gain", mu, 2.0 * load),
        Margin("elements", float(N) ** 2, L**2 / (2.0 * nu * np.pi**2) * load, strict=True),
    ]
    notes = (
        "conservative mean-oscillation constant would double the required "
        "element count N (threshold on N^2 x4)",
    )
    return _report("volume", "exponential", delta0, margins, notes)


def check_fourier_gains(L: float, nu: float, a: float, b: float, mu: float, N: int) -> GainReport:
    """Modal feedback on the linearly damped wave; certified rate b/2."""
    lam_next = dirichlet_eigenvalue(L, N + 1)
    margins = [
        Margin("stiffness", nu, (2.0 * a + 0.75 * b**2) / lam_next),
        Margin("gain", mu, a + 0.75 * b**2),
    ]
    return _report("fourier", "exponential", 0.5 * b, margins)


def check_nonlinear_gains(L: float, nu: float, a: float, mu: float, N: int, m: float) -> GainReport:
    """Modal feedback under nonlinear velocity damping; polynomial decay.

    The certified envelope is t^{-(m-1)/m} for the energy, reported as the
    exponent in ``predicted_rate`` with ``kind="polynomial"``.
    """
    if m <= 2.0:
        raise ValueError(f"nonlinear damping exponent must exceed 2, got {m}")
    lam_next = dirichlet_eigenvalue(L, N + 1)
    margins = [
        Margin("stiffness", nu, 2.0 * a / lam_next, strict=True),
        Margin("gain", mu, a, strict=True),
    ]
    return _report("nonlinear", "polynomial", (m - 1.0) / m, margins)


def check_nodal_gains(L: float, nu: float, a: float, b: float, mu: float, N: int) -> GainReport:
    """Point observation/actuation on the strongly damped wave.

    Three printed conditions trade the gain against the sampling width
    h = L/N; note the gain appears on the unfavorable side of the last
    two, so raising mu alone can break them.  The certified conclusion is
    qualitative (exponential decay, no explicit rate), hence
    ``predicted_rate=None``.  ``nu`` is accepted for signature symmetry;
    the printed conditions are posed at unit stiffness and do not use it.
    """
    del nu
    lam1 = dirichlet_eigenvalue(L, 1)
    h = L / N
    margins = [
        Margin("gain", mu, 4.0 * (a + lam1**2 * b**2 / 4.0), strict=True),
        Margin(
            "sampling",
            lam1 * b / 2.0 - 2.0 * h**2 * (mu / (lam1 * b) - a * lam1 * b),
            0.0,
            strict=True,
        ),
        Margin(
            "sampling_quad",
            b**2 * lam1**2 / 4.0 - a**2 * lam1**2 * b**2 * h**2 - mu * h**2,
            0.0,
            strict=True,
        ),
    ]
    return _report("nodal", "exponential", None, margins)


def check_strong_fourier_gains(
    L: float, nu: float, a: float, b: float, mu: float, N: int
) -> GainReport:
    """Modal feedback on the strongly damped wave; rate from the viscous gap."""
    lam1 = dirichlet_eigenvalue(L, 1)
    lam_next = dirichlet_eigenvalue(L, N + 1)
    delta0 = b * lam1 * nu / (2.0 * nu + b**2 * lam1)
    threshold = 2.0 * a + 0.25 * delta0 * lam1 * b
    margins = [
        Margin("gain", mu, threshold, strict=True),
        Margin("stiffness", nu, threshold / lam_next),
    ]
    return _report("strong_fourier", "exponential", delta0, margins)


def check_subdomain_gains(a: float, b: float, mu: float, omega: Subdomain, grid: Grid1D) -> GainReport:
    """Localized damping: geometric gap condition plus the gain threshold.

    The complement of omega must be spectrally stiff enough
    (lambda_1(complement) >= 4a + 3b^2/2), and the gain must exceed the
    bisection threshold mu_zero computed at half the complement gap.
    Certified rate b/2.
    """
    lam_c = complement_eigenvalue(omega)
    d = 0.5 * lam_c
    mu0 = mu_zero(omega, d, grid)
    margins = [
        Margin("complement_gap", lam_c, 4.0 * a + 1.5 * b**2),
        Margin("gain", mu, mu0, strict=True),
    ]
    notes = (f"mu_zero={mu0:.6g} at gap target d={d:.6g}",)
    return _report("subdomain", "exponential", 0.5 * b, margins, notes)
