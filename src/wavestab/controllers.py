"""Finite-parameter feedback laws and their explicit gain certificates.

Four ways to close the loop from finitely many observables, each returning
the full signed forcing term that is *added* to the acceleration:

* volume elements   -mu * sum_k ubar_k * chi_k(x)   (cell averages, Neumann)
* spectral modes    -mu * sum_{k<=N} (u, w_k) w_k    (Dirichlet sines)
* nodal sampling    -mu * sum_k h * u(xbar_k) * delta_h(x - x_k)
* subdomain         -mu * chi_omega(x) * u(x)

Each law comes with a checker that evaluates the printed sufficient gain /
resolution conditions (those printed at unit stiffness on the problem
rescaled to nu = 1) and reports per-condition margins plus the predicted
decay rate, so a simulation can be compared against its certificate.
:data:`CERTIFIED` pairs each (law, family) pair the paper proves with its
checker and the weights of its perturbed-energy functional, if it has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .grid import BoundaryCondition, Grid1D
from .models import Family, ModelSpec
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
    :func:`feedback_law` resolves and checks them on the grid's L.
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

def element_layout(grid: Grid1D, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Trapezoid cell-average weights and segment bounds, node->element owner map, and stride.

    Elements J_k are half-open on the left (the terminal node belongs to
    the last, closed element); N must divide n_cells so element boundaries
    sit on grid nodes and the averages are exact trapezoid integrals.  The
    averages are :func:`element_averages` of ``weights`` and ``bounds``.
    """
    if grid.bc is not BoundaryCondition.NEUMANN:
        raise ValueError("volume-element feedback is posed with Neumann boundaries")
    if grid.n_cells % N != 0:
        raise ValueError(
            f"element count N={N} must divide n_cells={grid.n_cells} so that "
            "element boundaries fall on grid nodes"
        )
    m = grid.n_cells // N
    weights = np.full(grid.n_nodes, grid.dx / (m * grid.dx))
    weights[::m] *= 0.5
    starts = np.arange(N) * m
    bounds = np.stack((starts, starts + m + 1), axis=-1).ravel()[:-1]
    # node -> element assignment (elements are half-open on the left to match
    # chi_{J_k}; the terminal node belongs to the last, closed element)
    owner = np.minimum(np.arange(grid.n_nodes) // m, N - 1)
    return weights, bounds, owner, m


def element_averages(weights: np.ndarray, bounds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The element averages of nodal values ``u`` along the last axis, O(n) per state.

    ``weights`` are the trapezoid weights over the element width, halved at
    each shared node, and ``bounds`` pairs each element's first node with
    the node past its right end (the last segment runs to the end), as
    :func:`element_layout` builds them.  The odd segments, one shared node
    each, are dropped.  A row of a ``(K, n)`` block gets the same numbers,
    bit for bit, as the row alone.
    """
    return np.add.reduceat(weights * u, bounds, axis=-1)[..., ::2]


def _interpolation(grid: Grid1D, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi, w_lo, w_hi): u(x) = w_lo * u[lo] + w_hi * u[hi] on a Dirichlet grid's stored nodes.

    The full line's end nodes hold the implicit zero boundary values, so a
    weight on one is zero (and its index is clamped to a stored node).
    """
    xs = np.concatenate(([0.0], grid.nodes, [grid.L]))  # stored node j is full node j + 1
    cell = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, grid.n_cells - 1)
    frac = (x - xs[cell]) / (xs[cell + 1] - xs[cell])
    lo, hi = cell - 1, cell
    w_lo = np.where(lo >= 0, 1.0 - frac, 0.0)
    w_hi = np.where(hi < grid.n_nodes, frac, 0.0)
    return np.maximum(lo, 0), np.minimum(hi, grid.n_nodes - 1), w_lo, w_hi


def _require_dirichlet(grid: Grid1D, what: str) -> None:
    if grid.bc is not BoundaryCondition.DIRICHLET:
        raise ValueError(f"{what} feedback is posed with Dirichlet boundaries")


class FeedbackLaw(NamedTuple):
    """A law as :func:`feedback_law` builds it."""

    observe: Callable  # nodal values, of one state or a block, to y
    actuate: Callable  # one state's y to the nodal forcing -mu * A y
    s: np.ndarray  # the weights of the controller energy
    adjoint: bool  # whether actuate is the adjoint of observe
    stiffness: float  # lambda: the largest eigenvalue of mu * AC, its largest real part for a nodal law


def _frozen_law(
    observe: Callable, actuate: Callable, s: np.ndarray, stiffness: float, *held: np.ndarray, adjoint: bool = True
) -> FeedbackLaw:
    """The law, with ``s`` and the arrays its closures hold made read-only."""
    for arr in (s, *held):
        arr.flags.writeable = False
    return FeedbackLaw(observe, actuate, s, adjoint, stiffness)


@cache
def feedback_law(spec: ControllerSpec, grid: Grid1D) -> FeedbackLaw:
    """The law as (observe, actuate, s, adjoint, stiffness), validated and built once per (controller, grid).

    ``observe(u)`` gives the finitely many observed numbers y along the
    last axis, of one state ``(n,)`` or a block ``(K, n)``, each row of a
    block bit for bit as that row alone; ``actuate(y)`` is ``-mu * A y``,
    which spreads y back onto the nodes with -mu folded once into the law's
    arrays: the modal matrix, the subdomain's indicator, the nodal ``h/dx``
    scale, or the element values before their two gathers.  The controller
    energy is ``1/2 * mu * sum(s * y**2)``.  ``adjoint`` says whether the
    actuation is the adjoint of the observation (weights s on y, trapezoid
    weights on the nodes), so that the feedback ``actuate(observe(u))`` is
    minus the weighted gradient of that energy.  Every law's is, except a
    nodal law's whose resolved observation and actuation points differ: it
    interpolates at its observation points and actuates with that
    interpolation's transpose at its actuation points.  ``stiffness`` is
    lambda, the largest eigenvalue of the feedback's stiffness mu * AC: mu
    for the modal, volume and subdomain laws, whose AC has largest
    eigenvalue 1, and 0 with no control.  For a nodal law mu * AC has the
    nonzero eigenvalues of the N x N matrix whose k-th row is
    ``-observe(actuate(e_k))``, and lambda is their largest real part.

    Every law built is kept, so a sweep builds each member's law once and the
    ledger's energy is a lookup; the arrays a shared law holds are read-only.
    """
    if isinstance(spec, NoControl):
        return _frozen_law(lambda u: u[..., :0], lambda y: np.zeros(grid.n_nodes), np.zeros(0), 0.0)

    if isinstance(spec, VolumeElements):
        weights, bounds, owner, m = element_layout(grid, spec.N)
        # elements on the left and right of each node; they differ only at
        # the nodes two elements share, which get the mean of both averages
        left = np.concatenate((owner[:1], owner[:-1]))
        half_gain = 0.5 * -spec.mu

        def actuate_volume(y):
            z = half_gain * y  # N values, scaled before the two n-node gathers
            return z[left] + z[owner]

        s = np.full(spec.N, m * grid.dx)
        held = (weights, bounds, owner, left)
        return _frozen_law(lambda u: element_averages(weights, bounds, u), actuate_volume, s, spec.mu, *held)

    if isinstance(spec, FourierModes):
        _require_dirichlet(grid, "modal")
        if spec.N >= grid.n_cells:  # mode n_cells vanishes at the nodes; higher ones alias
            raise ValueError(f"modal feedback needs N < n_cells={grid.n_cells}, got N={spec.N}")
        W = mode_matrix(grid, spec.N)
        Wq = W * grid.quad_weights
        gW = -spec.mu * W

        def observe_modes(u):  # one gemv per state: by the method dot for one, cheaper than @
            return Wq.dot(u) if u.ndim == 1 else np.matmul(Wq, u[..., None])[..., 0]

        return _frozen_law(observe_modes, lambda c: c.dot(gW), np.ones(spec.N), spec.mu, Wq, gW)

    if isinstance(spec, Nodal):
        _require_dirichlet(grid, "nodal")
        N, h = spec.N, grid.L / spec.N
        mid = (np.arange(N) + 0.5) * h
        obs = np.asarray(spec.obs_points, dtype=float) if spec.obs_points else mid
        act = np.asarray(spec.act_points, dtype=float) if spec.act_points else mid
        left = np.arange(N) * h
        right = left + h
        right[-1] = grid.L  # last element is closed at L
        for name, pts in (("obs", obs), ("act", act)):
            inside = (pts >= left) & ((pts < right) | ((np.arange(N) == N - 1) & (pts <= grid.L)))
            if not inside.all():
                k = int(np.argmin(inside))
                raise ValueError(
                    f"{name} point {pts[k]:.6g} falls outside element {k + 1} "
                    f"[{left[k]:.6g}, {right[k]:.6g})"
                )
        lo, hi, w_lo, w_hi = _interpolation(grid, obs)
        act_lo, act_hi, *act_w = _interpolation(grid, act)
        dead = act_w[0] + act_w[1] == 0.0  # a point at 0 or L: both weights fall on boundary nodes
        if dead.any():
            raise ValueError(f"actuation point {act[dead][0]:.6g} lies on the boundary, where u = 0")
        # the interpolation's transpose: -mu * h/dx * w * y onto the two nodes around each x_k
        act_idx = np.concatenate((act_lo, act_hi))
        gw = -spec.mu * h / grid.dx * np.stack(act_w)

        def observe_nodal(u):  # gathers the last axis through u.T, cheaper than u[..., lo]
            return w_lo * u.T[lo].T + w_hi * u.T[hi].T

        def actuate_nodal(y):
            return np.bincount(act_idx, (gw * y).ravel(), grid.n_nodes)

        coupling = observe_nodal(np.stack([actuate_nodal(e) for e in np.eye(N)]))
        stiffness = float(np.max(np.linalg.eigvals(-coupling).real))
        held = (act_idx, gw, lo, hi, w_lo, w_hi)
        s = np.full(N, h)
        return _frozen_law(observe_nodal, actuate_nodal, s, stiffness, *held, adjoint=np.array_equal(obs, act))

    if isinstance(spec, SubdomainControl):
        _require_dirichlet(grid, "subdomain")
        if spec.omega.hi > grid.L:
            raise ValueError(f"omega_hi={spec.omega.hi} lies beyond the grid's L={grid.L}")
        chi = spec.omega.indicator(grid.nodes)
        g_chi = -spec.mu * chi
        return _frozen_law(lambda u: u, lambda y: g_chi * y, grid.quad_weights * chi, spec.mu, chi, g_chi)

    raise TypeError(f"unknown controller specification {type(spec).__name__}")


def make_control_operator(spec: ControllerSpec, grid: Grid1D) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the feedback law into an array-in/array-out closure of one state.

    :func:`feedback_law` validates the law (boundary type, alignment, point
    placement) and folds -mu into its arrays once per (controller, grid);
    the returned closure is ``actuate(observe(u))``, what a time stepper
    should call.
    """
    observe, actuate, *_ = feedback_law(spec, grid)
    return lambda u: actuate(observe(u))


def make_energy_operator(
    spec: ControllerSpec, grid: Grid1D
) -> Callable[[np.ndarray], Union[float, np.ndarray]]:
    """Controller's quadratic contribution to the energy ledger, as a closure.

    The closure maps nodal values ``(n,)`` to their energy, 1/2 mu sum(s y^2)
    of the observation y, and a block of K states ``(K, n)``, one per row,
    to the length-K row of their energies.  The block is one observation
    and one weighted sum along its last axis, and each law observes a row
    of a block as it observes the row alone, so each state gets the number
    it gets alone, bit for bit.
    """
    observe, _, s, *_ = feedback_law(spec, grid)
    half_mu = 0.5 * spec.mu

    def energy(u):
        y = observe(u)
        return half_mu * np.einsum("i,...i,...i->...", s, y, y)

    return energy


def controller_energy(spec: ControllerSpec, grid: Grid1D, u: np.ndarray) -> Union[float, np.ndarray]:
    """The controller energy of nodal values ``u``: :func:`make_energy_operator` applied once."""
    return make_energy_operator(spec, grid)(u)


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
    kind: str  # "exponential" | "polynomial"
    predicted_rate: Optional[float]
    margins: tuple[Margin, ...]
    notes: tuple[str, ...] = ()

    @property
    def satisfied(self) -> bool:
        return all(m.ok for m in self.margins)

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


def check_volume_gains(grid: Grid1D, model: ModelSpec, ctrl: VolumeElements) -> GainReport:
    """Cell-average feedback: gain and element-resolution conditions.

    delta0 = (b/2) min(1, nu) is the certified exponential rate of the
    squared stabilization norm.  The ``elements`` threshold uses the printed
    (h/2pi)^2 mean-oscillation constant, four times below the sharp one
    (``mean_plus_gradient_printed`` in ``analysis.inequality_constants``);
    with it the check reports some configs as satisfied whose linearization
    grows.  The corrected (h/pi)^2 quadruples the threshold on N^2 (noted in
    the report).
    """
    L, nu, a, b = grid.L, model.nu, model.a, model.b
    delta0 = 0.5 * b * min(1.0, nu)
    load = a + 0.5 * delta0 * b
    margins = (
        Margin("gain", ctrl.mu, 2.0 * load),
        Margin("elements", float(ctrl.N) ** 2, L**2 / (2.0 * nu * np.pi**2) * load, strict=True),
    )
    notes = (
        "conservative mean-oscillation constant would double the required "
        "element count N (threshold on N^2 x4)",
    )
    return GainReport("volume", "exponential", delta0, margins, notes)


def check_fourier_gains(grid: Grid1D, model: ModelSpec, ctrl: FourierModes) -> GainReport:
    """Modal feedback on the linearly damped wave; certified rate b/2."""
    a, b = model.a, model.b
    lam_next = dirichlet_eigenvalue(grid.L, ctrl.N + 1)
    margins = (
        Margin("stiffness", model.nu, (2.0 * a + 0.75 * b**2) / lam_next),
        Margin("gain", ctrl.mu, a + 0.75 * b**2),
    )
    return GainReport("fourier", "exponential", 0.5 * b, margins)


def check_nonlinear_gains(grid: Grid1D, model: ModelSpec, ctrl: FourierModes) -> GainReport:
    """Modal feedback under nonlinear velocity damping; polynomial decay.

    The certified envelope is t^{-(m-1)/m} for the energy, reported as the
    exponent in ``predicted_rate`` with ``kind="polynomial"``.
    """
    lam_next = dirichlet_eigenvalue(grid.L, ctrl.N + 1)
    margins = (
        Margin("stiffness", model.nu, 2.0 * model.a / lam_next, strict=True),
        Margin("gain", ctrl.mu, model.a, strict=True),
    )
    return GainReport("nonlinear", "polynomial", (model.m - 1.0) / model.m, margins)


def check_nodal_gains(grid: Grid1D, model: ModelSpec, ctrl: Nodal) -> GainReport:
    """Point observation/actuation on the strongly damped wave.

    Three printed conditions trade the gain against the sampling width
    h = L/N; note the gain appears on the unfavorable side of the last
    two, so raising mu alone can break them.  The certified conclusion is
    qualitative (exponential decay, no explicit rate), hence
    ``predicted_rate=None``.  The printed conditions are posed at unit
    stiffness, so they are applied to the problem rescaled by tau =
    sqrt(nu)*t, whose coefficients are (a/nu, b/sqrt(nu), mu/nu).
    """
    a, b, mu = model.a / model.nu, model.b / math.sqrt(model.nu), ctrl.mu / model.nu
    lam1 = dirichlet_eigenvalue(grid.L, 1)
    h = grid.L / ctrl.N
    margins = (
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
    )
    return GainReport("nodal", "exponential", None, margins)


def check_strong_fourier_gains(grid: Grid1D, model: ModelSpec, ctrl: FourierModes) -> GainReport:
    """Modal feedback on the strongly damped wave; rate from the viscous gap."""
    nu, b = model.nu, model.b
    lam1 = dirichlet_eigenvalue(grid.L, 1)
    lam_next = dirichlet_eigenvalue(grid.L, ctrl.N + 1)
    delta0 = b * lam1 * nu / (2.0 * nu + b**2 * lam1)
    threshold = 2.0 * model.a + 0.25 * delta0 * lam1 * b
    margins = (
        Margin("gain", ctrl.mu, threshold, strict=True),
        Margin("stiffness", nu, threshold / lam_next),
    )
    return GainReport("strong_fourier", "exponential", delta0, margins)


def check_subdomain_gains(grid: Grid1D, model: ModelSpec, ctrl: SubdomainControl) -> GainReport:
    """Localized damping: geometric gap condition plus the gain threshold.

    The printed conditions are posed at unit stiffness; on the problem
    rescaled by tau = sqrt(nu)*t (coefficients a/nu, b/sqrt(nu), mu/nu)
    they read: the complement of omega must be spectrally stiff enough
    (nu * lambda_1(complement) >= 4a + 3b^2/2), and the gain must exceed
    nu times the bisection threshold mu_zero computed at half the
    complement gap.  Certified rate b/2 (in t).
    """
    lam_c = complement_eigenvalue(ctrl.omega, grid)
    d = 0.5 * lam_c
    mu0 = mu_zero(ctrl.omega, d, grid)
    margins = (
        Margin("complement_gap", model.nu * lam_c, 4.0 * model.a + 1.5 * model.b**2),
        Margin("gain", ctrl.mu, model.nu * mu0, strict=True),
    )
    notes = (f"mu_zero={mu0:.6g} at gap target d={d:.6g}",)
    return GainReport("subdomain", "exponential", 0.5 * model.b, margins, notes)


# ---------------------------------------------------------------------------
# certified (law, family) pairs: each one's gain check and perturbed-energy weights
# ---------------------------------------------------------------------------

def _damped_weights(model: ModelSpec, grid: Grid1D) -> tuple[float, float, float]:
    """E_b for the damped wave: eps = b/2, grad = nu, quad = (eps*b - a)/2.

    The quadratic term's sign makes the (u, v) cross term cancel in d/dt Phi;
    with it, d/dt Phi + delta0 * Phi <= 0 under the pair's gain conditions.
    """
    eps = 0.5 * model.b
    return eps, model.nu, 0.5 * (eps * model.b - model.a)


def _strong_weights(model: ModelSpec, grid: Grid1D) -> tuple[float, float, float]:
    """E_eps for the strongly damped wave: eps = b*lam1/2, grad = nu + eps*b, quad = -a/2."""
    eps = 0.5 * model.b * dirichlet_eigenvalue(grid.L, 1)
    return eps, model.nu + eps * model.b, -0.5 * model.a


class Certificate(NamedTuple):
    """One pair's proof: its gain check and its functional's weights (None if it uses none)."""

    gains: Callable[[Grid1D, ModelSpec, ControllerSpec], GainReport]
    weights: Optional[Callable[[ModelSpec, Grid1D], tuple[float, float, float]]] = None


# The pairs the paper certifies, and the only place that pairs a law with a family.
CERTIFIED: dict[tuple[type, Family], Certificate] = {
    (VolumeElements, Family.DAMPED_WAVE): Certificate(check_volume_gains, _damped_weights),
    (FourierModes, Family.DAMPED_WAVE): Certificate(check_fourier_gains, _damped_weights),
    (FourierModes, Family.STRONGLY_DAMPED): Certificate(check_strong_fourier_gains, _strong_weights),
    (FourierModes, Family.NONLINEAR_DAMPING): Certificate(check_nonlinear_gains),
    (Nodal, Family.STRONGLY_DAMPED): Certificate(check_nodal_gains),
    (SubdomainControl, Family.DAMPED_WAVE): Certificate(check_subdomain_gains, _damped_weights),
}


def certificate(model: ModelSpec, ctrl: ControllerSpec) -> Optional[Certificate]:
    """The certificate proved for this model's family under this law, or None."""
    return CERTIFIED.get((type(ctrl), model.family))
