"""Decay-rate estimation and the sharp constants of the inequality suite.

``check_window`` gives the window each check reads and the records it
needs there.  ``fit_exponential`` regresses log stabilization norm against
time over a window; ``verify_exponential`` compares a fit's rate against a
certified target with a safety factor and checks a pointwise envelope.
``verify_polynomial`` tests algebraic decay by watching whether the running
supremum of ``total_energy(t) * t^alpha`` stabilizes.

``inequality_constants`` computes, for each finite-parameter
interpolation and spectral inequality, the least constant that makes it
hold for every function on the grid, and compares it with the constant the
inequality states, within a 1.01 discretization slack.  The printed
mean-plus-gradient constant is reported both as printed and in corrected
form; the printed one is four times too small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controllers import element_averages, element_layout
from .grid import BoundaryCondition, Grid1D, make_grid
from .models import ledger_column
from .spectral import dirichlet_eigenvalue, grid_eigenvalue

STAB_FLOOR = 1.0e-13
SUITE_SLACK = 1.01
# the inequality suite's grid, element counts (each divides its cells), mode
# counts, and sampling offsets into an element in units of its width
SUITE_CELLS = 512
SUITE_ELEMENT_COUNTS = (2, 4, 8)
SUITE_MODE_COUNTS = (1, 2, 3, 4, 5, 6)
SUITE_OFFSETS = {"0": 0.0, "h/4": 0.25, "h/2": 0.5, "3h/4": 0.75, "h": 1.0}
# the suite's inequalities in report order, each with its stated constant and
# its PDE constant where that is classical; every one must hold but the
# printed mean-plus-gradient constant, which is reported for information only
SUITE_INEQUALITIES = {
    "element_mean_approx": (1.0, 1.0 / np.pi**2),
    "mean_plus_gradient_printed": (1.0 / (4.0 * np.pi**2), 1.0 / np.pi**2),
    "mean_plus_gradient_corrected": (1.0 / np.pi**2, 1.0 / np.pi**2),
    "paired_point_differences": (1.0, 1.0),
    "point_sampling_norm": (1.0, None),
    "spectral_tail": (1.0, 1.0),
    "poincare": (1.0, 1.0),
}
SUITE_INFORMATIONAL = "mean_plus_gradient_printed"
# the fewest records a check needs in its window: the exponential fit (which
# the exponential and qualitative checks use) and the power-law check
MIN_FIT_RECORDS = 20
MIN_POWER_RECORDS = 8
# log(stab_norm) values spanning at most this many round-offs, eps * max(1, |log|), are flat: no r_squared
FLAT_LOG_ROUNDOFF = 64


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(stab_norm) over a time window."""

    rate: float
    amplitude: float
    r_squared: Optional[float]  # None when the log values are flat to round-off
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class VerifyExponential:
    ok: bool
    fit: DecayFit
    target_rate: float
    rate_ok: bool
    envelope_ok: bool
    envelope_constant: Optional[float]  # None past the float range


@dataclass(frozen=True)
class VerifyPolynomial:
    ok: bool
    sup_ratio: float
    sup_first: float
    sup_last: float
    alpha: float
    window: tuple[float, float]


def check_window(kind: str, window: tuple[float, float], t_end: float) -> tuple[tuple[float, float], int]:
    """The window a check of a gain report's ``kind`` reads, and the fewest records it needs there.

    Each check reads the fit window up to ``t_end``, the time of the run's
    last record, and the power law (``kind == "polynomial"``) reads it from
    t = 1.  The CLI's checks read this window, and ``load_config`` refuses a
    run whose records leave it fewer than the check needs.
    """
    lo, hi = window[0], min(window[1], t_end)
    if kind == "polynomial":
        return (max(1.0, lo), hi), MIN_POWER_RECORDS
    return (lo, hi), MIN_FIT_RECORDS


def _in_window(t: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    return (window[0] <= t) & (t <= window[1])


def _decay(ledger: np.ndarray, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t and stab_norm columns, and which records are usable: in the window, above the floor."""
    t, s = ledger_column(ledger, "t"), ledger_column(ledger, "stab_norm")
    return t, s, _in_window(t, window) & (s > STAB_FLOOR)


def fit_exponential(ledger: np.ndarray, window: tuple[float, float]) -> DecayFit:
    """Fit stab_norm ~ amplitude * exp(-rate * t) on the window of a run's ledger.

    Records with ``stab_norm <= 1e-13`` (double-precision decay floor for a
    squared quantity) are excluded; ``MIN_FIT_RECORDS`` usable records are required.
    """
    if not len(ledger):
        raise ValueError("no records to fit")
    if window[0] >= window[1]:
        raise ValueError(f"empty fit window {window}")
    t, s, usable = _decay(ledger, window)
    t, s = t[usable], s[usable]
    if len(t) < MIN_FIT_RECORDS:
        raise ValueError(
            f"only {len(t)} usable records in window {window}; need at least {MIN_FIT_RECORDS}"
        )
    y = np.log(s)
    slope, intercept = np.polyfit(t, y, 1)
    if np.ptp(y) <= FLAT_LOG_ROUNDOFF * np.finfo(float).eps * max(1.0, float(np.abs(y).max())):
        r2 = None
    else:
        resid = y - (slope * t + intercept)
        r2 = 1.0 - float(np.dot(resid, resid)) / float(np.dot(y - y.mean(), y - y.mean()))
    return DecayFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        r_squared=r2,
        window=(float(window[0]), float(window[1])),
        n_points=len(t),
    )


def verify_exponential(
    ledger: np.ndarray, fit: DecayFit, delta_target: float, safety: float
) -> VerifyExponential:
    """Check exponential decay of stab_norm against a certified rate.

    ``fit`` is :func:`fit_exponential` of this ``ledger``; its window is the
    one checked.  Passing requires (i) fitted rate >= safety * delta_target,
    and (ii) the envelope ``stab_norm(t) <= C exp(-safety*delta_target*t)``
    to hold over the window, with C calibrated on the records before the
    window starts; ``envelope_constant`` is C, or None past the float
    range.  The outcome is monotone in ``safety``: passing at s implies
    passing at any s' < s.
    """
    if delta_target <= 0.0:
        raise ValueError(f"target rate must be positive, got {delta_target}")
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must be in (0, 1], got {safety}")
    target = safety * delta_target
    rate_ok = fit.rate >= target
    t, s, usable = _decay(ledger, fit.window)
    t0 = fit.window[0]  # C = c exp(target t0): exp(target t) alone overflows on a long run
    head = t <= t0
    c = float(np.max(s[head] * np.exp(target * (t[head] - t0)))) if head.any() else 0.0
    t, s = t[usable], s[usable]
    envelope_ok = not np.any(s > c * np.exp(-target * (t - t0)) * (1.0 + 1e-9))
    with np.errstate(over="ignore"):
        const = c * np.exp(target * t0) if c > 0.0 else 0.0
    return VerifyExponential(
        ok=bool(rate_ok and envelope_ok),
        fit=fit,
        target_rate=target,
        rate_ok=bool(rate_ok),
        envelope_ok=envelope_ok,
        envelope_constant=float(const) if np.isfinite(const) else None,
    )


def verify_polynomial(
    ledger: np.ndarray,
    alpha: float,
    window: tuple[float, float],
) -> VerifyPolynomial:
    """Check algebraic decay: does sup total(t) * t^alpha stop growing?

    The window must start at t >= 1 (the compensator t^alpha is
    meaningless near zero).  Passing means the supremum over the window's
    last quarter exceeds the supremum over its first quarter by at most
    10%: if total decays at least like t^{-alpha}, the compensated curve
    is bounded and the two sups agree; a slower law makes it climb.
    """
    if alpha <= 0.0:
        raise ValueError(f"decay exponent must be positive, got {alpha}")
    if window[0] < 1.0:
        raise ValueError(f"window must start at t >= 1, got {window[0]}")
    if window[0] >= window[1]:
        raise ValueError(f"empty window {window}")
    t = ledger_column(ledger, "t")
    keep = _in_window(t, window)
    t = t[keep]
    compensated = ledger_column(ledger, "total")[keep] * t**alpha
    if len(t) < MIN_POWER_RECORDS:
        raise ValueError(
            f"only {len(t)} records in window {window}; need at least {MIN_POWER_RECORDS}"
        )
    span = window[1] - window[0]
    first = compensated[t <= window[0] + 0.25 * span]
    last = compensated[t >= window[0] + 0.75 * span]
    if not len(first) or not len(last):
        raise ValueError("window quarters contain no records; record more densely")
    sup_first = float(np.max(first))
    sup_last = float(np.max(last))
    if sup_first <= 0.0:
        raise ValueError("compensated energy is not positive on the first quarter")
    ratio = sup_last / sup_first
    return VerifyPolynomial(
        ok=bool(ratio <= 1.1),
        sup_ratio=float(ratio),
        sup_first=float(sup_first),
        sup_last=float(sup_last),
        alpha=alpha,
        window=(float(window[0]), float(window[1])),
    )


# ---------------------------------------------------------------------------
# inequality constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """One inequality's sharp constant on the grid, against the constant it states.

    The inequality reads lhs(f) <= C rhs(f) for every grid function f.
    ``cases`` maps each element count, mode count or sampling offset to the
    least C that makes it hold there, the largest generalized eigenvalue of
    the two quadratic forms; ``sharp`` is the largest case.  ``pde`` is the
    sharp constant of the continuous inequality where it is classical, and
    ``holds`` is ``sharp <= SUITE_SLACK * stated``.
    """

    name: str
    stated: float
    sharp: float
    pde: float | None
    holds: bool
    cases: dict[str, float]


def _hat(grid: Grid1D, x: np.ndarray) -> np.ndarray:
    """Rows of linear interpolation at the points x: f(x) = _hat(grid, x) @ f."""
    return np.maximum(0.0, 1.0 - np.abs(x[:, None] - grid.nodes) / grid.dx)


def _largest(form: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(form)[-1])


def _element_constants(grid: Grid1D, N: int) -> tuple[float, float, float, list[float]]:
    """Sharp constants on N elements of a Neumann grid: mean oscillation, element-mean
    distance, end-pair differences, and point sampling at each of ``SUITE_OFFSETS``.

    The first three forms vanish on constants.  Writing f = f_0 + S d, with d
    the first differences and |f|^2_H1 = |d|^2 / dx, each constant is the
    largest eigenvalue of its form in d times dx, over h^2 or h.  Point
    sampling's right-hand side B is positive definite; with the diagonal
    quadrature W its constant is 1 / lambda_min(W^-1/2 B W^-1/2).
    """
    h, dx, w = grid.L / N, grid.dx, grid.quad_weights
    S = np.tril(np.ones((grid.n_nodes, grid.n_cells)), -1)
    weights, bounds, owner, _ = element_layout(grid, N)
    means = element_averages(weights, bounds, S.T).T  # the element means of f - f_0, as rows in d
    oscillation = (S.T * w) @ S - h * means.T @ means  # ||f||^2 - h sum_k mean_k^2
    gap = S - means[owner]  # f minus the mean of the element that owns each node
    lo = np.arange(N) * h
    ends = (_hat(grid, lo + h) - _hat(grid, lo)) @ S  # f(x_k + h) - f(x_k), an N-rank form
    diff = np.diff(np.eye(grid.n_nodes), axis=0)
    stiffness = 2.0 * h * h / dx * diff.T @ diff  # 2 h^2 |f|^2_H1
    scale = 1.0 / np.sqrt(w)
    sampling = []
    for offset in SUITE_OFFSETS.values():
        at = _hat(grid, lo + offset * h)
        rhs = 2.0 * h * at.T @ at + stiffness  # 2[h sum_k f(x_k)^2 + h^2 |f|^2_H1]
        sampling.append(1.0 / float(np.linalg.eigvalsh(rhs * scale[:, None] * scale)[0]))
    return (
        _largest(oscillation) * dx / h**2,
        _largest((gap.T * w) @ gap) * dx / h**2,
        _largest(ends @ ends.T) * dx / h,
        sampling,
    )


def inequality_constants() -> dict[str, InequalityReport]:
    """Sharp discrete constants of the finite-parameter inequalities on (0, pi).

    Neumann-side inequalities, for each of N = ``SUITE_ELEMENT_COUNTS``
    elements of width h, on ``SUITE_CELLS`` cells:

    - ``element_mean_approx``: ||f - m||^2 <= C h^2 |f|^2_H1, where m is the
      mean of the element that owns each node;
    - ``mean_plus_gradient_printed`` / ``_corrected``: ||f||^2 <= h sum_k
      mean_k^2 + C h^2 |f|^2_H1, stated with the printed 1/(4 pi^2) and the
      corrected 1/pi^2 (Payne-Weinberger).  The printed one is reported for
      information only: its sharp constant is four times larger;
    - ``paired_point_differences``: sum_k (f(x_k + h) - f(x_k))^2 <= C h
      |f|^2_H1, for the end pair of each element, the widest pair;
    - ``point_sampling_norm``: ||f||^2 <= C 2[h sum_k f(x_k)^2 + h^2
      |f|^2_H1], for x_k at each offset of ``SUITE_OFFSETS`` into its element.

    Dirichlet-side inequalities, in closed form: the sampled sines are the
    grid Laplacian's eigenvectors, orthonormal under the quadrature, with
    eigenvalues lambda_{h,k} (``grid_eigenvalue``):

    - ``spectral_tail``: ||f - P_N f||^2 <= C |f|^2_H1 / lambda_{N+1}, for N
      in ``SUITE_MODE_COUNTS``; C = lambda_{N+1} / lambda_{h,N+1};
    - ``poincare``: ||f||^2 <= C |f|^2_H1 / lambda_1; C = lambda_1 / lambda_{h,1}.
    """
    ngrid = make_grid(np.pi, SUITE_CELLS, BoundaryCondition.NEUMANN)
    dgrid = make_grid(ngrid.L, SUITE_CELLS, BoundaryCondition.DIRICHLET)
    cases = {name: {} for name in SUITE_INEQUALITIES}
    for N in SUITE_ELEMENT_COUNTS:
        oscillation, distance, paired, sampling = _element_constants(ngrid, N)
        cases["element_mean_approx"][f"N={N}"] = distance
        cases["mean_plus_gradient_printed"][f"N={N}"] = oscillation
        cases["mean_plus_gradient_corrected"][f"N={N}"] = oscillation
        cases["paired_point_differences"][f"N={N}"] = paired
        for offset, constant in zip(SUITE_OFFSETS, sampling):
            cases["point_sampling_norm"][f"N={N} x={offset}"] = constant
    for N in SUITE_MODE_COUNTS:
        tail = dirichlet_eigenvalue(dgrid.L, N + 1) / grid_eigenvalue(dgrid, N + 1)
        cases["spectral_tail"][f"N={N}"] = tail
    cases["poincare"]["k=1"] = dirichlet_eigenvalue(dgrid.L, 1) / grid_eigenvalue(dgrid, 1)

    reports = {}
    for name, (stated, pde) in SUITE_INEQUALITIES.items():
        sharp = max(cases[name].values())
        reports[name] = InequalityReport(name, stated, sharp, pde, sharp <= SUITE_SLACK * stated, cases[name])
    return reports
