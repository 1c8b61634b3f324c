"""Decay-rate estimation and the random-sample inequality suite.

``fit_exponential`` regresses log stabilization norm against time over a
trimmed window; ``verify_exponential`` compares the fitted rate against a
certified target with a safety factor and additionally checks a pointwise
envelope.  ``verify_polynomial`` tests algebraic decay by watching whether
the running supremum of ``total_energy(t) * t^alpha`` stabilizes.

``run_inequality_suite`` hammers the finite-parameter interpolation and
spectral inequalities with seeded random trigonometric polynomials and
counts violations against a 1.01 discretization slack.  The printed
mean-plus-gradient constant is checked both as printed and in corrected
form, with the linear-ramp counterexample injected deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controllers import element_averages, element_layout
from .grid import BoundaryCondition, Field, Grid1D, h1_seminorm_sq, integral, make_grid
from .models import ledger_column
from .spectral import dirichlet_eigenvalue, mode_matrix, tail_bound_check

STAB_FLOOR = 1.0e-13
SUITE_SLACK = 1.01
# the inequality suite's sample space: polynomial degree, element counts
# (each divides the suite's 512 cells) and mode counts
SUITE_DEGREE = 12
SUITE_ELEMENT_COUNTS = (2, 4, 8)
SUITE_MODE_COUNTS = (1, 2, 3, 4, 5, 6)
# the fewest records a check needs in its window: the exponential fit (which
# the exponential and qualitative checks use) and the power-law check
MIN_FIT_RECORDS = 20
MIN_POWER_RECORDS = 8


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(stab_norm) over a time window."""

    rate: float
    amplitude: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class VerifyExponential:
    ok: bool
    fit: DecayFit
    target_rate: float
    rate_ok: bool
    envelope_ok: bool
    envelope_constant: float


@dataclass(frozen=True)
class VerifyPolynomial:
    ok: bool
    sup_ratio: float
    sup_first: float
    sup_last: float
    alpha: float
    window: tuple[float, float]


def power_law_window(window: tuple[float, float]) -> tuple[float, float]:
    """The part of a fit window the power-law check reads: from t = 1 on."""
    return (max(1.0, window[0]), window[1])


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
    resid = y - (slope * t + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        r_squared=r2,
        window=(float(window[0]), float(window[1])),
        n_points=len(t),
    )


def verify_exponential(
    ledger: np.ndarray,
    delta_target: float,
    safety: float,
    window: tuple[float, float],
) -> VerifyExponential:
    """Check exponential decay of stab_norm against a certified rate.

    Passing requires (i) fitted rate >= safety * delta_target, and (ii) the
    envelope ``stab_norm(t) <= C exp(-safety*delta_target*t)`` to hold over
    the window, with C calibrated on the records before the window starts.
    The outcome is monotone in ``safety``: passing at s implies passing at
    any s' < s.
    """
    if delta_target <= 0.0:
        raise ValueError(f"target rate must be positive, got {delta_target}")
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must be in (0, 1], got {safety}")
    fit = fit_exponential(ledger, window)
    target = safety * delta_target
    rate_ok = fit.rate >= target
    t, s, usable = _decay(ledger, window)
    head = t <= window[0]
    const = float(np.max(s[head] * np.exp(target * t[head]))) if head.any() else 0.0
    t, s = t[usable], s[usable]
    envelope_ok = not np.any(s > const * np.exp(-target * t) * (1.0 + 1e-9))
    return VerifyExponential(
        ok=bool(rate_ok and envelope_ok),
        fit=fit,
        target_rate=target,
        rate_ok=bool(rate_ok),
        envelope_ok=envelope_ok,
        envelope_constant=const,
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
# inequality suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Violation count for one inequality over the random sample set.

    ``worst_ratio`` is the largest observed lhs/rhs (violation iff
    > 1.01); ``empirical_constant`` is, for the mean-plus-gradient pair,
    the smallest gradient coefficient (in units of h^2 ||f'||^2) that
    would cover every sample, and otherwise simply repeats worst_ratio.
    """

    name: str
    samples: int
    violations: int
    worst_ratio: float
    empirical_constant: float


class _Tally:
    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.violations = 0
        self.worst_ratio = 0.0
        self.empirical = 0.0

    def add(self, lhs: float, rhs: float, empirical: Optional[float] = None):
        self.samples += 1
        ratio = lhs / rhs if rhs > 0.0 else math.inf
        if ratio > self.worst_ratio:
            self.worst_ratio = ratio
        if empirical is not None and empirical > self.empirical:
            self.empirical = empirical
        if lhs > SUITE_SLACK * rhs:
            self.violations += 1

    def report(self) -> InequalityReport:
        return InequalityReport(
            name=self.name,
            samples=self.samples,
            violations=self.violations,
            worst_ratio=self.worst_ratio,
            empirical_constant=self.empirical if self.empirical > 0.0 else self.worst_ratio,
        )


def _trig_tables(grid: Grid1D, degree: int) -> np.ndarray:
    """Rows: [1, cos(j pi x / L), sin(j pi x / L)] for j = 1..degree."""
    x = grid.nodes
    rows = [np.ones_like(x)]
    for j in range(1, degree + 1):
        rows.append(np.cos(j * np.pi * x / grid.L))
        rows.append(np.sin(j * np.pi * x / grid.L))
    return np.vstack(rows)


def run_inequality_suite(seed: int, samples: int) -> dict[str, InequalityReport]:
    """Randomized verification of the finite-parameter inequalities.

    The samples live on 512 cells over (0, pi): full trigonometric
    polynomials on the Neumann grid, sine polynomials on the Dirichlet one.
    Each sample draws a trigonometric polynomial of degree <= SUITE_DEGREE
    with uniform[-1,1] coefficients from a per-sample RNG stream
    (seed + index), plus random element/mode counts and random in-element
    sampling points.  Violations are counted against the 1.01 slack.

    Returns reports keyed by:

    - ``element_mean_approx``: distance to element averages vs h ||f'||
    - ``mean_plus_gradient_printed`` / ``_corrected``: nodal-mean plus
      gradient bound on ||f||^2 with the printed (h/2pi)^2 and corrected
      (h/pi)^2 coefficients; the linear ramp f(x) = x (one element) is
      injected deterministically and falsifies the printed form
    - ``paired_point_differences``: summed squared differences of paired
      in-element point values vs h ||f'||^2
    - ``point_sampling_norm``: ||f||^2 vs 2[h sum f(x_k)^2 + h^2 ||f'||^2]
    - ``spectral_tail``: post-projection residual vs ||f'||^2 / lambda_{N+1}
    - ``poincare``: ||f||^2 vs ||f'||^2 / lambda_1 on the Dirichlet grid
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ngrid = make_grid(np.pi, 512, BoundaryCondition.NEUMANN)
    dgrid = make_grid(ngrid.L, ngrid.n_cells, BoundaryCondition.DIRICHLET)

    table = _trig_tables(ngrid, SUITE_DEGREE)
    W = mode_matrix(dgrid, SUITE_DEGREE)
    lam1 = dirichlet_eigenvalue(dgrid.L, 1)
    layouts = {N: element_layout(ngrid, N) for N in SUITE_ELEMENT_COUNTS}

    tallies = {
        key: _Tally(key)
        for key in (
            "element_mean_approx",
            "mean_plus_gradient_printed",
            "mean_plus_gradient_corrected",
            "paired_point_differences",
            "point_sampling_norm",
            "spectral_tail",
            "poincare",
        )
    }

    def mean_plus_gradient(f: np.ndarray, N: int, means: np.ndarray):
        h = ngrid.L / N
        norm2 = integral(ngrid, f, f)
        means2 = h * float(np.sum(means**2))
        sem2 = h1_seminorm_sq(ngrid, f)
        emp = (norm2 - means2) / (h * h * sem2) if sem2 > 1e-12 else None
        tallies["mean_plus_gradient_printed"].add(
            norm2, means2 + (h / (2.0 * np.pi)) ** 2 * sem2, emp
        )
        tallies["mean_plus_gradient_corrected"].add(norm2, means2 + (h / np.pi) ** 2 * sem2, emp)

    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        coeffs = rng.uniform(-1.0, 1.0, table.shape[0])
        f = coeffs @ table
        sem2 = h1_seminorm_sq(ngrid, f)
        N = int(SUITE_ELEMENT_COUNTS[rng.integers(len(SUITE_ELEMENT_COUNTS))])
        weights, bounds, owner, _ = layouts[N]
        means = element_averages(weights, bounds, f)
        h = ngrid.L / N

        # distance to the piecewise-constant element averages
        gap = f - means[owner]
        tallies["element_mean_approx"].add(math.sqrt(integral(ngrid, gap, gap)), h * math.sqrt(sem2))

        mean_plus_gradient(f, N, means)

        # paired random points within each element
        lo = np.arange(N) * h
        xk = lo + h * rng.random(N)
        yk = lo + h * rng.random(N)
        fx = np.interp(xk, ngrid.nodes, f)
        fy = np.interp(yk, ngrid.nodes, f)
        tallies["paired_point_differences"].add(float(np.sum((fx - fy) ** 2)), h * sem2)
        tallies["point_sampling_norm"].add(
            integral(ngrid, f, f), 2.0 * (h * float(np.sum(fx**2)) + h * h * sem2)
        )

        # Dirichlet-side spectral bounds
        g = rng.uniform(-1.0, 1.0, SUITE_DEGREE) @ W
        Nq = int(SUITE_MODE_COUNTS[rng.integers(len(SUITE_MODE_COUNTS))])
        tail, tail_bound, _ = tail_bound_check(Field(dgrid, g), Nq)
        tallies["spectral_tail"].add(tail, tail_bound)
        tallies["poincare"].add(integral(dgrid, g, g), h1_seminorm_sq(dgrid, g) / lam1)

    # deterministic counterexample: the linear ramp against one element
    ramp_means = element_averages(*element_layout(ngrid, 1)[:2], ngrid.nodes)
    mean_plus_gradient(ngrid.nodes, 1, ramp_means)

    return {key: tally.report() for key, tally in tallies.items()}
