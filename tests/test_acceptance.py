"""Acceptance gate: one test per acceptance criterion, one verdict line each.

Each test reproduces its criterion end to end at desk scale (n_cells <= 1024,
t_end <= 60, each run a few seconds) and prints a single
``criterion N (<label>): PASS/FAIL`` line; run with ``pytest -s`` to see the
lines for passing tests too.  These are the checks a release must keep green.
"""

import math

import numpy as np
import pytest

from wavestab import (
    Field,
    FourierModes,
    Nodal,
    StepperConfig,
    Subdomain,
    SubdomainControl,
    VolumeElements,
    check_fourier_gains,
    check_nodal_gains,
    check_nonlinear_gains,
    check_strong_fourier_gains,
    check_subdomain_gains,
    check_volume_gains,
    damped_wave,
    energy_record,
    fit_exponential,
    h1_seminorm_sq,
    inequality_constants,
    integral,
    lyapunov_eb,
    make_grid,
    mu_zero,
    nonlinear_damping_wave,
    run,
    strongly_damped_wave,
    verify_exponential,
    verify_polynomial,
)
from wavestab.models import ledger_column

from conftest import min_eig_shifted

L = math.pi


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _bump(grid, center: float, width: float) -> Field:
    return Field(grid, np.exp(-(((grid.nodes - center) / width) ** 2)))


def _mode(grid, k: int, amplitude: float = 1.0) -> Field:
    shape = np.sqrt(2.0 / grid.L) * np.sin(k * np.pi * grid.nodes / grid.L)
    return Field(grid, amplitude * shape)


def _zero(grid) -> Field:
    return Field(grid, np.zeros(grid.n_nodes))


def _lyapunov_pairs(result) -> list[tuple[float, float]]:
    """(t, lyapunov) of each record of a run."""
    return list(zip(ledger_column(result.ledger, "t"), ledger_column(result.ledger, "lyapunov")))


def _log_fit(pairs: list[tuple[float, float]]) -> float:
    """Decay rate of a positive time series by least squares on its log."""
    ts = np.array([t for t, v in pairs if v > 1e-13])
    ys = np.log([v for _, v in pairs if v > 1e-13])
    return float(-np.polyfit(ts, ys, 1)[0])


def _monotone_violations(pairs: list[tuple[float, float]], delta: float) -> int:
    """Count record pairs breaking F(t+dt) <= F(t) e^{-delta dt} (1% slack)."""
    floor = 1e-12 * pairs[0][1]
    return sum(
        1
        for (ta, fa), (tb, fb) in zip(pairs, pairs[1:])
        if fb > fa * math.exp(-delta * (tb - ta)) * 1.01 + floor
    )


# ---------------------------------------------------------------------------
# shared closed-loop runs (each feeds two criteria)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def volume_loop():
    grid = make_grid(L, 128, "neumann")
    model = damped_wave(nu=1.0, a=1.0, b=2.0, bc="neumann")
    ctrl = VolumeElements(N=2, mu=4.0)
    report = check_volume_gains(grid, model, ctrl)
    cfg = StepperConfig(dt=0.005, t_end=6.0, record_every=5)
    result = run(model, ctrl, _bump(grid, L / 2, 0.5), _zero(grid), cfg)
    return grid, model, ctrl, report, cfg, result


@pytest.fixture(scope="module")
def fourier_loop():
    grid = make_grid(L, 128, "dirichlet")
    model = damped_wave(nu=1.0, a=1.0, b=2.0, bc="dirichlet", p=4.0)
    ctrl = FourierModes(N=2, mu=4.0)
    report = check_fourier_gains(grid, model, ctrl)
    cfg = StepperConfig(dt=0.005, t_end=6.0, record_every=5)
    result = run(model, ctrl, _bump(grid, L / 2, 0.5), _zero(grid), cfg)
    return grid, model, ctrl, report, cfg, result


@pytest.fixture(scope="module")
def strong_loop():
    grid = make_grid(L, 128, "dirichlet")
    model = strongly_damped_wave(nu=1.0, a=1.0, b=1.0, p=4.0)
    ctrl = FourierModes(N=1, mu=2.5)
    report = check_strong_fourier_gains(grid, model, ctrl)
    cfg = StepperConfig(dt=0.005, t_end=25.0, record_every=10)
    result = run(model, ctrl, _bump(grid, L / 2, 0.5), _zero(grid), cfg)
    return grid, model, ctrl, report, cfg, result


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_volume_element_decay(volume_loop):
    """Cell-average feedback at (mu=4, N=2): certified rate 1, fit >= 0.8."""
    grid, model, _, report, cfg, result = volume_loop
    window = (1.2, 5.4)
    assert report.satisfied and report.predicted_rate == pytest.approx(1.0)
    fit = fit_exponential(result.ledger, window)
    ver = verify_exponential(result.ledger, fit, report.predicted_rate, 0.8)

    # negative control: zero gain leaves the anti-damping term winning
    off = run(model, VolumeElements(N=2, mu=0.0), _bump(grid, L / 2, 0.5), _zero(grid), cfg)
    neg = fit_exponential(off.ledger, window)

    ok = ver.ok and ver.fit.rate >= 0.8 and neg.rate < 0.0
    _verdict(
        1,
        "volume elements",
        ok,
        f"fit={ver.fit.rate:.3f} envelope={ver.envelope_ok} zero-gain fit={neg.rate:.3f}",
    )


def test_criterion_2_modal_feedback_decay(fourier_loop):
    """First two Dirichlet modes at mu=4 on the quartic model: fit >= 0.8."""
    _, _, _, report, _, result = fourier_loop
    assert report.satisfied and report.predicted_rate == pytest.approx(1.0)
    fit = fit_exponential(result.ledger, (1.2, 5.4))
    ver = verify_exponential(result.ledger, fit, report.predicted_rate, 0.8)
    _verdict(2, "modal feedback", ver.ok, f"fit={ver.fit.rate:.3f} target=0.8")


def test_criterion_3_localized_damping():
    """Static damping on (0.5, 0.9) of (0,1) at mu = 1.1*mu_zero."""
    grid = make_grid(1.0, 256, "dirichlet")
    omega = Subdomain(0.5, 0.9)
    lam_c = (math.pi / 0.5) ** 2  # longest complement component has length 0.5
    d = 0.5 * lam_c
    mu0 = mu_zero(omega, d, grid)
    model = damped_wave(nu=1.0, a=1.0, b=2.0, bc="dirichlet", p=4.0)
    ctrl = SubdomainControl(omega, 1.1 * mu0)
    report = check_subdomain_gains(grid, model, ctrl)
    assert report.satisfied and report.predicted_rate == pytest.approx(1.0)

    # post-hoc certificate: the shifted operator clears the gap at mu0 and
    # falls short 10% below it
    indicator = omega.indicator(grid.nodes)
    eig_at = min_eig_shifted(grid, indicator, mu0)
    eig_below = min_eig_shifted(grid, indicator, 0.9 * mu0)
    certificate = eig_at >= lam_c - d and eig_below < lam_c - d

    cfg = StepperConfig(dt=0.002, t_end=6.0, record_every=10)
    result = run(model, ctrl, _bump(grid, 0.3, 0.15), _zero(grid), cfg)
    fit = fit_exponential(result.ledger, (1.2, 5.4))
    ver = verify_exponential(result.ledger, fit, report.predicted_rate, 0.8)

    ok = certificate and ver.ok
    _verdict(
        3,
        "localized damping",
        ok,
        f"mu0={mu0:.3f} eig(mu0)={eig_at:.3f} eig(0.9mu0)={eig_below:.3f} "
        f"gap-d={lam_c - d:.3f} fit={ver.fit.rate:.3f}",
    )


def test_criterion_4_degenerate_damping_power_law():
    """|v|v damping, one controlled mode: E(t) t^{2/3} stops growing on [5,50]."""
    grid = make_grid(L, 128, "dirichlet")
    model = nonlinear_damping_wave(nu=1.0, a=1.0, b=1.0, m=3.0, p=4.0)
    ctrl = FourierModes(N=1, mu=2.0)
    report = check_nonlinear_gains(grid, model, ctrl)
    assert report.satisfied and report.kind == "polynomial"
    assert report.predicted_rate == pytest.approx(2.0 / 3.0)

    cfg = StepperConfig(dt=0.005, t_end=55.0, record_every=20)
    result = run(model, ctrl, _mode(grid, 1, 2.0), _zero(grid), cfg)
    ver = verify_polynomial(result.ledger, report.predicted_rate, (5.0, 50.0))
    _verdict(
        4,
        "degenerate damping",
        ver.ok,
        f"sup ratio={ver.sup_ratio:.3f} (<= 1.1 required)",
    )


def test_criterion_5_strong_damping_decay(strong_loop):
    """Viscous damping bDv_t with one controlled mode: fit >= 0.8*(1/3)."""
    _, _, _, report, _, result = strong_loop
    assert report.satisfied and report.predicted_rate == pytest.approx(1.0 / 3.0)
    fit = fit_exponential(result.ledger, (5.0, 22.5))
    ver = verify_exponential(result.ledger, fit, report.predicted_rate, 0.8)
    _verdict(
        5,
        "strong damping",
        ver.ok,
        f"fit={ver.fit.rate:.3f} target={0.8 / 3.0:.3f}",
    )


def test_criterion_6_point_feedback():
    """27 nodal observations at mu=4.3: gains clear exactly, decay is clean."""
    grid = make_grid(L, 270, "dirichlet")
    model = strongly_damped_wave(nu=1.0, a=1.0, b=0.5, p=4.0)
    ctrl = Nodal(N=27, mu=4.3)
    report = check_nodal_gains(grid, model, ctrl)
    margins = {m.name: m for m in report.margins}
    assert report.satisfied and report.predicted_rate is None
    assert margins["gain"].slack == pytest.approx(0.05, rel=1e-9)
    assert margins["sampling"].lhs == pytest.approx(0.030675457753569807, rel=1e-12)
    assert margins["sampling_quad"].lhs == pytest.approx(0.0008995884431322668, rel=1e-12)

    cfg = StepperConfig(dt=0.0025, t_end=35.0, record_every=20)
    result = run(model, ctrl, _bump(grid, L / 2, 0.5), _zero(grid), cfg)
    fit = fit_exponential(result.ledger, (7.0, 31.5))

    ok = fit.rate > 0.0 and fit.r_squared >= 0.95
    _verdict(6, "point feedback", ok, f"fit={fit.rate:.3f} r2={fit.r_squared:.4f}")


def test_criterion_7_inequality_suite():
    """Sharp discrete constants on 512 cells: each of the six load-bearing
    bounds holds within 1.01 of the constant it states; the printed
    mean-plus-gradient constant (h/2pi)^2 is four times too small, and the
    linear ramp alone refutes it."""
    suite = inequality_constants()
    mandatory = (
        "element_mean_approx",
        "mean_plus_gradient_corrected",
        "paired_point_differences",
        "point_sampling_norm",
        "spectral_tail",
        "poincare",
    )
    clean = all(suite[key].holds for key in mandatory)
    worst = max(suite[key].sharp / suite[key].stated for key in mandatory)
    printed = suite["mean_plus_gradient_printed"]
    flagged = not printed.holds and printed.sharp / printed.stated > 3.99

    # the ramp counterexample, computed from scratch: phi(x) = x against a
    # single element of (0, L) with the printed (h/2pi)^2 gradient coefficient
    grid = make_grid(L, 512, "neumann")
    ramp = grid.nodes
    lhs = integral(grid, ramp, ramp)
    mean = float(np.dot(grid.quad_weights, ramp)) / L
    sem2 = h1_seminorm_sq(grid, ramp)
    rhs_printed = L * mean**2 + (L / (2 * math.pi)) ** 2 * sem2
    rhs_corrected = L * mean**2 + (L / math.pi) ** 2 * sem2
    assert lhs / L**3 == pytest.approx(1.0 / 3.0, rel=1e-4)
    assert rhs_printed / L**3 == pytest.approx(0.25 + 1.0 / (4 * math.pi**2), rel=1e-4)
    ramp_refutes = lhs > 1.01 * rhs_printed and lhs <= 1.01 * rhs_corrected
    # its own coefficient, about 1/12, lies between the printed and the sharp constant
    assert printed.stated < (lhs - L * mean**2) / (L**2 * sem2) < printed.sharp

    ok = clean and flagged and ramp_refutes
    _verdict(
        7,
        "inequality suite",
        ok,
        f"mandatory hold={clean} worst sharp/stated={worst:.6f} "
        f"printed sharp/stated={printed.sharp / printed.stated:.4f} "
        f"ramp lhs/L^3={lhs / L**3:.4f} vs rhs/L^3={rhs_printed / L**3:.4f}",
    )


def test_criterion_8_integrator_fidelity():
    """Order 2.0 +/- 0.2; undamped energy drift <= 1e-8; bit-identical reruns."""
    grid = make_grid(L, 64, "dirichlet")
    b = 0.5
    model = damped_wave(nu=1.0, a=0.0, b=b, bc="dirichlet")
    # closed form for the first semidiscrete mode under linear damping
    lam1h = (4.0 / grid.dx**2) * math.sin(math.pi * grid.dx / (2 * L)) ** 2
    omega = math.sqrt(lam1h - b**2 / 4)
    amp = math.exp(-b / 2) * (math.cos(omega) + (b / (2 * omega)) * math.sin(omega))
    exact = _mode(grid, 1).values * amp

    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = run(model, FourierModes(1, 0.0), _mode(grid, 1), _zero(grid),
                  StepperConfig(dt=dt, t_end=1.0))
        errs.append(float(np.max(np.abs(res.u - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order_ok = all(1.8 <= q <= 2.2 for q in orders)

    free = damped_wave(nu=1.0, a=0.0, b=0.0, bc="dirichlet")
    cons = run(free, FourierModes(1, 0.0), _mode(grid, 1), _zero(grid),
               StepperConfig(dt=1e-3, t_end=10.0, record_every=100))
    total = ledger_column(cons.ledger, "total")
    drift = abs(total[-1] - total[0]) / total[0]
    cons_ok = drift <= 1e-8

    again = run(free, FourierModes(1, 0.0), _mode(grid, 1), _zero(grid),
                StepperConfig(dt=1e-3, t_end=10.0, record_every=100))
    same = np.array_equal(again.u, cons.u) and np.array_equal(again.ledger, cons.ledger)

    ok = order_ok and cons_ok and same
    _verdict(
        8,
        "integrator fidelity",
        ok,
        f"orders={orders[0]:.3f},{orders[1]:.3f} drift={drift:.2e} identical={same}",
    )


def test_criterion_9_energy_functionals(volume_loop, fourier_loop, strong_loop):
    """Coercivity of the three perturbed energies on 500 random states, and
    per-record monotone decay at the certified rates along the three runs."""
    vgrid, vmodel, vctrl, vreport, _, vresult = volume_loop
    fgrid, fmodel, fctrl, freport, _, fresult = fourier_loop
    _, smodel, sctrl, sreport, _, sresult = strong_loop
    rng = np.random.default_rng(2026)
    ks = np.arange(1, 13)
    cos_tab = np.cos(np.outer(ks, math.pi * vgrid.nodes / L))
    sin_tab = np.sin(np.outer(ks, math.pi * fgrid.nodes / L))

    def random_state(grid, table):
        amp = rng.uniform(0.1, 3.0)
        u = amp * (rng.uniform(-1.0, 1.0, len(ks)) @ table)
        v = amp * (rng.uniform(-1.0, 1.0, len(ks)) @ table)
        return u, v

    def phi(model, ctrl, grid, u, v):
        return lyapunov_eb(model, ctrl, grid, u, energy_record(model, grid, u, v, 0.0))

    # gradient coefficient in the volume functional's lower bound
    delta0 = vreport.predicted_rate
    d0 = delta0 * vmodel.b * L**2 / (4 * vctrl.N**2 * vmodel.nu * math.pi**2)
    assert d0 == pytest.approx(0.125)

    worst = math.inf
    for _ in range(500):
        u, v = random_state(vgrid, cos_tab)
        bound = 0.25 * integral(vgrid, v, v) + d0 * h1_seminorm_sq(vgrid, u)
        worst = min(worst, phi(vmodel, vctrl, vgrid, u, v) - bound)

        u, v = random_state(fgrid, sin_tab)
        quartic = 0.25 * float(np.dot(fgrid.quad_weights, np.abs(u) ** 4))
        bound = 0.25 * integral(fgrid, v, v) + 0.25 * h1_seminorm_sq(fgrid, u) + quartic
        worst = min(worst, phi(fmodel, fctrl, fgrid, u, v) - bound)
        worst = min(worst, phi(smodel, sctrl, fgrid, u, v) - bound)
    bounds_ok = worst >= -1e-12

    runs = (
        (vresult, vreport.predicted_rate),
        (fresult, freport.predicted_rate),
        (sresult, sreport.predicted_rate),
    )
    violations = 0
    for result, delta in runs:
        violations += _monotone_violations(_lyapunov_pairs(result), delta)

    eb_fit = _log_fit([(t, v) for t, v in _lyapunov_pairs(fresult) if 1.2 <= t <= 5.4])
    fit_ok = eb_fit >= 0.9 * freport.predicted_rate

    ok = bounds_ok and violations == 0 and fit_ok
    _verdict(
        9,
        "energy functionals",
        ok,
        f"worst margin={worst:.3f} monotone violations={violations} eb fit={eb_fit:.3f}",
    )
