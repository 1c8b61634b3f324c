"""Time stepping: accuracy, conservation, blow-up handling, Lyapunov hooks, the block ledger."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from wavestab import (
    BoundaryCondition,
    Family,
    Field,
    FourierModes,
    Nodal,
    NoControl,
    StepperConfig,
    Subdomain,
    SubdomainControl,
    VolumeElements,
    controller_energy,
    damped_wave,
    default_dt,
    energy_record,
    integral,
    lyapunov_eb,
    make_control_operator,
    make_grid,
    mode_matrix,
    nonlinear_damping_wave,
    run,
    strongly_damped_wave,
    zeros,
)
from wavestab import LEDGER_COLUMNS, controllers, integrator, kernels
from wavestab.config import ConfigError, ExperimentConfig, step_gate
from wavestab.models import ledger_column, source

from conftest import DISTINCT, one_state_observation, reference_solution

PI = np.pi


def modal_solution(lam_h, b, t):
    """u(t) for the scalar mode ODE u'' + b u' + lam u = 0, u(0)=1, u'(0)=0."""
    omega = math.sqrt(lam_h - b * b / 4.0)
    return math.exp(-b * t / 2) * (math.cos(omega * t) + b / (2 * omega) * math.sin(omega * t))


def counted(calls, key, fn):
    """``fn``, counting its calls in ``calls[key]``."""
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)
    return wrapper


def first_mode_state(grid, amplitude=1.0):
    return Field(grid, amplitude * mode_matrix(grid, 1)[0])


def discrete_lambda1(grid):
    return 4.0 / grid.dx**2 * math.sin(PI * grid.dx / (2 * grid.L)) ** 2


def l2_error(grid, got, want):
    gap = got - want
    return math.sqrt(integral(grid, gap, gap))


class TestStepperConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_end=1.0),
            dict(dt=-0.1, t_end=1.0),
            dict(dt=np.nan, t_end=1.0),
            dict(dt=0.5, t_end=-1.0),
            dict(dt=2.0, t_end=1.0),
            dict(dt=0.1, t_end=1.0, record_every=0),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            StepperConfig(**kwargs)

    @pytest.mark.parametrize("dt, nearest", [(0.3, 1.0 / 3.0), (0.4, 0.5), (0.0061, 1.0 / 164)])
    def test_rejects_dt_that_does_not_divide_t_end(self, dt, nearest):
        with pytest.raises(ValueError, match="does not divide") as err:
            StepperConfig(dt=dt, t_end=1.0)
        assert repr(nearest) in str(err.value)
        StepperConfig(dt=nearest, t_end=1.0)  # the suggested dt is accepted

    @pytest.mark.parametrize("dt, t_end, n", [(0.005, 6.0, 1200), (0.002, 16.0, 8000),
                                              (0.1, 0.3, 3), (0.1, 0.0, 0)])
    def test_n_steps_reaches_t_end(self, dt, t_end, n):
        cfg = StepperConfig(dt=dt, t_end=t_end)
        assert cfg.n_steps == n
        assert cfg.n_steps * dt == pytest.approx(t_end, rel=1e-12, abs=0.0)

    def test_default_dt_cap(self):
        g = make_grid(PI, 16, "dirichlet")
        assert default_dt(g) == pytest.approx(1e-2)  # 0.25*dx > 1e-2 here
        g2 = make_grid(PI, 2000, "dirichlet")
        assert default_dt(g2) == pytest.approx(0.25 * g2.dx)


class TestLinearAccuracy:
    def test_modal_closed_form(self):
        g = make_grid(PI, 128, "dirichlet")
        model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        u0 = first_mode_state(g)
        res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=1e-3, t_end=1.0))
        expected = modal_solution(discrete_lambda1(g), 1.0, 1.0) * u0.values
        err = np.max(np.abs(res.u - expected))
        assert err < 5e-7  # O(dt^2)

    def test_second_order_convergence(self):
        g = make_grid(PI, 64, "dirichlet")
        model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        u0 = first_mode_state(g)
        lam = discrete_lambda1(g)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=dt, t_end=1.0))
            expected = modal_solution(lam, 1.0, 1.0) * u0.values
            errs.append(l2_error(g, res.u, expected))
        order = math.log(errs[0] / errs[-1]) / math.log(4)
        assert 1.8 <= order <= 2.2, f"observed order {order:.3f} from errors {errs}"

    def test_halving_dt_quarters_error(self):
        g = make_grid(PI, 128, "dirichlet")
        model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        u0 = first_mode_state(g)
        lam = discrete_lambda1(g)
        errs = []
        for dt in (0.02, 0.01):
            res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=dt, t_end=1.0))
            expected = modal_solution(lam, 1.0, 1.0) * u0.values
            errs.append(l2_error(g, res.u, expected))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_undamped_energy_conserved():
    g = make_grid(PI, 128, "dirichlet")
    model = damped_wave(1.0, 0.0, 0.0, "dirichlet")
    u0 = Field(g, mode_matrix(g, 1)[0] + 0.5 * mode_matrix(g, 3)[2])
    res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=1e-3, t_end=10.0, record_every=500))
    E = ledger_column(res.ledger, "total")
    assert abs(E[-1] - E[0]) <= 1e-8 * E[0]
    assert np.max(np.abs(E - E[0])) <= 1e-8 * E[0]


def test_off_node_nodal_feedback_never_raises_the_energy():
    # 64 cells over N = 3 elements put the midpoints between nodes; actuating
    # through the interpolation's transpose makes the feedback dissipative there
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 1.0, 0.5, "dirichlet")
    x = g.nodes
    u0 = Field(g, np.sin(x) + 0.5 * np.sin(3.0 * x) + 0.3 * np.sin(5.0 * x))
    res = run(model, Nodal(3, 5.0), u0, zeros(g), StepperConfig(dt=0.002, t_end=4.0, record_every=1))
    E = ledger_column(res.ledger, "total")
    assert len(E) == 2001
    assert np.max(np.diff(E)) <= 1e-9 * E[0]


def test_zero_state_stays_zero():
    g = make_grid(PI, 64, "neumann")
    model = damped_wave(1.0, 1.0, 2.0, "neumann")
    res = run(model, VolumeElements(2, 4.0), zeros(g), zeros(g), StepperConfig(dt=0.01, t_end=1.0))
    assert not res.u.any()
    assert not res.v.any()


def test_t_end_zero_single_record():
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    u0 = first_mode_state(g, 2.0)
    res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=0.0))
    assert len(res.ledger) == 1
    np.testing.assert_array_equal(res.u, u0.values)


def test_deterministic_reruns():
    g = make_grid(PI, 96, "neumann")
    model = damped_wave(1.0, 1.0, 2.0, "neumann")
    u0 = Field(g, np.exp(-((g.nodes - 1.5) / 0.4) ** 2))
    cfg = StepperConfig(dt=0.004, t_end=2.0)
    a = run(model, VolumeElements(2, 4.0), u0, zeros(g), cfg)
    b = run(model, VolumeElements(2, 4.0), u0, zeros(g), cfg)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.ledger, b.ledger)


def test_records_thinned_by_record_every():
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    res = run(
        model,
        NoControl(),
        first_mode_state(g),
        zeros(g),
        StepperConfig(dt=0.01, t_end=1.0, record_every=25),
    )
    # t=0, t=0.25, 0.5, 0.75, 1.0
    np.testing.assert_allclose(ledger_column(res.ledger, "t"), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-10)


def test_final_partial_interval_recorded():
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    res = run(
        model,
        NoControl(),
        first_mode_state(g),
        zeros(g),
        StepperConfig(dt=0.01, t_end=1.0, record_every=30),
    )
    assert ledger_column(res.ledger, "t")[-1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "t_end,every,steps",
    [(1.0, 1, list(range(101))), (1.0, 25, [0, 25, 50, 75, 100]), (1.0, 30, [0, 30, 60, 90, 100]),
     (1.0, 100, [0, 100]), (1.0, 250, [0, 100]), (0.0, 5, [0])],
)
def test_run_records_exactly_the_record_steps(t_end, every, steps):
    g = make_grid(PI, 32, "dirichlet")
    cfg = StepperConfig(dt=0.01, t_end=t_end, record_every=every)
    assert cfg.record_steps.tolist() == steps
    res = run(damped_wave(1.0, 0.0, 1.0, "dirichlet"), NoControl(), first_mode_state(g), zeros(g), cfg)
    np.testing.assert_array_equal(res.ledger[:, 0], cfg.record_steps * cfg.dt)


class TestBlowup:
    def test_unstable_baseline_aborts(self):
        g = make_grid(PI, 64, "dirichlet")
        model = damped_wave(1.0, 50.0, 0.1, "dirichlet")
        u0 = first_mode_state(g, 100.0)
        res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=60.0))
        assert res.blew_up
        assert res.blowup_time is not None and 0 < res.blowup_time < 60.0
        assert len(res.ledger) > 0
        assert np.all(np.isfinite(res.u))

    def test_constant_mode_growth_flagged(self):
        # Neumann, a=1, mu=0: the constant mode obeys u'' = u - b u' and grows
        g = make_grid(PI, 64, "neumann")
        model = damped_wave(1.0, 1.0, 1.0, "neumann")
        u0 = Field(g, np.ones(g.n_nodes))
        res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=40.0))
        # |quadratic| = (a/2)||u||^2 tracks the growing constant mode
        quadratic = ledger_column(res.ledger, "quadratic")
        assert res.blew_up or abs(quadratic[-1]) > 100 * abs(quadratic[0])


    def test_overflowing_source_is_a_blowup_not_a_crash(self):
        # |u|^38 u overflows to inf in the first explicit half step, long
        # before |u| reaches the 1e12 limit; the solve passes it on as NaN
        g = make_grid(PI, 64, "dirichlet")
        model = damped_wave(1.0, 1.0, 0.5, "dirichlet", 40)
        u0 = Field(g, 1e10 * np.sin(g.nodes))
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=5.0))
        assert res.blew_up
        assert res.blowup_time == 0.01
        assert res.t == 0.0
        np.testing.assert_array_equal(res.u, u0.values)


class TestBlowupLimit:
    """The loop's exact per-step test, for a state that fails its sum-of-squares screen:
    every node finite and within BLOWUP_LIMIT."""

    LIMIT = integrator.BLOWUP_LIMIT

    @staticmethod
    def state(peak, n=255):
        u = np.linspace(-1.0, 1.0, n)
        v = 0.5 * u
        u[n // 3] = peak
        return u, v

    def test_a_node_at_the_limit_is_not_a_blow_up(self):
        u, v = self.state(self.LIMIT)
        assert integrator._within_limit(u, v)
        assert integrator._within_limit(v, -u)

    def test_the_next_float_above_the_limit_is_a_blow_up(self):
        u, v = self.state(np.nextafter(self.LIMIT, np.inf))
        assert not integrator._within_limit(u, v)
        assert not integrator._within_limit(v, -u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes_are_a_blow_up(self, bad):
        u, v = self.state(bad)
        assert not integrator._within_limit(u, v)
        assert not integrator._within_limit(v, u)

    def test_every_node_at_nine_tenths_of_the_limit_is_not_a_blow_up(self):
        # the sum of squares fails the loop's screen; the exact test passes
        u = np.full(255, 0.9 * self.LIMIT)
        assert u @ u + u @ u > 0.25 * self.LIMIT**2
        assert integrator._within_limit(u, -u)


def banded_imex_matrix(model, grid, dt):
    """The IMEX matrix M in ``solve_banded``'s (1, 1) storage, written from the scheme."""
    kappa = 0.5 * dt * model.viscosity + 0.25 * dt * dt * model.nu
    inv_dx2 = 1.0 / grid.dx**2
    ab = np.empty((3, grid.n_nodes))
    ab[0] = ab[2] = -kappa * inv_dx2
    ab[1] = 1.0 + 0.5 * dt * model.linear_damping + 2.0 * kappa * inv_dx2
    if grid.bc.value == "neumann":  # reflected ghosts double the end couplings
        ab[0, 1] = ab[2, -2] = -2.0 * kappa * inv_dx2
    return ab


def symmetric_imex_system(model, grid, dt):
    """W*M in ``solveh_banded``'s upper storage, and W's diagonal.

    W halves M's two Neumann end rows and is 1 elsewhere; W*M is symmetric.
    """
    ab = banded_imex_matrix(model, grid, dt)
    w = np.ones(grid.n_nodes)
    if grid.bc.value == "neumann":
        w[[0, -1]] = 0.5
    sym = np.zeros((2, grid.n_nodes))
    sym[0, 1:] = w[:-1] * ab[0, 1:]  # row i's coupling to i + 1
    sym[1] = w * ab[1]
    np.testing.assert_array_equal(w[1:] * ab[2, :-1], sym[0, 1:])  # row i + 1's coupling to i
    return sym, w


class TestPrefactoredSolve:
    CASES = [
        pytest.param(
            damped_wave(1.0, 1.0, 2.0, "dirichlet", 4),
            "dirichlet", FourierModes(2, 4.0), id="dirichlet",
        ),
        pytest.param(
            damped_wave(1.0, 1.0, 2.0, "neumann", 4),
            "neumann", VolumeElements(4, 6.0), id="neumann",
        ),
        pytest.param(
            strongly_damped_wave(1.0, 1.0, 0.5, 4.0), "dirichlet", FourierModes(2, 4.0),
            id="strongly_damped",
        ),
    ]

    @pytest.mark.parametrize("model, bc, ctrl", CASES)
    def test_matches_banded_solve_reference(self, model, bc, ctrl, monkeypatch):
        g = make_grid(PI, 128, bc)
        u0 = Field(g, np.sin(g.nodes) + 0.5 * np.cos(3 * g.nodes) * (bc == "neumann"))
        cfg = StepperConfig(dt=0.005, t_end=1.0, record_every=20)
        assert cfg.n_steps == 200
        fast = run(model, ctrl, u0, zeros(g), cfg)
        # LAPACK's ptsv on W*M x = W*rhs: the same LDL^T algorithm, unfactored each step
        sym, w = symmetric_imex_system(model, g, cfg.dt)
        monkeypatch.setattr(kernels, "thomas_solve", lambda _f, rhs: solveh_banded(sym, w * rhs))
        ref = run(model, ctrl, u0, zeros(g), cfg)
        np.testing.assert_array_equal(fast.u, ref.u)
        np.testing.assert_array_equal(fast.v, ref.v)
        assert len(fast.ledger) == len(ref.ledger) == 11
        np.testing.assert_array_equal(fast.ledger, ref.ledger)

    @pytest.mark.parametrize("model, law", [
        (damped_wave(1.0, 1.0, 2.0, "dirichlet", 4), FourierModes(2, 4.0)),
        (damped_wave(1.0, 1.0, 2.0, "neumann", 4), VolumeElements(4, 6.0)),
        (damped_wave(1.0, 0.0, 0.0, "neumann"), NoControl()),
        (strongly_damped_wave(1.0, 1.0, 0.5, 4.0), Nodal(4, 2.0)),
        (nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0), FourierModes(2, 3.0)),
    ], ids=["damped", "neumann", "undamped_neumann", "strong", "nonlinear"])
    def test_matches_the_pivoted_lu_solve_it_replaced(self, model, law, monkeypatch):
        # the family fixes the boundary type of all but the damped wave
        g = make_grid(PI, 128, model.bc)
        u0 = Field(g, np.sin(g.nodes) + 0.5 * np.cos(3 * g.nodes))
        cfg = StepperConfig(dt=0.005, t_end=1.25, record_every=25)
        assert cfg.n_steps == 250
        fast = run(model, law, u0, zeros(g), cfg)
        ab = banded_imex_matrix(model, g, cfg.dt)
        *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
        assert info == 0
        monkeypatch.setattr(kernels, "thomas_solve", lambda _f, rhs: dgttrs(*lu, rhs)[0])
        ref = run(model, law, u0, zeros(g), cfg)
        for got, want in ((fast.u, ref.u), (fast.v, ref.v)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        np.testing.assert_allclose(fast.ledger, ref.ledger, rtol=0.0, atol=1e-12 * np.max(np.abs(ref.ledger)))

    def test_one_factorisation_per_run(self, monkeypatch):
        calls = {"factor": 0, "solve": 0}
        factor, solve = kernels.factor_tridiagonal, kernels.thomas_solve
        monkeypatch.setattr(kernels, "factor_tridiagonal", counted(calls, "factor", factor))
        monkeypatch.setattr(kernels, "thomas_solve", counted(calls, "solve", solve))
        g = make_grid(PI, 64, "neumann")
        model = damped_wave(1.0, 1.0, 2.0, "neumann")
        u0 = Field(g, np.cos(g.nodes))
        cfg = StepperConfig(dt=0.01, t_end=1.5, record_every=7)
        run(model, VolumeElements(2, 4.0), u0, zeros(g), cfg)
        assert calls == {"factor": 1, "solve": cfg.n_steps}


# ---------------------------------------------------------------------------
# the IMEX step against an independent reference of the same semi-discrete system
# ---------------------------------------------------------------------------

REFERENCE_CASES = {
    "damped_fourier": (damped_wave(1.0, 1.0, 2.0, "dirichlet", 4.0), FourierModes(2, 3.0)),
    "neumann_volume": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(4, 6.0)),
    "strong_nodal": (strongly_damped_wave(1.0, 1.0, 1.0, 4.0), Nodal(4, 2.0)),
    "nonlinear_fourier": (nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0), FourierModes(2, 3.0)),
}


def test_reference_cases_cover_every_family():
    assert {model.family for model, _ in REFERENCE_CASES.values()} == set(Family)


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_imex_converges_to_the_reference_at_order_two(name):
    # the reference is DOP853 at rtol = atol = 1e-12 on the same 32-cell
    # system, so what separates the two is the step's time error alone
    model, law = REFERENCE_CASES[name]
    g = make_grid(PI, 32, model.bc)
    u0 = Field(g, np.sin(g.nodes) + 0.4 * np.sin(3.0 * g.nodes))
    v0 = Field(g, 0.5 * np.sin(2.0 * g.nodes))
    u_ref, v_ref = reference_solution(model, law, u0, v0, 1.0)
    errs = []
    for dt in (0.004, 0.002, 0.001):
        res = run(model, law, u0, v0, StepperConfig(dt=dt, t_end=1.0, record_every=1000))
        errs.append(max(np.max(np.abs(res.u - u_ref)), np.max(np.abs(res.v - v_ref))))
    order = math.log(errs[0] / errs[-1]) / math.log(4)
    assert 1.9 <= order <= 2.1, f"observed order {order:.3f} from errors {errs}"


def test_nonlinear_damping_stable_at_default_dt():
    g = make_grid(PI, 128, "dirichlet")
    model = nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0)
    u0 = first_mode_state(g, 2.0)
    dt = 5.0 / math.ceil(5.0 / default_dt(g))  # the largest dt <= default that divides t_end
    res = run(model, FourierModes(1, 2.0), u0, zeros(g), StepperConfig(dt=dt, t_end=5.0))
    assert not res.blew_up
    total = ledger_column(res.ledger, "total")
    assert total[-1] < total[0]


def phi(model, law, grid, u, v):
    """The pair's perturbed energy of the states (u, v), from their energy_record rows."""
    rows = energy_record(model, grid, u, v, np.zeros(u.shape[:-1]))  # a row of zero controller energy
    return lyapunov_eb(model, law, grid, u, rows)


class TestLyapunov:
    def test_zero_states_vanish(self):
        gn = make_grid(PI, 64, "neumann")
        gd = make_grid(PI, 64, "dirichlet")
        mn = damped_wave(1.0, 1.0, 2.0, "neumann")
        md = damped_wave(1.0, 1.0, 2.0, "dirichlet", None)
        zn, zd = np.zeros(gn.n_nodes), np.zeros(gd.n_nodes)
        assert phi(mn, VolumeElements(2, 4.0), gn, zn, zn) == 0.0
        assert phi(md, FourierModes(2, 4.0), gd, zd, zd) == 0.0
        block = np.zeros((3, gd.n_nodes))
        np.testing.assert_array_equal(phi(md, FourierModes(2, 4.0), gd, block, block), np.zeros(3))

    def test_volume_name_is_an_alias(self):
        assert integrator.lyapunov_volume is lyapunov_eb

    @pytest.mark.parametrize(
        "model",
        [strongly_damped_wave(1.0, 1.0, 0.5, 4.0), nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0)],
        ids=["strongly_damped", "nonlinear_damping"],
    )
    def test_subdomain_functional_only_on_damped_wave(self, model):
        gd = make_grid(PI, 64, "dirichlet")
        ctrl = SubdomainControl(Subdomain(1.0, 2.0), 5.0)
        z = np.zeros(gd.n_nodes)
        with pytest.raises(TypeError, match="SubdomainControl feedback"):
            phi(model, ctrl, gd, z, z)

    def test_volume_requires_volume_controller(self):
        gn = make_grid(PI, 64, "neumann")
        mn = damped_wave(1.0, 1.0, 2.0, "neumann")
        z = np.zeros(gn.n_nodes)
        with pytest.raises(TypeError):
            lyapunov_eb(mn, NoControl(), gn, z, energy_record(mn, gn, z, z, 0.0))

    def test_auto_lyapunov_in_records(self):
        gn = make_grid(PI, 64, "neumann")
        mn = damped_wave(1.0, 1.0, 2.0, "neumann")
        u0 = Field(gn, np.exp(-((gn.nodes - 1.5) / 0.4) ** 2))
        res = run(mn, VolumeElements(2, 4.0), u0, zeros(gn), StepperConfig(dt=0.01, t_end=0.5))
        assert res.ledger.shape[1] == len(LEDGER_COLUMNS)
        assert np.all(np.isfinite(ledger_column(res.ledger, "lyapunov")))

    def test_no_lyapunov_for_nodal(self):
        gd = make_grid(PI, 270, "dirichlet")
        md = damped_wave(1.0, 1.0, 0.5, "dirichlet", None)
        from wavestab import Nodal

        u0 = Field(gd, np.sin(gd.nodes))
        res = run(md, Nodal(27, 4.3), u0, zeros(gd), StepperConfig(dt=0.01, t_end=0.2))
        assert res.ledger.shape[1] == len(LEDGER_COLUMNS) - 1  # no lyapunov column


def test_final_state_matches_last_record():
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    u0 = first_mode_state(g)
    res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=0.5))
    assert res.t == 0.5 and res.u.shape == res.v.shape == (g.n_nodes,)
    assert not np.shares_memory(res.u, u0.values)
    last = energy_record(model, g, res.u, res.v, 0.0)
    np.testing.assert_array_equal(res.ledger[-1], [res.t, *last[:7]])


def test_grid_mismatch_rejected():
    g = make_grid(PI, 64, "dirichlet")
    g2 = make_grid(PI, 128, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    with pytest.raises(ValueError):
        run(model, NoControl(), zeros(g), zeros(g2), StepperConfig(dt=0.01, t_end=0.1))


def test_bc_mismatch_rejected():
    g = make_grid(PI, 64, "neumann")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    with pytest.raises(ValueError, match="posed with dirichlet boundaries, grid has neumann"):
        run(model, NoControl(), zeros(g), zeros(g), StepperConfig(dt=0.01, t_end=0.1))


def two_stencil_step(stepper, u, v):
    """The IMEX step with separate stencils of u and u_star, as the scheme is derived."""
    mdl, dt, dx, lap = stepper.model, stepper.dt, stepper.grid.dx, stepper.lap
    lap_u = lap(u, dx)
    u_star = u + 0.5 * dt * v
    v_half = v
    if mdl.m is not None:
        v_half = v + 0.5 * dt * (source(mdl, u, v, mdl.nu * lap_u) + stepper.ctl(u))
    r_v = v + 0.5 * dt * (mdl.nu * lap_u - mdl.linear_damping * v)
    r_v += dt * (source(mdl, u_star, v_half, np.zeros_like(u_star)) + stepper.ctl(u_star))
    r_v += 0.5 * dt * mdl.viscosity * lap(v, dx)
    v_new = kernels.thomas_solve(stepper.factors, r_v + 0.5 * dt * mdl.nu * lap(u_star, dx))
    return u_star + 0.5 * dt * v_new, v_new


@pytest.mark.parametrize("model, law", [
    (damped_wave(1.0, 1.0, 2.0, "dirichlet", 4.0), FourierModes(2, 3.0)),
    (damped_wave(0.7, 1.0, 2.0, "neumann"), VolumeElements(4, 6.0)),
    (strongly_damped_wave(1.0, 1.0, 1.0, 4.0), Nodal(4, 2.0)),
    (nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0), FourierModes(2, 3.0)),
], ids=["damped", "neumann", "strong", "nonlinear"])
def test_one_stencil_step_matches_the_two_stencil_form(model, law):
    g = make_grid(PI, 64, model.bc)
    stepper = integrator._ImexStepper(model, g, 0.01, make_control_operator(law, g))
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(g.n_nodes), rng.standard_normal(g.n_nodes)
    for _ in range(200):  # each step from the two-stencil form's state
        got = stepper.advance(u, v)
        u, v = two_stencil_step(stepper, u, v)
        for a, want in zip(got, (u, v)):
            np.testing.assert_allclose(a, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_one_stencil_and_one_solve_per_step(name, monkeypatch):
    calls = {"stencil": 0, "solve": 0}
    for stencil in ("laplacian_dirichlet", "laplacian_neumann"):
        monkeypatch.setattr(kernels, stencil, counted(calls, "stencil", getattr(kernels, stencil)))
    monkeypatch.setattr(kernels, "thomas_solve", counted(calls, "solve", kernels.thomas_solve))
    model, law = REFERENCE_CASES[name]
    g = make_grid(PI, 32, model.bc)
    cfg = StepperConfig(dt=0.01, t_end=0.5, record_every=7)
    res = run(model, law, Field(g, np.sin(g.nodes)), zeros(g), cfg)
    assert not res.blew_up
    assert calls == {"stencil": cfg.n_steps, "solve": cfg.n_steps}


# ---------------------------------------------------------------------------
# the workspace step and the one-pass ledger against the paths they replaced
# ---------------------------------------------------------------------------

def allocating_advance(self, u, v):
    """The IMEX step before it had a workspace, verbatim: every term a fresh array.

    The trapezoid's weights are computed here, as the stepper no longer holds them.
    """
    mdl = self.model
    dt, dx = self.dt, self.grid.dx
    v_weight = 1.0 - 0.5 * dt * mdl.linear_damping
    half_dt_nu = 0.5 * dt * mdl.nu
    beta = mdl.viscosity
    u_star = u + 0.5 * dt * v
    v_half = v
    if mdl.m is not None:
        # only nonlinear damping reads v: predict it at the half step
        v_half = v + 0.5 * dt * (source(mdl, u, v, mdl.nu * self.lap(u, dx)) + self.ctl(u))
    g_half = source(mdl, u_star, v_half, np.zeros_like(u_star)) + self.ctl(u_star)
    # the trapezoid on nu*u_xx is nu/2 (lap u + lap u_new), and lap u_new =
    # lap u_star + dt/2 lap v_new: the v_new part is in the matrix, and
    # lap u + lap u_star is one stencil of u + u_star
    rhs = v_weight * v + dt * g_half + half_dt_nu * self.lap(u + u_star, dx)
    if beta != 0.0:
        rhs += 0.5 * dt * beta * self.lap(v, dx)
    v_new = kernels.thomas_solve(self.factors, rhs)
    u_new = u_star + 0.5 * dt * v_new
    return u_new, v_new


def per_state_ledger_row(model, law, grid, t, u, v):
    """One record as the ledger computed it before its norms took one pass each:
    weighted temporaries summed along the nodes, F(u) = |u|^p/p, and the law's
    one-state observation in a BLAS dot product."""
    w = grid.quad_weights

    def integral_of(f):
        return np.sum(w * f, axis=-1)

    du = u[1:] - u[:-1]
    h1 = np.sum(du * du)
    if grid.bc.value == "dirichlet":
        h1 = h1 + u[0] * u[0] + u[-1] * u[-1]
    h1 = h1 / grid.dx
    p = model.p
    vv, uu = integral_of(v * v), integral_of(u * u)
    kin, grad, quad = 0.5 * vv, 0.5 * model.nu * h1, -0.5 * model.a * uu
    lp = 0.0 if p is None else integral_of(np.abs(u) ** p / p)
    s = controllers._feedback_law(law, grid).s
    ctrl = 0.5 * law.mu * float(np.dot(s, one_state_observation(law, grid)(u) ** 2))
    row = [t, kin, grad, quad, lp, ctrl, kin + grad + quad + lp + ctrl, vv + h1]
    cert = controllers.certificate(model, law)
    if cert is not None and cert.weights is not None:
        eps, g1, q = cert.weights(model, grid)
        row.append(kin + 0.5 * g1 * h1 + q * uu + lp + ctrl + eps * integral_of(u * v))
    return np.array(row)


REPLACED_PATH_CASES = {
    "volume": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(4, 6.0)),
    "volume_N1": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(1, 6.0)),
    "volume_N2": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(2, 6.0)),
    "volume_half": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(32, 6.0)),
    "fourier": (damped_wave(1.0, 1.0, 2.0, "dirichlet", 4.0), FourierModes(2, 3.0)),
    "strong_fourier": (strongly_damped_wave(1.0, 1.0, 1.0, 4.0), FourierModes(2, 3.0)),
    "nonlinear": (nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0), FourierModes(2, 3.0)),
    "nodal": (strongly_damped_wave(1.0, 1.0, 1.0, 4.0), Nodal(4, 2.0)),
    "subdomain": (damped_wave(1.0, 1.0, 2.0, "dirichlet"), SubdomainControl(Subdomain(0.5, 1.7), 4.0)),
}


def test_replaced_path_cases_cover_every_certified_pair():
    pairs = {(type(law), model.family) for model, law in REPLACED_PATH_CASES.values()}
    assert pairs == set(controllers.CERTIFIED)
    assert {model.bc for model, _ in REPLACED_PATH_CASES.values()} == set(BoundaryCondition)


@pytest.mark.parametrize("name", sorted(REPLACED_PATH_CASES))
def test_workspace_step_and_ledger_match_the_paths_they_replaced(name):
    model, law = REPLACED_PATH_CASES[name]
    g = make_grid(PI, 64, model.bc)
    x = g.nodes
    u0 = Field(g, np.sin(x) + 0.4 * np.sin(3.0 * x) + 0.2 * np.cos(2.0 * x) * (x < 1.0))
    cfg = StepperConfig(dt=0.01, t_end=2.0)
    assert cfg.n_steps == 200
    res = run(model, law, u0, zeros(g), cfg)
    stepper = integrator._ImexStepper(model, g, cfg.dt, make_control_operator(law, g))
    u, v = u0.values, np.zeros(g.n_nodes)
    ref = [per_state_ledger_row(model, law, g, 0.0, u, v)]
    for k in range(1, cfg.n_steps + 1):
        got = stepper.advance(u, v)
        u, v = allocating_advance(stepper, u, v)
        # the same scheme, its right-hand side rearranged: equal to round-off
        for a, want in zip(got, (u, v)):
            np.testing.assert_allclose(a, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        ref.append(per_state_ledger_row(model, law, g, k * cfg.dt, u, v))
    np.testing.assert_allclose(res.u, u, rtol=0.0, atol=1e-13 * np.max(np.abs(u)))
    ref = np.array(ref)
    scale = np.max(np.abs(ref[0, 1:]))  # E(0): the largest energy term of the first record
    np.testing.assert_allclose(res.ledger, ref, rtol=0.0, atol=1e-13 * scale)


# ---------------------------------------------------------------------------
# the lean step against the step it replaced, bit for bit
# ---------------------------------------------------------------------------

def keyword_power(u, p, out=None):
    """``models.power`` before its product at p = 4, verbatim."""
    w = np.abs(u, out=out)
    w **= p - 2.0
    return w


def keyword_source(model, u, v, base, out=None):
    """``models.source`` before its ``out`` went by position, verbatim, on :func:`keyword_power`."""
    if model.p is None:
        s = np.multiply(model.a, u, out=out)
    else:
        s = keyword_power(u, model.p, out=out)
        np.subtract(model.a, s, out=s)
        s *= u
    s += base
    if model.family is Family.NONLINEAR_DAMPING:
        s -= model.b * np.abs(v) ** (model.m - 2.0) * v
    return s


def keyword_advance(self, u, v):
    """The IMEX step before its calls lost their keywords, verbatim, on :func:`keyword_source`.

    Its stepper's ``ctl`` is :func:`block_feedback`, the feedback it took.
    """
    mdl, half_dt = self.model, self.half_dt
    u_star, g = self.u_star, self.g
    np.multiply(v, half_dt, out=u_star)
    u_star += u
    nu_lap_u = self.lap(u, self.nu_dx)
    v_half = v
    if mdl.m is not None:
        # only nonlinear damping reads v: predict it at the half step
        v_half = v + half_dt * (keyword_source(mdl, u, v, nu_lap_u) + self.ctl(u))
    keyword_source(mdl, u_star, v_half, nu_lap_u, out=g)
    g += self.ctl(u_star)
    g *= self.dt
    rhs = np.add(v, v)
    rhs += g
    v_new = kernels.thomas_solve(self.factors, rhs)
    v_new -= v
    u_new = np.multiply(v_new, half_dt)
    u_new += u_star
    return u_new, v_new


def block_feedback(law, grid):
    """The feedback as the step took it before the one-state path: the law's observation, actuated."""
    observe, actuate, _, _ = controllers._feedback_law(law, grid)
    return lambda u: actuate(observe(u))


@pytest.mark.parametrize("name", sorted(REPLACED_PATH_CASES))
def test_the_step_is_the_keyword_step_bit_for_bit(name):
    model, law = REPLACED_PATH_CASES[name]
    g = make_grid(PI, 64, model.bc)
    x = g.nodes
    u0 = Field(g, np.sin(x) + 0.4 * np.sin(3.0 * x) + 0.2 * np.cos(2.0 * x) * (x < 1.0))
    u1 = Field(g, 0.5 * np.sin(2.0 * x))
    cfg = StepperConfig(dt=0.01, t_end=2.0)
    assert cfg.n_steps == 200
    stepper = integrator._ImexStepper(model, g, cfg.dt, make_control_operator(law, g))
    before = integrator._ImexStepper(model, g, cfg.dt, block_feedback(law, g))
    state = want = (u0.values, u1.values)
    for _ in range(cfg.n_steps):  # each from its own last state
        state = stepper.advance(*state)
        want = keyword_advance(before, *want)
        for a, b in zip(state, want):
            assert a.tobytes() == b.tobytes()
    res = run(model, law, u0, u1, cfg)
    assert res.u.tobytes() == want[0].tobytes()
    assert res.v.tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# the block ledger: records are evaluated a buffer at a time
# ---------------------------------------------------------------------------

LEDGER_CASES = {
    "fourier": (damped_wave(1.0, 1.0, 2.0, "dirichlet", 4.0), FourierModes(2, 3.0)),
    "volume": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(4, 6.0)),
    "subdomain": (damped_wave(1.0, 1.0, 2.0, "dirichlet"), SubdomainControl(Subdomain(0.5, 1.7), 4.0)),
    "nodal": (strongly_damped_wave(1.0, 1.0, 1.0, 4.0), Nodal(4, 2.0)),
    "nodal_ends": (strongly_damped_wave(1.0, 1.0, 1.0, 4.0), Nodal(4, 2.0, obs_points=(0.0, 1.0, 2.0, PI))),
    "volume_N1": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(1, 6.0)),
    "volume_half": (damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(32, 6.0)),  # n_cells / 2
    "nonlinear": (nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0), FourierModes(2, 3.0)),
}


def alone(model, law, g, t, u, v):
    """The ledger row of the state (u, v) at time t, evaluated by itself."""
    rows = energy_record(model, g, u, v, controller_energy(law, g, u))
    cert = controllers.certificate(model, law)
    lyapunov = [] if cert is None or cert.weights is None else [phi(model, law, g, u, v)]
    return np.array([t, *rows[:7], *lyapunov])


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_the_ledger_does_not_depend_on_the_block_width(name, monkeypatch):
    model, law = LEDGER_CASES[name]
    g = make_grid(PI, 64, model.bc)
    x = g.nodes
    u0 = Field(g, np.sin(x) + 0.4 * np.sin(3.0 * x) + 0.2 * np.cos(2.0 * x) * (x < 1.0))
    cfg = StepperConfig(dt=0.01, t_end=1.0)
    default = run(model, law, u0, zeros(g), cfg)
    assert len(default.ledger) == 101
    for width in (1, 7, 64):  # a record per block, then blocks that leave a partial one at the end
        monkeypatch.setattr(integrator, "LEDGER_BLOCK_VALUES", width * g.n_nodes)
        res = run(model, law, u0, zeros(g), cfg)
        np.testing.assert_array_equal(res.ledger, default.ledger)
    np.testing.assert_array_equal(default.ledger[0], alone(model, law, g, 0.0, u0.values, np.zeros(g.n_nodes)))
    np.testing.assert_array_equal(default.ledger[-1], alone(model, law, g, default.t, default.u, default.v))


# a linear wave whose five low modes grow at rate ~4.9 without feedback:
# with mu = 0 it passes 1e12 near t = 5.4
BLOWUP_MODEL = damped_wave(1.0, 30.0, 1.0, "dirichlet")


@pytest.mark.parametrize("width", [1, 7, None])
def test_a_blow_up_keeps_the_buffered_records(width, monkeypatch):
    g = make_grid(PI, 64, "dirichlet")
    if width is not None:
        monkeypatch.setattr(integrator, "LEDGER_BLOCK_VALUES", width * g.n_nodes)
    u0 = Field(g, np.sin(g.nodes) + 0.5 * np.sin(2.0 * g.nodes))
    res = run(BLOWUP_MODEL, FourierModes(5, 0.0), u0, zeros(g), StepperConfig(dt=0.01, t_end=8.0))
    assert res.blew_up and 5.0 < res.blowup_time < 6.0
    assert res.t == pytest.approx(res.blowup_time - 0.01)
    assert len(res.ledger) == round(res.t / 0.01) + 1
    np.testing.assert_array_equal(res.ledger[-1], alone(BLOWUP_MODEL, FourierModes(5, 0.0), g, res.t, res.u, res.v))


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_the_one_state_feedback_is_the_block_observation_actuated(name):
    model, law = LEDGER_CASES[name]
    g = make_grid(PI, 64, model.bc)
    observe, actuate, _, feedback = controllers._feedback_law(law, g)
    assert make_control_operator(law, g) is feedback
    block = np.random.default_rng(17).standard_normal((9, g.n_nodes))
    for u, y in zip(block, observe(block)):
        assert feedback(u).tobytes() == actuate(y).tobytes()


# ---------------------------------------------------------------------------
# the loop's bookkeeping against the loop stepped and recorded one by one
# ---------------------------------------------------------------------------

def stepped_one_by_one(model, law, u0, u1, cfg):
    """(ledger, blowup_time, t_reached, u, v) of the loop as it was first written:
    each step through the exact ``_within_limit``, with no screen, and each
    recorded state's ledger row evaluated alone; u and v are the last good state."""
    g = u0.grid
    stepper = integrator._ImexStepper(model, g, cfg.dt, make_control_operator(law, g))
    record = set(cfg.record_steps.tolist())
    u, v, t = u0.values, u1.values, 0.0
    rows, blowup_time = [alone(model, law, g, t, u, v)], None
    for k in range(1, cfg.n_steps + 1):
        u_new, v_new = stepper.advance(u, v)
        if not integrator._within_limit(u_new, v_new):
            blowup_time = k * cfg.dt
            break
        u, v, t = u_new, v_new, k * cfg.dt
        if k in record:
            rows.append(alone(model, law, g, t, u, v))
    return np.array(rows), blowup_time, t, u, v


class TestLoopBookkeeping:
    """The blow-up time, the time reached, the last state and the ledger rows, exactly as stepped one by one."""

    GRID = make_grid(PI, 64, "dirichlet")
    CUBIC = damped_wave(1.0, 1.0, 0.5, "dirichlet", 4.0)

    def same_as_stepped(self, model, law, u0, cfg):
        res = run(model, law, u0, zeros(u0.grid), cfg)
        ledger, blowup_time, t, u, v = stepped_one_by_one(model, law, u0, zeros(u0.grid), cfg)
        assert (res.blowup_time, res.t) == (blowup_time, t)
        assert res.u.tobytes() == u.tobytes() and res.v.tobytes() == v.tobytes()
        assert res.ledger.shape == ledger.shape and res.ledger.tobytes() == ledger.tobytes()
        return res

    @pytest.mark.parametrize("width", [2, None])
    def test_an_overflowing_run(self, width, monkeypatch):
        # mu = 0 and u0 = 100 sin x: the explicit cubic term is unstable, and
        # the state passes 1e12, still finite, at step 13
        g = self.GRID
        if width is not None:  # blocks flushed before the blow-up
            monkeypatch.setattr(integrator, "LEDGER_BLOCK_VALUES", width * g.n_nodes)
        u0 = Field(g, 100.0 * np.sin(g.nodes))
        cfg = StepperConfig(dt=0.01, t_end=1.0, record_every=3)
        res = self.same_as_stepped(self.CUBIC, FourierModes(2, 0.0), u0, cfg)
        assert (res.blowup_time, res.t, len(res.ledger)) == (13 * 0.01, 12 * 0.01, 5)

    def test_a_run_whose_step_overflows_to_nan(self):
        # |u|^38 u overflows in the first half step, and the solve turns it into NaN
        model = damped_wave(1.0, 1.0, 0.5, "dirichlet", 40)
        u0 = Field(self.GRID, 1e10 * np.sin(self.GRID.nodes))
        with np.errstate(over="ignore", invalid="ignore"):
            res = self.same_as_stepped(model, NoControl(), u0, StepperConfig(dt=0.01, t_end=1.0))
        assert (res.blowup_time, res.t, len(res.ledger)) == (0.01, 0.0, 1)

    def test_a_nan_after_some_records(self, monkeypatch):
        # the seventh step of each stepper returns a NaN in one velocity node
        advance = integrator._ImexStepper.advance

        def poisoned(self, u, v):
            u_new, v_new = advance(self, u, v)
            self.taken = getattr(self, "taken", 0) + 1
            if self.taken == 7:
                v_new[5] = np.nan
            return u_new, v_new

        monkeypatch.setattr(integrator._ImexStepper, "advance", poisoned)
        u0 = Field(self.GRID, np.sin(self.GRID.nodes))
        cfg = StepperConfig(dt=0.01, t_end=1.0, record_every=2)
        res = self.same_as_stepped(self.CUBIC, FourierModes(2, 3.0), u0, cfg)
        assert (res.blowup_time, res.t, len(res.ledger)) == (7 * 0.01, 6 * 0.01, 4)

    def test_a_zero_step_run(self):
        u0 = Field(self.GRID, np.sin(self.GRID.nodes))
        res = self.same_as_stepped(self.CUBIC, FourierModes(2, 3.0), u0, StepperConfig(dt=0.01, t_end=0.0))
        assert (res.blowup_time, res.t, len(res.ledger)) == (None, 0.0, 1)


def test_an_advance_that_swaps_itself_out_in_its_first_call_runs_once(monkeypatch):
    # a benchmark stamps the first step so: the loop looks the method up at every step
    advance = integrator._ImexStepper.advance
    calls = []

    def first_step(self, u, v):
        integrator._ImexStepper.advance = advance
        calls.append(1)
        return advance(self, u, v)

    model, law = LEDGER_CASES["fourier"]
    g = make_grid(PI, 64, model.bc)
    u0, cfg = Field(g, np.sin(g.nodes)), StepperConfig(dt=0.01, t_end=0.5)
    want = run(model, law, u0, zeros(g), cfg)
    monkeypatch.setattr(integrator._ImexStepper, "advance", first_step)
    got = run(model, law, u0, zeros(g), cfg)
    assert calls == [1]
    assert got.ledger.tobytes() == want.ledger.tobytes()


# ---------------------------------------------------------------------------
# the step's limit: the linearized step against the step gate
# ---------------------------------------------------------------------------

def step_map(stepper):
    """The IMEX step of a linear model as its 2n x 2n matrix G: (u, v) -> G (u, v),
    assembled column by column from the step of each unit vector."""
    n = stepper.grid.n_nodes
    zero = np.zeros(n)
    columns = [stepper.advance(e, zero) for e in np.eye(n)] + [stepper.advance(zero, e) for e in np.eye(n)]
    return np.column_stack([np.concatenate(uv) for uv in columns])


@pytest.mark.parametrize("bc, law", [
    ("dirichlet", FourierModes(2, 0.0)),
    ("neumann", VolumeElements(4, 0.0)),
    ("dirichlet", SubdomainControl(Subdomain(1.0, 2.5), 0.0)),
    ("dirichlet", Nodal(64, 0.0)),  # midpoints closer than dx: lambda/mu = 0.999398, where a row sum reads 1
], ids=["fourier", "volume", "subdomain", "nodal"])
def test_the_step_gate_refuses_where_the_linearized_step_grows(bc, law):
    # mu = (4 r/dt^2 + a)/(lambda/mu) puts the gate's r = dt^2 (lambda - a)/4 at r; past r = 1, rho(G) > 1
    model, g, dt = damped_wave(1.0, 1.0, 2.0, bc), make_grid(PI, 64, bc), 0.01
    per_mu = controllers.feedback_stiffness(dataclasses.replace(law, mu=1.0), g)
    for r, stable in ((0.99, True), (0.999, True), (1.001, False), (1.01, False)):
        spec = dataclasses.replace(law, mu=(4.0 * r / dt**2 + model.a) / per_mu)
        stepper = StepperConfig(dt=dt, t_end=1.0)
        cfg = ExperimentConfig(g, model, spec, zeros(g), zeros(g), stepper, (0.2, 0.9), 0.8, {})
        assert cfg.step_ratio == pytest.approx(r, rel=1e-12)
        G = step_map(integrator._ImexStepper(model, g, dt, make_control_operator(spec, g)))
        rho = np.max(np.abs(np.linalg.eigvals(G)))
        if stable:
            assert rho < 1.0 and step_gate(cfg).startswith("warning: dt = 0.01 gives r")
        else:
            assert rho > 1.0
            with pytest.raises(ConfigError, match="step ratio"):
                step_gate(cfg)


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct_points", "midpoints"])
def test_the_step_gate_warns_where_r_does_not_bound_the_step(distinct):
    # at r = 0.5 the step of DISTINCT grows, as its actuation is not the adjoint of its
    # observation; 13 midpoints give a stable step
    model, g, dt = damped_wave(1.0, 1.0, 2.0, "dirichlet"), make_grid(PI, 64, "dirichlet"), 0.01
    law = DISTINCT if distinct else Nodal(13, 1.0)
    spec = dataclasses.replace(law, mu=(4.0 * 0.5 / dt**2 + model.a) / controllers.feedback_stiffness(law, g))
    cfg = ExperimentConfig(g, model, spec, zeros(g), zeros(g), StepperConfig(dt=dt, t_end=1.0), (0.2, 0.9), 0.8, {})
    assert cfg.step_ratio == pytest.approx(0.5, rel=1e-12)
    G = step_map(integrator._ImexStepper(model, g, dt, make_control_operator(spec, g)))
    rho = np.max(np.abs(np.linalg.eigvals(G)))
    if distinct:
        assert rho > 1.0
        assert step_gate(cfg).startswith(
            "warning: dt = 0.01 gives r = dt^2 (lambda - a)/4 = 0.5 < 1, which is necessary but does not bound"
        )
    else:
        assert rho < 1.0 and step_gate(cfg) is None
