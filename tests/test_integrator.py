"""Time stepping: accuracy, conservation, blow-up handling, Lyapunov hooks."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from wavestab import (
    Field,
    FourierModes,
    NoControl,
    Nonlinearity,
    Scheme,
    State,
    StepperConfig,
    Subdomain,
    SubdomainControl,
    VolumeElements,
    damped_wave,
    default_dt,
    l2_norm,
    lyapunov_eb,
    lyapunov_volume,
    make_grid,
    mode_matrix,
    nonlinear_damping_wave,
    run,
    sample,
    strongly_damped_wave,
    zeros,
)
from wavestab import kernels

PI = np.pi


def modal_solution(lam_h, b, t):
    """u(t) for the scalar mode ODE u'' + b u' + lam u = 0, u(0)=1, u'(0)=0."""
    omega = math.sqrt(lam_h - b * b / 4.0)
    return math.exp(-b * t / 2) * (math.cos(omega * t) + b / (2 * omega) * math.sin(omega * t))


def first_mode_state(grid, amplitude=1.0):
    return Field(grid, amplitude * mode_matrix(grid, 1)[0])


def discrete_lambda1(grid):
    return 4.0 / grid.dx**2 * math.sin(PI * grid.dx / (2 * grid.L)) ** 2


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

    def test_scheme_coercion(self):
        cfg = StepperConfig(dt=0.1, t_end=1.0, scheme="rk4")
        assert cfg.scheme is Scheme.RK4

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
        err = np.max(np.abs(res.final_state.u.values - expected))
        assert err < 5e-7  # O(dt^2)

    @pytest.mark.parametrize("scheme", ["imex_cn", "rk4"])
    def test_second_order_convergence(self, scheme):
        # n=64 keeps dt=0.02 inside the RK4 stability budget
        g = make_grid(PI, 64, "dirichlet")
        model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        u0 = first_mode_state(g)
        lam = discrete_lambda1(g)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            res = run(
                model, NoControl(), u0, zeros(g), StepperConfig(dt=dt, t_end=1.0, scheme=scheme)
            )
            expected = modal_solution(lam, 1.0, 1.0) * u0.values
            errs.append(l2_norm(Field(g, res.final_state.u.values - expected)))
        order = math.log(errs[0] / errs[-1]) / math.log(4)
        lo = 1.8 if scheme == "imex_cn" else 1.8
        assert lo <= order, f"{scheme} observed order {order:.3f} from errors {errs}"
        if scheme == "imex_cn":
            assert order <= 2.2

    def test_halving_dt_quarters_error(self):
        g = make_grid(PI, 128, "dirichlet")
        model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        u0 = first_mode_state(g)
        lam = discrete_lambda1(g)
        errs = []
        for dt in (0.02, 0.01):
            res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=dt, t_end=1.0))
            expected = modal_solution(lam, 1.0, 1.0) * u0.values
            errs.append(l2_norm(Field(g, res.final_state.u.values - expected)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_undamped_energy_conserved():
    g = make_grid(PI, 128, "dirichlet")
    model = damped_wave(1.0, 0.0, 0.0, "dirichlet")
    u0 = Field(g, mode_matrix(g, 1)[0] + 0.5 * mode_matrix(g, 3)[2])
    res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=1e-3, t_end=10.0, record_every=500))
    E = [r.total for r in res.records]
    assert abs(E[-1] - E[0]) <= 1e-8 * E[0]
    assert max(abs(e - E[0]) for e in E) <= 1e-8 * E[0]


def test_zero_state_stays_zero():
    g = make_grid(PI, 64, "neumann")
    model = damped_wave(1.0, 1.0, 2.0, "neumann")
    res = run(model, VolumeElements(2, 4.0), zeros(g), zeros(g), StepperConfig(dt=0.01, t_end=1.0))
    assert not res.final_state.u.values.any()
    assert not res.final_state.v.values.any()


def test_t_end_zero_single_record():
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    u0 = first_mode_state(g, 2.0)
    res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=0.0))
    assert len(res.records) == 1
    np.testing.assert_array_equal(res.final_state.u.values, u0.values)


def test_deterministic_reruns():
    g = make_grid(PI, 96, "neumann")
    model = damped_wave(1.0, 1.0, 2.0, "neumann")
    u0 = sample(g, lambda x: np.exp(-((x - 1.5) / 0.4) ** 2))
    cfg = StepperConfig(dt=0.004, t_end=2.0)
    a = run(model, VolumeElements(2, 4.0), u0, zeros(g), cfg)
    b = run(model, VolumeElements(2, 4.0), u0, zeros(g), cfg)
    assert np.array_equal(a.final_state.u.values, b.final_state.u.values)
    assert np.array_equal(a.final_state.v.values, b.final_state.v.values)
    assert [r.total for r in a.records] == [r.total for r in b.records]


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
    assert [round(r.t, 10) for r in res.records] == [0.0, 0.25, 0.5, 0.75, 1.0]


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
    assert res.records[-1].t == pytest.approx(1.0)


class TestBlowup:
    def test_unstable_baseline_aborts(self):
        g = make_grid(PI, 64, "dirichlet")
        model = damped_wave(1.0, 50.0, 0.1, "dirichlet")
        u0 = first_mode_state(g, 100.0)
        res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=60.0))
        assert res.blew_up
        assert res.blowup_time is not None and 0 < res.blowup_time < 60.0
        assert len(res.records) > 0
        assert np.all(np.isfinite(res.final_state.u.values))

    def test_constant_mode_growth_flagged(self):
        # Neumann, a=1, mu=0: the constant mode obeys u'' = u - b u' and grows
        g = make_grid(PI, 64, "neumann")
        model = damped_wave(1.0, 1.0, 1.0, "neumann")
        u0 = Field(g, np.ones(g.n_nodes))
        res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=40.0))
        # |quadratic| = (a/2)||u||^2 tracks the growing constant mode
        assert res.blew_up or abs(res.records[-1].quadratic) > 100 * abs(
            res.records[0].quadratic
        )


    def test_overflowing_source_is_a_blowup_not_a_crash(self):
        # |u|^38 u overflows to inf in the first explicit half step, long
        # before |u| reaches the 1e12 limit; the solve passes it on as NaN
        g = make_grid(PI, 64, "dirichlet")
        model = damped_wave(1.0, 1.0, 0.5, "dirichlet", Nonlinearity.power_law(40))
        u0 = sample(g, lambda x: 1e10 * np.sin(x))
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(model, NoControl(), u0, zeros(g), StepperConfig(dt=0.01, t_end=5.0))
        assert res.blew_up
        assert res.blowup_time == 0.01
        assert res.final_state.t == 0.0
        np.testing.assert_array_equal(res.final_state.u.values, u0.values)


def banded_imex_matrix(model, grid, dt):
    """The IMEX matrix in ``solve_banded``'s (1, 1) storage, written from the scheme."""
    kappa = 0.5 * dt * model.viscosity + 0.25 * dt * dt * model.nu
    inv_dx2 = 1.0 / grid.dx**2
    ab = np.empty((3, grid.n_nodes))
    ab[0] = ab[2] = -kappa * inv_dx2
    ab[1] = 1.0 + 0.5 * dt * model.linear_damping + 2.0 * kappa * inv_dx2
    if grid.bc.value == "neumann":  # reflected ghosts double the end couplings
        ab[0, 1] = ab[2, -2] = -2.0 * kappa * inv_dx2
    return ab


class TestPrefactoredSolve:
    CASES = [
        pytest.param(
            damped_wave(1.0, 1.0, 2.0, "dirichlet", Nonlinearity.power_law(4)),
            "dirichlet", FourierModes(2, 4.0), id="dirichlet",
        ),
        pytest.param(
            damped_wave(1.0, 1.0, 2.0, "neumann", Nonlinearity.power_law(4)),
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
        u0 = sample(g, lambda x: np.sin(x) + 0.5 * np.cos(3 * x) * (bc == "neumann"))
        cfg = StepperConfig(dt=0.005, t_end=1.0)
        assert cfg.n_steps == 200
        fast = run(model, ctrl, u0, zeros(g), cfg, snapshot_every=20)
        ab = banded_imex_matrix(model, g, cfg.dt)
        monkeypatch.setattr(kernels, "thomas_solve", lambda _f, rhs: solve_banded((1, 1), ab, rhs))
        ref = run(model, ctrl, u0, zeros(g), cfg, snapshot_every=20)
        assert len(fast.snapshots) == len(ref.snapshots) == 11
        for a, b in zip(fast.snapshots, ref.snapshots):
            for fa, fb in ((a.u.values, b.u.values), (a.v.values, b.v.values)):
                np.testing.assert_allclose(fa, fb, rtol=0.0, atol=1e-14 * np.max(np.abs(fb)))

    def test_one_factorisation_per_run(self, monkeypatch):
        calls = {"factor": 0, "solve": 0}
        factor, solve = kernels.factor_tridiagonal, kernels.thomas_solve

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(kernels, "factor_tridiagonal", counted("factor", factor))
        monkeypatch.setattr(kernels, "thomas_solve", counted("solve", solve))
        g = make_grid(PI, 64, "neumann")
        model = damped_wave(1.0, 1.0, 2.0, "neumann")
        u0 = sample(g, lambda x: np.cos(x))
        cfg = StepperConfig(dt=0.01, t_end=1.5, record_every=7)
        run(model, VolumeElements(2, 4.0), u0, zeros(g), cfg)
        assert calls == {"factor": 1, "solve": cfg.n_steps}


class TestRK4Guards:
    def test_refuses_strongly_damped(self):
        g = make_grid(PI, 64, "dirichlet")
        model = strongly_damped_wave(1.0, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError, match="RK4"):
            run(
                model,
                NoControl(),
                zeros(g),
                zeros(g),
                StepperConfig(dt=1e-4, t_end=0.01, scheme="rk4"),
            )

    def test_enforces_cfl(self):
        g = make_grid(PI, 256, "dirichlet")
        model = damped_wave(4.0, 0.0, 1.0, "dirichlet")
        limit = 0.5 * g.dx / 2.0
        dt = 1.01 * limit
        with pytest.raises(ValueError, match="stability"):
            run(
                model,
                NoControl(),
                zeros(g),
                zeros(g),
                StepperConfig(dt=dt, t_end=100 * dt, scheme="rk4"),
            )

    # the explicit b|v|v term gives IMEX a larger second-order error constant
    # (6.5e-6, 1.6e-6, 4.1e-7 at dt = 0.004, 0.002, 0.001), hence its finer dt
    @pytest.mark.parametrize(
        "model, dt",
        [
            pytest.param(damped_wave(1.0, 1.0, 2.0, "dirichlet", None), 0.002, id="damped_wave"),
            pytest.param(
                nonlinear_damping_wave(1.0, 1.0, 2.0, 3.0, 4.0), 0.001, id="nonlinear_damping"
            ),
        ],
    )
    def test_agrees_with_imex_when_stable(self, model, dt):
        g = make_grid(PI, 64, "dirichlet")
        u0 = first_mode_state(g)
        cfg_i = StepperConfig(dt=dt, t_end=1.0)
        cfg_r = StepperConfig(dt=dt, t_end=1.0, scheme="rk4")
        a = run(model, FourierModes(1, 4.0), u0, zeros(g), cfg_i)
        b = run(model, FourierModes(1, 4.0), u0, zeros(g), cfg_r)
        assert np.max(np.abs(a.final_state.u.values - b.final_state.u.values)) < 1e-6


def test_nonlinear_damping_stable_at_default_dt():
    g = make_grid(PI, 128, "dirichlet")
    model = nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0)
    u0 = first_mode_state(g, 2.0)
    dt = 5.0 / math.ceil(5.0 / default_dt(g))  # the largest dt <= default that divides t_end
    res = run(model, FourierModes(1, 2.0), u0, zeros(g), StepperConfig(dt=dt, t_end=5.0))
    assert not res.blew_up
    assert res.records[-1].total < res.records[0].total


class TestLyapunov:
    def test_zero_states_vanish(self):
        gn = make_grid(PI, 64, "neumann")
        gd = make_grid(PI, 64, "dirichlet")
        mn = damped_wave(1.0, 1.0, 2.0, "neumann")
        md = damped_wave(1.0, 1.0, 2.0, "dirichlet", None)
        zn = State(zeros(gn), zeros(gn))
        zd = State(zeros(gd), zeros(gd))
        assert lyapunov_eb(zn, mn, VolumeElements(2, 4.0)) == 0.0
        assert lyapunov_eb(zd, md, FourierModes(2, 4.0)) == 0.0

    def test_volume_name_is_an_alias(self):
        assert lyapunov_volume is lyapunov_eb

    @pytest.mark.parametrize(
        "model",
        [strongly_damped_wave(1.0, 1.0, 0.5, 4.0), nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0)],
        ids=["strongly_damped", "nonlinear_damping"],
    )
    def test_subdomain_functional_only_on_damped_wave(self, model):
        gd = make_grid(PI, 64, "dirichlet")
        ctrl = SubdomainControl(Subdomain(1.0, 2.0, PI), 5.0)
        with pytest.raises(TypeError, match="SubdomainControl feedback"):
            lyapunov_eb(State(zeros(gd), zeros(gd)), model, ctrl)

    def test_volume_requires_volume_controller(self):
        gn = make_grid(PI, 64, "neumann")
        mn = damped_wave(1.0, 1.0, 2.0, "neumann")
        with pytest.raises(TypeError):
            lyapunov_volume(State(zeros(gn), zeros(gn)), mn, NoControl())

    def test_auto_lyapunov_in_records(self):
        gn = make_grid(PI, 64, "neumann")
        mn = damped_wave(1.0, 1.0, 2.0, "neumann")
        u0 = sample(gn, lambda x: np.exp(-((x - 1.5) / 0.4) ** 2))
        res = run(mn, VolumeElements(2, 4.0), u0, zeros(gn), StepperConfig(dt=0.01, t_end=0.5))
        assert all(r.lyapunov is not None for r in res.records)

    def test_no_lyapunov_for_nodal(self):
        gd = make_grid(PI, 270, "dirichlet")
        md = damped_wave(1.0, 1.0, 0.5, "dirichlet", None)
        from wavestab import Nodal

        u0 = sample(gd, lambda x: np.sin(x))
        res = run(md, Nodal(27, 4.3), u0, zeros(gd), StepperConfig(dt=0.01, t_end=0.2))
        assert all(r.lyapunov is None for r in res.records)


def test_snapshots_optional():
    g = make_grid(PI, 64, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    res = run(
        model,
        NoControl(),
        first_mode_state(g),
        zeros(g),
        StepperConfig(dt=0.01, t_end=0.5),
        snapshot_every=25,
    )
    assert res.snapshots is not None and len(res.snapshots) >= 2
    snap = res.snapshots[0]
    assert snap.t == 0.0 and snap.u.values.shape == (g.n_nodes,)


def test_grid_mismatch_rejected():
    g = make_grid(PI, 64, "dirichlet")
    g2 = make_grid(PI, 128, "dirichlet")
    model = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    with pytest.raises(ValueError):
        run(model, NoControl(), zeros(g), zeros(g2), StepperConfig(dt=0.01, t_end=0.1))
