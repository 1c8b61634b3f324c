"""Model families, nonlinearities, the reference right-hand side, and energy records."""

import math
import pickle

import numpy as np
import pytest

from wavestab import (
    BoundaryCondition,
    Family,
    ModelSpec,
    damped_wave,
    energy_record,
    h1_seminorm_sq,
    integral,
    make_grid,
    mode_matrix,
    nonlinear_damping_wave,
    strongly_damped_wave,
)

from wavestab.models import LEDGER_COLUMNS, power, source

from conftest import reference_acceleration

# energy_record's rows: the ledger's columns between t and lyapunov, then
# the three norms a perturbed energy weighs
ROW_NAMES = LEDGER_COLUMNS[1:-1] + ("h1_sq", "l2_sq", "cross")

PI = np.pi


# --------------------------------------------------------------------------
# nonlinearities
# --------------------------------------------------------------------------

def test_zero_nonlinearity():
    # p = None is f = 0: with a = 0 the source is its base alone
    m = damped_wave(1.0, 0.0, 1.0, "dirichlet")
    x = np.linspace(-3, 3, 7)
    assert m.p is None and not source(m, x, x, np.zeros_like(x)).any()


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
def test_power_law_values(p):
    s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(power(s, p) * s, np.abs(s) ** (p - 2) * s)
    out = np.empty_like(s)
    assert power(s, p, out=out) is out
    # with a = 0 the source is -f(u)
    m = damped_wave(1.0, 0.0, 1.0, "dirichlet", p)
    assert m.p == p
    np.testing.assert_allclose(source(m, s, s, np.zeros_like(s)), -np.abs(s) ** (p - 2) * s)


def test_power_at_p_four_is_the_square_of_the_other_exponents_path():
    # u*u, bit for bit the |u| then **= 2.0 it replaced, on signs, zeros, extremes and non-finite values
    rng = np.random.default_rng(4)
    tiny = np.finfo(float).tiny
    u = np.concatenate((rng.standard_normal(200) * 10.0 ** rng.integers(-160, 160, 200),
                        [0.0, -0.0, tiny, -5e-324, 1e154, -1e155, 1.7e308, np.inf, -np.inf, np.nan]))
    with np.errstate(over="ignore", under="ignore"):
        want = np.abs(u)
        want **= 2.0
        got = power(u, 4.0)
        assert power(u, 4.0, np.empty_like(u)).tobytes() == got.tobytes()
    np.testing.assert_array_equal(got, want)
    assert not np.signbit(got[~np.isnan(got)]).any()


def test_power_law_rejects_p_below_two():
    with pytest.raises(ValueError, match="p >= 2"):
        damped_wave(1.0, 1.0, 1.0, "dirichlet", 1.5)


@pytest.mark.parametrize("p", [1.5, math.inf, math.nan])
def test_model_spec_refuses_bad_p(p):
    with pytest.raises(ValueError, match="p >= 2" if p == 1.5 else "finite"):
        ModelSpec(Family.DAMPED_WAVE, 1.0, 1.0, 1.0, BoundaryCondition.DIRICHLET, p=p)


def test_models_built_alike_compare_equal():
    # the source is its exponent, so equal inputs give equal models, pickled or not
    model, twin = (damped_wave(1, 1, 2, "dirichlet", 4.0) for _ in range(2))
    assert model == twin and pickle.loads(pickle.dumps(model)) == model
    assert model != damped_wave(1.0, 1.0, 2.0, "dirichlet", 3.0)


def test_condition_f_ok_for_power_laws():
    # the certificates' admissibility: f(s)s - F(s) >= 0 and f nondecreasing
    s = np.linspace(-10.0, 10.0, 10_001)
    for p in (2.0, 4.0, 5.0):
        f = power(s, p) * s
        assert np.min(f * s - np.abs(s) ** p / p) >= 0.0  # F(s) = |s|^p / p
        assert np.min(np.diff(f)) >= 0.0


# --------------------------------------------------------------------------
# model construction
# --------------------------------------------------------------------------

def test_damped_wave_defaults_to_zero_f():
    m = damped_wave(1.0, 0.5, 2.0, "neumann")
    assert m.family is Family.DAMPED_WAVE
    assert m.p is None
    assert m.bc is BoundaryCondition.NEUMANN


def test_damped_wave_accepts_zero_damping():
    assert damped_wave(1.0, 0.0, 0.0, "dirichlet").b == 0.0


@pytest.mark.parametrize(
    "ctor,kwargs",
    [
        (damped_wave, dict(nu=-1.0, a=1.0, b=1.0, bc="dirichlet")),
        (damped_wave, dict(nu=1.0, a=-0.5, b=1.0, bc="dirichlet")),
        (damped_wave, dict(nu=1.0, a=1.0, b=-2.0, bc="dirichlet")),
        (nonlinear_damping_wave, dict(nu=1.0, a=1.0, b=0.0, m=3.0, p=4.0)),
        (nonlinear_damping_wave, dict(nu=1.0, a=1.0, b=1.0, m=2.0, p=4.0)),
        (strongly_damped_wave, dict(nu=1.0, a=1.0, b=0.0, p=4.0)),
    ],
)
def test_invalid_coefficients_rejected(ctor, kwargs):
    with pytest.raises(ValueError):
        ctor(**kwargs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "ctor,kwargs,name",
    [
        (damped_wave, dict(nu=1.0, a=1.0, b=1.0, bc="dirichlet"), "nu"),
        (damped_wave, dict(nu=1.0, a=1.0, b=1.0, bc="dirichlet"), "a"),
        (damped_wave, dict(nu=1.0, a=1.0, b=1.0, bc="dirichlet"), "b"),
        (nonlinear_damping_wave, dict(nu=1.0, a=1.0, b=1.0, m=3.0, p=4.0), "m"),
        (nonlinear_damping_wave, dict(nu=1.0, a=1.0, b=1.0, m=3.0, p=4.0), "p"),
        (strongly_damped_wave, dict(nu=1.0, a=1.0, b=1.0, p=4.0), "p"),
    ],
)
def test_non_finite_coefficients_rejected(ctor, kwargs, name, bad):
    with pytest.raises(ValueError, match="finite"):
        ctor(**{**kwargs, name: bad})


def test_nonlinear_damping_is_dirichlet_power_law():
    m = nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0)
    assert m.bc is BoundaryCondition.DIRICHLET
    assert m.m == 3.0 and m.p == 4.0


def test_strongly_damped_rejects_m():
    with pytest.raises(ValueError):
        ModelSpec(Family.STRONGLY_DAMPED, 1.0, 1.0, 1.0, BoundaryCondition.DIRICHLET, p=4.0, m=3.0)


# --------------------------------------------------------------------------
# the reference right-hand side (conftest), which the time stepper is checked against
# --------------------------------------------------------------------------

class TestAcceleration:
    def test_zero_state_zero_control(self):
        g = make_grid(PI, 64, "dirichlet")
        m = damped_wave(1.0, 1.0, 2.0, "dirichlet", 4.0)
        z = np.zeros(g.n_nodes)
        assert not reference_acceleration(m, g, z, z, z).any()

    def test_eigenmode_acceleration(self):
        g = make_grid(PI, 256, "dirichlet")
        u = mode_matrix(g, 1)[0]
        m = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        z = np.zeros(g.n_nodes)
        assert np.max(np.abs(reference_acceleration(m, g, u, z, z) + u)) <= 1e-4

    def test_nonlinear_damping_unit_velocity(self):
        # |v|^{m-2} v with v=1, b=2: v_t = -2 away from the boundary rows
        g = make_grid(PI, 64, "dirichlet")
        m = nonlinear_damping_wave(1.0, 0.0, 2.0, 3.0, 2.0)
        z = np.zeros(g.n_nodes)
        np.testing.assert_allclose(reference_acceleration(m, g, z, np.ones(g.n_nodes), z), -2.0)

    def test_damping_term_sign(self):
        g = make_grid(PI, 64, "neumann")
        m = damped_wave(1.0, 0.0, 3.0, "neumann")
        z = np.zeros(g.n_nodes)
        acc = reference_acceleration(m, g, z, np.full(g.n_nodes, 2.0), z)
        np.testing.assert_allclose(acc, -6.0, atol=1e-12)

    def test_destabilizing_term_sign(self):
        g = make_grid(PI, 64, "neumann")
        m = damped_wave(1.0, 2.0, 1.0, "neumann")
        z = np.zeros(g.n_nodes)
        acc = reference_acceleration(m, g, np.full(g.n_nodes, 1.5), z, z)
        np.testing.assert_allclose(acc, 3.0, atol=1e-12)

    def test_control_enters_additively(self):
        g = make_grid(PI, 64, "neumann")
        m = damped_wave(1.0, 0.0, 1.0, "neumann")
        z = np.zeros(g.n_nodes)
        acc = reference_acceleration(m, g, z, z, np.full(g.n_nodes, -0.25))
        np.testing.assert_allclose(acc, -0.25)

    def test_strong_damping_adds_velocity_laplacian(self):
        g = make_grid(PI, 256, "dirichlet")
        w = mode_matrix(g, 1)[0]
        m = strongly_damped_wave(1.0, 0.0, 2.0, 2.0)
        z = np.zeros(g.n_nodes)
        acc = reference_acceleration(m, g, z, w, z)
        # nu*lap(0) + b*lap(w1) = -2 w1
        assert np.max(np.abs(acc + 2.0 * w)) <= 2e-4


def test_linear_source_is_a_times_u():
    # with f = 0 the source is a*u (after the base), bit for bit
    rng = np.random.default_rng(5)
    u, v, base = rng.standard_normal((3, 65))
    m = damped_wave(1.0, 0.7, 1.0, "dirichlet")
    assert np.array_equal(source(m, u, v, np.zeros_like(u)), 0.7 * u)
    assert np.array_equal(source(m, u, v, base), base + 0.7 * u)


# --------------------------------------------------------------------------
# energy records
# --------------------------------------------------------------------------

def record(m, g, u, v, controller=0.0):
    """The ledger rows of one state's nodal values ``u`` and ``v``, by name."""
    rows = energy_record(m, g, np.asarray(u, float), np.asarray(v, float), controller)
    return dict(zip(ROW_NAMES, rows))


class TestEnergyRecord:
    def test_zero_state(self):
        g = make_grid(PI, 64, "dirichlet")
        m = damped_wave(1.0, 1.0, 1.0, "dirichlet")
        r = record(m, g, np.zeros(g.n_nodes), np.zeros(g.n_nodes))
        assert all(r[k] == 0.0 for k in ("kinetic", "grad", "quadratic", "lp", "total", "stab_norm"))

    def test_pure_mode_partition(self):
        g = make_grid(PI, 512, "dirichlet")
        u = mode_matrix(g, 1)[0]
        m = damped_wave(1.0, 0.0, 1.0, "dirichlet", 2.0)
        r = record(m, g, u, np.zeros(g.n_nodes))
        assert r["kinetic"] == 0.0
        assert r["grad"] == pytest.approx(0.5, rel=1e-4)
        assert r["lp"] == pytest.approx(0.5, rel=1e-6)
        assert r["quadratic"] == 0.0

    def test_stab_norm_of_equal_mode_pair(self):
        g = make_grid(PI, 512, "dirichlet")
        w = mode_matrix(g, 1)[0]
        m = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        r = record(m, g, w, w)
        assert r["stab_norm"] == pytest.approx(2.0, rel=1e-4)

    def test_controller_term_passthrough(self):
        g = make_grid(PI, 64, "dirichlet")
        m = damped_wave(1.0, 0.0, 1.0, "dirichlet")
        r = record(m, g, np.zeros(g.n_nodes), np.zeros(g.n_nodes), controller=0.75)
        assert r["controller"] == 0.75
        assert r["total"] == 0.75

    def test_quadratic_term_is_negative(self):
        g = make_grid(PI, 128, "neumann")
        m = damped_wave(1.0, 2.0, 1.0, "neumann")
        r = record(m, g, np.ones(g.n_nodes), np.zeros(g.n_nodes))
        assert r["quadratic"] == pytest.approx(-PI, rel=1e-12)  # -(a/2)*||1||^2 = -pi

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_rows_are_the_grid_norms(self, bc):
        g = make_grid(PI, 96, bc)
        rng = np.random.default_rng(4)
        m = damped_wave(1.5, 0.7, 1.0, bc, 4.0)
        u, v = rng.standard_normal(g.n_nodes), rng.standard_normal(g.n_nodes)
        r = record(m, g, u, v)
        h1, uu, vv = h1_seminorm_sq(g, u), integral(g, u, u), integral(g, v, v)
        # the trapezoid weights against a BLAS dot product
        assert vv == pytest.approx(float(np.dot(g.quad_weights, v * v)), rel=1e-13)
        assert r["h1_sq"] == h1
        assert r["l2_sq"] == uu
        assert r["cross"] == integral(g, u, v)
        assert r["kinetic"] == 0.5 * vv
        assert r["grad"] == 0.5 * m.nu * h1
        assert r["quadratic"] == -0.5 * m.a * uu
        assert r["lp"] == integral(g, power(u, 4.0) * u, u) / 4.0
        # the pair (f(u), u) against the integrand F(u) = u^4/4 it replaced
        assert r["lp"] == pytest.approx(float(np.sum(g.quad_weights * u**4 / 4.0)), rel=1e-13)
        assert r["stab_norm"] == vv + h1

    def test_block_rows_match_single_records(self):
        g = make_grid(PI, 64, "dirichlet")
        rng = np.random.default_rng(8)
        m = damped_wave(1.0, 1.0, 2.0, "dirichlet", 4.0)
        u, v = rng.standard_normal((5, g.n_nodes)), rng.standard_normal((5, g.n_nodes))
        ctrl = rng.uniform(0.0, 2.0, 5)
        block = energy_record(m, g, u, v, ctrl)
        assert block.shape == (len(ROW_NAMES), 5)
        for j in range(5):  # bit for bit: a state's numbers do not depend on its block
            np.testing.assert_array_equal(block[:, j], energy_record(m, g, u[j], v[j], ctrl[j]))
