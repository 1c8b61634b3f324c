"""Feedback operators, controller energies, and the printed gain conditions.

The gain-condition tests pin the worked numbers for each variant, including
the boundary cases where an inequality is strict versus inclusive.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestab import (
    FourierModes,
    Nodal,
    NoControl,
    Subdomain,
    SubdomainControl,
    VolumeElements,
    check_fourier_gains,
    check_nodal_gains,
    check_nonlinear_gains,
    check_strong_fourier_gains,
    check_subdomain_gains,
    check_volume_gains,
    controller_energy,
    damped_wave,
    element_averages,
    element_layout,
    make_control_operator,
    make_energy_operator,
    make_grid,
    mode_matrix,
    mu_zero,
    nonlinear_damping_wave,
    strongly_damped_wave,
)
from wavestab import controllers

from conftest import DISTINCT, closed_loop_abscissa, one_state_observation, random_trig_field

PI = np.pi


# ---------------------------------------------------------------------------
# element layout and the volume-element operator
# ---------------------------------------------------------------------------

class TestElementLayout:
    def test_averages_partition_constant(self):
        g = make_grid(PI, 64, "neumann")
        weights, bounds, owner, stride = element_layout(g, 4)
        assert stride == 16
        c = np.full(g.n_nodes, 2.5)
        means = element_averages(weights, bounds, c)
        assert means.shape == (4,)
        np.testing.assert_allclose(means, 2.5)
        # each node owned by exactly one element
        assert owner.min() == 0 and owner.max() == 3

    def test_average_of_linear_ramp(self):
        g = make_grid(1.0, 100, "neumann")
        means = element_averages(*element_layout(g, 2)[:2], g.nodes)
        # trapezoid cell averages are exact on linear functions
        np.testing.assert_allclose(means, [0.25, 0.75], atol=1e-12)

    def test_rejects_non_divisible(self):
        g = make_grid(PI, 64, "neumann")
        with pytest.raises(ValueError):
            element_layout(g, 7)

    def test_rejects_dirichlet(self):
        g = make_grid(PI, 64, "dirichlet")
        with pytest.raises(ValueError):
            element_layout(g, 4)


class TestControlFields:
    def test_zero_gain_gives_zero_field(self):
        g = make_grid(PI, 64, "neumann")
        rng = np.random.default_rng(0)
        u = random_trig_field(g, rng).values
        for spec in (VolumeElements(2, 0.0), NoControl()):
            assert not make_control_operator(spec, g)(u).any()
        gd = make_grid(PI, 64, "dirichlet")
        ud = random_trig_field(gd, rng).values
        for spec in (
            FourierModes(2, 0.0),
            Nodal(4, 0.0),
            SubdomainControl(Subdomain(0.5, 1.5), 0.0),
        ):
            assert not make_control_operator(spec, gd)(ud).any()

    def test_volume_constant_input(self):
        g = make_grid(PI, 60, "neumann")
        c = 1.7
        out = make_control_operator(VolumeElements(3, 2.0), g)(np.full(g.n_nodes, c))
        np.testing.assert_allclose(out, -2.0 * c)

    def test_fourier_projects_low_mode(self):
        g = make_grid(PI, 256, "dirichlet")
        u = 5.0 * mode_matrix(g, 1)[0]
        out = make_control_operator(FourierModes(2, 3.0), g)(u)
        np.testing.assert_allclose(out, -3.0 * u, atol=1e-6)

    def test_fourier_ignores_tail_mode(self):
        g = make_grid(PI, 256, "dirichlet")
        out = make_control_operator(FourierModes(2, 3.0), g)(mode_matrix(g, 3)[2])
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_nodal_support_and_scale(self):
        g = make_grid(PI, 270, "dirichlet")
        spec = Nodal(27, 4.3)
        u = random_trig_field(g, np.random.default_rng(1))
        out = make_control_operator(spec, g)(u.values)
        assert np.count_nonzero(out) <= 27
        # the midpoints sit on nodes: weight mu * h / dx at the node x_k, bit for bit
        h = PI / 27
        k = int(np.rint(0.5 * h / g.dx)) - 1
        assert g.nodes[k] == 0.5 * h
        u_obs = np.interp(0.5 * h, np.concatenate(([0], g.nodes, [PI])), np.concatenate(([0], u.values, [0])))
        assert out[k] == -4.3 * h / g.dx * u_obs

    def test_nodal_actuation_next_to_the_boundary(self):
        # 0.4 dx lies between the implicit zero at 0 and stored node 0,
        # so the point's whole weight, 0.4, goes to node 0
        g = make_grid(PI, 64, "dirichlet")
        actuate = controllers.feedback_law(Nodal(3, 2.0, act_points=(0.4 * g.dx, 1.5, 2.5)), g).actuate
        out = actuate(np.array([1.0, 0.0, 0.0]))
        assert np.flatnonzero(out).tolist() == [0]
        assert out[0] == pytest.approx(-2.0 * (PI / 3) / g.dx * 0.4, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, PI])
    def test_nodal_actuation_on_the_boundary_rejected(self, x):
        g = make_grid(PI, 64, "dirichlet")
        points = (x, 1.5, 2.5) if x == 0.0 else (0.5, 1.5, x)
        with pytest.raises(ValueError, match="on the boundary"):
            make_control_operator(Nodal(3, 2.0, act_points=points), g)

    @pytest.mark.parametrize(
        "spec, bc",
        [
            (VolumeElements(4, 3.0), "neumann"),
            (FourierModes(3, 3.0), "dirichlet"),
            (SubdomainControl(Subdomain(0.5, 1.7), 3.0), "dirichlet"),
            (Nodal(4, 3.0), "dirichlet"),
            (Nodal(3, 3.0), "dirichlet"),
            # two points between the same pair of nodes (25.29), and midpoints closer than dx
            # (1.006 at N = 100): the largest absolute row sums, 26.99 and 1.101, are above these
            (Nodal(3, 1.0, obs_points=(1.04, 1.05, 2.5), act_points=(1.04, 1.05, 2.5)), "dirichlet"),
            (Nodal(100, 1.0), "dirichlet"),
            (NoControl(), "dirichlet"),
            (DISTINCT, "dirichlet"),
        ],
        ids=["volume", "fourier", "subdomain", "nodal_on_nodes", "nodal_off_nodes", "nodal_shared_node",
             "nodal_denser_than_nodes", "none", "nodal_distinct_points"],
    )
    def test_feedback_stiffness_bounds_the_largest_eigenvalue(self, spec, bc):
        # the bound is sharp: the largest eigenvalue of the dense mu * AC, its largest real part
        # when observation and actuation points differ
        g = make_grid(PI, 64, bc)
        control = make_control_operator(spec, g)
        stiffness = -np.stack([control(e) for e in np.eye(g.n_nodes)], axis=-1)  # mu * AC
        top = np.max(np.linalg.eigvals(stiffness).real)
        assert controllers.feedback_law(spec, g).stiffness == pytest.approx(top, rel=1e-9, abs=1e-12)

    def test_nodal_stiffness_with_each_point_on_its_own_node_is_mu_h_over_dx(self):
        g = make_grid(PI, 64, "dirichlet")
        assert controllers.feedback_law(Nodal(4, 3.0), g).stiffness == 3.0 * (PI / 4) / g.dx

    def test_nodal_explicit_points_roundtrip(self):
        # observing the nodal values x reads back the points, to interpolation's round-off
        g = make_grid(PI, 64, "dirichlet")
        spec = Nodal(3, 1.0, obs_points=(0.5, 1.5, 2.5), act_points=(0.6, 1.6, 2.6))
        observe, actuate, *_ = controllers.feedback_law(spec, g)
        np.testing.assert_allclose(observe(g.nodes), [0.5, 1.5, 2.5], rtol=0, atol=1e-12)
        # actuating e_k and weighing by x reads back x_k times the law's scale -mu h/dx
        act = [np.dot(actuate(e), g.nodes) / -(PI / 3 / g.dx) for e in np.eye(3)]
        np.testing.assert_allclose(act, [0.6, 1.6, 2.6], rtol=0, atol=1e-12)

    def test_nodal_points_must_sit_in_cells(self):
        g = make_grid(PI, 64, "dirichlet")
        with pytest.raises(ValueError, match="obs point 0.2 falls outside element 2"):
            controllers.feedback_law(Nodal(2, 1.0, obs_points=(0.1, 0.2)), g)  # both in first cell

    def test_subdomain_masks_sharply(self):
        g = make_grid(1.0, 100, "dirichlet")
        out = make_control_operator(SubdomainControl(Subdomain(0.25, 0.5), 2.0), g)(np.ones(g.n_nodes))
        inside = (g.nodes >= 0.25) & (g.nodes < 0.5)
        np.testing.assert_allclose(out[inside], -2.0)
        np.testing.assert_allclose(out[~inside], 0.0)

    def test_bc_mismatch_rejected(self):
        g = make_grid(PI, 64, "dirichlet")
        with pytest.raises(ValueError):
            make_control_operator(VolumeElements(2, 1.0), g)
        gn = make_grid(PI, 64, "neumann")
        with pytest.raises(ValueError):
            make_control_operator(FourierModes(2, 1.0), gn)

    def test_an_unknown_specification_is_a_type_error(self):
        g = make_grid(PI, 64, "dirichlet")
        with pytest.raises(TypeError, match="unknown controller specification tuple"):
            controllers.feedback_law(("volume", 4, 2.0), g)

    def test_modal_count_must_be_resolved(self):
        g = make_grid(PI, 64, "dirichlet")
        for n_modes in (64, 65, 300):
            with pytest.raises(ValueError, match="N < n_cells=64"):
                make_control_operator(FourierModes(n_modes, 1.0), g)
        assert make_control_operator(FourierModes(63, 1.0), g)(np.zeros(g.n_nodes)).shape == (g.n_nodes,)

    @pytest.mark.parametrize(
        "spec, bc",
        [
            (VolumeElements(2, 1.0), "dirichlet"),
            (FourierModes(2, 1.0), "neumann"),
            (Nodal(4, 1.0), "neumann"),
            (SubdomainControl(Subdomain(0.5, 1.5), 1.0), "neumann"),
        ],
        ids=["volume", "fourier", "nodal", "subdomain"],
    )
    def test_energy_operator_rejects_wrong_boundary(self, spec, bc):
        g = make_grid(PI, 64, bc)
        with pytest.raises(ValueError, match="boundaries"):
            make_control_operator(spec, g)
        with pytest.raises(ValueError, match="boundaries"):
            make_energy_operator(spec, g)

    @pytest.mark.parametrize(
        "spec, bc",
        [
            (VolumeElements(1, 3.0), "neumann"),
            (VolumeElements(8, 3.0), "neumann"),
            (FourierModes(3, 3.0), "dirichlet"),
            (SubdomainControl(Subdomain(0.5, 1.7), 3.0), "dirichlet"),
        ],
        ids=["volume1", "volume8", "fourier", "subdomain"],
    )
    def test_feedback_is_minus_energy_gradient(self, spec, bc):
        # <control(u), e>_W = -[E(u+e) - E(u-e)]/2 holds exactly for a
        # quadratic E when the feedback is -W^{-1} grad E
        g = make_grid(PI, 64, bc)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(g.n_nodes)
        e = rng.standard_normal(g.n_nodes)
        control = make_control_operator(spec, g)
        energy = make_energy_operator(spec, g)
        work = float(np.dot(g.quad_weights, control(u) * e))
        assert work == pytest.approx(-0.5 * (energy(u + e) - energy(u - e)), rel=1e-12)

    @pytest.mark.parametrize(
        "spec, bc, adjoint",
        [
            (VolumeElements(4, 3.0), "neumann", True),
            (FourierModes(3, 3.0), "dirichlet", True),
            (SubdomainControl(Subdomain(0.5, 1.7), 3.0), "dirichlet", True),
            (Nodal(4, 3.0), "dirichlet", True),
            (Nodal(3, 3.0), "dirichlet", True),
            (Nodal(3, 3.0, obs_points=(0.1, 1.2, 3.0), act_points=(0.1, 1.2, 3.0)), "dirichlet", True),
            (DISTINCT, "dirichlet", False),
            # the resolved points decide, not which fields the spec writes out
            (Nodal(3, 3.0, act_points=tuple((np.arange(3) + 0.5) * (PI / 3))), "dirichlet", True),
        ],
        ids=["volume", "fourier", "subdomain", "nodal_on_nodes", "nodal_off_nodes", "nodal_points",
             "nodal_distinct_points", "nodal_midpoints_written_out"],
    )
    def test_actuation_is_the_adjoint_of_the_observation(self, spec, bc, adjoint):
        # sum(w_q * control(u) * w) = -mu * sum(s * y(u) * y(w)), trapezoid weights w_q,
        # exactly where the law says it is adjoint: not where the points differ
        g = make_grid(PI, 64, bc)
        rng = np.random.default_rng(12)
        u, w = rng.standard_normal((2, g.n_nodes))
        observe, _, s, law_adjoint, _ = controllers.feedback_law(spec, g)
        work = np.sum(g.quad_weights * make_control_operator(spec, g)(u) * w)
        holds = bool(work == pytest.approx(-spec.mu * np.sum(s * observe(u) * observe(w)), rel=1e-13))
        assert law_adjoint is holds is adjoint


class TestControllerEnergy:
    def test_volume_energy_of_constant(self):
        g = make_grid(PI, 60, "neumann")
        c, mu, N = 1.5, 2.0, 3
        # (mu/2) * h * sum of squared means = (mu/2) * L * c^2
        assert controller_energy(VolumeElements(N, mu), g, np.full(g.n_nodes, c)) == pytest.approx(
            0.5 * mu * PI * c * c
        )

    def test_fourier_energy_of_unit_mode(self):
        g = make_grid(PI, 256, "dirichlet")
        assert controller_energy(FourierModes(2, 5.0), g, mode_matrix(g, 1)[0]) == pytest.approx(2.5, abs=1e-9)

    def test_no_control_energy_is_zero(self):
        g = make_grid(PI, 64, "neumann")
        u = random_trig_field(g, np.random.default_rng(2)).values
        assert controller_energy(NoControl(), g, u) == 0.0

    def test_energies_nonnegative(self):
        gd = make_grid(1.0, 120, "dirichlet")
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = random_trig_field(gd, rng, degree=8).values
            for spec in (
                FourierModes(3, 1.3),
                Nodal(6, 0.7),
                SubdomainControl(Subdomain(0.2, 0.7), 2.0),
            ):
                assert controller_energy(spec, gd, u) >= 0.0


# ---------------------------------------------------------------------------
# the law cache: one (observe, actuate, s) per (spec, grid)
# ---------------------------------------------------------------------------

LAW_IDS = ["volume", "fourier", "nodal", "subdomain", "none"]


def law_specs(mu):
    return [
        (VolumeElements(4, mu), "neumann"),
        (FourierModes(3, mu), "dirichlet"),
        (Nodal(4, mu), "dirichlet"),
        (SubdomainControl(Subdomain(0.5, 1.7), mu), "dirichlet"),
        (NoControl(mu), "neumann"),
    ]


@pytest.mark.parametrize("mu", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("spec, bc", law_specs(1.0)[:4], ids=LAW_IDS[:4])
def test_gain_must_be_finite_and_non_negative(spec, bc, mu):
    with pytest.raises(ValueError, match="finite and >= 0"):
        dataclasses.replace(spec, mu=mu)


def uncached_operators(spec, grid):
    """Control and energy closures from a fresh build of the law, bypassing the cache."""
    observe, actuate, s, *_ = controllers.feedback_law.__wrapped__(spec, grid)
    return (
        lambda u: actuate(observe(u)),
        lambda u: 0.5 * spec.mu * np.einsum("i,...i,...i->...", s, observe(u), observe(u)),
    )


class TestLawCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        controllers.feedback_law.cache_clear()
        yield
        controllers.feedback_law.cache_clear()

    def test_one_layout_for_many_records(self, monkeypatch):
        calls = []
        layout = controllers.element_layout
        monkeypatch.setattr(
            controllers, "element_layout", lambda *a: calls.append(a) or layout(*a)
        )
        g = make_grid(PI, 64, "neumann")
        rng = np.random.default_rng(5)
        spec = VolumeElements(8, 3.0)
        make_control_operator(spec, g)
        for _ in range(50):
            controller_energy(spec, g, random_trig_field(g, rng).values)
        assert len(calls) == 1
        assert controllers.feedback_law.cache_info().currsize == 1

    def test_distinct_geometries_never_share_a_law(self):
        keys = [
            (VolumeElements(2, 1.0), make_grid(PI, 64, "neumann")),
            (VolumeElements(4, 1.0), make_grid(PI, 64, "neumann")),
            (VolumeElements(4, 1.0), make_grid(PI, 128, "neumann")),
            (VolumeElements(4, 1.0), make_grid(2.0, 64, "neumann")),
            (FourierModes(2, 1.0), make_grid(PI, 64, "dirichlet")),
            (FourierModes(3, 1.0), make_grid(PI, 64, "dirichlet")),
            (Nodal(4, 1.0), make_grid(PI, 64, "dirichlet")),
            (Nodal(4, 1.0, obs_points=(0.3, 1.0, 1.9, 2.8)), make_grid(PI, 64, "dirichlet")),
            (SubdomainControl(Subdomain(0.5, 1.7), 1.0), make_grid(PI, 64, "dirichlet")),
            (SubdomainControl(Subdomain(0.5, 2.0), 1.0), make_grid(PI, 64, "dirichlet")),
            (NoControl(), make_grid(PI, 64, "dirichlet")),
            (NoControl(), make_grid(PI, 64, "neumann")),
        ]
        rng = np.random.default_rng(9)
        laws = [controllers.feedback_law(spec, g) for spec, g in keys]
        assert len({id(law) for law in laws}) == len(keys)
        assert controllers.feedback_law.cache_info().currsize == len(keys)
        for spec, g in keys:
            u = random_trig_field(g, rng).values
            control, energy = uncached_operators(spec, g)
            np.testing.assert_array_equal(make_control_operator(spec, g)(u), control(u))
            assert make_energy_operator(spec, g)(u) == energy(u)

    @pytest.mark.parametrize("spec_lo, bc", law_specs(1.5), ids=LAW_IDS)
    def test_two_gains_on_one_geometry(self, spec_lo, bc):
        g = make_grid(PI, 64, bc)
        rng = np.random.default_rng(13)
        spec_hi = dataclasses.replace(spec_lo, mu=7.25)
        for _ in range(2):  # the second pass is served from the cache
            for spec in (spec_lo, spec_hi):
                u = random_trig_field(g, rng).values
                control, energy = uncached_operators(spec, g)
                assert controller_energy(spec, g, u) == energy(u)
                np.testing.assert_array_equal(make_control_operator(spec, g)(u), control(u))
        # the gain is folded into the law's arrays: each gain has its own build,
        # and the second pass reuses both
        info = controllers.feedback_law.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    @pytest.mark.parametrize("spec, bc", law_specs(2.0), ids=LAW_IDS)
    def test_cached_arrays_are_read_only(self, spec, bc):
        g = make_grid(PI, 64, bc)
        observe, actuate, s, *_ = controllers.feedback_law(spec, g)
        held = [s] + [
            c.cell_contents
            for fn in (observe, actuate)
            for c in fn.__closure__ or ()
            if isinstance(c.cell_contents, np.ndarray)
        ]
        for arr in held:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


# ---------------------------------------------------------------------------
# block observation: every law observes a (K, n) block in one pass
# ---------------------------------------------------------------------------

BLOCK_LAWS = law_specs(2.5) + [
    (VolumeElements(1, 2.5), "neumann"),
    (VolumeElements(32, 2.5), "neumann"),  # n_cells / 2: two cells per element
    (Nodal(4, 2.5, obs_points=(0.0, 1.0, 2.0, PI)), "dirichlet"),  # samples at both ends
]
BLOCK_IDS = LAW_IDS + ["volume_N1", "volume_half", "nodal_ends"]


def per_row_energy_operator(spec, grid):
    """The controller energy as it was evaluated before laws took blocks: one
    state at a time, each by a BLAS dot product of the one-state observation."""
    observe = one_state_observation(spec, grid)
    s = controllers.feedback_law(spec, grid).s
    half_mu = 0.5 * spec.mu

    def energy(u):
        if u.ndim == 2:
            return np.array([half_mu * float(np.dot(s, observe(x) ** 2)) for x in u])
        return half_mu * float(np.dot(s, observe(u) ** 2))

    return energy


def random_block(grid, K, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_trig_field(grid, rng).values for _ in range(K)])


@pytest.mark.parametrize("K", [1, 7, 64])
@pytest.mark.parametrize("spec, bc", BLOCK_LAWS, ids=BLOCK_IDS)
def test_a_block_row_is_observed_as_the_row_alone(spec, bc, K):
    g = make_grid(PI, 64, bc)
    observe = controllers.feedback_law(spec, g).observe
    energy = make_energy_operator(spec, g)
    u = np.random.default_rng(K).standard_normal((K, g.n_nodes))
    y, e = observe(u), energy(u)
    assert y.shape[0] == K and e.shape == (K,)
    for k in range(K):  # bit for bit
        np.testing.assert_array_equal(y[k], observe(u[k]))
        assert e[k] == energy(u[k])


@pytest.mark.parametrize("spec, bc", BLOCK_LAWS, ids=BLOCK_IDS)
def test_block_laws_match_the_one_state_paths_they_replaced(spec, bc):
    g = make_grid(PI, 64, bc)
    observe, actuate, *_ = controllers.feedback_law(spec, g)
    reference = one_state_observation(spec, g)
    control = make_control_operator(spec, g)
    u = random_block(g, 64, 17)
    y = observe(u)
    for k in range(len(u)):
        want = reference(u[k])
        if isinstance(spec, (SubdomainControl, NoControl)):  # the same arithmetic
            np.testing.assert_array_equal(y[k], want)
        else:
            np.testing.assert_allclose(y[k], want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        feedback = actuate(want)
        np.testing.assert_allclose(
            control(u[k]), feedback, rtol=0.0, atol=1e-13 * max(np.max(np.abs(feedback), initial=0.0), 1.0)
        )
    want = per_row_energy_operator(spec, g)(u)
    np.testing.assert_allclose(make_energy_operator(spec, g)(u), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32, 64])
def test_element_averages_match_the_dense_matrix_they_replaced(N):
    g = make_grid(PI, 64, "neumann")
    u = random_block(g, 7, N)
    weights, bounds, owner, m = element_layout(g, N)
    dense = one_state_observation(VolumeElements(N, 1.0), g)
    means = element_averages(weights, bounds, u)
    assert means.shape == (7, N)
    for row, x in zip(means, u):
        want = dense(x)
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# gain conditions: worked numbers frozen per variant
# ---------------------------------------------------------------------------

# the checks read L from the grid, and the subdomain check its nodes too
NEUMANN = make_grid(PI, 64, "neumann")
DIRICHLET = make_grid(PI, 64, "dirichlet")


class TestVolumeGains:
    model = damped_wave(1.0, 1.0, 2.0, "neumann")

    def test_reference_config(self):
        rep = check_volume_gains(NEUMANN, self.model, VolumeElements(2, 4.0))
        assert rep.satisfied
        assert rep.kind == "exponential"
        assert rep.predicted_rate == pytest.approx(1.0)  # delta0 = (b/2)min(1,nu)
        gain = {m.name: m for m in rep.margins}["gain"]
        assert gain.lhs == pytest.approx(4.0) and gain.rhs == pytest.approx(4.0)
        assert not gain.strict  # inclusive: equality passes

    def test_single_element_fails_resolution(self):
        rep = check_volume_gains(NEUMANN, self.model, VolumeElements(1, 4.0))
        assert not rep.satisfied
        elements = {m.name: m for m in rep.margins}["elements"]
        assert elements.strict and elements.lhs == pytest.approx(elements.rhs)

    def test_delta0_formula(self):
        model = damped_wave(0.5, 1.0, 1.0, "neumann")
        rep = check_volume_gains(NEUMANN, model, VolumeElements(4, 10.0))
        assert rep.predicted_rate == pytest.approx(0.25)  # (b/2)*min(1,nu) = 0.5*0.5

    def test_conservative_constant_note_present(self):
        rep = check_volume_gains(NEUMANN, self.model, VolumeElements(2, 4.0))
        assert any("element count" in n for n in rep.notes)


class TestFourierGains:
    model = damped_wave(1.0, 1.0, 2.0, "dirichlet")

    def test_reference_config(self):
        rep = check_fourier_gains(DIRICHLET, self.model, FourierModes(2, 4.0))
        assert rep.satisfied
        assert rep.predicted_rate == pytest.approx(1.0)  # b/2
        m = {m.name: m for m in rep.margins}
        assert m["stiffness"].rhs == pytest.approx(5.0 / 9.0)
        assert m["gain"].rhs == pytest.approx(4.0)

    def test_single_mode_fails_stiffness(self):
        rep = check_fourier_gains(DIRICHLET, self.model, FourierModes(1, 4.0))
        assert not rep.satisfied  # lambda_2 = 4 < 5

    def test_weak_gain_fails(self):
        rep = check_fourier_gains(DIRICHLET, self.model, FourierModes(2, 3.9))
        assert not rep.satisfied
        gain = {m.name: m for m in rep.margins}["gain"]
        assert gain.slack == pytest.approx(-0.1)


def _nonlinear(m=3.0):
    """The nonlinearly damped wave at nu = a = b = 1, p = 4, damping exponent ``m``."""
    return nonlinear_damping_wave(1.0, 1.0, 1.0, m, 4.0)


class TestNonlinearGains:
    def test_reference_config(self):
        rep = check_nonlinear_gains(DIRICHLET, _nonlinear(), FourierModes(1, 2.0))
        assert rep.satisfied
        assert rep.kind == "polynomial"
        assert rep.predicted_rate == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("m,expected", [(3.0, 2 / 3), (4.0, 3 / 4), (6.0, 5 / 6)])
    def test_exponent_formula(self, m, expected):
        rep = check_nonlinear_gains(DIRICHLET, _nonlinear(m), FourierModes(1, 2.0))
        assert rep.predicted_rate == pytest.approx(expected)

    def test_boundary_mu_fails_strict(self):
        rep = check_nonlinear_gains(DIRICHLET, _nonlinear(), FourierModes(1, 1.0))
        assert not rep.satisfied


class TestNodalGains:
    """Three simultaneous conditions; gain appears on both sides, so there
    is deliberately no claim of monotonicity in mu."""

    @staticmethod
    def check(nu, a, b, mu, N):
        """The nodal check for the p = 4 strongly damped wave."""
        return check_nodal_gains(DIRICHLET, strongly_damped_wave(nu, a, b, 4.0), Nodal(N, mu))

    def test_worked_example(self):
        rep = self.check(1.0, 1.0, 0.5, 4.3, 27)
        assert rep.satisfied
        assert rep.predicted_rate is None
        assert rep.kind == "exponential"
        m = {m.name: m for m in rep.margins}
        assert m["gain"].lhs == pytest.approx(4.3) and m["gain"].rhs == pytest.approx(4.25)
        assert m["sampling"].lhs == pytest.approx(0.030675457753569807)
        assert m["sampling_quad"].lhs == pytest.approx(0.0008995884431322668)
        assert list(m) == ["gain", "sampling", "sampling_quad"]

    @staticmethod
    def linearized_abscissa(nu, a, b, N, mu, n_cells):
        """The closed loop's abscissa for the p = 4 strongly damped wave."""
        g = make_grid(PI, n_cells, "dirichlet")
        return closed_loop_abscissa(strongly_damped_wave(nu, a, b, 4.0), Nodal(N, mu), g)

    def test_stiffness_below_one_fails(self):
        # the printed conditions, read at unit stiffness, hold for a = 1,
        # b = 0.5, mu = 4.3 at any nu; at nu = 0.0005 the linearized closed
        # loop grows, and the rescaled coefficients break the sampling bound
        rep = self.check(0.0005, 1.0, 0.5, 4.3, 27)
        assert not rep.satisfied
        assert [m.name for m in rep.margins if not m.ok] == ["sampling_quad"]
        assert self.linearized_abscissa(0.0005, 1.0, 0.5, 27, 4.3, 108) > 0.0
        for nu in (1.0, 2.0):
            assert self.check(nu, 1.0, 0.5, 4.3, 27).satisfied
            assert self.linearized_abscissa(nu, 1.0, 0.5, 27, 4.3, 108) < -0.2

    def test_conditions_read_on_the_rescaled_problem(self):
        # tau = sqrt(nu) t maps (nu, a, b, mu) to (1, a/nu, b/sqrt(nu), mu/nu):
        # the unit-stiffness worked example, posed at nu = 0.5, is certified
        nu = 0.5
        rep = self.check(nu, nu * 1.0, np.sqrt(nu) * 0.5, nu * 4.3, 27)
        unit = self.check(1.0, 1.0, 0.5, 4.3, 27)
        assert rep.satisfied
        for m, ref in zip(rep.margins, unit.margins):
            assert (m.lhs, m.rhs) == pytest.approx((ref.lhs, ref.rhs), rel=1e-12)
        assert self.linearized_abscissa(nu, nu * 1.0, np.sqrt(nu) * 0.5, 27, nu * 4.3, 108) < 0.0

    def test_coarse_sampling_fails(self):
        rep = self.check(1.0, 1.0, 0.5, 4.3, 20)
        assert not rep.satisfied
        m = {m.name: m for m in rep.margins}
        assert m["gain"].ok and not m["sampling_quad"].ok

    def test_boundary_gain_fails_strict(self):
        rep = self.check(1.0, 1.0, 0.5, 4.25, 27)
        assert not rep.satisfied

    def test_excess_gain_can_break_sampling(self):
        # raising mu eventually violates the h^2-weighted conditions
        ok = self.check(1.0, 1.0, 0.5, 4.3, 27).satisfied
        broken = self.check(1.0, 1.0, 0.5, 100.0, 27).satisfied
        assert ok and not broken


class TestStrongGains:
    model = strongly_damped_wave(1.0, 1.0, 1.0, 4.0)

    def test_reference_config(self):
        rep = check_strong_fourier_gains(DIRICHLET, self.model, FourierModes(1, 2.5))
        assert rep.satisfied
        assert rep.predicted_rate == pytest.approx(1.0 / 3.0)  # delta0
        m = {m.name: m for m in rep.margins}
        assert m["gain"].rhs == pytest.approx(2.0 + 1.0 / 12.0)
        assert m["stiffness"].rhs == pytest.approx((2.0 + 1.0 / 12.0) / 4.0)

    def test_delta0_saturates_for_large_b(self):
        rep = check_strong_fourier_gains(
            DIRICHLET, strongly_damped_wave(1.0, 1.0, 10.0, 4.0), FourierModes(1, 100.0)
        )
        assert rep.predicted_rate == pytest.approx(10.0 / 102.0)

    def test_boundary_mu_fails_strict(self):
        rep = check_strong_fourier_gains(DIRICHLET, self.model, FourierModes(1, 2.0 + 1.0 / 12.0))
        assert not rep.satisfied


@pytest.fixture(scope="module")
def setup():
    L = 1.0
    omega = Subdomain(0.5, 0.9)
    grid = make_grid(L, 256, "dirichlet")
    lam_c = (PI / 0.5) ** 2
    mu0 = mu_zero(omega, lam_c / 2, grid)
    return omega, grid, mu0


def _subdomain(grid, nu, a, mu, omega):
    """The subdomain check for the damped wave at b = 2."""
    return check_subdomain_gains(grid, damped_wave(nu, a, 2.0, "dirichlet"), SubdomainControl(omega, mu))


class TestSubdomainGains:
    def test_reference_config(self, setup):
        omega, grid, mu0 = setup
        rep = _subdomain(grid, 1.0, 1.0, 1.1 * mu0, omega)
        assert rep.satisfied
        assert rep.predicted_rate == pytest.approx(1.0)
        gap = {m.name: m for m in rep.margins}["complement_gap"]
        assert gap.lhs == pytest.approx((PI / 0.5) ** 2)
        assert gap.rhs == pytest.approx(10.0)  # 4a + 3b^2/2

    def test_below_mu0_fails(self, setup):
        omega, grid, mu0 = setup
        assert not _subdomain(grid, 1.0, 1.0, 0.9 * mu0, omega).satisfied

    def test_conditions_scale_with_nu(self, setup):
        # on the problem rescaled by tau = sqrt(nu) t: nu*lam_c >= 4a + 3b^2/2
        # and mu > nu*mu_zero; the certified rate b/2 does not change
        omega, grid, mu0 = setup
        lam_c = (PI / 0.5) ** 2
        rep = _subdomain(grid, 0.3, 1.0, 0.35 * mu0, omega)
        m = {m.name: m for m in rep.margins}
        assert m["complement_gap"].lhs == pytest.approx(0.3 * lam_c)
        assert m["gain"].rhs == pytest.approx(0.3 * mu0)
        assert rep.satisfied and rep.predicted_rate == pytest.approx(1.0)
        # 0.25 * lam_c < 10 = 4a + 3b^2/2, and 0.35 * mu0 < 0.4 * mu0
        rep = _subdomain(grid, 0.25, 1.0, 0.35 * mu0, omega)
        assert [m.name for m in rep.margins if not m.ok] == ["complement_gap"]
        rep = _subdomain(grid, 0.4, 1.0, 0.35 * mu0, omega)
        assert [m.name for m in rep.margins if not m.ok] == ["gain"]

    def test_large_a_unsatisfiable(self, setup):
        omega, grid, _ = setup
        # 4a + 3b^2/2 > lambda_c: first condition fails for any mu
        rep = _subdomain(grid, 1.0, 12.0, 1e5, omega)
        assert not rep.satisfied

    def test_wide_subdomain_easy(self):
        L = 1.0
        omega = Subdomain(0.01, 0.99)
        grid = make_grid(L, 500, "dirichlet")
        rep = _subdomain(grid, 1.0, 1.0, 50.0, omega)
        gap = {m.name: m for m in rep.margins}["complement_gap"]
        assert gap.lhs == pytest.approx((PI / 0.01) ** 2)
        assert gap.ok


@pytest.mark.parametrize(
    "checker,args",
    [
        (check_volume_gains, (NEUMANN, damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements)),
        (check_fourier_gains, (DIRICHLET, damped_wave(1.0, 1.0, 2.0, "dirichlet"), FourierModes)),
        (check_strong_fourier_gains, (DIRICHLET, strongly_damped_wave(1.0, 1.0, 1.0, 4.0), FourierModes)),
    ],
)
@given(mu=st.floats(0.0, 50.0), bump=st.floats(0.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_gain_monotone_in_mu(checker, args, mu, bump):
    """For every variant except nodal, satisfaction is monotone in mu."""
    grid, model, law = args
    lo = checker(grid, model, law(2, mu))
    hi = checker(grid, model, law(2, mu + bump))
    if lo.satisfied:
        assert hi.satisfied


@given(mu=st.floats(1.0, 30.0), bump=st.floats(0.0, 30.0))
@settings(max_examples=40, deadline=None)
def test_nonlinear_gain_monotone_in_mu(mu, bump):
    lo = check_nonlinear_gains(DIRICHLET, _nonlinear(), FourierModes(1, mu))
    hi = check_nonlinear_gains(DIRICHLET, _nonlinear(), FourierModes(1, mu + bump))
    if lo.satisfied:
        assert hi.satisfied


def test_report_to_dict_shape():
    d = check_volume_gains(NEUMANN, damped_wave(1.0, 1.0, 2.0, "neumann"), VolumeElements(2, 4.0))
    d = d.to_dict()
    assert set(d) >= {"variant", "satisfied", "kind", "predicted_rate", "margins", "notes"}
    assert {m["name"] for m in d["margins"]} == {"gain", "elements"}
    for m in d["margins"]:
        assert set(m) == {"name", "lhs", "rhs", "slack", "strict", "ok"}
