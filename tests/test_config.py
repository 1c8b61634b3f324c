"""INI experiment parsing and profile construction."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from wavestab import (
    BoundaryCondition,
    Family,
    Field,
    FourierModes,
    Nodal,
    StepperConfig,
    SubdomainControl,
    VolumeElements,
    check_fourier_gains,
    check_nodal_gains,
    check_nonlinear_gains,
    check_strong_fourier_gains,
    check_subdomain_gains,
    check_volume_gains,
    damped_wave,
    lyapunov_eb,
    mode_matrix,
    nonlinear_damping_wave,
    run,
    strongly_damped_wave,
    zeros,
)
from wavestab import controllers, spectral
from wavestab.analysis import MIN_FIT_RECORDS, MIN_POWER_RECORDS, check_window, fit_exponential
from wavestab.cli import main
from wavestab.config import (
    ConfigError,
    ExperimentConfig,
    build_profile,
    gain_report_for,
    load_config,
    parse_profile,
    step_gate,
)
from wavestab.controllers import CERTIFIED
from wavestab.grid import make_grid
from wavestab.models import LEDGER_COLUMNS, energy_record, ledger_column
from wavestab.spectral import Subdomain

BASE = """\
[model]
family = damped_wave
nu = 1.0
a = 1.0
b = 2.0
bc = neumann
L = 3.141592653589793
n_cells = 128

[controller]
variant = volume
N = 2
mu = 4.0

[initial]
u0 = bump(1.5707963267948966, 0.5)

[time]
dt = 0.005
t_end = 6.0
"""


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseProfile:
    @pytest.mark.parametrize(
        "text,kind,args",
        [
            ("zero", "zero", ()),
            ("mode 3", "mode", (3.0,)),
            ("mode(2)", "mode", (2.0,)),
            ("bump(0.5, 0.1)", "bump", (0.5, 0.1)),
            ("random(7, 5)", "random", (7.0, 5.0)),
            ("  BUMP( 1.0 ,2.0 ) ", "bump", (1.0, 2.0)),
        ],
    )
    def test_grammar(self, text, kind, args):
        assert parse_profile(text) == (kind, args)

    @pytest.mark.parametrize("bad", ["wiggle(1)", "mode", "bump(1)", "random(1,2,3)", "mode(x)"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_profile(bad)

    @pytest.mark.parametrize("bad", ["mode inf", "random(inf, 3)", "random(nan, 3)", "bump(0.5, inf)"])
    def test_rejects_non_finite_arguments(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            parse_profile(bad)


class TestBuildProfile:
    def test_dirichlet_mode_is_normalized_sine(self):
        g = make_grid(np.pi, 128, "dirichlet")
        f = build_profile(g, "mode 1", 1.0)
        expected = np.sqrt(2 / np.pi) * np.sin(g.nodes)
        np.testing.assert_allclose(f.values, expected, atol=1e-12)

    def test_neumann_mode_zero_is_constant(self):
        g = make_grid(np.pi, 64, "neumann")
        f = build_profile(g, "mode 0", amplitude=2.5)
        np.testing.assert_allclose(f.values, 2.5)

    def test_dirichlet_rejects_mode_zero(self):
        g = make_grid(np.pi, 64, "dirichlet")
        for amplitude in (1.0, 0.0):  # the text is checked at any amplitude
            with pytest.raises(ConfigError):
                build_profile(g, "mode 0", amplitude)

    @pytest.mark.parametrize("bc,highest", [("dirichlet", 63), ("neumann", 64)])
    def test_modes_the_grid_cannot_resolve_rejected(self, bc, highest):
        g = make_grid(np.pi, 64, bc)
        assert np.any(build_profile(g, f"mode {highest}", 1.0).values)
        for amplitude in (1.0, 0.0):
            with pytest.raises(ConfigError, match="mode index"):
                build_profile(g, f"mode {highest + 1}", amplitude)

    @pytest.mark.parametrize("n_cells,k", [(64, 1), (256, 255), (2048, 700)])
    def test_dirichlet_mode_builds_only_its_row(self, n_cells, k, monkeypatch):
        g = make_grid(np.pi, n_cells, "dirichlet")

        def no_table(*args):
            raise AssertionError("build_profile built the mode table")

        with monkeypatch.context() as m:
            for module in (spectral, controllers):  # each module of the library that binds the name
                m.setattr(module, "mode_matrix", no_table)
            f = build_profile(g, f"mode {k}", 1.0)
        np.testing.assert_array_equal(f.values, mode_matrix(g, k)[k - 1])

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_random_degree_below_the_cell_count(self, bc):
        # degree n_cells and higher alias onto lower modes
        g = make_grid(np.pi, 64, bc)
        assert np.any(build_profile(g, "random(3, 63)", 1.0).values)
        for text in ("random(3, 64)", "random(3, 200000)"):
            rule = re.escape(f"profile {text!r} needs") + r".*\[1, n_cells = 64\)"
            for amplitude in (1.0, 0.0):
                with pytest.raises(ConfigError, match=rule):
                    build_profile(g, text, amplitude)

    def test_bump_amplitude(self):
        g = make_grid(1.0, 64, "neumann")
        f = build_profile(g, "bump(0.5, 0.2)", amplitude=3.0)
        k = np.argmin(np.abs(g.nodes - 0.5))
        assert f.values[k] == pytest.approx(3.0, rel=1e-3)

    def test_random_reproducible(self):
        g = make_grid(np.pi, 64, "dirichlet")
        a = build_profile(g, "random(11, 6)", 1.0)
        b = build_profile(g, "random(11, 6)", 1.0)
        np.testing.assert_array_equal(a.values, b.values)
        c = build_profile(g, "random(12, 6)", 1.0)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("n_cells, seed, degree", [(64, 3, 63), (256, 1, 3), (2048, 7, 12)])
    def test_random_is_its_formula_term_by_term(self, bc, n_cells, seed, degree):
        # c_0 + sum_j (a_j cos(j pi x/L) + b_j sin(j pi x/L)), sines alone on Dirichlet,
        # each coefficient one uniform(-1, 1) draw in the order c_0, a_1, b_1, a_2, ...
        g = make_grid(np.pi, n_cells, bc)
        x = g.nodes
        rng = np.random.default_rng([seed, 0])
        expected = np.zeros(g.n_nodes)
        if bc == "neumann":
            expected += rng.uniform(-1.0, 1.0)
        for j in range(1, degree + 1):
            if bc == "neumann":
                expected += rng.uniform(-1.0, 1.0) * np.cos(j * np.pi * x / g.L)
            expected += rng.uniform(-1.0, 1.0) * np.sin(j * np.pi * x / g.L)
        np.testing.assert_array_equal(build_profile(g, f"random({seed}, {degree})", 1.0).values, expected)

    def test_random_respects_dirichlet_boundary(self):
        g = make_grid(np.pi, 64, "dirichlet")
        f = build_profile(g, "random(3, 8)", 1.0)
        full = np.concatenate(([0.0], f.values, [0.0]))
        assert abs(full[0]) == 0.0 and abs(full[-1]) == 0.0

    @pytest.mark.parametrize(
        "text", ["random(1.5, 3.7)", "random(1, 3.7)", "random(1.5, 3)", "random(-1, 3)", "random(2, 0)"]
    )
    def test_random_needs_integer_seed_and_degree(self, text):
        # 1.5 and 3.7 were truncated to 1 and 3; -1 reached numpy's seeding
        g = make_grid(np.pi, 64, "dirichlet")
        for amplitude in (1.0, 0.0):
            with pytest.raises(ConfigError, match=re.escape(f"profile {text!r} needs an integer seed")):
                build_profile(g, text, amplitude)

    @pytest.mark.parametrize("amplitude", [1.0, 0.0])
    def test_bump_needs_a_positive_width(self, amplitude):
        g = make_grid(1.0, 64, "neumann")
        with pytest.raises(ConfigError, match="bump width must be positive, got -1.0"):
            build_profile(g, "bump(0.5, -1)", amplitude)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_a_valid_profile_at_amplitude_zero_is_exact_zeros(self, bc):
        g = make_grid(np.pi, 64, bc)
        for text in ("zero", "mode 1", "mode 63", "bump(0.5, 0.2)", "random(3, 8)", "random(3, 63)"):
            f = build_profile(g, text, 0.0)
            assert f.values.tolist() == [0.0] * g.n_nodes
            assert not np.signbit(f.values).any()  # +0.0, not the -0.0 of 0 * a negative value


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE))
        assert cfg.model.family is Family.DAMPED_WAVE
        assert cfg.grid.bc is BoundaryCondition.NEUMANN
        assert isinstance(cfg.controller, VolumeElements)
        assert cfg.controller.mu == 4.0
        assert cfg.stepper.dt == 0.005
        assert cfg.variant == "volume"
        assert cfg.safety == 0.8  # default

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match="time"):
            load_config(write(tmp_path, "[model]\nfamily = damped_wave\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.ini")

    def test_bad_value_reports_key(self, tmp_path):
        text = BASE.replace("nu = 1.0", "nu = fast")
        with pytest.raises(ConfigError, match="nu"):
            load_config(write(tmp_path, text))

    def test_unknown_family(self, tmp_path):
        text = BASE.replace("family = damped_wave", "family = elastic")
        with pytest.raises(ConfigError, match="family"):
            load_config(write(tmp_path, text))

    def test_controller_grid_consistency_checked_at_load(self, tmp_path):
        # volume elements on a Dirichlet model must fail at load time
        text = BASE.replace("bc = neumann", "bc = dirichlet")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_divisibility_checked_at_load(self, tmp_path):
        text = BASE.replace("N = 2", "N = 7")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_nonlinear_family(self, tmp_path):
        text = """\
[model]
family = nonlinear_damping
nu = 1.0
a = 1.0
b = 1.0
m = 3.0
p = 4.0
L = 3.141592653589793
n_cells = 128

[controller]
variant = fourier
N = 1
mu = 2.0

[time]
t_end = 10.0
"""
        cfg = load_config(write(tmp_path, text))
        assert cfg.model.family is Family.NONLINEAR_DAMPING
        assert isinstance(cfg.controller, FourierModes)
        rep = gain_report_for(cfg)
        assert rep.kind == "polynomial"
        assert rep.satisfied

    def test_subdomain_controller(self, tmp_path):
        text = """\
[model]
family = damped_wave
nu = 1.0
a = 1.0
b = 2.0
bc = dirichlet
L = 1.0
n_cells = 200
nonlinearity = power
p = 4.0

[controller]
variant = subdomain
mu = 35.0
omega_lo = 0.5
omega_hi = 0.9

[time]
t_end = 8.0
"""
        cfg = load_config(write(tmp_path, text))
        assert isinstance(cfg.controller, SubdomainControl)
        assert cfg.controller.omega.lo == 0.5
        rep = gain_report_for(cfg)
        assert rep.variant == "subdomain"

    def test_nodal_with_explicit_points(self, tmp_path):
        text = """\
[model]
family = damped_wave
nu = 1.0
a = 1.0
b = 0.5
bc = dirichlet
L = 3.141592653589793
n_cells = 128

[controller]
variant = nodal
N = 2
mu = 1.0
obs_points = 0.7, 2.2
act_points = 0.8, 2.3

[time]
t_end = 1.0
"""
        cfg = load_config(write(tmp_path, text))
        assert isinstance(cfg.controller, Nodal)
        # observing x reads back the observation points; actuating e_k and weighing
        # by x reads back the actuation point x_k times the law's scale -mu h/dx
        g = cfg.grid
        observe, actuate, *_ = controllers.feedback_law(cfg.controller, g)
        np.testing.assert_allclose(observe(g.nodes), [0.7, 2.2], rtol=0, atol=1e-12)
        act = [np.dot(actuate(e), g.nodes) / -(np.pi / 2 / g.dx) for e in np.eye(2)]
        np.testing.assert_allclose(act, [0.8, 2.3], rtol=0, atol=1e-12)

    def test_default_dt_and_records(self, tmp_path):
        text = BASE.replace("dt = 0.005\n", "")
        cfg = load_config(write(tmp_path, text))
        # the largest dt up to min(0.25 dx, 1e-2), dx = pi/128, that divides t_end
        assert cfg.stepper.dt == pytest.approx(6.0 / math.ceil(6.0 / (0.25 * np.pi / 128)))
        assert cfg.stepper.dt <= 0.25 * np.pi / 128
        assert cfg.stepper.n_steps * cfg.stepper.dt == pytest.approx(6.0, rel=1e-12)

    def test_record_every_targets_2000_records(self, tmp_path):
        text = BASE.replace("t_end = 6.0", "t_end = 60.0").replace("dt = 0.005", "dt = 0.005")
        cfg = load_config(write(tmp_path, text))
        n_steps = round(60.0 / 0.005)
        assert cfg.stepper.record_every == max(1, n_steps // 2000)

    @pytest.mark.parametrize("t_end", ["inf", "-1.0", "nan"])
    @pytest.mark.parametrize("dt_line", ["dt = 0.005\n", ""], ids=["dt", "default_dt"])
    def test_bad_t_end(self, tmp_path, t_end, dt_line):
        text = BASE.replace("dt = 0.005\n", dt_line).replace("t_end = 6.0", f"t_end = {t_end}")
        with pytest.raises(ConfigError, match=r"\[time\] t_end"):
            load_config(write(tmp_path, text))

    def test_bad_scheme(self, tmp_path):
        # IMEX is the one time stepper: no scheme is chosen, not even the old default
        for scheme in ("imex_cn", "rk4"):
            text = BASE + f"scheme = {scheme}\n"
            with pytest.raises(ConfigError, match=r"^\[time\] unknown key 'scheme'$"):
                load_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("nu = 1.0", "nu = inf", r"\[model\] nu = 'inf'"),
            ("a = 1.0", "a = nan", r"\[model\] a = 'nan'"),
            ("b = 2.0", "b = -inf", r"\[model\] b = '-inf'"),
            ("n_cells = 128", "n_cells = inf", r"\[model\] n_cells = 'inf'"),
            ("mu = 4.0", "mu = inf", r"\[controller\] mu = 'inf'"),
            ("mu = 4.0", "mu = nan", r"\[controller\] mu = 'nan'"),
            ("u0 = bump(1.5707963267948966, 0.5)", "u0 = mode inf", "finite"),
        ],
    )
    def test_non_finite_values_rejected(self, tmp_path, old, new, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write(tmp_path, BASE.replace(old, new)))

    def test_bad_safety(self, tmp_path):
        text = BASE + "\n[analysis]\nsafety = 1.2\n"
        with pytest.raises(ConfigError, match="safety"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "keys",
        [
            "window_lo = 5.4\nwindow_hi = 1.2",  # starts after it ends
            "window_lo = -18.0\nwindow_hi = 42.0",  # starts before t = 0
            "window_lo = 6.0\nwindow_hi = 8.0",  # starts at t_end = 6, no record inside
        ],
        ids=["reversed", "negative_start", "start_at_t_end"],
    )
    def test_bad_fit_window(self, tmp_path, keys):
        text = BASE + f"\n[analysis]\n{keys}\n"
        with pytest.raises(ConfigError, match=r"\[analysis\] fit window"):
            load_config(write(tmp_path, text))

    def test_none_controller_has_no_report(self, tmp_path):
        text = BASE.replace("variant = volume", "variant = none")
        cfg = load_config(write(tmp_path, text))
        assert gain_report_for(cfg) is None


NONLINEAR = """\
[model]
family = nonlinear_damping
nu = 1.0
a = 1.0
b = 1.0
m = 3.0
p = 4.0
L = 3.141592653589793
n_cells = 64

[controller]
variant = fourier
N = 1
mu = 2.0

[initial]
u0 = mode 1

[time]
dt = 0.01
t_end = 4.0
"""


# a [model] section around the keys each test gives; the rest stays at its defaults
MODEL_INI = """\
[model]
{keys}
nu = 1.5
a = 0.5
b = 2.0
L = 3.141592653589793
n_cells = 64

[time]
t_end = 1.0
"""


class TestModelSection:
    """The [model] section builds, in one call, the model its family's factory builds."""

    @pytest.mark.parametrize(
        "keys,factory",
        [
            ("family = damped_wave\nbc = neumann\nm = 1.0", lambda: damped_wave(1.5, 0.5, 2.0, "neumann")),
            (
                "family = damped_wave\nnonlinearity = power\np = 4.0",
                lambda: damped_wave(1.5, 0.5, 2.0, "dirichlet", 4.0),
            ),
            (
                "family = nonlinear_damping\nm = 3.0\np = 4.0",
                lambda: nonlinear_damping_wave(1.5, 0.5, 2.0, 3.0, 4.0),
            ),
            ("family = strongly_damped\np = 6.0\nm = 1.0", lambda: strongly_damped_wave(1.5, 0.5, 2.0, 6.0)),
        ],
        ids=["damped_zero", "damped_power", "nonlinear_damping", "strongly_damped"],
    )
    def test_each_family_equals_its_factory(self, tmp_path, keys, factory):
        # a key the family does not use (m here but on nonlinear damping) has no effect
        cfg = load_config(write(tmp_path, MODEL_INI.format(keys=keys)))
        assert cfg.model == factory()
        assert cfg.grid.bc is cfg.model.bc

    def test_stray_p_on_a_zero_source_has_no_effect(self, tmp_path):
        keys = "family = damped_wave\nnonlinearity = zero\np = 1.0"
        cfg = load_config(write(tmp_path, MODEL_INI.format(keys=keys)))
        assert cfg.model == damped_wave(1.5, 0.5, 2.0, "dirichlet") and cfg.model.p is None

    @pytest.mark.parametrize(
        "keys,message",
        [
            ("family = damped_wave\nnonlinearity = power", "[model] missing required key 'p'"),
            (
                "family = damped_wave\nnonlinearity = cubic\np = 4.0",
                "[model] nonlinearity must be 'zero' or 'power', got 'cubic'",
            ),
            ("family = strongly_damped", "[model] missing required key 'p'"),
            ("family = nonlinear_damping\np = 4.0", "[model] missing required key 'm'"),
            ("family = strongly_damped\np = 1.5", "[model] power law needs p >= 2, got 1.5"),
            (
                "family = nonlinear_damping\nm = 2.0\np = 4.0",
                "[model] nonlinear damping needs exponent m > 2, got 2.0",
            ),
            (
                "family = nonlinear_damping\nbc = neumann\nm = 3.0\np = 4.0",
                "[model] nonlinear_damping is posed with Dirichlet boundaries, got bc = 'neumann'",
            ),
        ],
        ids=[
            "power_without_p", "unknown_law", "strong_without_p", "without_m",
            "p_below_two", "m_two", "neumann",
        ],
    )
    def test_family_rules_are_config_errors(self, tmp_path, keys, message):
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, MODEL_INI.format(keys=keys)))
        assert str(exc.value) == message


class TestStepGate:
    FOURIER = BASE.replace("variant = volume", "variant = fourier").replace("bc = neumann", "bc = dirichlet")

    @staticmethod
    def gate(cfg, n):
        """``step_gate`` on ``cfg`` stepped with dt = t_end/n: its line, or its refusal's text."""
        t_end = cfg.stepper.t_end
        try:
            return step_gate(replace(cfg, stepper=StepperConfig(dt=t_end / n, t_end=t_end)))
        except ConfigError as exc:
            return f"refused: {exc}"

    def test_the_named_dt_is_the_largest_the_gate_passes_near_the_boundary(self, tmp_path):
        base = load_config(write(tmp_path, self.FOURIER))
        rng = np.random.default_rng(33)
        named = 0
        for _ in range(400):
            # mu puts r = 1 at dt = t_end/m up to a few ulps; the run's own dt is near it
            t_end, a = float(rng.choice([0.5, 1.0, 2.5, 4.0, 16.0])), float(rng.choice([0.0, 1.0, 0.3]))
            m = int(rng.integers(20, 4000))
            mu = 4.0 * (m / t_end) ** 2 + a
            for _ in range(int(rng.integers(0, 4))):
                mu = float(np.nextafter(mu, rng.choice([-np.inf, np.inf])))
            cfg = replace(base, model=replace(base.model, a=a), controller=FourierModes(2, mu))
            line = self.gate(cfg, m + int(rng.integers(-m // 40 - 1, m // 40 + 2)))
            if line is None:
                continue
            n = int(re.search(r"with r < 1 is dt = \S+/(\d+) = ", line).group(1))
            assert not (self.gate(cfg, n) or "").startswith("refused")
            assert n == 1 or self.gate(cfg, n - 1).startswith("refused")
            named += 1
        assert named > 300

    def test_a_ratio_that_overflows_is_refused(self, tmp_path):
        # dt^2 mu overflows to r = inf at dt = 2: still a config error, with a finite dt named
        cfg = load_config(write(tmp_path, self.FOURIER.replace("mu = 4.0", "mu = 1e308")))
        line = self.gate(cfg, 3)
        assert line.startswith("refused: [time] step ratio r = dt^2 (lambda - a)/4 = inf >= 1 at dt = 2.0:")
        n = int(re.search(r"with r < 1 is dt = 6/(\d+) = ", line).group(1))
        assert not self.gate(cfg, n).startswith("refused") and self.gate(cfg, n - 1).startswith("refused")

    def test_a_config_with_no_step_passes(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE.replace("t_end = 6.0", "t_end = 0.0").replace("mu = 4.0", "mu = 1e9")))
        assert cfg.step_ratio > 1.0 and step_gate(cfg) is None


def _thinned(ledger, every):
    """The ledger a run with ``record_every = every`` keeps, from a run that kept every step."""
    k = np.arange(len(ledger))
    return ledger[(k % every == 0) | (k == k[-1])]


class TestRecordCadence:
    """load_config refuses a certified run whose verifier would find too few records."""

    @staticmethod
    def loads(tmp_path, text, every):
        try:
            load_config(write(tmp_path, text.replace("t_end =", f"record_every = {every}\nt_end =")))
        except ConfigError as exc:
            assert str(exc).startswith("[time] only ")
            return False
        return True

    def test_exponential_fit_needs_twenty(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE))
        ledger = run(cfg.model, cfg.controller, cfg.u0, cfg.u1, replace(cfg.stepper, record_every=1)).ledger
        window = cfg.window  # (1.2, 5.4)
        verdicts = set()
        for every in range(36, 49):
            try:
                fitted = fit_exponential(_thinned(ledger, every), window).n_points >= MIN_FIT_RECORDS
            except ValueError as exc:
                assert "need at least 20" in str(exc)
                fitted = False
            assert self.loads(tmp_path, BASE, every) == fitted, every
            verdicts.add(fitted)
        assert verdicts == {True, False}

    def test_power_law_needs_eight_from_t_one(self, tmp_path):
        cfg = load_config(write(tmp_path, NONLINEAR))
        ledger = run(cfg.model, cfg.controller, cfg.u0, cfg.u1, replace(cfg.stepper, record_every=1)).ledger
        (lo, hi), need = check_window("polynomial", cfg.window, cfg.stepper.t_end)  # (1.0, 3.6), 8
        assert need == MIN_POWER_RECORDS
        verdicts = set()
        for every in range(28, 40):
            t = ledger_column(_thinned(ledger, every), "t")
            enough = np.count_nonzero((lo <= t) & (t <= hi)) >= MIN_POWER_RECORDS
            assert self.loads(tmp_path, NONLINEAR, every) == enough, every
            verdicts.add(enough)
        assert verdicts == {True, False}
        # the window (0.1, 0.45) ends before the power-law check starts
        assert not self.loads(tmp_path, NONLINEAR.replace("t_end = 4.0", "t_end = 0.5"), 1)

    def test_sparse_run_is_a_config_error(self, tmp_path, capsys):
        # a 256-cell run_fine of the benchmark, cut to t_end = 4: 21 records, 15 in (0.8, 3.6)
        text = NONLINEAR.replace("nonlinear_damping", "damped_wave").replace("n_cells = 64", "n_cells = 256")
        text = text.replace("N = 1\nmu = 2.0", "N = 2\nmu = 2.0").replace("b = 1.0", "b = 0.5")
        text = text.replace("dt = 0.01", "dt = 0.002\nrecord_every = 100")
        out = tmp_path / "out"
        assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        assert "only 15 of the 21 records" in capsys.readouterr().err
        assert not out.exists()

    def test_uncertified_pair_is_not_counted(self, tmp_path):
        text = BASE.replace("variant = volume", "variant = none")
        assert self.loads(tmp_path, text, 600)  # three records


def test_analysis_window_fractions_and_overrides(tmp_path):
    text = BASE.replace("t_end = 6.0", "t_end = 10.0")
    assert load_config(write(tmp_path, text)).window == (2.0, 9.0)  # default 20%-90% of t_end
    # each key overrides its end; the other keeps its fraction of t_end
    assert load_config(write(tmp_path, text + "\n[analysis]\nwindow_lo = 5.0\n")).window == (5.0, 9.0)
    assert load_config(write(tmp_path, text + "\n[analysis]\nwindow_hi = 50.0\n")).window == (2.0, 50.0)


@pytest.mark.parametrize("key", ["window_lo_frac", "window_hi_frac"])
def test_window_fraction_keys_are_unknown(tmp_path, key):
    with pytest.raises(ConfigError, match=rf"\[analysis\] unknown key '{key}'"):
        load_config(write(tmp_path, BASE + f"\n[analysis]\n{key} = 0.5\n"))


def _pair_config(family, ctrl):
    """A 64-cell experiment for one (law, family) pair, bump initial data."""
    bc = "neumann" if isinstance(ctrl, VolumeElements) else "dirichlet"
    model = {
        Family.DAMPED_WAVE: lambda: damped_wave(1.0, 1.0, 2.0, bc),
        Family.STRONGLY_DAMPED: lambda: strongly_damped_wave(1.0, 1.0, 0.5, 4.0),
        Family.NONLINEAR_DAMPING: lambda: nonlinear_damping_wave(1.0, 1.0, 1.0, 3.0, 4.0),
    }[family]()
    grid = make_grid(np.pi, 64, bc)
    u0 = Field(grid, np.exp(-(((grid.nodes - 1.3) / 0.5) ** 2)))
    stepper = StepperConfig(dt=0.01, t_end=0.5, record_every=5)
    return ExperimentConfig(grid, model, ctrl, u0, zeros(grid), stepper, (0.1, 0.45), 0.8, {})


def E_B(m, g):
    """E_b's weights (eps, grad, quad) on the damped wave."""
    return m.b / 2, m.nu, (m.b * m.b / 2 - m.a) / 2


def E_EPS(m, g):
    """E_eps's weights on the strongly damped wave, with lam1 = (pi/L)^2."""
    lam1 = (np.pi / g.L) ** 2
    return m.b * lam1 / 2, m.nu + m.b * m.b * lam1 / 2, -m.a / 2


# each certified pair with the gain check and functional weights its proof uses
CERTIFIED_CASES = {
    "volume-damped": (Family.DAMPED_WAVE, VolumeElements(2, 4.0), check_volume_gains, E_B),
    "fourier-damped": (Family.DAMPED_WAVE, FourierModes(2, 4.0), check_fourier_gains, E_B),
    "fourier-strong": (
        Family.STRONGLY_DAMPED, FourierModes(1, 4.0), check_strong_fourier_gains, E_EPS
    ),
    "fourier-nonlinear": (
        Family.NONLINEAR_DAMPING, FourierModes(1, 2.0), check_nonlinear_gains, None
    ),
    "nodal-strong": (Family.STRONGLY_DAMPED, Nodal(4, 1.0), check_nodal_gains, None),
    "subdomain-damped": (
        Family.DAMPED_WAVE, SubdomainControl(Subdomain(1.0, 2.0), 35.0), check_subdomain_gains, E_B
    ),
}


class TestCertifiedPairs:
    def test_table_holds_exactly_the_six_pairs(self):
        assert set(CERTIFIED) == {(type(c[1]), c[0]) for c in CERTIFIED_CASES.values()}

    def test_table_holds_the_checks_themselves(self):
        for family, ctrl, check, _ in CERTIFIED_CASES.values():
            assert CERTIFIED[(type(ctrl), family)].gains is check

    def test_only_nonlinear_damping_is_checked_as_a_power_law(self):
        # load_config picks the power-law record count by the report's kind
        for family, ctrl, _, _ in CERTIFIED_CASES.values():
            kind = gain_report_for(_pair_config(family, ctrl)).kind
            assert (kind == "polynomial") == (family is Family.NONLINEAR_DAMPING)

    @pytest.mark.parametrize("pair", sorted(CERTIFIED_CASES))
    def test_report_and_functional_match_direct_calls(self, pair):
        family, ctrl, check, weights = CERTIFIED_CASES[pair]
        cfg = _pair_config(family, ctrl)
        assert gain_report_for(cfg) == check(cfg.grid, cfg.model, ctrl)
        table_weights = CERTIFIED[(type(ctrl), family)].weights
        if weights is None:
            assert table_weights is None
        else:
            expected = weights(cfg.model, cfg.grid)
            assert table_weights(cfg.model, cfg.grid) == pytest.approx(expected, rel=1e-15)

        res = run(cfg.model, ctrl, cfg.u0, cfg.u1, cfg.stepper)
        assert len(res.ledger) == 11
        if weights is None:
            assert res.ledger.shape[1] == len(LEDGER_COLUMNS) - 1  # no lyapunov column
            return
        for row, u, v in ((res.ledger[0], cfg.u0.values, cfg.u1.values), (res.ledger[-1], res.u, res.v)):
            rows = energy_record(cfg.model, cfg.grid, u, v, 0.0)
            phi = lyapunov_eb(cfg.model, ctrl, cfg.grid, u, rows)
            assert row[LEDGER_COLUMNS.index("lyapunov")] == phi
