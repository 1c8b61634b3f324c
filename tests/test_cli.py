"""End-to-end subcommand tests driven through ``wavestab.cli.main``."""

import argparse
import collections
import csv
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy

from wavestab import __version__, analysis, cli, config, controllers
from wavestab import LEDGER_COLUMNS, Nodal, StepperConfig, make_control_operator, make_grid, run
from wavestab.cli import build_parser, main
from wavestab.config import load_config

VOLUME_INI = """\
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

# a linear wave too unstable for low gains: mu = 0 and 0.5 blow up between
# t = 23 and t = 27, while mu = 12 decays and verifies
SWEEP_BLOWUP_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 5.0
b = 2.0
bc = dirichlet
L = 3.141592653589793
n_cells = 256

[controller]
variant = fourier
N = 2
mu = 1.0

[initial]
u0 = random(7, 3)

[time]
dt = 0.005
t_end = 30.0
"""

# five low modes grow at rate ~4.9 without feedback: in a sweep over
# mu = 0, 40, 60 only mu = 0 blows up (near t = 5.4)
MU_BLOWUP_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 30.0
b = 1.0
bc = dirichlet
L = 3.141592653589793
n_cells = 64

[controller]
variant = fourier
N = 5
mu = 40.0

[initial]
u0 = random(3, 2)

[time]
dt = 0.01
t_end = 8.0
"""

# localized damping at nu = 0.1: its linearization grows (abscissa +0.138),
# and the complement-gap condition, read on the rescaled problem, fails
SUBDOMAIN_LOW_NU_INI = """\
[model]
family = damped_wave
nu = 0.1
a = 1.0
b = 1.0
bc = dirichlet
L = 3.141592653589793
n_cells = 64

[controller]
variant = subdomain
omega_lo = 1.0
omega_hi = 2.5
mu = 20.0

[initial]
u0 = random(3, 6)

[time]
dt = 0.01
t_end = 20.0
"""

BLOWUP_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 50.0
b = 0.1
bc = dirichlet
L = 3.141592653589793
n_cells = 64

[controller]
variant = none

[initial]
u0 = mode 1
u0_amplitude = 100.0

[time]
dt = 0.01
t_end = 50.0
"""


# |u|^38 u overflows to inf in the first step, well below the 1e12 peak limit
OVERFLOW_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 1.0
b = 0.5
bc = dirichlet
nonlinearity = power
p = 40
L = 3.141592653589793
n_cells = 64

[controller]
variant = none

[initial]
u0 = mode 1
u0_amplitude = 12533141373.155003

[time]
dt = 0.01
t_end = 5.0
"""


# one model section for every family: each family reads only its own keys
PAIR_INI = """\
[model]
family = {family}
nu = 1.0
a = 1.0
b = 0.5
m = 3.0
p = 4.0
bc = dirichlet
L = 3.141592653589793
n_cells = 64

[controller]
{controller}

[initial]
u0 = mode 1

[time]
dt = 0.01
t_end = 0.5
"""

VOLUME = "variant = volume\nN = 2\nmu = 4.0"
FOURIER = "variant = fourier\nN = 2\nmu = 4.0"
NODAL = "variant = nodal\nN = 4\nmu = 1.0"
SUBDOMAIN = "variant = subdomain\nmu = 5.0\nomega_lo = 1.0\nomega_hi = 2.0"

# (law, family) pairs no certificate covers
UNCERTIFIED = {
    "nodal-damped_wave": ("damped_wave", NODAL),
    "nodal-nonlinear_damping": ("nonlinear_damping", NODAL),
    "subdomain-strongly_damped": ("strongly_damped", SUBDOMAIN),
    "subdomain-nonlinear_damping": ("nonlinear_damping", SUBDOMAIN),
}


# the six certified (law, family) pairs
CERTIFIED_PAIRS = {
    "volume-damped_wave": ("damped_wave", VOLUME),
    "fourier-damped_wave": ("damped_wave", FOURIER),
    "fourier-strongly_damped": ("strongly_damped", FOURIER),
    "fourier-nonlinear_damping": ("nonlinear_damping", FOURIER),
    "nodal-strongly_damped": ("strongly_damped", NODAL),
    "subdomain-damped_wave": ("damped_wave", SUBDOMAIN),
}


def pair_ini(pair):
    """PAIR_INI for a certified pair, with a nonzero u1.

    Volume elements need a Neumann grid, and the power-law check of nonlinear
    damping reads records from t = 1 on, so that pair runs to t = 2.
    """
    family, controller = CERTIFIED_PAIRS[pair]
    text = PAIR_INI.format(family=family, controller=controller)
    if pair.startswith("volume"):
        text = text.replace("bc = dirichlet", "bc = neumann")
    if family == "nonlinear_damping":
        text = text.replace("t_end = 0.5", "t_end = 2.0")
    return text.replace("u0 = mode 1", "u0 = mode 1\nu1 = random(3, 2)")


def fresh_python(code, cwd):
    """Standard output of ``python -c code`` in a new interpreter, run in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def volume_ini(tmp_path):
    p = tmp_path / "volume.ini"
    p.write_text(VOLUME_INI)
    return str(p)


class TestCheck:
    def test_satisfied_exits_zero(self, volume_ini, capsys):
        assert main(["check", "--config", volume_ini]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["satisfied"] is True
        assert doc["predicted_rate"] == pytest.approx(1.0)

    def test_unsatisfied_exits_one(self, tmp_path, capsys):
        p = tmp_path / "weak.ini"
        p.write_text(VOLUME_INI.replace("N = 2", "N = 1"))
        assert main(["check", "--config", str(p)]) == 1
        doc = json.loads(capsys.readouterr().out)
        margins = {m["name"]: m for m in doc["margins"]}
        assert margins["elements"]["slack"] <= 0

    def test_growing_subdomain_config_is_not_certified(self, tmp_path, capsys):
        p = tmp_path / "subdomain.ini"
        p.write_text(SUBDOMAIN_LOW_NU_INI)
        assert main(["check", "--config", str(p)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [m["name"] for m in doc["margins"] if not m["ok"]] == ["complement_gap"]
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["fit"]["rate"] < 0.0  # the run grows

    def test_no_controller_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "none.ini"
        p.write_text(VOLUME_INI.replace("variant = volume", "variant = none"))
        assert main(["check", "--config", str(p)]) == 2

    def test_malformed_config_exits_two(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nfamily = damped_wave\nnu = quick\n")
        assert main(["check", "--config", str(p)]) == 2

    def test_a_bare_percent_sign_exits_two(self, tmp_path, capsys):
        # configparser reads % as interpolation, and fails only when the value is read
        p = tmp_path / "percent.ini"
        p.write_text(VOLUME_INI.replace("mu = 4.0", "mu = 4%"))
        assert main(["check", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed config {p}: '%' must be")

    def test_missing_file_exits_two(self):
        assert main(["check", "--config", "/no/such/file.ini"]) == 2

    @pytest.mark.parametrize(
        "initial,message",
        [
            ("u0 = mode 9999\nu0_amplitude = 0", "invalid mode index 9999.0 on 128 cells"),
            ("u1 = bump(0.5, -1)\nu1_amplitude = 0", "bump width must be positive"),
        ],
        ids=["u0_mode", "u1_bump"],
    )
    def test_an_invalid_profile_at_amplitude_zero_exits_two(self, tmp_path, capsys, initial, message):
        p = tmp_path / "silent.ini"
        p.write_text(VOLUME_INI.replace("u0 = bump(1.5707963267948966, 0.5)", initial))
        assert main(["check", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", ["u0", "u1"])
    def test_a_profile_that_overflows_exits_two_naming_its_keys(self, tmp_path, capsys, key):
        p = tmp_path / "overflow.ini"
        initial = f"{key} = random(3, 6)\n{key}_amplitude = 1e308"
        p.write_text(VOLUME_INI.replace("u0 = bump(1.5707963267948966, 0.5)", initial))
        assert main(["check", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: [initial] {key} = 'random(3, 6)' times {key}_amplitude = 1e+308 is not finite\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("time", ["t_end = 1.0\ndt = 1e-320", "t_end = 1e300\ndt = 1e-300"])
    def test_a_step_count_past_the_float_range_exits_two(self, tmp_path, capsys, time):
        p = tmp_path / "steps.ini"
        p.write_text(VOLUME_INI.replace("dt = 0.005\nt_end = 6.0", time))
        assert time in p.read_text()
        assert main(["check", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [time] t_end/dt = ") and err.count("\n") == 1
        assert "the step count must be finite" in err

    @pytest.mark.filterwarnings("error")
    def test_a_bump_too_narrow_for_a_float_loads_without_a_warning(self, tmp_path):
        # ((x - 1) / 1e-300)**2 overflows to inf away from x = 1, where exp(-inf) = 0
        p = tmp_path / "narrow.ini"
        p.write_text(VOLUME_INI.replace("u0 = bump(1.5707963267948966, 0.5)", "u0 = bump(1.0, 1e-300)"))
        np.testing.assert_array_equal(load_config(str(p)).u0.values, 0.0)

    @pytest.mark.parametrize(
        "old,new", [("mu = 4.0", "mu = inf"), ("mu = 4.0", "mu = nan"), ("nu = 1.0", "nu = inf")]
    )
    def test_non_finite_coefficient_exits_two(self, tmp_path, capsys, old, new):
        p = tmp_path / "inf.ini"
        p.write_text(VOLUME_INI.replace(old, new))
        assert main(["check", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and new.split(" ")[0] in captured.err


# omega leaves a complement component of length 0.0495, so the gap target
# lambda_c / 2 = 2014 lies beyond any gain the 64-cell grid can certify
UNREACHABLE_GAP_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 0.1
b = 0.1
bc = dirichlet
L = 3.141592653589793
n_cells = 64

[controller]
variant = subdomain
omega_lo = 0.0495
omega_hi = 3.1
mu = 5.0

[time]
t_end = 1.0
"""


@pytest.mark.parametrize("command", ["check", "run", "sweep"])
def test_unreachable_subdomain_gap_is_config_error(command, tmp_path, capsys):
    p = tmp_path / "unreachable.ini"
    p.write_text(UNREACHABLE_GAP_INI)
    out = tmp_path / "out"
    argv = {"check": [], "run": ["--out", str(out)],
            "sweep": ["--param", "mu", "--values", "5", "--out", str(out)]}[command]
    assert main([command, "--config", str(p), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [controller] gap target 2014 unreachable")
    assert "refine the grid or move omega" in captured.err
    assert not out.exists()


# subdomains whose gain check cannot be evaluated: (omega_lo, omega_hi) and the check's reason
UNCHECKABLE_OMEGA = {
    "gap_unreachable": ("0.0495", "3.1", "gap target 2014 unreachable"),
    "both_ends": ("0", "3.141592653589793", "omega touches both ends"),
    "between_nodes": ("0.01", "0.02", "omega contains no grid nodes"),
}


def omega_ini(lo, hi):
    return UNREACHABLE_GAP_INI.replace("omega_lo = 0.0495", f"omega_lo = {lo}").replace(
        "omega_hi = 3.1", f"omega_hi = {hi}")


@pytest.mark.parametrize("lo,hi,reason", UNCHECKABLE_OMEGA.values(), ids=list(UNCHECKABLE_OMEGA))
def test_load_config_names_the_controller_where_the_gain_check_cannot_be_evaluated(lo, hi, reason, tmp_path):
    p = tmp_path / "omega.ini"
    p.write_text(omega_ini(lo, hi))
    with pytest.raises(config.ConfigError, match=rf"^\[controller\] {reason}"):
        load_config(str(p))


@pytest.mark.parametrize("command", ["check", "run", "sweep"])
@pytest.mark.parametrize("geometry", ["both_ends", "between_nodes"])
def test_an_omega_the_gain_check_cannot_evaluate_is_one_controller_error(geometry, command, tmp_path, capsys):
    lo, hi, reason = UNCHECKABLE_OMEGA[geometry]
    p = tmp_path / "omega.ini"
    p.write_text(omega_ini(lo, hi))
    out = tmp_path / "out"
    argv = {"check": [], "run": ["--out", str(out)],
            "sweep": ["--param", "mu", "--values", "5", "--out", str(out)]}[command]
    assert main([command, "--config", str(p), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: [controller] {reason}")
    assert not out.exists()


def test_subdomain_beyond_the_grid_is_config_error(tmp_path, capsys):
    p = tmp_path / "beyond.ini"
    p.write_text(PAIR_INI.format(family="damped_wave", controller=SUBDOMAIN.replace("2.0", "3.5")))
    assert main(["check", "--config", str(p)]) == 2
    assert "[controller] omega_hi=3.5 lies beyond the grid's L=3.14159" in capsys.readouterr().err


# [controller] texts whose one fault is the named key; each is refused before any law is built
CONTROLLER_FAULTS = {
    "unknown_variant": ("variant = bogus\nmu = 1.0", "variant 'bogus'"),
    "volume_no_elements": (VOLUME.replace("N = 2", "N = 0"), "N=0"),
    "fourier_no_modes": (FOURIER.replace("N = 2", "N = 0"), "N=0"),
    "nodal_no_nodes": (NODAL.replace("N = 4", "N = 0"), "N=0"),
    "obs_points_too_few": (NODAL + "\nobs_points = 0.3, 1.0", "obs_points"),
    "obs_points_not_numbers": (NODAL + "\nobs_points = 0.3, one, 1.9, 2.8", "obs_points"),
}


@pytest.mark.parametrize("controller,key", CONTROLLER_FAULTS.values(), ids=list(CONTROLLER_FAULTS))
def test_a_controller_key_at_fault_is_one_config_error(controller, key, tmp_path, capsys):
    p = tmp_path / "fault.ini"
    text = PAIR_INI.format(family="damped_wave", controller=controller)
    p.write_text(text.replace("bc = dirichlet", "bc = neumann") if "volume" in controller else text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: [controller] ") and key in line
    assert not out.exists()


def test_nodal_actuation_on_the_boundary_is_config_error(tmp_path, capsys):
    # a point at 0 or L has both interpolation weights zero: it would actuate nothing
    p = tmp_path / "end.ini"
    p.write_text(PAIR_INI.format(family="damped_wave", controller=NODAL + "\nact_points = 0, 1.2, 2, 3"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [controller] actuation point 0 lies on the boundary, where u = 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("[time]", "[time]\nrecord_evry = 1", "[time] unknown key 'record_evry'"),
        ("[time]", "[time]\nscheme = rk4", "[time] unknown key 'scheme'"),
        ("[time]", "[analysys]\nsafety = 0.1\n\n[time]", "unknown section [analysys]"),
        (
            "bc = dirichlet",
            "bc = neumann",
            "[model] strongly_damped is posed with Dirichlet boundaries, got bc = 'neumann'",
        ),
    ],
    ids=["misspelt_key", "retired_scheme_key", "unknown_section", "neumann_off_the_damped_wave"],
)
def test_ini_text_nothing_reads_is_config_error(old, new, message, tmp_path, capsys):
    """A key or section nothing reads, or a bc the family ignores, is not silently dropped."""
    p = tmp_path / "strict.ini"
    p.write_text(PAIR_INI.format(family="strongly_damped", controller=FOURIER).replace(old, new))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("pair", sorted(UNCERTIFIED))
def test_uncertified_pair_has_no_report(pair, tmp_path, capsys):
    family, controller = UNCERTIFIED[pair]
    variant = pair.split("-")[0]
    ini = tmp_path / "pair.ini"
    ini.write_text(PAIR_INI.format(family=family, controller=controller))

    assert main(["check", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert repr(variant) in err and repr(family) in err

    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gain"] is None and report["verify"] is None
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 51 and all(row.endswith(",") for row in rows)


@pytest.mark.parametrize("command", ["check", "run", "sweep"])
def test_unresolved_mode_count_is_config_error(command, tmp_path, capsys):
    """Mode n_cells vanishes at every node and higher ones alias, so N < n_cells."""
    p = tmp_path / "fourier.ini"
    out = tmp_path / "out"
    argv = {"check": [], "run": ["--out", str(out)],
            "sweep": ["--param", "mu", "--values", "4", "--out", str(out)]}[command]
    p.write_text(PAIR_INI.format(family="damped_wave", controller=FOURIER.replace("N = 2", "N = 300")))
    assert main([command, "--config", str(p), *argv]) == 2
    assert "[controller] modal feedback needs N < n_cells=64" in capsys.readouterr().err
    assert not out.exists()

    p.write_text(PAIR_INI.format(family="damped_wave", controller=FOURIER.replace("N = 2", "N = 63")))
    assert main([command, "--config", str(p), *argv]) in (0, 1)


class TestRun:
    def test_verified_run(self, volume_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", volume_ini, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gain"]["satisfied"] is True
        assert report["verify"]["kind"] == "exponential"
        assert report["verify"]["ok"] is True
        assert report["fit"]["rate"] >= 0.8
        assert report["blowup"]["blew_up"] is False
        assert report["version"] == __version__
        assert report["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}
        assert report["n_steps"] == 1200
        assert report["dt"] == 0.005
        assert report["t_reached"] == pytest.approx(6.0, rel=1e-12)

    def test_report_says_where_the_time_went(self, volume_ini, tmp_path):
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert main(["run", "--config", volume_ini, "--out", str(out)]) == 0
        member = time.perf_counter() - t0
        report = json.loads((out / "report.json").read_text())
        seconds = report["seconds"]
        assert sorted(seconds) == ["gain_check", "ledger", "setup", "stepping", "verify", "write"]
        assert all(s >= 0.0 for s in seconds.values())
        assert seconds["setup"] > 0.0 and seconds["gain_check"] > 0.0  # each phase is timed
        assert sum(seconds.values()) <= member
        # run() is set-up, stepping and ledger
        run_s = seconds["setup"] + seconds["stepping"] + seconds["ledger"]
        assert run_s == pytest.approx(report["wall_time_s"], rel=1e-9)
        assert report["steps_per_second"] == pytest.approx(report["n_steps"] / seconds["stepping"], rel=1e-12)
        assert report["steps_per_second"] > 0.0

    def test_nan_gain_writes_no_report(self, tmp_path):
        ini = tmp_path / "nan.ini"
        ini.write_text(VOLUME_INI.replace("mu = 4.0", "mu = nan"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 2
        assert not out.exists()

    def test_dt_that_does_not_divide_t_end_exits_two(self, tmp_path, capsys):
        ini = tmp_path / "dt.ini"
        ini.write_text(
            VOLUME_INI.replace("dt = 0.005", "dt = 0.3").replace("t_end = 6.0", "t_end = 1.0")
        )
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "does not divide" in err and repr(1.0 / 3.0) in err

    @staticmethod
    def read_back(config, out):
        """The written trajectory.csv's rows as a ledger, checked against a library run's ledger."""
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].split(",") == list(LEDGER_COLUMNS)
        cfg = load_config(config)
        ledger = run(cfg.model, cfg.controller, cfg.u0, cfg.u1, cfg.stepper).ledger
        cells = [line.split(",") for line in lines[1:]]
        assert all(len(row) == len(LEDGER_COLUMNS) for row in cells)
        # a pair without a functional writes a blank lyapunov cell in every row
        written = np.array([[float(c) for c in row if c != ""] for row in cells])
        np.testing.assert_array_equal(written, ledger)  # repr reads back bit for bit
        return ledger

    def test_trajectory_header_exact(self, volume_ini, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", volume_ini, "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,kinetic,grad,quadratic,lp,controller,total,stab_norm,lyapunov"
        ledger = self.read_back(volume_ini, out)
        assert ledger.shape == (len(lines) - 1, 9)  # volume runs carry a Lyapunov column
        assert ledger[0, 0] == 0.0

    def test_lyapunov_empty_when_unavailable(self, tmp_path):
        ini = tmp_path / "nodal.ini"
        ini.write_text(
            VOLUME_INI.replace("bc = neumann", "bc = dirichlet")
            .replace("variant = volume", "variant = nodal")
            .replace("N = 2", "N = 4")
            .replace("b = 2.0", "b = 0.5")
            .replace("t_end = 6.0", "t_end = 1.0")
        )
        out = tmp_path / "out"
        main(["run", "--config", str(ini), "--out", str(out)])
        row = (out / "trajectory.csv").read_text().splitlines()[1]
        assert row.endswith(",")  # trailing empty lyapunov cell
        assert self.read_back(str(ini), out).shape[1] == len(LEDGER_COLUMNS) - 1

    def test_negative_control_fails_verification(self, tmp_path):
        ini = tmp_path / "mu0.ini"
        ini.write_text(VOLUME_INI.replace("mu = 4.0", "mu = 0.0"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        if report["blowup"]["blew_up"]:
            assert code == 3
        else:
            assert code == 1
            assert report["gain"]["satisfied"] is False
            assert report["fit"]["rate"] < 0  # growth

    def test_blowup_exits_three(self, tmp_path):
        ini = tmp_path / "blow.ini"
        ini.write_text(BLOWUP_INI)
        out = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["blowup"]["blew_up"] is True
        assert report["blowup"]["time"] > 0
        # records up to the abort are still written
        assert len((out / "trajectory.csv").read_text().splitlines()) > 2

    def test_overflowing_source_exits_three(self, tmp_path, capsys):
        ini = tmp_path / "overflow.ini"
        ini.write_text(OVERFLOW_INI)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(ini), "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["blowup"] == {"blew_up": True, "time": 0.01}
        assert report["n_steps"] == 500
        assert report["t_reached"] == 0.0
        # one step was taken, the one that blew up
        assert report["steps_per_second"] == pytest.approx(1.0 / report["seconds"]["stepping"], rel=1e-12)
        assert "blew up at t = 0.01" in capsys.readouterr().out

    def test_t_end_zero_single_row(self, tmp_path):
        ini = tmp_path / "frozen.ini"
        ini.write_text(VOLUME_INI.replace("t_end = 6.0", "t_end = 0.0"))
        out = tmp_path / "out"
        main(["run", "--config", str(ini), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header + t=0
        report = json.loads((out / "report.json").read_text())
        assert report["steps_per_second"] is None  # no step taken
        assert all(s >= 0.0 for s in report["seconds"].values())


# modal feedback at dt = 0.01, where r = dt^2 (mu - a)/4 reaches 1 just above mu = 4e4
STEP_INI = """\
[model]
family = damped_wave
a = 1.0
b = 2.0
L = 3.141592653589793
n_cells = 64

[controller]
variant = fourier
N = 2
mu = {mu}

[initial]
u0 = random(3, 3)

[time]
dt = 0.01
t_end = 4.0
"""


# a nodal law on the damped wave, which no certificate covers, whose
# actuation points sit 0.1 to the right of its observation points
DISTINCT_INI = """\
[model]
family = damped_wave
a = 1.0
b = 2.0
L = 3.141592653589793
n_cells = 64

[controller]
variant = nodal
N = 3
mu = 2.0
obs_points = 0.5, 1.5, 2.5
act_points = 0.6, 1.6, 2.6

[initial]
u0 = random(3, 6)

[time]
dt = 0.01
t_end = 1.0
"""


# certified runs the CLI verifies: the two families whose step takes no
# stencil of v, and nodal points off the nodes (N = 3 on 64 cells), which
# actuate through the transpose of their interpolation
STRONG_INI = """\
[model]
family = strongly_damped
a = 1.0
b = 1.0
p = 4.0
bc = dirichlet
L = 3.141592653589793
n_cells = 64

[controller]
variant = fourier
N = 2
mu = 4.0

[initial]
u0 = random(3, 3)

[time]
dt = 0.01
t_end = 6.0
"""

OFF_NODE_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 1.0
b = 0.5
bc = dirichlet
nonlinearity = zero
L = 3.141592653589793
n_cells = 64

[controller]
variant = nodal
N = 3
mu = 5.0

[initial]
u0 = random(3, 5)

[time]
dt = 0.002
t_end = 4.0
record_every = 1
"""

VERIFIED_RUNS = {
    "strong": STRONG_INI,
    "nonlinear": STRONG_INI.replace("family = strongly_damped", "family = nonlinear_damping\nm = 3.0"),
    "off_node": OFF_NODE_INI,
}


@pytest.mark.parametrize("name", list(VERIFIED_RUNS))
def test_certified_run_verifies(name, tmp_path):
    p = tmp_path / f"{name}.ini"
    p.write_text(VERIFIED_RUNS[name])
    out = tmp_path / name
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    if name == "off_node":  # the energy never rises between records
        with open(out / "trajectory.csv", newline="") as fh:
            total = [float(row["total"]) for row in csv.DictReader(fh)]
        assert max(b - a for a, b in zip(total, total[1:])) <= 1e-9 * total[0]


# the power-law pair with every margin satisfied, run to t_end = 20
POWER_LAW_INI = """\
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
t_end = 20.0
"""


@pytest.mark.parametrize("hi, window", [("60.0", [4.0, 20.0]), ("18.0", [4.0, 18.0])], ids=["past_t_end", "inside"])
def test_a_fit_window_past_t_end_verifies_a_power_law_run(hi, window, tmp_path):
    """The checks read the window up to t_end: a window_hi past it no longer leaves a quarter empty."""
    p = tmp_path / "power.ini"
    p.write_text(POWER_LAW_INI + f"\n[analysis]\nwindow_hi = {hi}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    verify = json.loads((out / "report.json").read_text())["verify"]
    assert verify["ok"] is True and verify["window"] == window


# two certified pairs whose INI has no [initial] section, so u0 = u1 = 0: the volume pair (an
# exponential check) and the satisfied power-law pair
ZERO_DATA_INI = {
    "exponential": """\
[model]
family = damped_wave
b = 2.0
bc = neumann
L = 3.141592653589793
n_cells = 64

[controller]
variant = volume
N = 4
mu = 4.0

[time]
t_end = 1.0
""",
    "power_law": POWER_LAW_INI.replace("[initial]\nu0 = mode 1\n\n", ""),
}


# a source stronger than the feedback: the run settles at a nonzero state, and the
# envelope's exp(target * t) over the records before the window (t <= 900) overflows
SETTLING_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 3.0
b = 2.0
nonlinearity = power
p = 4.0
bc = dirichlet
L = 3.141592653589793
n_cells = 32

[controller]
variant = fourier
N = 1
mu = 1.5

[initial]
u0 = mode 1
u0_amplitude = 0.5

[time]
dt = 0.05
t_end = 4500
"""


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")
def test_an_envelope_past_the_float_range_fails_and_is_written_as_strict_json(tmp_path):
    p = tmp_path / "settling.ini"
    p.write_text(SETTLING_INI)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    verify = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)["verify"]
    assert verify["envelope_ok"] is False and verify["ok"] is False
    assert verify["envelope_constant"] is None


@pytest.mark.parametrize("kind", list(ZERO_DATA_INI))
def test_zero_initial_data_fail_verification_and_the_verdict_says_why(kind, tmp_path):
    p = tmp_path / "zero.ini"
    p.write_text(ZERO_DATA_INI[kind])
    assert "[initial]" not in p.read_text()
    assert main(["check", "--config", str(p)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    verify = json.loads((out / "report.json").read_text())["verify"]
    assert verify["ok"] is False
    assert verify["error"] == (
        "u0 and u1 are zero or too small: stab_norm stays at or below 1e-13, so there is no decay to verify"
    )


class TestTheRefusalAgreesWithTheChecks:
    """A run with exactly the records its check needs in the check's window loads and verifies;
    with one fewer it is refused at load."""

    PAIRS = {"exponential": ("fourier-damped_wave", "exponential"),
             "power_law": ("fourier-nonlinear_damping", "polynomial")}

    @pytest.mark.parametrize("missing", [0, 1], ids=["need", "need_minus_one"])
    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_need_records_verify_and_one_fewer_is_refused(self, pair, missing, tmp_path, capsys):
        name, kind = self.PAIRS[pair]
        stepper = StepperConfig(dt=0.01, t_end=6.0, record_every=10)
        t = stepper.record_steps * stepper.dt  # every 0.1 up to 6
        _, need = analysis.check_window(kind, (0.0, 60.0), t[-1])
        # the window starts between records and ends past t_end: the checks read its last records up to t = 6
        have = need - missing
        lo = float(t[-have - 1] + t[-have]) / 2
        text = re.sub(r"t_end = \S+", "t_end = 6.0\nrecord_every = 10", pair_ini(name))
        p = tmp_path / "case.ini"
        p.write_text(text + f"\n[analysis]\nwindow_lo = {lo!r}\nwindow_hi = 60.0\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(p), "--out", str(out)])
        if missing:
            assert code == 2 and not out.exists()
            assert capsys.readouterr().err.startswith(f"error: [time] only {have} of the {t.size} records")
            return
        report = json.loads((out / "report.json").read_text())
        assert report["gain"]["kind"] == kind and report["records"] == t.size
        assert "error" not in report["verify"]
        if kind == "exponential":  # the power-law check does not read the fit, which needs 20 records
            assert report["fit"]["n_points"] == need


class TestVerificationIsDecidedOnce:
    """Each config evaluates its gain check once, and each run fits its decay once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = collections.Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                seen[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for pair, cert in list(controllers.CERTIFIED.items()):
            monkeypatch.setitem(controllers.CERTIFIED, pair, cert._replace(gains=counted("gains", cert.gains)))
        fit = counted("fit", analysis.fit_exponential)
        monkeypatch.setattr(cli, "fit_exponential", fit)
        monkeypatch.setattr(analysis, "fit_exponential", fit)  # what a check could refit through
        return seen

    @pytest.mark.parametrize("command, gains, fits", [
        (["check"], 1, 0),
        (["run"], 1, 1),
        # the INI's own config and each of the three members'
        (["sweep", "--param", "mu", "--values", "3,4,5"], 4, 3),
    ], ids=["check", "run", "sweep"])
    @pytest.mark.parametrize("pair", ["volume-damped_wave", "nodal-strongly_damped", "fourier-nonlinear_damping"],
                             ids=["exponential", "qualitative", "power_law"])
    def test_once_per_config_and_per_run(self, pair, command, gains, fits, counts, tmp_path):
        p = tmp_path / "pair.ini"
        p.write_text(pair_ini(pair))
        out = [] if command[0] == "check" else ["--out", str(tmp_path / "out")]
        assert main([command[0], "--config", str(p), *out, *command[1:]]) in (0, 1)
        assert (counts["gains"], counts["fit"]) == (gains, fits)


class TestStepRatio:
    def run_mu(self, mu, tmp_path, capsys):
        p = tmp_path / "step.ini"
        p.write_text(STEP_INI.format(mu=mu))
        out = tmp_path / "out"
        code = main(["run", "--config", str(p), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        return code, capsys.readouterr().err, report

    def test_a_small_ratio_is_recorded_without_a_warning(self, tmp_path, capsys):
        code, err, report = self.run_mu("1e4", tmp_path, capsys)
        assert (code, err) == (0, "")
        assert report["step_ratio"] == pytest.approx(1e-4 * (1e4 - 1.0) / 4.0, rel=1e-12)

    @pytest.mark.parametrize("mu, expected, factor", [("3.9e4", 0, "39.96"), ("4e4", 1, "40000")])
    def test_a_ratio_near_one_warns(self, mu, expected, factor, tmp_path, capsys):
        # the exit code is the run's own: the warning only names the step
        code, err, report = self.run_mu(mu, tmp_path, capsys)
        assert code == expected
        (line,) = err.splitlines()
        assert line.startswith(f"warning: dt = 0.01 gives r = dt^2 (lambda - a)/4 = {report['step_ratio']:.6g}")
        assert f"by the factor 1/(1 - r) = {factor};" in line

    def test_a_ratio_past_one_is_refused_before_any_step(self, tmp_path, capsys):
        p = tmp_path / "step.ini"
        p.write_text(STEP_INI.format(mu="4.05e4"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        r = 0.01**2 * (4.05e4 - 1.0) / 4.0
        assert line.startswith(f"error: [time] step ratio r = dt^2 (lambda - a)/4 = {r!r} >= 1 at dt = 0.01:")
        assert line.endswith(f"the largest dt that divides t_end with r < 1 is dt = 4/403 = {4 / 403!r}")

    def test_a_sweep_refuses_a_member_past_the_bound_before_any_runs(self, tmp_path, capsys):
        p = tmp_path / "step.ini"
        p.write_text(STEP_INI.format(mu="1e4"))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(p), "--out", str(out), "--param", "mu",
                     "--values", "1e4,3.9e4,4.05e4"])
        assert code == 2 and not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: [time] mu=40500: step ratio r = dt^2 (lambda - a)/4 = 1.012")

    def test_a_sweep_does_not_refuse_the_ini_law_no_member_runs(self, tmp_path, capsys):
        # the INI's own mu = 4.05e4 gives r = 1.012; the members' gains are far below the limit
        p = tmp_path / "step.ini"
        p.write_text(STEP_INI.format(mu="4.05e4"))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(p), "--out", str(out), "--param", "mu", "--values", "1,4"])
        assert (code, capsys.readouterr().err) == (0, "")
        with open(out / "summary.csv", newline="") as fh:
            assert [row["value"] for row in csv.DictReader(fh)] == ["1", "4"]
        for label in ("1", "4"):
            assert (out / f"mu={label}" / "trajectory.csv").exists()
        # a command that steps the INI's own law still refuses it
        assert main(["check", "--config", str(p)]) == 2
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error: [time] step ratio r = dt^2 (lambda - a)/4 = 1.012") for line in lines)

    def test_every_command_that_reads_a_config_refuses_a_ratio_past_one(self, tmp_path, capsys):
        # load_config does not check the ratio, so each command that reads an
        # INI must; a new one fails the first assertion until it is listed here
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        reads = {name for name, p in sub.choices.items() if any("--config" in a.option_strings for a in p._actions)}
        assert reads == {"check", "run", "sweep"}
        p = tmp_path / "step.ini"
        p.write_text(STEP_INI.format(mu="4.05e4"))
        out = tmp_path / "out"
        assert main(["check", "--config", str(p)]) == 2
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert main(["sweep", "--config", str(p), "--out", str(out), "--param", "mu", "--values", "4.05e4"]) == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        for line, member in zip(lines, ["", "", "mu=40500: "]):
            assert line.startswith(f"error: [time] {member}step ratio r = dt^2 (lambda - a)/4 = 1.012")

    # r = dt^2 (lambda - a)/4 = 1 at lambda = 4/dt^2 + a = 40001: one part in 1e6 either side.  lambda
    # is mu, but mu h/dx = 16 mu for the nodal law, whose four midpoints each sit on a node
    @pytest.mark.parametrize("pair", ["volume-damped_wave", "fourier-damped_wave", "subdomain-damped_wave",
                                      "nodal-strongly_damped"])
    @pytest.mark.parametrize("mu, refused", [("40000.96", False), ("40001.04", True)])
    def test_check_refuses_a_ratio_just_past_one(self, pair, mu, refused, tmp_path, capsys):
        p = tmp_path / "limit.ini"
        per_mu = 16.0 if pair.startswith("nodal") else 1.0
        p.write_text(re.sub(r"^mu = .*$", f"mu = {float(mu) / per_mu!r}", pair_ini(pair), flags=re.M))
        code = main(["check", "--config", str(p)])
        err = capsys.readouterr().err
        if refused:
            assert code == 2 and err.startswith("error: [time] step ratio r = dt^2 (lambda - a)/4 = 1.000001")
        else:
            assert code in (0, 1) and err == ""

    def test_a_nodal_ratio_past_one_is_refused_before_any_step(self, tmp_path, capsys):
        # lambda = mu h/dx = 16 mu, so r = 1.2 here
        p = tmp_path / "nodal.ini"
        p.write_text(pair_ini("nodal-strongly_damped").replace("mu = 1.0", "mu = 3000"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        r = 1e-4 * (48000 - 1) / 4
        assert line.startswith(f"error: [time] step ratio r = dt^2 (lambda - a)/4 = {r!r} >= 1 at dt = 0.01:")

    def test_a_nodal_ratio_near_one_from_its_exact_lambda_warns(self, tmp_path, capsys):
        # N = 100 midpoints on 64 cells: the dense mu * AC's largest eigenvalue is 1.005934 mu, where
        # its row sum is 1.1008 mu; this mu puts r at 0.95 by the first, and at 1.04 by the second
        g = make_grid(np.pi, 64, "dirichlet")
        control = make_control_operator(Nodal(100, 1.0), g)
        per_mu = float(np.max(np.linalg.eigvals(-np.stack([control(e) for e in np.eye(g.n_nodes)], axis=-1)).real))
        mu = (4.0 * 0.95 / 0.01**2 + 1.0) / per_mu
        p = tmp_path / "nodal.ini"
        p.write_text(pair_ini("nodal-strongly_damped").replace("N = 4\nmu = 1.0", f"N = 100\nmu = {mu!r}"))
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
        (line,) = capsys.readouterr().err.splitlines()
        assert code != 2
        assert line.startswith("warning: dt = 0.01 gives r = dt^2 (lambda - a)/4 = 0.95, near the explicit")
        assert "by the factor 1/(1 - r) = 20;" in line

    def test_nodal_points_that_differ_warn_at_any_ratio(self, tmp_path, capsys):
        # lambda < a puts r below 0 here, but r < 1 does not bound a step whose actuation points are
        # not its observation points; the warning changes no exit code, and a sweep warns for each member
        p = tmp_path / "distinct.ini"
        p.write_text(DISTINCT_INI)
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "run")])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 0
        assert line.startswith("warning: dt = 0.01 gives r = dt^2 (lambda - a)/4 = -2.5e-05 < 1, which is necessary")
        assert "but does not bound this law's step" in line
        code = main(["sweep", "--config", str(p), "--out", str(tmp_path / "sweep"), "--param", "mu", "--values", "1,2"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 0 and len(lines) == 2
        for line, member in zip(lines, ("mu=1: ", "mu=2: ")):
            assert line.startswith(f"warning: {member}dt = 0.01 gives r")
            assert "but does not bound this law's step" in line

    def test_a_sweep_warns_once_for_the_member_near_one_and_runs(self, tmp_path, capsys):
        # a = 0: r = dt^2 mu/4 is 0.25 at mu = 1e4 and 0.975 at mu = 3.9e4
        p = tmp_path / "step.ini"
        p.write_text(STEP_INI.format(mu="1e4").replace("a = 1.0", "a = 0.0"))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(p), "--out", str(out), "--param", "mu", "--values", "1e4,3.9e4"])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 0
        assert line.startswith("warning: mu=39000: dt = 0.01 gives r = dt^2 (lambda - a)/4 = 0.975,")

    def test_a_nodal_sweep_member_past_one_is_refused(self, tmp_path, capsys):
        p = tmp_path / "nodal.ini"
        p.write_text(pair_ini("nodal-strongly_damped"))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(p), "--out", str(out), "--param", "mu", "--values", "1,3000"])
        assert code == 2 and not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: [time] mu=3000: step ratio r = dt^2 (lambda - a)/4 = 1.199975 >= 1")

    @pytest.mark.parametrize("command, calls", [
        (["run"], 1),
        (["sweep", "--param", "mu", "--values", "2100,2200,2300"], 4),  # the members and the INI's own law
    ], ids=["run", "sweep"])
    def test_the_stiffness_is_evaluated_once_per_stepped_config(self, command, calls, tmp_path, monkeypatch):
        # a nodal law's lambda is one eigen-solve, made where the law is built
        seen = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda *a: seen.append(a) or eigvals(*a))
        controllers.feedback_law.cache_clear()
        p = tmp_path / "nodal.ini"
        # r = 0.959975 at mu = 2400 and 0.919975 at mu = 2300: warned about, so the gate names a dt
        p.write_text(pair_ini("nodal-strongly_damped").replace("mu = 1.0", "mu = 2400"))
        assert main([command[0], "--config", str(p), "--out", str(tmp_path / "out"), *command[1:]]) != 2
        assert len(seen) == calls

    def test_the_named_dt_is_the_largest_the_gate_passes(self, tmp_path, capsys):
        # mu = 4 (1966/16)^2 up to rounding puts r = 1 at dt = 16/1966 to the last bit
        p = tmp_path / "edge.ini"
        text = STEP_INI.format(mu="60393.06250000001").replace("a = 1.0", "a = 0.0")
        p.write_text(text.replace("dt = 0.01\nt_end = 4.0", f"dt = {16 / 2038!r}\nt_end = 16.0"))
        assert main(["check", "--config", str(p)]) in (0, 1)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) != 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(f"the largest dt that divides t_end with r < 1 is dt = 16/1967 = {16 / 1967!r}")
        for n, refused in ((1967, False), (1966, True)):
            p.write_text(text.replace("dt = 0.01\nt_end = 4.0", f"dt = {16 / n!r}\nt_end = 16.0"))
            assert (main(["check", "--config", str(p)]) == 2) is refused
        err = capsys.readouterr().err
        assert err.startswith("error: [time] step ratio r = dt^2 (lambda - a)/4 = 1.0 >= 1 at dt = 0.008138")


class TestSweep:
    def test_mu_sweep_flips_to_verified(self, volume_ini, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                volume_ini,
                "--param",
                "mu",
                "--values",
                "4.0,0,2.0",
                "--jobs",
                "1",
            ]
            + ["--out", str(out)]
        )
        assert code == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["0", "2", "4"]  # sorted ascending
        assert [r["gain_satisfied"] for r in rows] == ["false", "false", "true"]
        # decay appears below the certified threshold: sufficient, not necessary
        assert [r["verified"] for r in rows] == ["false", "true", "true"]
        assert (out / "mu=0").is_dir() and (out / "mu=4").is_dir()

    def test_n_sweep_monotone(self, volume_ini, tmp_path):
        out = tmp_path / "nsweep"
        code = main(
            ["sweep", "--config", volume_ini, "--param", "N", "--values", "1,2,4"]
            + ["--out", str(out)]
        )
        assert code == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        verified = [r["verified"] == "true" for r in rows]
        assert verified == sorted(verified)  # false..true, monotone in N
        assert verified[-1]
        for n in ("1", "2", "4"):
            report = json.loads((out / f"N={n}" / "report.json").read_text())
            assert report["config"]["controller"]["n"] == n

    def test_blown_up_members_exit_three(self, tmp_path, capsys):
        ini = tmp_path / "blow.ini"
        ini.write_text(SWEEP_BLOWUP_INI)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(ini), "--param", "mu", "--values", "0,0.5,12"]
            + ["--out", str(out)]
        )
        assert code == 3
        assert "blew up for mu = 0, 0.5" in capsys.readouterr().out
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["value", "gain_satisfied", "fitted_rate", "verified", "blew_up",
                                 "blowup_time", "certified_rate", "wall_time_s"]
        assert [r["blew_up"] for r in rows] == ["true", "true", "false"]
        assert [r["fitted_rate"] == "" for r in rows] == [True, True, False]
        assert rows[2]["verified"] == "true"
        report = json.loads((out / "mu=0" / "report.json").read_text())
        assert report["blowup"]["blew_up"] is True

    def test_a_blown_up_member_leaves_the_others_whole(self, tmp_path, capsys):
        ini = tmp_path / "blowup.ini"
        ini.write_text(MU_BLOWUP_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(ini), "--param", "mu", "--values", "60,0,40"]
                    + ["--out", str(out)]) == 3
        assert "blew up for mu = 0\n" in capsys.readouterr().out
        with open(out / "summary.csv") as fh:
            rows = {r["value"]: r["blew_up"] for r in csv.DictReader(fh)}
        assert rows == {"0": "true", "40": "false", "60": "false"}
        reports = {v: json.loads((out / f"mu={v}" / "report.json").read_text()) for v in rows}
        assert 5.0 < reports["0"]["blowup"]["time"] < 6.0
        for v in ("40", "60"):
            assert reports[v]["t_reached"] == 8.0 and reports[v]["records"] == 801
            assert len((out / f"mu={v}" / "trajectory.csv").read_text().splitlines()) == 802

    def test_blowup_time_column_is_the_reports_blowup_time(self, tmp_path):
        ini = tmp_path / "blowup.ini"
        ini.write_text(MU_BLOWUP_INI)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(ini), "--param", "mu", "--values", "0,40"]
                    + ["--out", str(out)]) == 3
        with open(out / "summary.csv") as fh:
            times = {r["value"]: r["blowup_time"] for r in csv.DictReader(fh)}
        report = json.loads((out / "mu=0" / "report.json").read_text())
        assert times == {"0": repr(report["blowup"]["time"]), "40": ""}
        assert 5.0 < float(times["0"]) < 6.0

    def test_wall_time_column_is_the_reports_wall_time(self, tmp_path):
        ini = tmp_path / "base.ini"
        ini.write_text(VOLUME_INI.replace("t_end = 6.0", "t_end = 0.5"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(ini), "--param", "mu", "--values", "0,4"]
                    + ["--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            times = {r["value"]: r["wall_time_s"] for r in csv.DictReader(fh)}
        assert list(times) == ["0", "4"]
        for v, cell in times.items():
            report = json.loads((out / f"mu={v}" / "report.json").read_text())
            assert cell == repr(report["wall_time_s"]) and float(cell) > 0.0

    @pytest.mark.parametrize(
        "text,param,values,rates",
        [
            # (b/2) min(1, nu); mu = 0 fails the gain condition, so it certifies no rate
            (VOLUME_INI.replace("t_end = 6.0", "t_end = 0.5"), "mu", "0,4", ["", "1.0"]),
            (pair_ini("fourier-damped_wave"), "mu", "0,4", ["", "0.25"]),  # b/2
            (pair_ini("fourier-nonlinear_damping"), "N", "1,2", ["", ""]),  # an exponent, not a rate
            (pair_ini("nodal-strongly_damped"), "mu", "1", [""]),  # qualitative: no rate
            (PAIR_INI.format(family="damped_wave", controller=NODAL), "mu", "1", [""]),  # no certificate
        ],
        ids=["volume", "fourier", "power_law", "qualitative", "uncertified"],
    )
    def test_certified_rate_column_is_the_reports_exponential_rate(
        self, tmp_path, text, param, values, rates
    ):
        ini = tmp_path / "base.ini"
        ini.write_text(text)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(ini), "--param", param, "--values", values]
                    + ["--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["certified_rate"] for r in rows] == rates
        for r, rate in zip(rows, rates):
            gain = json.loads((out / f"{param}={r['value']}" / "report.json").read_text())["gain"]
            if rate:  # the member's own report, written as repr writes it
                assert rate == repr(gain["predicted_rate"]) and gain["kind"] == "exponential"

    @pytest.mark.parametrize("param,values", [
        ("mu", [repr(8.5 * k / 32) for k in range(33)]),  # as many gains as sweep_mu; 4.25 is the INI's
        ("N", [str(n) for n in range(1, 21)]),  # N = 2 is the INI's
    ], ids=["mu", "N"])
    def test_a_sweep_builds_each_members_law_once(self, param, values, tmp_path):
        # each member's law is built when the sweep checks it, before any member runs; its run reuses it
        controllers.feedback_law.cache_clear()
        ini = tmp_path / "fourier.ini"
        ini.write_text(PAIR_INI.format(family="damped_wave", controller=FOURIER.replace("4.0", "4.25")))
        assert main(["sweep", "--config", str(ini), "--param", param, "--values", ",".join(values)]
                    + ["--out", str(tmp_path / "sweep")]) == 0
        assert controllers.feedback_law.cache_info().misses == len(values)

    def test_close_values_get_their_own_members(self, tmp_path):
        out = tmp_path / "sweep"
        values = "4.0000002,4.0000001,0.25,8"
        short = tmp_path / "short.ini"
        short.write_text(VOLUME_INI.replace("t_end = 6.0", "t_end = 0.5"))
        assert main(["sweep", "--config", str(short), "--param", "mu", "--values", values]
                    + ["--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            labels = [r["value"] for r in csv.DictReader(fh)]
        assert labels == ["0.25", "4.0000001", "4.0000002", "8"]
        for label in labels:
            report = json.loads((out / f"mu={label}" / "report.json").read_text())
            # the config echo shows the member's gain, not the base config's 4.0
            assert report["config"]["controller"]["mu"] == label
            assert report["gain"]["margins"][0]["lhs"] == float(label)

    # 3 elements do not divide 128 cells: the repeat is found before any member is built
    @pytest.mark.parametrize(
        "param,values",
        [("mu", "4,4.0"), ("mu", "1,0.25,1e0"), ("N", "2,2.0"), ("mu", "0,-0"), ("N", "3,3")],
    )
    def test_repeated_values_rejected(self, volume_ini, tmp_path, capsys, param, values):
        out = tmp_path / "x"
        assert main(["sweep", "--config", volume_ini, "--param", param, "--values", values]
                    + ["--out", str(out)]) == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_values_rejected(self, volume_ini, tmp_path, capsys):
        # an empty list is an unparsable one: exit 2 before any output
        out = tmp_path / "empty"
        for values in ("", "  "):
            assert main(["sweep", "--config", volume_ini, "--param", "mu", "--values", values]
                        + ["--out", str(out)]) == 2
            assert "comma-separated list of finite numbers" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "text, values",
        [
            (VOLUME_INI, "1,3,4"),  # 3 elements do not divide 128 cells
            (PAIR_INI.format(family="damped_wave", controller=FOURIER), "2,300"),  # 300 >= 64 cells
        ],
        ids=["volume", "fourier"],
    )
    def test_every_member_law_checked_before_any_runs(self, tmp_path, capsys, text, values):
        p = tmp_path / "base.ini"
        p.write_text(text)
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(p), "--param", "N", "--values", values]
                    + ["--out", str(out)]) == 2
        assert "[controller]" in capsys.readouterr().err
        assert not out.exists()

    # an edit made after the first member ran; 3 elements do not divide 128 cells
    @pytest.mark.parametrize(
        "old,new", [("b = 2.0", "b = 0.5"), ("N = 2", "N = 3")], ids=["valid_b", "invalid_N"]
    )
    def test_members_run_the_config_read_once(self, tmp_path, monkeypatch, old, new):
        ini = tmp_path / "base.ini"
        text = VOLUME_INI.replace("t_end = 6.0", "t_end = 0.5")
        ini.write_text(text)
        original = load_config(str(ini)).raw
        loads = []
        real_load, real_run = cli.load_config, cli.run

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        def run_then_edit(*args, **kwargs):
            result = real_run(*args, **kwargs)
            ini.write_text(text.replace(old, new))
            return result

        monkeypatch.setattr(cli, "load_config", counting_load)
        monkeypatch.setattr(cli, "run", run_then_edit)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(ini), "--param", "mu", "--values", "4,2,8"]
                    + ["--out", str(out)]) == 0
        assert loads == [str(ini)]
        for label in ("2", "4", "8"):
            report = json.loads((out / f"mu={label}" / "report.json").read_text())
            expected = {**original, "controller": {**original["controller"], "mu": label}}
            assert report["config"] == expected

    def test_fractional_n_rejected(self, volume_ini, tmp_path, capsys):
        code = main(
            ["sweep", "--config", volume_ini, "--param", "N", "--values", "1.5"]
            + ["--out", str(tmp_path / "x")]
        )
        assert code == 2
        # the member's text is parsed as the INI's is
        assert capsys.readouterr().err == "error: [controller] n = '1.5' is not a valid value\n"

    @pytest.mark.parametrize(
        "controller,param,variant",
        [("", "mu", "none"), (SUBDOMAIN, "N", "subdomain")],
        ids=["no_controller", "no_N"],
    )
    def test_a_law_without_the_param_is_not_swept(self, tmp_path, capsys, controller, param, variant):
        ini = tmp_path / "base.ini"
        ini.write_text(PAIR_INI.format(family="damped_wave", controller=controller))
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(ini), "--param", param, "--values", "1,2"]
                    + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: controller variant {variant!r} has no {param} to sweep\n"
        assert not out.exists()

    @pytest.mark.parametrize("param,values", [("N", "2,nan"), ("mu", "1,inf"), ("mu", "nan")])
    def test_non_finite_values_rejected(self, volume_ini, tmp_path, capsys, param, values):
        out = tmp_path / "x"
        assert main(["sweep", "--config", volume_ini, "--param", param, "--values", values]
                    + ["--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    # --jobs is kept only so that the benchmark's --jobs 1 parses: members run in one process
    @pytest.mark.parametrize("jobs", ["-3", "0", "2"])
    def test_jobs_other_than_one_is_a_usage_error(self, volume_ini, tmp_path, jobs):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", volume_ini, "--param", "mu", "--values", "4"]
                 + ["--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert not out.exists()

    def test_non_numeric_values_rejected(self, volume_ini, tmp_path):
        code = main(
            ["sweep", "--config", volume_ini, "--param", "mu", "--values", "a,b"]
            + ["--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_unknown_param_rejected_by_argparse(self, volume_ini, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--config", volume_ini, "--param", "nu", "--values", "1"]
                + ["--out", str(tmp_path / "x")]
            )
        assert exc.value.code == 2


class TestStartup:
    """What a fresh process loads: no command on any law imports scipy.linalg."""

    def test_check_run_sweep_and_lemmas_never_import_scipy_linalg(self, tmp_path):
        volume, fourier = tmp_path / "volume.ini", tmp_path / "fourier.ini"
        subdomain = tmp_path / "subdomain.ini"
        volume.write_text(pair_ini("volume-damped_wave"))
        fourier.write_text(pair_ini("fourier-damped_wave"))
        subdomain.write_text(pair_ini("subdomain-damped_wave"))

        def commands(out):
            return [
                ["check", "--config", str(volume)],
                ["run", "--config", str(fourier), "--out", str(out / "run")],
                ["check", "--config", str(subdomain)],
                ["run", "--config", str(subdomain), "--out", str(out / "subdomain")],
                ["sweep", "--config", str(volume), "--param", "mu", "--values", "0,4"]
                + ["--out", str(out / "sweep")],
                ["lemmas"],
            ]

        probe = (
            "import contextlib, io, json, sys\n"
            "from wavestab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {commands(tmp_path / 'cold')!r}]\n"
            "print(json.dumps([codes, 'scipy.linalg' in sys.modules]))\n"
        )
        codes, imported = json.loads(fresh_python(probe, tmp_path))
        assert not imported
        assert codes == [main(argv) for argv in commands(tmp_path / "warm")]
        reports = [
            json.loads((tmp_path / run / "subdomain" / "report.json").read_text())
            for run in ("cold", "warm")
        ]
        for r in reports:  # timings differ from run to run
            del r["wall_time_s"], r["seconds"], r["steps_per_second"]
        assert reports[0] == reports[1]

    def test_a_later_scipy_linalg_import_binds_the_loaded_routines(self, tmp_path):
        ini = tmp_path / "subdomain.ini"
        ini.write_text(pair_ini("subdomain-damped_wave"))
        probe = (
            "import contextlib, io, json, sys\n"
            "from wavestab import cli, kernels\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main(['check', '--config', {str(ini)!r}])\n"
            "unimported = 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg, scipy.linalg.lapack as lapack\n"
            "flapack = sys.modules['scipy.linalg._flapack']\n"
            "print(json.dumps([unimported, lapack.dpttrf is kernels.dpttrf,"
            " lapack.dpttrs is kernels.dpttrs,"
            " getattr(scipy.linalg, '_flapack', None) is flapack]))\n"
        )
        # one extension, bound as scipy.linalg's own submodule
        assert json.loads(fresh_python(probe, tmp_path)) == [True, True, True, True]


class TestLemmas:
    def test_exits_zero_when_every_mandatory_constant_holds(self, capsys):
        assert main(["lemmas"]) == 0
        out = capsys.readouterr().out
        assert "element_mean_approx" in out
        assert "exceeds stated  (informational)" in out
        assert out.count("exceeds stated") == 1

    def test_json_artifact(self, tmp_path):
        assert main(["lemmas", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "lemmas.json").read_text())
        assert (doc["cells"], doc["slack"]) == (512, 1.01)
        assert set(doc["reports"]) == {
            "element_mean_approx",
            "mean_plus_gradient_printed",
            "mean_plus_gradient_corrected",
            "paired_point_differences",
            "point_sampling_norm",
            "spectral_tail",
            "poincare",
        }
        assert doc["mandatory"] == [k for k in doc["reports"] if k != "mean_plus_gradient_printed"]
        assert doc["reports"]["mean_plus_gradient_printed"]["holds"] is False
        assert doc["reports"]["point_sampling_norm"]["pde"] is None
        for key in doc["mandatory"]:
            assert doc["reports"][key]["holds"] is True

    def test_a_mandatory_constant_past_its_bound_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(analysis.SUITE_INEQUALITIES, "poincare", (0.5, 1.0))
        assert main(["lemmas", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.count("exceeds stated") == 2
        doc = json.loads((tmp_path / "lemmas.json").read_text())
        assert doc["reports"]["poincare"]["holds"] is False
        assert doc["reports"]["poincare"]["stated"] == 0.5

    @pytest.mark.parametrize("refused", ["--seed -1", "--samples 1000", "--bogus"])
    def test_a_refused_argument_leaves_no_directory(self, refused, tmp_path):
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", *refused.split(), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_two_runs_write_identical_json(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        main(["lemmas", "--out", str(a_dir)])
        main(["lemmas", "--out", str(b_dir)])
        assert (a_dir / "lemmas.json").read_bytes() == (b_dir / "lemmas.json").read_bytes()


@pytest.mark.parametrize("command", ["run", "sweep", "lemmas"])
def test_an_out_path_that_cannot_be_created_exits_two(command, volume_ini, tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(cli, "run", lambda *a: started.append(a))
    monkeypatch.setattr(cli, "inequality_constants", lambda *a: started.append(a))
    args = {
        "run": ["run", "--config", volume_ini],
        "sweep": ["sweep", "--config", volume_ini, "--param", "mu", "--values", "1,4"],
        "lemmas": ["lemmas"],
    }[command]
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):  # a file, and a path through one
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {str(out)!r}: ")
        assert err.count("\n") == 1
    assert started == []  # the path is checked before anything is simulated or computed


@pytest.mark.parametrize("command, blocked", [
    ("run", "trajectory.csv"), ("sweep", "summary.csv"), ("lemmas", "lemmas.json"),
])
def test_an_output_file_that_cannot_be_written_exits_two(command, blocked, volume_ini, tmp_path, capsys):
    args = {
        "run": ["run", "--config", volume_ini],
        "sweep": ["sweep", "--config", volume_ini, "--param", "mu", "--values", "4"],
        "lemmas": ["lemmas"],
    }[command]
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(out / blocked)!r}: ")
    assert err.count("\n") == 1


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wavestab" in capsys.readouterr().out


# the north-star sweep's model and law at seed 7: Fourier N = 2 with the cubic,
# target safety * b/2 = 0.8 and linear rate 2 - sqrt(4 - 4 mu) for mu < 1
SWEEP_MU_INI = """\
[model]
family = damped_wave
nu = 1.0
a = 1.0
b = 2.0
bc = dirichlet
nonlinearity = power
p = 4
L = 3.141592653589793
n_cells = 256

[controller]
variant = fourier
N = 2
mu = {mu}

[initial]
{initial}

[time]
dt = 0.005
t_end = 6.0
"""

# a certified nodal run that decays, from linear rate 0.505, with every margin satisfied
DECAYING_NODAL_INI = """\
[model]
family = strongly_damped
nu = 1.0
a = 1.0
b = 0.5
p = 4.0
bc = dirichlet
L = 3.141592653589793
n_cells = 108

[controller]
variant = nodal
N = 27
mu = 4.3

[initial]
u0 = mode 1
u1 = random(3, 2)

[time]
dt = 0.01
t_end = 6.0
"""

WRONG_VERDICT = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")


class TestVerdictsTheLinearRateDecides:
    """Verdicts the linearization at zero contradicts; each test asserts the right one."""

    def verify(self, text, tmp_path):
        p = tmp_path / "case.ini"
        p.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(p), "--out", str(out)])
        return code, json.loads((out / "report.json").read_text())

    @WRONG_VERDICT
    @pytest.mark.parametrize("mu", ["0.25", "0.5"])  # linear rates 0.268 and 0.586
    def test_a_member_below_the_target_rate_is_not_verified(self, mu, tmp_path):
        _, report = self.verify(SWEEP_MU_INI.format(mu=mu, initial="u0 = random(7, 3)"), tmp_path)
        assert report["verify"]["ok"] is False

    @WRONG_VERDICT
    def test_a_certified_nodal_run_that_decays_verifies(self, tmp_path):
        code, report = self.verify(DECAYING_NODAL_INI, tmp_path)
        assert report["gain"]["satisfied"] is True
        assert code == 0

    @WRONG_VERDICT
    def test_a_member_above_the_target_rate_passes_its_envelope(self, tmp_path):
        initial = "u0 = mode 1\nu0_amplitude = 0.1"  # linear rate 2 - sqrt(4 - 3) = 1
        _, report = self.verify(SWEEP_MU_INI.format(mu="0.75", initial=initial), tmp_path)
        assert report["verify"]["rate_ok"] is True
        assert report["verify"]["envelope_ok"] is True
