"""End-to-end subcommand tests driven through ``wavestab.cli.main``."""

import csv
import json
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy

from wavestab import __version__, cli, controllers
from wavestab import LEDGER_COLUMNS, run
from wavestab.cli import main
from wavestab.config import gain_report_for, load_config

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

    def test_missing_file_exits_two(self):
        assert main(["check", "--config", "/no/such/file.ini"]) == 2

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
    assert captured.err.startswith("error: gap target 2014 unreachable")
    assert "refine the grid or move omega" in captured.err
    assert not out.exists()


def test_subdomain_beyond_the_grid_is_config_error(tmp_path, capsys):
    p = tmp_path / "beyond.ini"
    p.write_text(PAIR_INI.format(family="damped_wave", controller=SUBDOMAIN.replace("2.0", "3.5")))
    assert main(["check", "--config", str(p)]) == 2
    assert "[controller] omega_hi=3.5 lies beyond the grid's L=3.14159" in capsys.readouterr().err


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


@pytest.mark.parametrize("pair", sorted(CERTIFIED_PAIRS))
def test_loaded_config_survives_pickle(pair, tmp_path):
    """A sweep's worker processes receive their member configs by pickle."""
    ini = tmp_path / "pair.ini"
    ini.write_text(pair_ini(pair))
    cfg = load_config(str(ini))
    copy = pickle.loads(pickle.dumps(cfg))
    for name in ("u0", "u1"):
        field, copied = getattr(cfg, name), getattr(copy, name)
        assert np.array_equal(copied.values, field.values)
        assert not copied.values.flags.writeable
    assert np.any(copy.u1.values != 0.0)
    assert not copy.grid.nodes.flags.writeable and not copy.grid.quad_weights.flags.writeable
    assert (copy.grid, copy.model, copy.controller, copy.stepper, copy.raw) == (
        cfg.grid, cfg.model, cfg.controller, cfg.stepper, cfg.raw
    )
    assert gain_report_for(copy) == gain_report_for(cfg)


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
            + ["--out", str(out), "--jobs", "2"]
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
        assert list(rows[0]) == ["value", "gain_satisfied", "fitted_rate", "verified", "blew_up"]
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

    def test_mu_sweep_builds_its_law_once(self, tmp_path, monkeypatch):
        built = []
        real = controllers.mode_matrix
        monkeypatch.setattr(controllers, "mode_matrix", lambda *a: built.append(a) or real(*a))
        controllers._feedback_law.cache_clear()
        ini = tmp_path / "fourier.ini"
        ini.write_text(PAIR_INI.format(family="damped_wave", controller=FOURIER))
        values = ",".join(repr(8.5 * k / 32) for k in range(33))
        assert main(["sweep", "--config", str(ini), "--param", "mu", "--values", values]
                    + ["--out", str(tmp_path / "sweep")]) == 0
        assert len(built) <= 1

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

    @pytest.mark.parametrize(
        "param,values", [("mu", "4,4.0"), ("mu", "1,0.25,1e0"), ("N", "2,2.0"), ("mu", "0,-0")]
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

    def test_only_a_pool_imports_the_process_pool(self):
        # importing it costs milliseconds per process, which only --jobs > 1 needs
        probe = "import sys, wavestab.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "text,param,values",
        [
            (VOLUME_INI.replace("t_end = 6.0", "t_end = 0.5"), "mu", "4,0,2"),
            (pair_ini("fourier-nonlinear_damping"), "N", "3,1,2"),
        ],
        ids=["volume", "power_law"],
    )
    def test_pool_writes_what_the_serial_loop_writes(self, tmp_path, text, param, values):
        ini = tmp_path / "base.ini"
        ini.write_text(text)
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert main(["sweep", "--config", str(ini), "--param", param, "--values", values]
                        + ["--out", str(out), "--jobs", jobs]) == 0
        serial, pool = outs["1"], outs["2"]
        assert (pool / "summary.csv").read_bytes() == (serial / "summary.csv").read_bytes()
        for v in values.split(","):
            member = f"{param}={v}"
            traj = "trajectory.csv"
            assert (pool / member / traj).read_bytes() == (serial / member / traj).read_bytes()
            reports = [json.loads((o / member / "report.json").read_text()) for o in (serial, pool)]
            for r in reports:  # timings differ from run to run
                del r["wall_time_s"], r["seconds"], r["steps_per_second"]
            assert reports[0] == reports[1]

    def test_fractional_n_rejected(self, volume_ini, tmp_path):
        code = main(
            ["sweep", "--config", volume_ini, "--param", "N", "--values", "1.5"]
            + ["--out", str(tmp_path / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize("param,values", [("N", "2,nan"), ("mu", "1,inf"), ("mu", "nan")])
    def test_non_finite_values_rejected(self, volume_ini, tmp_path, capsys, param, values):
        out = tmp_path / "x"
        assert main(["sweep", "--config", volume_ini, "--param", param, "--values", values]
                    + ["--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_must_be_positive(self, volume_ini, tmp_path, jobs):
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


class TestLemmas:
    def test_clean_seed_exits_zero(self, capsys):
        assert main(["lemmas", "--seed", "42", "--samples", "25"]) == 0
        out = capsys.readouterr().out
        assert "element_mean_approx" in out
        assert "(informational)" in out

    def test_json_artifact(self, tmp_path):
        assert main(["lemmas", "--seed", "3", "--samples", "10", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "lemmas.json").read_text())
        assert doc["seed"] == 3
        assert set(doc["reports"]) == {
            "element_mean_approx",
            "mean_plus_gradient_printed",
            "mean_plus_gradient_corrected",
            "paired_point_differences",
            "point_sampling_norm",
            "spectral_tail",
            "poincare",
        }
        assert doc["reports"]["mean_plus_gradient_printed"]["violations"] >= 1
        for key in doc["mandatory"]:
            assert doc["reports"][key]["violations"] == 0

    def test_same_seed_identical_json(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        main(["lemmas", "--seed", "5", "--samples", "15", "--out", str(a_dir)])
        main(["lemmas", "--seed", "5", "--samples", "15", "--out", str(b_dir)])
        assert (a_dir / "lemmas.json").read_text() == (b_dir / "lemmas.json").read_text()


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wavestab" in capsys.readouterr().out
