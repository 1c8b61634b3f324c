"""End-to-end subcommand tests driven through ``wavestab.cli.main``."""

import csv
import json

import numpy as np
import pytest

from wavestab import __version__
from wavestab.cli import CSV_HEADER, main

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
        assert report["n_steps"] == 1200
        assert report["dt"] == 0.005
        assert report["t_reached"] == pytest.approx(6.0, rel=1e-12)

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

    def test_trajectory_header_exact(self, volume_ini, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", volume_ini, "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "t,kinetic,grad,quadratic,lp,controller,total,stab_norm,lyapunov"
        first = lines[1].split(",")
        assert len(first) == 9
        assert float(first[0]) == 0.0
        float(first[8])  # volume runs carry a Lyapunov column

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
        assert "blew up at t = 0.01" in capsys.readouterr().out

    def test_t_end_zero_single_row(self, tmp_path):
        ini = tmp_path / "frozen.ini"
        ini.write_text(VOLUME_INI.replace("t_end = 6.0", "t_end = 0.0"))
        out = tmp_path / "out"
        main(["run", "--config", str(ini), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header + t=0


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
        "param,values", [("mu", "4,4.0"), ("mu", "1,0.25,1e0"), ("N", "2,2.0")]
    )
    def test_repeated_values_rejected(self, volume_ini, tmp_path, capsys, param, values):
        out = tmp_path / "x"
        assert main(["sweep", "--config", volume_ini, "--param", param, "--values", values]
                    + ["--out", str(out)]) == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_values_header_only(self, volume_ini, tmp_path):
        out = tmp_path / "empty"
        assert (
            main(["sweep", "--config", volume_ini, "--param", "mu", "--values", ""]
                 + ["--out", str(out)])
            == 0
        )
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines == ["value,gain_satisfied,fitted_rate,verified,blew_up"]

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
