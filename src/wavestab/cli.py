"""Command-line front end: ``check``, ``run``, ``sweep``, ``lemmas``.

Exit codes: 0 success, 1 conditions unsatisfied / verification or
inequality failures, 2 usage or configuration errors, 3 solution blow-up.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .analysis import (
    STAB_FLOOR,
    SUITE_CELLS,
    SUITE_INFORMATIONAL,
    SUITE_SLACK,
    check_window,
    fit_exponential,
    inequality_constants,
    verify_exponential,
    verify_polynomial,
)
from .config import ConfigError, ExperimentConfig, build_controller, finite_float, gain_report_for
from .config import load_config, step_gate
from .controllers import NoControl
from .integrator import RunResult, run
from .models import LEDGER_COLUMNS, ledger_column


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def write_trajectory(path: str, result: RunResult) -> None:
    """``trajectory.csv``: one line per ledger row; a blank lyapunov cell when the pair has none."""
    ledger = result.ledger
    blank = "" if ledger.shape[1] == len(LEDGER_COLUMNS) else ","
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        fh.writelines(",".join(map(repr, row)) + blank + "\n" for row in ledger.tolist())


def _verify(cfg: ExperimentConfig, report, result: RunResult) -> tuple[Optional[dict], Optional[dict], bool]:
    """Fit the recorded decay once and test it against the predicted rate.

    Returns (fit_dict, verify_dict, ok).  Verification runs whenever the
    pair has a certificate, even with unsatisfied gain conditions — the
    conditions are sufficient, not necessary, so sweeps can legitimately
    observe decay below the certified threshold.  The report picks the
    test: no rate is qualitative, a polynomial exponent is checked as a
    power law, and an exponential rate against its envelope.  Each test
    reads the window :func:`analysis.check_window` gives it.  A run whose
    ``stab_norm`` never exceeds ``analysis.STAB_FLOOR`` fails every test:
    its initial data leave no decay to verify.
    """
    end = result.t  # the time of the last record
    fit_window, _ = check_window("exponential", cfg.window, end)
    try:
        fit = fit_exponential(result.ledger, fit_window)
        fit_dict = dataclasses.asdict(fit)
    except ValueError as exc:
        fit, fit_dict = None, {"error": str(exc)}

    if report is None:
        return fit_dict, None, True

    if not np.any(ledger_column(result.ledger, "stab_norm") > STAB_FLOOR):
        kind = "qualitative" if report.predicted_rate is None else report.kind
        error = (f"u0 and u1 are zero or too small: stab_norm stays at or below {STAB_FLOOR:g},"
                 " so there is no decay to verify")
        return fit_dict, {"kind": kind, "ok": False, "error": error}, False

    if report.predicted_rate is None:
        ok = fit is not None and fit.rate > 0.0 and fit.r_squared >= 0.95
        verify = {
            "kind": "qualitative",
            "ok": ok,
            "criterion": "fitted rate > 0 with r_squared >= 0.95",
        }
        return fit_dict, verify, ok

    rate = report.predicted_rate
    try:
        if report.kind == "polynomial":
            window, _ = check_window(report.kind, cfg.window, end)
            res = verify_polynomial(result.ledger, rate, window=window)
        elif fit is None:
            raise ValueError(fit_dict["error"])  # the envelope check reads the fit that failed
        else:
            res = verify_exponential(result.ledger, fit, rate, safety=cfg.safety)
    except ValueError as exc:
        return fit_dict, {"kind": report.kind, "ok": False, "error": str(exc)}, False
    return fit_dict, {"kind": report.kind, **dataclasses.asdict(res)}, res.ok


def _make_out(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # an --out the CLI cannot create is a usage error: exit 2
        raise ValueError(f"cannot create output directory {path!r}: {exc.strerror}") from None


def _execute(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, int]:
    """Shared run pipeline: simulate, write artifacts, decide the exit code."""
    tg = time.perf_counter()
    report = gain_report_for(cfg)
    gain_s = time.perf_counter() - tg
    _make_out(out_dir)
    t0 = time.perf_counter()
    result = run(cfg.model, cfg.controller, cfg.u0, cfg.u1, cfg.stepper)
    t1 = time.perf_counter()
    write_trajectory(os.path.join(out_dir, "trajectory.csv"), result)
    t2 = time.perf_counter()

    if result.blew_up:
        fit_dict, verify, code = None, None, 3
    else:
        fit_dict, verify, verify_ok = _verify(cfg, report, result)
        satisfied = report.satisfied if report else True
        code = 0 if (satisfied and verify_ok) else 1
    t3 = time.perf_counter()
    stepping = t1 - t0 - result.setup_seconds - result.ledger_seconds
    # the steps taken: all of them, or up to the one that blew up
    steps = round((result.blowup_time or result.t) / cfg.stepper.dt)
    doc = {
        "version": __version__,
        # trajectories depend at round-off on which LAPACK build runs
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "variant": cfg.variant,
        "config": cfg.raw,
        "gain": report.to_dict() if report else None,
        "blowup": {"blew_up": result.blew_up, "time": result.blowup_time},
        "n_steps": cfg.stepper.n_steps,
        "dt": cfg.stepper.dt,
        "step_ratio": cfg.step_ratio,
        "t_reached": result.t,
        "records": len(result.ledger),
        "fit": fit_dict,
        "verify": verify,
        "wall_time_s": t1 - t0,
        "steps_per_second": steps / stepping if steps else None,
        "seconds": {
            "gain_check": gain_s,
            "setup": result.setup_seconds,
            "stepping": stepping,
            "ledger": result.ledger_seconds,
            "write": t2 - t1,
            "verify": t3 - t2,
        },
    }

    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc, code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = load_config(args.config)
    step_gate(cfg)  # refuses r >= 1; check prints no warning
    report = gain_report_for(cfg)
    if report is None:
        family = cfg.model.family.value
        pair = f"variant {cfg.variant!r} on family {family!r}"
        print(f"error: no certificate covers {pair}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.satisfied else 1


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    warning = step_gate(cfg)
    if warning:
        print(warning, file=sys.stderr)
    doc, code = _execute(cfg, args.out)
    gain = doc["gain"]
    if gain is not None:
        state = "satisfied" if gain["satisfied"] else "NOT satisfied"
        print(f"gain conditions: {state}")
    if doc["blowup"]["blew_up"]:
        print(f"solution blew up at t = {doc['blowup']['time']:.6g}")
    elif doc["fit"] is not None and "rate" in doc["fit"]:
        print(
            f"fitted rate = {doc['fit']['rate']:.6g}"
            f" (r^2 = {doc['fit']['r_squared']:.4f})"
        )
    if doc["verify"] is not None:
        print(f"verification ({doc['verify']['kind']}): {'ok' if doc['verify']['ok'] else 'FAILED'}")
    print(f"wrote {os.path.join(args.out, 'trajectory.csv')} and report.json")
    return code


def _sweep_member(base: ExperimentConfig, param: str, value: float) -> tuple[str, ExperimentConfig, Optional[str]]:
    """The member's label, config and :func:`step_gate` warning, with ``param`` set to the label.

    The member's law is parsed from ``base``'s controller text with that
    label, so its ``report.json`` echoes the text it ran; the gate refuses a
    member past the step limit as it refuses a run.
    """
    if isinstance(base.controller, NoControl) or not hasattr(base.controller, param):
        raise ConfigError(f"controller variant {base.variant!r} has no {param} to sweep")
    label = _format_value(value)
    section = {**base.raw["controller"], param.lower(): label}
    controller = build_controller(section, base.grid)
    raw = {**base.raw, "controller": section}
    member = dataclasses.replace(base, controller=controller, raw=raw)
    return label, member, step_gate(member, f"{param}={label}: ")


# ``summary.csv``'s header; perfbench reads value, gain_satisfied and verified by name
SUMMARY_COLUMNS = (
    "value", "gain_satisfied", "fitted_rate", "verified", "blew_up", "blowup_time", "certified_rate",
    "wall_time_s",
)


def _summary_cells(doc: dict) -> list[str]:
    """A member's ``summary.csv`` cells after the label, from its ``report.json`` document."""
    fit, verify, gain, blowup = doc["fit"], doc["verify"], doc["gain"], doc["blowup"]
    satisfied = bool(gain and gain["satisfied"])
    certified = satisfied and gain["kind"] == "exponential"  # a rate holds only where the conditions do
    return [
        str(satisfied).lower(),
        _fmt(fit.get("rate") if isinstance(fit, dict) else None),
        str(bool(verify and verify["ok"])).lower(),
        str(blowup["blew_up"]).lower(),
        _fmt(blowup["time"]),
        _fmt(gain["predicted_rate"] if certified else None),
        _fmt(doc["wall_time_s"]),
    ]


def _format_value(value: float) -> str:
    """The member's label: short ``g`` form when it reads back exactly, else ``repr``."""
    short = format(value, "g")
    return short if float(short) == value else repr(value)


def cmd_sweep(args) -> int:
    try:
        values = [finite_float(s) for s in args.values.split(",")]
    except ValueError:
        print("error: --values must be a comma-separated list of finite numbers", file=sys.stderr)
        return 2
    # Read the INI once and build every member, in ascending order, before
    # running any; the members run from these configs, not the file.
    base = load_config(args.config)
    repeated = sorted({v for v in values if values.count(v) > 1})  # as numbers: 0 == -0
    if repeated:
        shown = ", ".join(map(_format_value, repeated))
        print(f"error: --values repeats {args.param} = {shown}", file=sys.stderr)
        return 2
    members = [_sweep_member(base, args.param, v) for v in sorted(values)]
    for _label, _cfg, warning in members:
        if warning:
            print(warning, file=sys.stderr)

    _make_out(args.out)
    table = []
    for label, cfg, _warning in members:
        doc, _code = _execute(cfg, os.path.join(args.out, f"{args.param}={label}"))
        table.append([label, *_summary_cells(doc)])
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(table)
    print(f"wrote {summary} ({len(table)} rows)")
    blew_up = SUMMARY_COLUMNS.index("blew_up")
    blown = [row[0] for row in table if row[blew_up] == "true"]
    if blown:
        print(f"solution blew up for {args.param} = {', '.join(blown)}")
        return 3
    # members that fail verification do not fail the sweep: values below
    # the certified threshold are swept on purpose
    return 0


def cmd_lemmas(args) -> int:
    if args.out:
        _make_out(args.out)
    reports = inequality_constants()
    name_w = max(len(k) for k in reports)
    print(f"{'inequality':<{name_w}}  {'stated':>9}  {'sharp':>9}  {'pde':>9}  worst case")
    mandatory = [name for name in reports if name != SUITE_INFORMATIONAL]
    for name, rep in reports.items():
        pde = "" if rep.pde is None else f"{rep.pde:.6f}"
        worst = max(rep.cases, key=rep.cases.get)
        tag = ("" if rep.holds else "  exceeds stated") + ("" if name in mandatory else "  (informational)")
        print(f"{name:<{name_w}}  {rep.stated:>9.6f}  {rep.sharp:>9.6f}  {pde:>9}  {worst}{tag}")
    if args.out:
        doc = {
            "cells": SUITE_CELLS,
            "slack": SUITE_SLACK,
            "mandatory": mandatory,
            "reports": {k: dataclasses.asdict(v) for k, v in reports.items()},
        }
        path = os.path.join(args.out, "lemmas.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if all(reports[name].holds for name in mandatory) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavestab",
        description="Finite-parameter feedback stabilization of damped wave equations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the gain conditions for a config")
    p_check.add_argument("--config", required=True, help="experiment INI file")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="simulate one config and verify the predicted decay")
    p_run.add_argument("--config", required=True, help="experiment INI file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run over a range of controller parameters")
    p_sweep.add_argument("--config", required=True, help="experiment INI file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--param", required=True, choices=("mu", "N"), help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    # members run one after another; --jobs stays only so that perfbench's "--jobs 1" parses
    p_sweep.add_argument("--jobs", type=int, choices=(1,), default=1, help="only 1, kept for perfbench's --jobs 1")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lem = sub.add_parser("lemmas", help="sharp constants of the discrete inequalities")
    p_lem.add_argument("--out", default=None, help="optional directory for lemmas.json")
    p_lem.set_defaults(func=cmd_lemmas)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
