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
    fit_exponential,
    power_law_window,
    run_inequality_suite,
    verify_exponential,
    verify_polynomial,
)
from .config import ConfigError, ExperimentConfig, check_law, finite_float
from .config import gain_report_for, load_config
from .controllers import NoControl
from .integrator import RunResult, run
from .models import LEDGER_COLUMNS

# Inequality-suite keys that must hold; the remaining key records the
# stated-but-unprovable variant of the mean-plus-gradient bound and is
# reported for information only.
MANDATORY_LEMMAS = (
    "element_mean_approx",
    "mean_plus_gradient_corrected",
    "paired_point_differences",
    "point_sampling_norm",
    "spectral_tail",
    "poincare",
)


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
    """Fit the recorded decay and test it against the predicted rate.

    Returns (fit_dict, verify_dict, ok).  Verification runs whenever the
    pair has a certificate, even with unsatisfied gain conditions — the
    conditions are sufficient, not necessary, so sweeps can legitimately
    observe decay below the certified threshold.  The report picks the
    test: no rate is qualitative, a polynomial exponent is checked as a
    power law, and an exponential rate against its envelope.
    """
    window = cfg.window
    try:
        fit = fit_exponential(result.ledger, window=window)
        fit_dict = dataclasses.asdict(fit)
    except ValueError as exc:
        fit = None
        fit_dict = {"error": str(exc)}

    if report is None:
        return fit_dict, None, True

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
            res = verify_polynomial(result.ledger, rate, window=power_law_window(window))
        else:
            res = verify_exponential(result.ledger, rate, safety=cfg.safety, window=window)
    except ValueError as exc:
        return fit_dict, {"kind": report.kind, "ok": False, "error": str(exc)}, False
    return fit_dict, {"kind": report.kind, **dataclasses.asdict(res)}, res.ok


def _execute(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, int]:
    """Shared run pipeline: simulate, write artifacts, decide the exit code."""
    tg = time.perf_counter()
    report = gain_report_for(cfg)
    gain_s = time.perf_counter() - tg
    os.makedirs(out_dir, exist_ok=True)
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
    steps = round((result.blowup_time or result.final_state.t) / cfg.stepper.dt)
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
        "t_reached": result.final_state.t,
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


def _sweep_member(base: ExperimentConfig, param: str, value: float) -> tuple[str, ExperimentConfig]:
    """The member's label and config: ``base`` with ``param`` set to ``value``, law checked."""
    ctrl = base.controller
    if isinstance(ctrl, NoControl):
        raise ConfigError("cannot sweep a config with no controller")
    if param == "mu":
        new_ctrl = dataclasses.replace(ctrl, mu=float(value))
    else:  # param == "N"
        if value != int(value) or int(value) < 1:
            raise ConfigError(f"swept N values must be positive integers, got {value}")
        if not hasattr(ctrl, "N"):
            raise ConfigError(f"controller variant {base.variant!r} has no N to sweep")
        new_ctrl = dataclasses.replace(ctrl, N=int(value))
    check_law(new_ctrl, base.grid)
    # echo the member's own value in its report.json, not the base config's
    label = _format_value(param, value)
    raw = {**base.raw, "controller": {**base.raw["controller"], param.lower(): label}}
    return label, dataclasses.replace(base, controller=new_ctrl, raw=raw)


def _sweep_worker(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    """Run one member; return its ``summary.csv`` cells after the label."""
    doc, _code = _execute(cfg, out_dir)
    fit, verify, gain = doc["fit"], doc["verify"], doc["gain"]
    return [
        str(bool(gain and gain["satisfied"])).lower(),
        _fmt(fit.get("rate") if isinstance(fit, dict) else None),
        str(bool(verify and verify["ok"])).lower(),
        str(doc["blowup"]["blew_up"]).lower(),
    ]


def _format_value(param: str, value: float) -> str:
    """The member's label: short ``g`` form when it reads back exactly, else ``repr``."""
    if param == "N":
        return str(int(value))
    short = format(value, "g")
    return short if float(short) == value else repr(value)


def cmd_sweep(args) -> int:
    try:
        values = [finite_float(s) for s in args.values.split(",")]
    except ValueError:
        print("error: --values must be a comma-separated list of finite numbers", file=sys.stderr)
        return 2
    # Read the INI once and build every member, in ascending order, before
    # launching anything; the members run from these configs, not the file.
    base = load_config(args.config)
    members = [_sweep_member(base, args.param, v) for v in sorted(values)]
    repeated = sorted({v for v in values if values.count(v) > 1})  # as numbers: 0 == -0
    if repeated:
        shown = ", ".join(_format_value(args.param, v) for v in repeated)
        print(f"error: --values repeats {args.param} = {shown}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    labels = [label for label, _cfg in members]
    cfgs = [cfg for _label, cfg in members]
    subs = [os.path.join(args.out, f"{args.param}={label}") for label in labels]
    if args.jobs > 1 and len(members) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs ms to import; only a pool needs it

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_worker, cfgs, subs))
    else:
        rows = list(map(_sweep_worker, cfgs, subs))

    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "gain_satisfied", "fitted_rate", "verified", "blew_up"])
        writer.writerows([label, *row] for label, row in zip(labels, rows))
    print(f"wrote {summary} ({len(rows)} rows)")
    blown = [label for label, row in zip(labels, rows) if row[-1] == "true"]
    if blown:
        print(f"solution blew up for {args.param} = {', '.join(blown)}")
        return 3
    # members that fail verification do not fail the sweep: values below
    # the certified threshold are swept on purpose
    return 0


def cmd_lemmas(args) -> int:
    reports = run_inequality_suite(args.seed, args.samples)
    name_w = max(len(k) for k in reports)
    print(f"{'inequality':<{name_w}}  samples  violations  worst_ratio  empirical")
    failures = 0
    for name, rep in reports.items():
        informational = name not in MANDATORY_LEMMAS
        if not informational and rep.violations > 0:
            failures += 1
        tag = "  (informational)" if informational else ""
        print(
            f"{name:<{name_w}}  {rep.samples:>7d}  {rep.violations:>10d}"
            f"  {rep.worst_ratio:>11.6f}  {rep.empirical_constant:>9.6f}{tag}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        doc = {
            "seed": args.seed,
            "samples": args.samples,
            "mandatory": list(MANDATORY_LEMMAS),
            "reports": {k: dataclasses.asdict(v) for k, v in reports.items()},
        }
        path = os.path.join(args.out, "lemmas.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


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
    p_sweep.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lem = sub.add_parser("lemmas", help="randomized checks of the discrete inequalities")
    p_lem.add_argument("--seed", type=int, default=42, help="base RNG seed")
    p_lem.add_argument("--samples", type=int, default=1000, help="samples per inequality")
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
