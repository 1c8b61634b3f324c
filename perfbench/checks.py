"""Output checks made apart from the program under test.

Nothing here calls the library's stepper, ledger or verifier.  The checks
read the CSV and JSON files a workload wrote and test them against the
energy identity of the damped wave, against the gain conditions written out
in ``workloads.gain_satisfied``, and, for ``run_fine``, against a
closed-form solution of the semi-discrete linear system.  Each check returns
a list of problems; an empty list means the output passed.  The tolerances
are explained in ``README.md``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Optional

import numpy as np
from scipy.fft import dst

from workloads import Member, Workload

MONOTONE_TOL = 1e-9  # allowed rise of total (and lyapunov) between records, as a share of its t=0 value
# Allowed max |E(t) - E(0) + int 2b*kinetic dt|, as a share of E(0), per feedback law.
BALANCE_TOL = {"fourier": 1e-3, "volume": 2e-2}
MODAL_TOL = 1e-3  # allowed |total - closed-form total| on run_fine, as a share of E(0)


def read_columns(path: str) -> dict[str, np.ndarray]:
    """A CSV with a header row, as float columns; blank cells read as NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} has no rows")
    return {k: np.array([float(r[k]) if r[k] else math.nan for r in rows]) for k in rows[0]}


def monotone_problems(name: str, values: np.ndarray) -> list[str]:
    """``values`` must not rise by more than MONOTONE_TOL of its first value."""
    if np.isnan(values).any():
        return [f"{name} has blank or NaN entries"]
    ref = abs(values[0])
    if not ref > 0.0:
        return [f"{name}(0) = {values[0]!r} gives no scale"]
    rises = np.diff(values)
    k = int(np.argmax(rises)) if len(rises) else 0
    if len(rises) and rises[k] > MONOTONE_TOL * ref:
        return [f"{name} rises by {rises[k] / ref:.3e} of its t=0 value at record {k + 1}"]
    return []


def balance_residual(cols: dict[str, np.ndarray], b: float) -> float:
    """max_k |E(t_k) - E(0) + int_0^t_k 2b*kinetic dt| / E(0), trapezoid rule on the records."""
    t, total, kin = cols["t"], cols["total"], cols["kinetic"]
    power = 2.0 * b * kin
    dissipated = np.concatenate(([0.0], np.cumsum(0.5 * (power[1:] + power[:-1]) * np.diff(t))))
    return float(np.max(np.abs(total - total[0] + dissipated)) / total[0])


def energy_problems(cols: dict[str, np.ndarray], b: float, balance_tol: Optional[float]) -> list[str]:
    """dE/dt = -b||v||^2 for every gain: total never rises, and balances within ``balance_tol``.

    Pass ``balance_tol=None`` when the records are too sparse for the trapezoid rule.
    """
    probs = monotone_problems("total", cols["total"])
    if balance_tol is not None and not probs:
        res = balance_residual(cols, b)
        if not res <= balance_tol:
            probs.append(f"energy balance residual {res:.3e} of E(0) exceeds {balance_tol:g}")
    return probs


def expected_records(n_steps: int, every: int) -> int:
    return len({0, n_steps} | set(range(every, n_steps + 1, every)))


def modal_totals(u0: np.ndarray, L: float, n_cells: int, nu: float, a: float, b: float,
                 mu: float, N: int, t: np.ndarray) -> np.ndarray:
    """Energy of the semi-discrete linear damped wave with modal feedback, in closed form.

    The discrete sines sqrt(2/L) sin(k pi x_i / L), k = 1..n_cells-1, are
    orthonormal under the trapezoid weights and are exact eigenvectors of the
    Dirichlet stencil with lambda_k = 4/dx^2 sin^2(k pi dx / 2L).  Each
    coefficient then obeys a'' + b a' + kappa_k a = 0 with
    kappa_k = nu lambda_k - a + mu [k <= N], started from rest.
    """
    dx = L / n_cells
    k = np.arange(1, n_cells)
    a0 = math.sqrt(2.0 / L) * dx * 0.5 * dst(u0, type=1)
    kappa = nu * 4.0 / dx**2 * np.sin(k * np.pi * dx / (2.0 * L)) ** 2 - a + mu * (k <= N)
    s = np.sqrt((0.25 * b * b - kappa).astype(complex))[:, None]
    tt = t[None, :]
    st = s * tt
    small = np.abs(s) < 1e-12
    sinh_over_s = np.where(small, tt, np.sinh(st) / np.where(small, 1.0, s))
    s_sinh = np.where(small, 0.0, s * np.sinh(st))
    decay = np.exp(-0.5 * b * tt)
    amp = a0[:, None] * decay * (np.cosh(st) + 0.5 * b * sinh_over_s)
    vel = a0[:, None] * decay * (s_sinh - 0.25 * b * b * sinh_over_s)
    energy = 0.5 * vel.real**2 + 0.5 * kappa[:, None] * amp.real**2
    return energy.sum(axis=0)


def _steps_problems(wl: Workload, cols: dict[str, np.ndarray]) -> list[str]:
    want = expected_records(wl.n_steps, wl.record_every)
    probs = []
    if len(cols["t"]) != want:
        probs.append(f"{len(cols['t'])} records, expected {want}")
    if not math.isclose(cols["t"][-1], wl.t_end, rel_tol=1e-9):
        probs.append(f"last record at t = {cols['t'][-1]!r}, expected t_end = {wl.t_end!r}")
    return probs


def check_trajectory(wl: Workload, member: Member, member_dir: str, verified: bool) -> list[str]:
    """Checks on one member's trajectory.csv, given the verdict the program reported."""
    cols = read_columns(os.path.join(member_dir, "trajectory.csv"))
    probs = _steps_problems(wl, cols)
    tol = BALANCE_TOL[wl.controller["variant"]] if wl.record_every == 1 else None
    probs += energy_problems(cols, float(wl.model["b"]), tol)
    if member.satisfied:
        if not verified:
            probs.append("gain conditions hold but the member is not verified")
        probs += monotone_problems("lyapunov", cols["lyapunov"])
    return probs


def check_sweep(wl: Workload, out_dir: str) -> tuple[int, list[str]]:
    """Check every member of a sweep.  Returns (members without output, problems)."""
    rows = {}
    summary = os.path.join(out_dir, "summary.csv")
    if os.path.exists(summary):
        with open(summary, newline="") as fh:
            rows = {float(r["value"]): r for r in csv.DictReader(fh)}
    missing, probs = 0, []
    for m in wl.members():
        row = rows.get(m.value)
        mdir = os.path.join(out_dir, m.subdir)
        if row is None or not os.path.exists(os.path.join(mdir, "trajectory.csv")):
            missing += 1
            continue
        if (row["gain_satisfied"] == "true") != m.satisfied:
            probs.append(f"{m.subdir}: gain_satisfied={row['gain_satisfied']}, expected {m.satisfied}")
        probs += [f"{m.subdir}: {p}" for p in check_trajectory(wl, m, mdir, row["verified"] == "true")]
    return missing, probs


def check_run(wl: Workload, out_dir: str, code: int, u0: np.ndarray) -> tuple[int, list[str]]:
    """Check a single run, including its totals against the closed-form modal solution."""
    (member,) = wl.members()
    report_path = os.path.join(out_dir, "report.json")
    if code not in (0, 1) or not os.path.exists(report_path):
        return 1, []
    with open(report_path) as fh:
        report = json.load(fh)
    probs = []
    if report["gain"]["satisfied"] != member.satisfied:
        probs.append(f"gain satisfied={report['gain']['satisfied']}, expected {member.satisfied}")
    verified = bool(report["verify"] and report["verify"]["ok"])
    if code != (0 if member.satisfied and verified else 1):
        probs.append(f"exit code {code} does not match the report")
    probs += check_trajectory(wl, member, out_dir, verified)
    cols = read_columns(os.path.join(out_dir, "trajectory.csv"))
    m, c = wl.model, wl.controller
    exact = modal_totals(u0, L=float(m["L"]), n_cells=int(m["n_cells"]), nu=float(m["nu"]),
                         a=float(m["a"]), b=float(m["b"]), mu=float(c["mu"]), N=int(c["N"]),
                         t=cols["t"])
    err = float(np.max(np.abs(cols["total"] - exact)) / exact[0])
    if not err <= MODAL_TOL:
        probs.append(f"total departs from the closed-form solution by {err:.3e} of E(0)")
    return 0, probs
