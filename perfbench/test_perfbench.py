"""Tests of the benchmark's own code: the modal solver, the output checks and the tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from trace_layers import OFF_PATH, silent_wrappers  # noqa: E402
from wavestab import cli  # noqa: E402
from wavestab.config import load_config  # noqa: E402

SMALL = {
    "sweep_mu": lambda seed: dataclasses.replace(
        workloads.sweep_mu(seed, n_cells=32, t_end=2.0), values=(0.0, 5.0, 8.0)),
    "sweep_N_ledger": lambda seed: workloads.sweep_N_ledger(seed, n_cells=128, t_end=2.0),
    "run_fine": lambda seed: workloads.run_fine(seed, n_cells=64),
}


def run_cli(wl, tmp_path):
    argv = wl.write(str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, os.path.join(str(tmp_path), "out")


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def semi_discrete_totals(u0, L, n_cells, nu, a, b, mu, N, t):
    """The ledger's total along exp(tM) of the full first-order system, by dense algebra."""
    dx = L / n_cells
    n = n_cells - 1
    x = dx * np.arange(1, n_cells)
    lap = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / dx**2
    W = np.sqrt(2.0 / L) * np.sin(np.outer(np.arange(1, N + 1), x) * np.pi / L)
    P = W.T @ (W * dx)
    M = np.block([[np.zeros((n, n)), np.eye(n)], [nu * lap + a * np.eye(n) - mu * P, -b * np.eye(n)]])
    out = []
    for tk in t:
        z = expm(M * tk) @ np.concatenate([u0, np.zeros(n)])
        u, v = z[:n], z[n:]
        diffs = np.diff(np.concatenate([[0.0], u, [0.0]]))
        out.append(0.5 * dx * v @ v + 0.5 * nu * diffs @ diffs / dx - 0.5 * a * dx * u @ u
                   + 0.5 * mu * np.sum((W * dx @ u) ** 2))
    return np.array(out)


def test_modal_solution_matches_expm():
    L, n_cells = np.pi, 32
    x = L / n_cells * np.arange(1, n_cells)
    rng = np.random.default_rng(5)
    u0 = sum(rng.uniform(-1, 1) * np.sin(j * x) for j in range(1, 9))
    t = np.array([0.0, 0.3, 1.7, 4.0])
    for params in [(1.0, 1.0, 0.5, 2.0, 2), (0.7, 0.3, 3.0, 0.0, 1)]:  # under- and overdamped modes
        nu, a, b, mu, N = params
        want = semi_discrete_totals(u0, L, n_cells, nu, a, b, mu, N, t)
        got = checks.modal_totals(u0, L, n_cells, nu, a, b, mu, N, t)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_sweep_checks_pass_and_reject_perturbations(tmp_path):
    wl = SMALL["sweep_mu"](3)
    code, out = run_cli(wl, tmp_path)
    assert code == 0
    assert [m.satisfied for m in wl.members()] == [False, True, True]
    assert checks.check_sweep(wl, out) == (0, [])

    member = os.path.join(out, "mu=5", "trajectory.csv")
    pristine = os.path.join(str(tmp_path), "pristine.csv")
    shutil.copy(member, pristine)

    def rise_once(rows):
        e0 = float(rows[0]["total"])
        rows[40]["total"] = repr(float(rows[39]["total"]) + 1e-3 * e0)

    rewrite_csv(member, rise_once)
    _, probs = checks.check_sweep(wl, out)
    assert probs == ["mu=5: total rises by 1.000e-03 of its t=0 value at record 40"]

    def unbalance(rows):  # a balance that is off, with total still falling
        for r in rows:
            r["kinetic"] = repr(1.5 * float(r["kinetic"]))

    shutil.copy(pristine, member)
    rewrite_csv(member, unbalance)
    _, probs = checks.check_sweep(wl, out)
    assert len(probs) == 1 and "balance residual" in probs[0]

    def unverify(rows):
        for r in rows:
            if r["value"] == "5":
                r["verified"] = "false"

    shutil.copy(pristine, member)
    rewrite_csv(os.path.join(out, "summary.csv"), unverify)
    _, probs = checks.check_sweep(wl, out)
    assert probs == ["mu=5: gain conditions hold but the member is not verified"]

    shutil.rmtree(os.path.join(out, "mu=8"))
    assert checks.check_sweep(wl, out)[0] == 1


def test_lyapunov_rise_is_rejected(tmp_path):
    wl = SMALL["sweep_N_ledger"](4)
    code, out = run_cli(wl, tmp_path)
    assert code == 0 and checks.check_sweep(wl, out) == (0, [])

    def lyapunov_rises(rows):
        ly0 = float(rows[0]["lyapunov"])
        rows[10]["lyapunov"] = repr(float(rows[9]["lyapunov"]) + 1e-3 * abs(ly0))

    rewrite_csv(os.path.join(out, "N=2", "trajectory.csv"), lyapunov_rises)
    _, probs = checks.check_sweep(wl, out)
    assert len(probs) == 1 and "lyapunov rises" in probs[0]


def test_run_check_passes_and_rejects_a_wrong_solution(tmp_path):
    wl = SMALL["run_fine"](9)
    code, out = run_cli(wl, tmp_path)
    u0 = load_config(os.path.join(str(tmp_path), "config.ini")).u0.values
    assert checks.check_run(wl, out, code, u0) == (0, [])

    def scale(rows):  # still falling, but no longer the solution
        for r in rows:
            r["total"] = repr(1.002 * float(r["total"]))

    rewrite_csv(os.path.join(out, "trajectory.csv"), scale)
    _, probs = checks.check_run(wl, out, code, u0)
    assert len(probs) == 1 and "closed-form" in probs[0]
    assert checks.check_run(wl, out, 3, u0) == (1, [])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_wrappers_see_their_layers(name, tmp_path):
    wl = SMALL[name](2)
    doc = run.run_child(wl, str(tmp_path / "round"), "traced")
    snap = doc["trace"]
    assert silent_wrappers(snap, wl.controller["variant"]) == []
    for key in OFF_PATH[wl.controller["variant"]]:
        assert not snap["calls"].get(key), f"{key} is on the path after all"
    assert snap["calls"]["step"] == wl.total_steps
    assert doc["setup_s"] < doc["wall_s"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run_fine", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
