"""The benchmark's workloads: INI inputs made from a seed, and the CLI line a user would type.

Each workload is a :class:`Workload`: the four INI sections, the command
(``run`` or ``sweep``) and, for a sweep, the swept parameter and its values.
The gain conditions below are written out from the paper's certificates,
not taken from the library, so that the benchmark can tell which members
must verify without asking the program under test.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

L = math.pi
PROFILE_SEED_MOD = 2**31  # keeps random(seed, degree) exact after the INI's float parse


@dataclass(frozen=True)
class Member:
    """One simulation of a workload: a sweep point, or the single run."""

    value: Optional[float]
    subdir: str
    satisfied: bool


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "run"
    model: dict
    controller: dict
    initial: dict
    time: dict
    param: Optional[str] = None
    values: tuple = ()

    @property
    def dt(self) -> float:
        return float(self.time["dt"])

    @property
    def t_end(self) -> float:
        return float(self.time["t_end"])

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def record_every(self) -> int:
        """Ledger cadence; 0 in the INI means the CLI default max(1, n_steps // 2000)."""
        every = int(self.time.get("record_every", 0))
        return every if every > 0 else max(1, self.n_steps // 2000)

    def members(self) -> list[Member]:
        if self.command == "run":
            return [Member(None, "", gain_satisfied(self.model, self.controller))]
        out = []
        for v in self.values:
            shown = str(int(v)) if self.param == "N" else format(v, "g")
            ctrl = dict(self.controller, **{self.param: v})
            out.append(Member(v, f"{self.param}={shown}", gain_satisfied(self.model, ctrl)))
        return out

    @property
    def total_steps(self) -> int:
        return self.n_steps * len(self.values or (None,))

    def write(self, workdir: str) -> list[str]:
        """Write ``config.ini`` into ``workdir``; return the CLI arguments."""
        path = os.path.join(workdir, "config.ini")
        with open(path, "w") as fh:
            for section in ("model", "controller", "initial", "time"):
                fh.write(f"[{section}]\n")
                for key, val in getattr(self, section).items():
                    fh.write(f"{key} = {val}\n")
                fh.write("\n")
        out = os.path.join(workdir, "out")
        if self.command == "run":
            return ["run", "--config", path, "--out", out]
        values = ",".join(repr(float(v)) for v in self.values)
        return ["sweep", "--config", path, "--param", self.param, "--values", values,
                "--out", out, "--jobs", "1"]


def gain_satisfied(model: dict, ctrl: dict) -> bool:
    """The printed sufficient gain conditions for the two laws the workloads use."""
    nu, a, b = float(model["nu"]), float(model["a"]), float(model["b"])
    mu, N = float(ctrl["mu"]), int(ctrl["N"])
    if ctrl["variant"] == "fourier":
        lam_next = ((N + 1) * math.pi / L) ** 2
        return mu >= a + 0.75 * b * b and nu >= (2.0 * a + 0.75 * b * b) / lam_next
    if ctrl["variant"] == "volume":
        delta0 = 0.5 * b * min(1.0, nu)
        load = a + 0.5 * delta0 * b
        return mu >= 2.0 * load and N * N > L * L / (2.0 * nu * math.pi**2) * load
    raise ValueError(f"no certificate written out for variant {ctrl['variant']!r}")


def _profile(seed: int, degree: int) -> str:
    return f"random({seed % PROFILE_SEED_MOD}, {degree})"


def sweep_mu(seed: int, n_cells: int = 256, t_end: float = 6.0, count: int = 33) -> Workload:
    """The north-star sweep: gains from 0 to twice the certified threshold a + 3b^2/4."""
    model = dict(family="damped_wave", nu=1.0, a=1.0, b=2.0, bc="dirichlet",
                 nonlinearity="power", p=4, L=repr(L), n_cells=n_cells)
    top = 2.0 * (model["a"] + 0.75 * model["b"] ** 2)
    values = tuple(top * k / (count - 1) for k in range(count))
    return Workload(
        name="sweep_mu", command="sweep", model=model,
        controller=dict(variant="fourier", N=2, mu=1.0),
        initial=dict(u0=_profile(seed, 3)),
        time=dict(dt=0.005, t_end=t_end),
        param="mu", values=values,
    )


def sweep_N_ledger(seed: int, n_cells: int = 256, t_end: float = 6.0) -> Workload:
    """Volume elements over the divisors of n_cells up to n_cells/2, ledger every step."""
    values = tuple(float(d) for d in range(1, n_cells // 2 + 1) if n_cells % d == 0)
    return Workload(
        name="sweep_N_ledger", command="sweep",
        model=dict(family="damped_wave", nu=1.0, a=1.0, b=2.0, bc="neumann",
                   nonlinearity="power", p=4, L=repr(L), n_cells=n_cells),
        controller=dict(variant="volume", N=1, mu=6.0),
        initial=dict(u0=_profile(seed, 3)),
        time=dict(dt=0.005, t_end=t_end, record_every=1),
        param="N", values=values,
    )


def run_fine(seed: int, n_cells: int = 2048, t_end: float = 16.0) -> Workload:
    """One long linear run on a fine grid, where the IMEX step dominates."""
    return Workload(
        name="run_fine", command="run",
        model=dict(family="damped_wave", nu=1.0, a=1.0, b=0.5, bc="dirichlet",
                   nonlinearity="zero", L=repr(L), n_cells=n_cells),
        controller=dict(variant="fourier", N=2, mu=2.0),
        initial=dict(u0=_profile(seed, 12)),
        time=dict(dt=0.002, t_end=t_end, record_every=100),
    )


BUILDERS = {"sweep_mu": sweep_mu, "sweep_N_ledger": sweep_N_ledger, "run_fine": run_fine}
