"""Per-layer counters for the traced run: call counts and busy time around layer entry points.

Each name is patched where its caller looks it up, so a wrapper sees
exactly the calls the CLI path makes.  A wrapper that records no calls on a
workload whose path includes its layer means the patch is bound to a name
nobody reads; ``run.py`` rejects such a traced run.  Only the traced child
process is patched; nothing under ``src/`` changes.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Wrapper keys whose layer is not on the path of a feedback law.
OFF_PATH = {"fourier": {"element_layout"}, "volume": {"mode_matrix"}}

LAYER_UNITS = {
    "kernels.thomas_solve.calls": "count",
    "kernels.thomas_solve.us_per_call": "us",
    "kernels.laplacian.calls": "count",
    "kernels.laplacian.us_per_call": "us",
    "kernels.busy_share": "share",
    "integrator.steps": "count",
    "integrator.run.s": "s",
    "integrator.step_us": "us",
    "integrator.self_us_per_step": "us",
    "integrator.record_us": "us",
    "integrator.lyapunov.us_per_call": "us",
    "controllers.control_op.us_per_call": "us",
    "controllers.make_energy_operator.calls": "count",
    "controllers.make_energy_operator.us_per_call": "us",
    "controllers.element_layout.calls": "count",
    "models.energy_record.calls": "count",
    "models.energy_record.us_per_call": "us",
    "grid.field.constructions_per_step": "1/step",
    "spectral.mode_matrix.calls": "count",
    "config.load_config.ms_per_call": "ms",
    "config.gain_report_for.ms_per_call": "ms",
    "analysis.fit_exponential.ms_per_call": "ms",
    "analysis.verify.ms_per_call": "ms",
    "cli.write_trajectory.ms_per_call": "ms",
    "cli.trajectory_bytes": "B",
    "cli.member_overhead_ms": "ms",
    "trace.overhead_s": "s",
}


class Tracer:
    """Call counts and busy seconds per wrapper key, for one traced process."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.open: Counter = Counter()
        self.keys: set = set()

    def wrap(self, key: str, fn, on_result=None):
        calls, secs, open_, clock = self.calls, self.secs, self.open, time.perf_counter

        def traced(*args, **kwargs):
            open_[key] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_[key] -= 1
                calls[key] += 1
                secs[key] += dt
                if key == "field" and open_["run"] and not open_["step"]:
                    secs["field_in_record"] += dt
            return on_result(out) if on_result is not None else out

        return traced

    def patch(self, owner, name: str, key: str, on_result=None) -> None:
        self.keys.add(key)
        setattr(owner, name, self.wrap(key, getattr(owner, name), on_result))

    def install(self) -> None:
        from wavestab import cli, controllers, grid, integrator, kernels

        def closure(key):
            self.keys.add(key)
            return lambda fn: self.wrap(key, fn)

        self.patch(integrator._ImexStepper, "advance", "step")
        self.patch(kernels, "thomas_solve", "thomas")
        self.patch(kernels, "laplacian_dirichlet", "laplacian")
        self.patch(kernels, "laplacian_neumann", "laplacian")
        self.patch(grid.Field, "__post_init__", "field")
        self.patch(integrator, "energy_record", "energy_record")
        self.patch(integrator, "controller_energy", "controller_energy")
        self.patch(integrator, "make_control_operator", "make_control_operator", closure("control_op"))
        self.patch(integrator, "make_energy_operator", "make_energy_operator", closure("energy_op"))
        self.patch(integrator, "lyapunov_volume", "lyapunov")
        self.patch(integrator, "lyapunov_eb", "lyapunov")
        self.patch(controllers, "make_energy_operator", "make_energy_operator")
        self.patch(controllers, "element_layout", "element_layout")
        self.patch(controllers, "mode_matrix", "mode_matrix")
        self.patch(cli, "run", "run")
        self.patch(cli, "load_config", "load_config")
        self.patch(cli, "gain_report_for", "gain_report_for")
        self.patch(cli, "fit_exponential", "fit_exponential")
        self.patch(cli, "verify_exponential", "verify")
        self.patch(cli, "verify_polynomial", "verify")
        self.patch(cli, "write_trajectory", "write_trajectory")

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "secs": dict(self.secs), "keys": sorted(self.keys)}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(snap: dict, main_s: float, members: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its counters and the CLI's wall time."""
    c, s = Counter(snap["calls"]), defaultdict(float, snap["secs"])
    steps, records = c["step"], c["energy_record"]
    kernel_s = s["thomas"] + s["laplacian"]
    record_s = s["energy_record"] + s["lyapunov"] + s["energy_op"] + s["field_in_record"]
    return {
        "kernels.thomas_solve.calls": c["thomas"],
        "kernels.thomas_solve.us_per_call": _per(s["thomas"], c["thomas"], 1e6),
        "kernels.laplacian.calls": c["laplacian"],
        "kernels.laplacian.us_per_call": _per(s["laplacian"], c["laplacian"], 1e6),
        "kernels.busy_share": _per(kernel_s, s["run"]),
        "integrator.steps": steps,
        "integrator.run.s": s["run"],
        "integrator.step_us": _per(s["step"], steps, 1e6),
        "integrator.self_us_per_step": _per(s["step"] - kernel_s - s["control_op"], steps, 1e6),
        "integrator.record_us": _per(record_s, records, 1e6),
        "integrator.lyapunov.us_per_call": _per(s["lyapunov"], c["lyapunov"], 1e6),
        "controllers.control_op.us_per_call": _per(s["control_op"], c["control_op"], 1e6),
        "controllers.make_energy_operator.calls": c["make_energy_operator"],
        "controllers.make_energy_operator.us_per_call": _per(
            s["make_energy_operator"], c["make_energy_operator"], 1e6),
        "controllers.element_layout.calls": c["element_layout"],
        "models.energy_record.calls": records,
        "models.energy_record.us_per_call": _per(s["energy_record"], records, 1e6),
        "grid.field.constructions_per_step": _per(c["field"], steps),
        "spectral.mode_matrix.calls": c["mode_matrix"],
        "config.load_config.ms_per_call": _per(s["load_config"], c["load_config"], 1e3),
        "config.gain_report_for.ms_per_call": _per(s["gain_report_for"], c["gain_report_for"], 1e3),
        "analysis.fit_exponential.ms_per_call": _per(s["fit_exponential"], c["fit_exponential"], 1e3),
        "analysis.verify.ms_per_call": _per(s["verify"], c["verify"], 1e3),
        "cli.write_trajectory.ms_per_call": _per(s["write_trajectory"], c["write_trajectory"], 1e3),
        "cli.member_overhead_ms": _per(main_s - s["run"], members, 1e3),
    }


def silent_wrappers(snap: dict, variant: str) -> list[str]:
    """Wrapper keys that saw no call although their layer is on this feedback law's path."""
    return sorted(k for k in set(snap["keys"]) - OFF_PATH[variant] if not snap["calls"].get(k))
