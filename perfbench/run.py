"""wavestab end-to-end benchmark: sweeps and a long run through the CLI, output-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_mu --seed 1 --seconds 35 --trace 0

Each round runs one workload in a fresh single-threaded Python process
(``child.py``) that calls ``wavestab.cli.main`` with the arguments a user
would type, writing into a fresh directory under ``.perfbench_out/``.
Rounds repeat until ``--seconds`` have passed and every round's outputs are
checked (``checks.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: medians
of the end-to-end metrics with ``--trace 0``; with ``--trace 1``, medians of
the per-layer metrics of traced rounds, which are also written to
``.perfbench_out/trace/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PROBES_PER_ROUND = 2  # extra set-up samples per untraced round, each stopped at the first IMEX step
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
import checks  # noqa: E402
from trace_layers import LAYER_UNITS, layer_metrics, silent_wrappers  # noqa: E402
from workloads import BUILDERS, Workload  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(wl: Workload, workdir: str, mode: str) -> dict:
    """Run one round in a fresh process; return its time stamps, CPU time and peak RSS."""
    os.makedirs(workdir)
    argv = wl.write(workdir)
    result = os.path.join(workdir, "result.json")
    errlog = os.path.join(workdir, "stderr.txt")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC, "--args",
           json.dumps(argv), "--result", result, "--mode", mode, "--t0"]
    with open(errlog, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + [repr(t0)], stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        while True:  # os.wait4 gives this child's own rusage; poll so a hang cannot outlast the timeout
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() - t0 > CHILD_TIMEOUT_S:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{wl.name} round exceeded {CHILD_TIMEOUT_S:g} s")
            time.sleep(0.01)
    if proc.returncode != 0 or not os.path.exists(result):
        with open(errlog) as fh:
            tail = fh.read()[-3000:]
        raise RuntimeError(f"{wl.name} round exited with {proc.returncode}:\n{tail}")
    with open(result) as fh:
        doc = json.load(fh)
    doc["cpu_s"] = usage.ru_utime + usage.ru_stime
    doc["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    doc["wall_s"] = doc["done"] - t0
    doc["setup_s"] = doc["first_step"] - t0
    return doc


def check_round(wl: Workload, workdir: str, doc: dict, u0) -> tuple[int, list[str]]:
    """(members without output, problems) for one finished round."""
    out = os.path.join(workdir, "out")
    if wl.command == "sweep":
        if doc["code"] != 0:
            return len(wl.members()), []
        return checks.check_sweep(wl, out)
    return checks.check_run(wl, out, doc["code"], u0)


def trajectory_bytes(workdir: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(workdir) for f in files if f == "trajectory.csv")


def initial_profile(wl: Workload, workdir: str):
    """u0 as the program builds it; the only thing the checks read back through the library."""
    if wl.command != "run":
        return None
    sys.path.insert(0, SRC)
    from wavestab.config import load_config

    os.makedirs(workdir)
    wl.write(workdir)
    return load_config(os.path.join(workdir, "config.ini")).u0.values


def measure(wl: Workload, seconds: float, traced: bool, scratch: str, seed: int) -> dict:
    dirs = (os.path.join(scratch, str(i)) for i in itertools.count())
    u0 = initial_profile(wl, next(dirs))
    run_child(wl, next(dirs), "probe")  # fills the byte-code and file caches; not measured
    rounds: dict[str, list] = {"round": [], "traced": []}
    setups: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    modes = ("round", "traced") if traced else ("round",)
    t_start = time.monotonic()
    for n in itertools.count(1):
        if not traced:  # spread the set-up samples over the run, as the machine's speed drifts
            setups += [run_child(wl, next(dirs), "probe")["setup_s"] for _ in range(PROBES_PER_ROUND)]
        for mode in modes:
            workdir = next(dirs)
            doc = run_child(wl, workdir, mode)
            missing, probs = check_round(wl, workdir, doc, u0)
            attempted += len(wl.members())
            failed += missing
            problems += probs
            if mode == "traced":
                silent = silent_wrappers(doc["trace"], wl.controller["variant"])
                problems += [f"traced wrapper {k!r} recorded no calls" for k in silent]
                doc["layers"] = layer_metrics(doc["trace"], doc["main_s"], len(wl.members()))
                doc["layers"]["cli.trajectory_bytes"] = trajectory_bytes(workdir)
            rounds[mode].append(doc)
            shutil.rmtree(workdir)
        elapsed = time.monotonic() - t_start
        if elapsed + 0.5 * elapsed / n >= seconds:  # stop where the run ends nearest to --seconds
            break

    med = statistics.median
    if traced:
        docs = rounds["traced"]
        metrics = {k: med(d["layers"][k] for d in docs) for k in docs[0]["layers"]}
        metrics["trace.overhead_s"] = (med(d["wall_s"] for d in docs)
                                       - med(d["wall_s"] for d in rounds["round"]))
        units = LAYER_UNITS
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        path = os.path.join(OUT, "trace", f"{wl.name}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": wl.name, "seed": seed, "metrics": metrics,
                       "rounds": [{"wall_s": d["wall_s"], "main_s": d["main_s"], **d["trace"]}
                                  for d in docs]}, fh, indent=1)
    else:
        docs = rounds["round"]
        setups += [d["setup_s"] for d in docs]
        metrics = {
            "wall_s": med(d["wall_s"] for d in docs),
            "setup_s": med(setups),
            "cpu_s": med(d["cpu_s"] for d in docs),
            "steps_per_s": med(wl.total_steps / (d["wall_s"] - d["setup_s"]) for d in docs),
            "peak_rss_mb": med(d["peak_rss_mb"] for d in docs),
        }
        units = END_TO_END_UNITS
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wavestab", "cli.py")):
        print(f"error: no wavestab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    wl = BUILDERS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        result = measure(wl, args.seconds, bool(args.trace), scratch, args.seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
