"""One workload round in a fresh process: ``wavestab.cli.main`` with a user's arguments.

Started by ``run.py`` with the monotonic time of its launch (``--t0``).
Writes a JSON file with the CLI's exit code and the times at which the
first IMEX step began and the last output file was written, and with
per-layer counters when ``--mode traced``.  ``--mode probe`` stops the
process at the first IMEX step, to sample set-up time cheaply.

Usage: python3 child.py --src SRC --args JSON --result PATH --t0 T [--mode round|probe|traced]
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class SetupDone(BaseException):
    """Unwinds a probe out of the CLI at its first IMEX step."""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--args", required=True, help="CLI arguments as a JSON list")
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("round", "probe", "traced"), default="round")
    opts = ap.parse_args()

    sys.path.insert(0, opts.src)
    from wavestab import cli, integrator

    tracer = None
    if opts.mode == "traced":
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()

    stamps: dict = {}
    stepper = integrator._ImexStepper
    advance = stepper.advance

    def first_step(self, u, v):
        stepper.advance = advance
        stamps["first_step"] = time.monotonic()
        if opts.mode == "probe":
            raise SetupDone
        return advance(self, u, v)

    stepper.advance = first_step
    t_main = time.monotonic()
    try:
        code = cli.main(json.loads(opts.args))
    except SetupDone:
        code = 0
    stamps["done"] = time.monotonic()
    doc = {"code": code, "t0": opts.t0, "main_s": stamps["done"] - t_main, **stamps}
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
    with open(opts.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
