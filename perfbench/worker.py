"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py``, one process per measurement, so that peak memory and
set-up time belong to a single workload. The espatial package is imported
from the ``src/`` directory of the checkout this file sits in, never from an
installed copy. Prints ``READY`` once set-up is done, before the first timed
call; ``--mode setup`` exits there. With ``--pauses N``, a measured run stops
N times, evenly over its time, prints ``PAUSE`` and waits for a line on
stdin, so that set-up can be timed in turn with the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "fixed", "traced"), required=True)
    parser.add_argument("--spans", help="file to write the traced run's spans to")
    parser.add_argument("--pauses", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import espatial

    if not Path(espatial.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported espatial from {espatial.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, GateFailure

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.pauses:
        workload.pauses = args.pauses
        workload.pause = lambda: (print("PAUSE", flush=True), sys.stdin.readline())
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
    try:
        result = workload.run(args.seconds, fixed=args.mode != "measure")
    except GateFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = {
        "metrics": result.metrics,
        "attempted": result.attempted,
        "failed": result.failed,
        "correct": result.correct,
        "timed_s": result.timed_s,
        "notes": result.notes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics(result.items)
        out["counts"] = tracer.counters(result.items)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
