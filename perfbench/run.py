"""espatial benchmark: one workload per call, or every workload with --all.

    python3 perfbench/run.py --workload qa_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the espatial package is imported from its
``src/``. Every line but the last is ``<workload> <metric> <value> <unit>``.
The last line of a one-workload run is the JSON result: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
A run whose outputs disagree with the oracle, or whose two traced runs count
differently, names the offence on stderr and exits 1 without a result.

This process never imports espatial. Each measurement runs in a fresh
``worker.py`` process, so set-up time and peak memory belong to one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

WORKLOADS = ("qa_mix", "dense_scene", "reassembly")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_RUNS = 9  # set-up is timed this many times per run; the fastest is reported
TIME_LIMIT_S = 170

# The end-to-end metrics of BENCHMARK.json, which every workload reports,
# and the workload metric each one reads where the names differ.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("correct_ratio", "ratio"),
              ("ops_per_s", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"))
READS = {
    "qa_mix": {"ops_per_s": "answer_items_per_s", "p50_ms": "answer_p50_ms", "tail_ms": "answer_p90_ms"},
    "dense_scene": {"p50_ms": "query_p50_ms", "tail_ms": "update_p90_ms"},
    "reassembly": {"ops_per_s": "cycles_per_s", "p50_ms": "cycle_p50_ms", "tail_ms": "cycle_p90_ms"},
}


class RunFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float,
          spans: Path | None = None, pause=None, pauses: int = 0) -> tuple[float, dict | None]:
    """Run worker.py once; return (seconds until it was set up, its result).
    ``pause`` is called each time the worker pauses, while it waits."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--pauses", str(pauses)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        last = ""
        for line in proc.stdout:
            if line.strip() == "PAUSE":
                pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdin.close()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RunFailed(f"{workload} ({mode}, seed {seed}) exited with code {proc.returncode}")
    return setup_s, (json.loads(last) if mode != "setup" else None)


def show(workload: str, name: str, value, unit: str, samples: int | None = None):
    tail = f" n={samples}" if samples is not None else ""
    print(f"{workload} {name} {value} {unit}{tail}", flush=True)


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: every workload metric, then the end-to-end metrics.
    Set-up is timed in SETUP_RUNS fresh processes started while the measuring
    process pauses, evenly over its run, so they span the
    same stretch of time as the other metrics. The fastest of them is
    reported: a set-up is not scaled to reference speed (see README.md), and
    a stall of the host only ever adds to it."""
    setups = []

    def time_setup():
        setups.append(spawn(workload, seed, seconds, "setup", deadline)[0])

    _, out = spawn(workload, seed, seconds, "measure", deadline, pause=time_setup, pauses=SETUP_RUNS)
    attempted, failed = out["attempted"], out["failed"]
    named = {
        "setup_s": (min(setups), "s", len(setups)),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB", None),
        "failed_ratio": (failed / attempted, "ratio", attempted),
        "correct_ratio": (out["correct"] / attempted, "ratio", attempted),
        **{k: tuple(v) for k, v in out["metrics"].items()},
    }
    for name, (value, unit, samples) in named.items():
        show(workload, name, value, unit, samples)
    for key, value in out["notes"].items():
        show(workload, f"note.{key}", value, "")
    reads = READS[workload]
    return {
        "correct": True,  # a wrong output ends the worker with code 1
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": named[reads.get(name, name)][0], "unit": unit}
                    for name, unit in END_TO_END},
    }


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The same fixed work four times, untraced and traced in turn. The two
    traced runs must count identically; the first one's spans are written
    out. Alternating spreads the machine's drift over both sides of the
    overhead ratio."""
    from tracing import PER_LAYER

    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    plain = [spawn(workload, seed, seconds, "fixed", deadline)[1]]
    first = spawn(workload, seed, seconds, "traced", deadline, spans)[1]
    plain.append(spawn(workload, seed, seconds, "fixed", deadline)[1])
    second = spawn(workload, seed, seconds, "traced", deadline)[1]
    for key, count in first["counts"].items():
        if second["counts"].get(key) != count:
            raise RunFailed(f"{workload} seed {seed}: count {key} is {count} in the first "
                            f"traced run and {second['counts'].get(key)} in the second")
    per_layer = dict(first["per_layer"])
    per_layer["trace.overhead_ratio"] = (
        (first["timed_s"] + second["timed_s"]) / sum(p["timed_s"] for p in plain))
    for name, unit in PER_LAYER:
        show(workload, name, per_layer[name], unit)
    for key, value in first["notes"].items():
        show(workload, f"note.{key}", value, "")
    show(workload, "spans_file", spans.relative_to(ROOT), "")
    return {
        "correct": True,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "espatial" / "__init__.py").is_file():
        print(f"error: no espatial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_one = trace if args.trace else measure
    try:
        for workload in (WORKLOADS if args.all else (args.workload,)):
            deadline = time.monotonic() + TIME_LIMIT_S
            result = run_one(workload, args.seed, args.seconds, deadline)
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not args.all:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
