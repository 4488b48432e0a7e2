"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py --workload dense_scene --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --write perfbench/baseline.json

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median.
End-to-end metrics are marked with their bound from BENCHMARK.json; each
spread should stay below a third of it. ``--write`` records the figures,
with the machine's core count and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(end-to-end values, every workload metric) for one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    named = {}
    for line in lines[:-1]:
        _, name, value, unit, *_ = line.split() + [""]
        if not name.startswith("note."):
            named[name] = (float(value), unit)
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}, named


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--write", type=Path, help="record the figures as the baseline")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_range(args.seeds)
    figures = {}
    worst = 0.0
    for workload in args.workload or WORKLOADS:
        e2e, named = {}, {}
        for seed in seeds:
            values, metrics = run_once(workload, seed, seconds)
            for k, (v, unit) in values.items():
                e2e.setdefault(k, ([], unit))[0].append(v)
            for k, (v, unit) in metrics.items():
                named.setdefault(k, ([], unit))[0].append(v)
            print(f"  {workload} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, (v, _) in values.items()),
                  flush=True)
        figures[workload] = {"end_to_end": {}, "workload_metrics": {}}
        for group, table in (("end_to_end", e2e), ("workload_metrics", named)):
            for name, (values, unit) in table.items():
                stats = summary(values)
                figures[workload][group][name] = {"unit": unit, **stats}
                mark = ""
                if group == "end_to_end" and name in bounds:
                    limit = bounds[name] / 3
                    ok = stats["spread"] < limit
                    worst = max(worst, stats["spread"] / bounds[name])
                    mark = f"  bound/3={limit:.4f} {'ok' if ok else 'TOO WIDE'}"
                print(f"{workload:12s} {group:16s} {name:22s} median={stats['median']:.6g} {unit} "
                      f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={stats['spread']:.4f}{mark}",
                      flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.write:
        args.write.write_text(json.dumps({
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "seeds": seeds,
            "run_seconds": seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": figures,
        }, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
