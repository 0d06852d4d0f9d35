"""Record the benchmark's baseline: every metric on every workload.

    python3 perfbench/baseline.py        # rewrites perfbench/baseline.json

Runs ``run.py`` ten times per workload with ``--trace 0``, with seeds
101-110 and ``BENCHMARK.json``'s ``run_seconds``, and once with
``--trace 1`` (seed 101).  For each end-to-end metric it records the
median over the runs and the spread, the distance between the first and
third quartile (``statistics.quantiles(n=4)``) as a share of the median,
which is how a run set is judged against a metric's bound in
``BENCHMARK.json``.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(101, 111)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "runs": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": f"{platform.machine()}, {os.cpu_count()} cpus, "
                      f"Python {platform.python_version()}",
              "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        results = [run(name, seed, seconds, 0) for seed in SEEDS]
        traced = run(name, SEEDS[0], seconds, 1)
        end_to_end = {}
        for metric in bounds:
            end_to_end[metric] = summarize([r["metrics"][metric]["value"] for r in results])
            s = end_to_end[metric]
            print(f"{name:8s} {metric:14s} median {s['median']:12.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[metric]}", flush=True)
        report["workloads"][name] = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
