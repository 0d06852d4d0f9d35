"""Benchmark of gasgeometry: time to a finished, correct result.

    python3 perfbench/run.py --workload {figures,scatter,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each repetition of the workload
runs in a fresh child interpreter with ``PYTHONPATH=src``, because that is
what a ``gasgeometry figure N`` or ``gasgeometry verify`` user pays.  Children
run back to back (closed loop, one caller) for about S seconds.

With ``--trace 0`` the result holds the end-to-end metrics: the median
over the children of peak RSS, the upper decile over the children of the
import time (``setup_s``), of the workload wall time and of each child's
median operation latency, and the upper quartile of each child's tail
latency.
With ``--trace 1`` traced and untraced children alternate, and the result
holds the per-layer metrics of ``tracer.LAYER_METRICS`` (medians over the
traced children) plus the tracing overhead.

Every child's outputs are checked: finiteness, the sign headlines, empty
``error`` columns, the number of operations, a seeded subset against
mpmath (``reference``) and identical output digests across all children,
traced ones included.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("point_p50_us", "us"),
    ("point_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    # one caller: keep BLAS from starting worker threads in the child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    from tracer import import_times

    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           os.path.join(HERE, "child.py"), workload, str(seed),
           "1" if trace else "0", workdir, out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} child exited with {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    if not os.path.abspath(result["module"]).startswith(SRC + os.sep):
        raise BenchmarkError(f"child imported gasgeometry from {result['module']}")
    if trace:
        result["layers"].update(import_times(proc.stderr))
        result["layers"]["conditioning_warnings"] = result["conditioning_warnings"]
    return result


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

def reference_values(workload: str, seed: int) -> dict[int, tuple[tuple, dict]]:
    """mpmath closed forms for the seeded subset, computed before any child."""
    import reference
    import workloads

    if workload == "scatter":
        inputs = [(stat, eta, 1.0, beta, xi)
                  for stat, eta, beta, xi in workloads.scatter_inputs(seed)]
    elif workload == "figures":
        inputs = workloads.figure_inputs()
    else:
        return {}
    subset = workloads.reference_subset(seed, len(inputs))
    return {i: (inputs[i], reference.closed_forms(*inputs[i])) for i in subset}


def gate(workload: str, result: dict, refs: dict, expected: int | None) -> dict[int, str]:
    """Failed operations of one child: its own checks, the operation count
    (``expected``, where the inputs fix it) and the mpmath subset."""
    import reference
    import workloads

    failures = {int(i): why for i, why in result["failures"].items()}
    if expected is not None:
        for i in range(result["ops"], expected):
            failures[i] = "missing from the output"
        if result["ops"] > expected:
            failures[expected] = f"{result['ops']} operations, expected {expected}"
    for i, ((stat, eta, kappa, beta, xi), ref) in refs.items():
        if i in failures:
            continue
        got = result["subset"].get(str(i))
        if got is None:
            failures[i] = "missing from the output"
            continue
        if workload == "scatter":
            got = dict(zip(workloads.SCATTER_FIELDS, got))
        else:
            if (float(got["beta"]), float(got["xi"]), got["stat"]) != (beta, xi, stat):
                failures[i] = f"row {i} is not the expected grid point"
                continue
            got = {k: float(got[k]) for k in ("g_bar", "R", "R_bar") if got[k]}
        miss = reference.check(stat, got, ref)
        if miss:
            failures[i] = f"{stat} eta={eta!r} beta={beta!r} xi={xi!r}: {miss}"
    return failures


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def tail_quantile(n: int) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond it.

    With fewer than 20 samples (the nine suites of a ``verify`` child)
    there is none, and the largest sample is the tail.
    """
    return min(0.99, 1.0 - 10.0 / n) if n >= 20 else 1.0


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# This host alternates between a common slow state and a fast state up to
# 1.7x quicker, in phases of seconds to minutes.  A high quantile over a
# run's children stays in the slow state unless nearly all of the run falls
# in the fast one: the upper decile of the children's import times, wall
# times and median latencies, and the upper quartile of their tail
# latencies, which are tails already and carry more sampling noise of
# their own.
SLOW_STATE_Q = 0.9
TAIL_SLOW_STATE_Q = 0.75


def end_to_end(results: list[dict]) -> dict:
    """Run-level metrics from the per-child results."""
    tails = [quantile(r["latencies_s"], tail_quantile(len(r["latencies_s"])))
             for r in results]
    return {
        "setup_s": quantile([r["setup_s"] for r in results], SLOW_STATE_Q),
        "wall_s": quantile([r["wall_s"] for r in results], SLOW_STATE_Q),
        "point_p50_us": quantile([quantile(r["latencies_s"], 0.5) for r in results],
                                 SLOW_STATE_Q) * 1e6,
        "point_p99_us": quantile(tails, TAIL_SLOW_STATE_Q) * 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    from tracer import LAYER_METRICS

    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (quantile([r["wall_s"] for r in traced], SLOW_STATE_Q)
                                  - quantile([r["wall_s"] for r in untraced], SLOW_STATE_Q))
    return values


# --------------------------------------------------------------------------
# measurement loop
# --------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run children back to back for about ``seconds``."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        use_trace = trace and len(untraced) > len(traced)
        (traced if use_trace else untraced).append(
            run_child(workload, seed, use_trace, workdir))
        last = time.perf_counter() - t0
        enough = len(untraced) >= MIN_CHILDREN and (not trace or len(traced) >= MIN_CHILDREN)
        if enough and time.perf_counter() + last > start + seconds:
            return untraced, traced


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gasgeometry", "cli.py")):
        print(f"error: no gasgeometry sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    expected = workloads.expected_ops(args.workload)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        refs = reference_values(args.workload, args.seed)
        # a fresh checkout has no bytecode yet: write it before the first
        # child, so that no child's setup_s includes compiling
        compileall.compile_dir(os.path.join(SRC, "gasgeometry"), quiet=1)
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    children = untraced + traced
    failures = [gate(args.workload, r, refs, expected) for r in children]
    digests = {r["digest"] for r in children}
    attempted = sum(max(r["ops"], expected or 0) for r in children)
    failed = sum(len(f) for f in failures)
    correct = failed == 0 and len(digests) == 1

    values = end_to_end(untraced)
    points = len(untraced[0]["latencies_s"])
    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced"
          f"{f' and {len(traced)} traced' if traced else ''} repetitions,"
          f" each in a fresh process with {points} operations")
    notes = {
        "setup_s": "upper decile over repetitions",
        "wall_s": "upper decile over repetitions",
        "point_p50_us": "upper decile over repetitions of their median",
        "point_p99_us": "upper quartile over repetitions of their "
                        + (f"p{100 * tail_quantile(points):g}" if points >= 20
                           else "slowest operation"),
        "peak_rss_mb": "median over repetitions",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:12.6g} {unit:<3} ({notes[name]})")
    print(f"  {'ops':<14} {attempted:12d} count")
    print(f"  {'ops_failed':<14} {failed:12d} count")
    for i, why in sorted(next((f for f in failures if f), {}).items())[:10]:
        print(f"  failed op {i}: {why}")
    print(f"  reference subset: {len(refs)} ops against mpmath; "
          f"{len(digests)} distinct output digest(s) over {len(children)} children")

    if args.trace:
        from tracer import LAYER_METRICS

        layers = per_layer(traced, untraced)
        for name, unit, _ in LAYER_METRICS:
            print(f"  {name:<40} {layers[name]:14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
