"""One workload repetition in a fresh interpreter, as a CLI user pays it.

    python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR OUT

Times ``import gasgeometry.cli`` first, before anything else is imported,
then runs the workload and writes a JSON result to OUT.  The latencies of
CLI rows and verification suites come from ``tracer`` spans.  With
TRACE = 1 its layer wrappers are installed too and the result carries
their metrics; the parent reads the import breakdown from
``-X importtime`` on this process's stderr.
"""
import sys
import time

t0 = time.perf_counter()
import gasgeometry.cli  # noqa: E402
setup_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(workload: str, seed: int, trace: bool, workdir: str, out: str) -> None:
    from gasgeometry.errors import ConditioningWarning

    expected = workloads.expected_ops(workload)
    subset = workloads.reference_subset(seed, expected) if expected else []
    tracer = Tracer()
    tracer.install(layers=trace)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if workload == "scatter":
                result = workloads.run_scatter(seed, subset)
            elif workload == "figures":
                result = workloads.run_figures(workdir, subset)
                result["latencies_s"] = tracer.durations("cli.sweep")
            else:
                result = workloads.run_verify()
                result["latencies_s"] = tracer.durations("verification.suite")
    finally:
        tracer.restore()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["conditioning_warnings"] = sum(
        issubclass(w.category, ConditioningWarning) for w in caught)
    result["module"] = gasgeometry.cli.__file__
    if trace:
        result["layers"] = tracer.layer_metrics()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    name, seed, trace, workdir, out = sys.argv[1:6]
    main(name, int(seed), trace == "1", workdir, out)
