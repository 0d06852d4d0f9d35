"""Tests of the benchmark itself: inputs, tracer and correctness gate.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import os
import shutil
import tempfile

import pytest

import reference
import run
import workloads
from conftest import ROOT
from tracer import LAYER_METRICS, Tracer, import_times

import gasgeometry
from gasgeometry import cli, gibbs_core, quantum_gas, special_functions, verification


@pytest.fixture
def workdir():
    parent = os.path.join(ROOT, ".perfbench")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=parent)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _namespaces():
    modules = (gasgeometry, special_functions, gibbs_core, quantum_gas, verification, cli)
    return {m.__name__: dict(vars(m)) for m in modules}


def _traced(run):
    special_functions.polylog.cache_clear()
    special_functions.zeta_real.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.restore()
    return result, tracer.layer_metrics()


# ------------------------------------------------------------------ inputs

def test_scatter_inputs_are_deterministic_per_seed():
    assert workloads.scatter_inputs(7) == workloads.scatter_inputs(7)
    assert workloads.scatter_inputs(7) != workloads.scatter_inputs(8)
    assert workloads.reference_subset(7, 4000) == workloads.reference_subset(7, 4000)


def test_scatter_inputs_cover_the_advertised_domain():
    points = workloads.scatter_inputs(3)
    assert len(points) == workloads.SCATTER_POINTS
    assert len({(xi, eta) for _, eta, _, xi in points}) == len(points)
    for stat in workloads.STATISTICS:
        assert sum(p[0] == stat for p in points) == len(points) // 4
    etas = [eta for _, eta, _, _ in points]
    assert -1.0 < min(etas) < 0.0 and max(etas) <= 4.0
    bose = [xi for stat, _, _, xi in points if stat in ("be", "be0")]
    fermi = [xi for stat, _, _, xi in points if stat == "fd"]
    assert max(bose) < 1.0 and max(bose) > 1.0 - 1e-7
    assert max(fermi) > 1e3
    betas = [beta for _, _, beta, _ in points]
    assert max(betas) / min(betas) > 1e5


# ------------------------------------------------------------------ tracer

def test_self_time_is_span_minus_child_spans():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(lambda x: traced_inner(traced_inner(x)), "outer")
    assert traced_outer(1) == 3
    assert list(tracer.parent) == [-1, 0, 0]
    spans = [tracer.t1[i] - tracer.t0[i] for i in range(3)]
    assert all(s > 0.0 for s in spans)
    assert spans[0] >= spans[1] + spans[2]


def test_import_times_partition_by_owning_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     _bootlocale",
        "import time:       100 |        110 |   numpy",
        "import time:        40 |         40 |       inspect",
        "import time:       200 |        240 |     scipy.special",
        "import time:         5 |        355 |   gasgeometry.gibbs_core",
        "import time:         7 |        362 | gasgeometry",
        "import time:         3 |          3 | json",
    ])
    got = import_times(log)
    assert got["import.numpy_s"] == pytest.approx(110e-6)
    assert got["import.scipy_s"] == pytest.approx(240e-6)
    assert got["import.gasgeometry_s"] == pytest.approx(12e-6)


def test_tracing_keeps_outputs_bit_identical_and_restores_originals():
    before = _namespaces()
    suites = dict(verification.SUITES)
    defaults = verification.suite_fd_negativity.__defaults__
    subset = workloads.reference_subset(5, workloads.SCATTER_POINTS)
    plain = workloads.run_scatter(5, subset)
    traced, layers = _traced(lambda: workloads.run_scatter(5, subset))
    assert traced["digest"] == plain["digest"]
    assert traced["subset"] == plain["subset"]
    assert layers["geometry_sample.calls"] == workloads.SCATTER_POINTS
    after = _namespaces()
    for module, names in before.items():
        for key, value in names.items():
            assert after[module][key] is value, f"{module}.{key} not restored"
    assert verification.SUITES == suites
    assert verification.suite_fd_negativity.__defaults__ is defaults


def test_one_scatter_run_reaches_every_polylog_regime():
    result, layers = _traced(lambda: workloads.run_scatter(11, []))
    assert not result["failures"]
    for key in ("polylog.series.calls", "polylog.quad.calls", "polylog.edge.calls",
                "polylog.closed_form.calls", "polylog_step_down.calls"):
        assert layers[key] > 0, key
    assert 0.0 < layers["polylog.cache_hit_ratio"] < 1.0
    assert layers["cli.sweep.rows"] == 0
    assert layers["hessian_metric.calls"] == 0


def test_figures_trace_never_reaches_edge_or_engine(workdir):
    result, layers = _traced(lambda: workloads.run_figures(workdir, []))
    assert not result["failures"]
    assert layers["cli.sweep.rows"] == result["ops"] == len(workloads.figure_inputs())
    assert layers["polylog.edge.calls"] == 0
    for key in ("hessian_metric", "jacobian_metric", "scalar_curvature_det",
                "scalar_curvature_riemann", "fock"):
        assert layers[f"{key}.calls"] == 0
    assert layers["polylog.cache_hit_ratio"] > 0.5


def test_verify_trace_drives_the_engine_and_every_suite():
    result, layers = _traced(workloads.run_verify)
    assert not result["failures"] and result["ops"] == 9
    assert layers["verification.suite.runs"] == 9
    assert layers["field_evals"] > 0 and layers["fock.states"] > 0
    for key in ("hessian_metric", "jacobian_metric", "scalar_curvature_det",
                "scalar_curvature_riemann"):
        assert layers[f"{key}.calls"] > 0
    suites = [n for n, _, _ in LAYER_METRICS if n.startswith("verification.suite.")
              and n.endswith(".wall_s")]
    assert all(layers[n] > 0.0 for n in suites)


# ------------------------------------------------------------------ gate

def test_reference_matches_library_on_a_plain_point():
    model = gasgeometry.GasModel("fd", eta=0.5)
    p = gasgeometry.ThermoPoint(1.0, 2.0)
    s = gasgeometry.geometry_sample(model, p)
    u, n = gasgeometry.averages(model, p)
    got = dict(zip(workloads.SCATTER_FIELDS,
                   (s.metric.g11, s.metric.g12, s.metric.g22, s.det_g, s.g_bar,
                    s.R, s.R_bar, u, n)))
    ref = reference.closed_forms("fd", 0.5, 1.0, 1.0, 2.0)
    assert reference.check("fd", got, ref) == ""
    got["R"] *= 1.0 + 1e-3
    assert "R off by" in reference.check("fd", got, ref)


def test_gate_fails_rows_missing_from_a_truncated_figure_run():
    inputs = workloads.figure_inputs()
    expected = len(inputs)
    last = expected - 1
    refs = {last: (inputs[last], reference.closed_forms(*inputs[last]))}
    truncated = {"ops": expected - 100, "failures": {}, "subset": {}}
    failures = run.gate("figures", truncated, refs, expected)
    assert sorted(failures) == list(range(expected - 100, expected))
    failures = run.gate("figures", dict(truncated, ops=expected), refs, expected)
    assert list(failures) == [last]
    longer = run.gate("figures", dict(truncated, ops=expected + 1), {}, expected)
    assert list(longer) == [expected]


def test_operation_latencies_come_from_the_operation_spans(workdir):
    before = _namespaces()
    suites = dict(verification.SUITES)
    tracer = Tracer()
    tracer.install(layers=False)
    try:
        figures = workloads.run_figures(workdir, [])
        verify = workloads.run_verify()
    finally:
        tracer.restore()
    assert len(tracer.durations("cli.sweep")) == figures["ops"] == len(workloads.figure_inputs())
    assert len(tracer.durations("verification.suite")) == verify["ops"] == 9
    assert tracer.layer_metrics()["polylog.calls"] == 0
    assert _namespaces() == before
    assert verification.SUITES == suites


@pytest.mark.parametrize("stat, r, ok", [
    ("fd", -1e-3, True), ("fd", 1e-3, False), ("be0", 2.0, True), ("be0", -2.0, False),
    ("classical", 0.0, True), ("classical", 1e-300, False), ("be", -5.0, True),
])
def test_sign_headlines(stat, r, ok):
    assert workloads.sign_ok(stat, r) is ok


def test_r_bar_sign_follows_the_statistics():
    # R = +(t/2) R_bar for fd and -(t/2) R_bar for the Bose branches
    assert workloads.sign_ok("fd", workloads.r_from_r_bar("fd", -0.5))
    assert workloads.sign_ok("be0", workloads.r_from_r_bar("be0", -0.5))
    assert not workloads.sign_ok("be0", workloads.r_from_r_bar("be0", 0.5))
