"""Acceptance criteria, one test per criterion.

Each test measures its own runtime against the stated budget and prints a
[PASS]/[FAIL] line (visible with ``pytest -s`` or in the captured output
of a failing run).  Where a ``verify`` suite runs a criterion's check, the
test asserts that suite's result, so each check has one implementation and
the suite pins its tolerance.  The last test injects a fault into each
suite's checked quantity and requires the suite to fail.  Run with:

    pytest tests/test_acceptance.py -v -s
"""
import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import gasgeometry.gibbs_core as gc
import gasgeometry.quantum_gas as qg
import gasgeometry.verification as verification
from gasgeometry.errors import DomainError
from gasgeometry.gibbs_core import FockEnsembleSpec, LagrangeCoords
from gasgeometry.quantum_gas import GasModel, ThermoPoint
from gasgeometry.special_functions import (polylog, polylog_quadrature,
                                           polylog_series, polylog_step_down)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except AssertionError as exc:  # annotate, then re-raise
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed is not None else "PASS"
        print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s / {budget_seconds:.0f}s budget)")
        if failed is None:
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s runtime budget: {elapsed:.2f}s")


def assert_passes(result):
    assert result.passed, (f"{result.name}: deviation {result.max_deviation:.3e}, "
                           f"tolerance {result.tolerance:.1e} {result.detail}")


def test_criterion_1_limit_coefficients():
    with criterion(1, "low-fugacity constants at eta = 1/2", 1.0):
        c = qg.limit_coefficients(0.5)
        assert c.f == pytest.approx(1.178, abs=1e-3)
        assert c.f_c == pytest.approx(3.323, abs=1e-3)
        assert c.h == pytest.approx(-0.6921, abs=1e-3)
        assert c.h_c == pytest.approx(-5.321, abs=1e-3)


def test_criterion_2_fd_low_fugacity_curvature():
    with criterion(2, "Fermi curvature at xi = 1e-5 equals -0.4987/2", 1.0):
        s = qg.geometry_sample(GasModel("fd", eta=0.5, kappa=1.0),
                               ThermoPoint(1.0, 1e-5))
        assert s.R == pytest.approx(-0.4987 / 2.0, abs=1e-3)


def test_criterion_3_classical_flatness():
    with criterion(3, "classical gas flat: closed form 0, numeric < 1e-8", 5.0):
        assert_passes(verification.suite_classical_flatness())


def test_criterion_4_fd_negativity_grid():
    with criterion(4, "R < 0 on the full Fermi grid", 30.0):
        assert_passes(verification.suite_fd_negativity())


def test_criterion_5_condensation_edge():
    with criterion(5, "ground state removes the condensation divergence", 10.0):
        assert_passes(verification.suite_condensation_edge())


def test_criterion_6_metric_oracle_equivalence():
    with criterion(6, "closed-form metric = difference oracle to 1e-6", 30.0):
        assert_passes(verification.suite_metric_oracles())


def test_criterion_7_curvature_route_equivalence():
    with criterion(7, "det route = Riemann route = closed form", 60.0):
        assert_passes(verification.suite_curvature_routes())


def test_criterion_8_identity_one_on_enumeration():
    with criterion(8, "enumerated covariance = -Hessian log Z to 1e-8", 30.0):
        fixtures = [
            FockEnsembleSpec((1.0,), "fd"),
            FockEnsembleSpec((1.0, 2.0, 3.0), "fd"),
            FockEnsembleSpec((0.5, 1.0, 1.5, 2.2, 3.1, 4.0), "fd"),
            FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=200),
            FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=200),
        ]
        points = (LagrangeCoords(1.0, 0.3), LagrangeCoords(0.7, 0.9))
        assert len(fixtures) >= 5
        for spec in fixtures:
            field = gc.fock_free_energy_field(spec)
            for at in points:
                _, _, cov = gc.fock_moments(spec, at)
                hess = gc.hessian_metric(field, at)
                for c, h in zip(cov.entries(), hess.entries()):
                    assert c == pytest.approx(h, rel=1e-8), (spec.statistics, at)


def test_criterion_9_polylog_correctness():
    with criterion(9, "polylog closed forms, derivative identity, dual routes", 10.0):
        # closed-form orders to 1e-10
        for y in (-5.0, -1.0, -0.4, 0.2, 0.6, 0.9, 0.999):
            assert polylog(y, 1.0) == pytest.approx(-math.log1p(-y), rel=1e-10)
            assert polylog(y, 0.0) == pytest.approx(y / (1 - y), rel=1e-10)
            assert polylog(y, -1.0) == pytest.approx(y / (1 - y) ** 2, rel=1e-10)
        # derivative identity on 100 random domain points to 1e-6
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 100:
            phi = float(rng.uniform(0.2, 5.0))
            y = float(rng.uniform(-4.0, 0.95))
            if abs(y) < 1e-3:
                continue
            assert polylog_step_down(y, phi) == pytest.approx(
                polylog(y, phi - 1.0), rel=1e-6), (y, phi)
            checked += 1
        # series vs quadrature agreement to 1e-9 where both converge
        for y, phi in itertools.product((-0.9, -0.7, 0.55, 0.75, 0.9),
                                        (0.5, 1.5, 2.5, 4.0)):
            assert polylog_series(y, phi) == pytest.approx(
                polylog_quadrature(y, phi), rel=1e-9), (y, phi)


def test_criterion_10_limit_formula_consistency():
    with criterion(10, "limit curvature matches xi = 1e-5 samples to 1e-3", 5.0):
        assert_passes(verification.suite_limit_asymptotics())


# Each fault moves the quantity that one tolerance checks by twice that
# tolerance, so a suite that stops checking it, or a tolerance loosened
# past twice its value, fails here.  A fault maps the patched function to
# its faulty stand-in.

def _times(factor):
    return lambda f: lambda *args: f(*args) * factor


def _plus(offset):
    return lambda f: lambda *args: f(*args) + offset


def _g12_times(factor):
    def wrap(f):
        def faulty(*args):
            g = f(*args)
            return replace(g, g12=g.g12 * factor)
        return faulty
    return wrap


def _covariance_g12_times(factor):
    def wrap(f):
        def faulty(spec, at):
            u, n, cov = f(spec, at)
            return u, n, replace(cov, g12=cov.g12 * factor)
        return faulty
    return wrap


def _means_times(factor):
    return lambda f: lambda spec, at: tuple(v * factor for v in f(spec, at))


def _curvature(new_r, stat=None):
    # geometry_sample with R replaced by new_r(R), for one statistics or all
    def wrap(f):
        def faulty(model, point):
            s = f(model, point)
            return replace(s, R=new_r(s.R)) if stat in (None, model.statistics) else s
        return faulty
    return wrap


def _grid_curvature(new_r, stat):
    # geometry_grid with each sample's R replaced by new_r(R) for one statistics
    def wrap(f):
        def faulty(model, betas, xis):
            for s in f(model, betas, xis):
                yield replace(s, R=new_r(s.R)) if model.statistics == stat else s
        return faulty
    return wrap


def test_run_suites_has_one_level_of_plain_results():
    assert list(verification.SUITES) == [
        "polylog", "fock", "metric", "curvature", "classical", "fd-negativity",
        "limits", "polylog-edge", "condensation"]
    results = verification.run_suites()
    assert [r.name for r in results] == [r.name for r in verification.run_suites("full")]
    assert len(results) == len(verification.SUITES) and results[-1].name == "condensation edge"
    for r in results:
        assert type(r.passed) is bool and type(r.max_deviation) is float, r
    with pytest.raises(ValueError):
        verification.run_suites("fast")


# id: (SUITES key, module, patched name, fault)
FAULTS = {
    "polylog": ("polylog", verification, "polylog", _times(1 + 2e-6)),
    "fock-identity-1": ("fock", gc, "fock_moments", _covariance_g12_times(1 + 2e-8)),
    "fock-identity-2": ("fock", gc, "fock_means", _means_times(1 + 2e-6)),
    "metric": ("metric", qg, "metric", _g12_times(1 + 2e-6)),
    "curvature-routes": ("curvature", gc, "scalar_curvature_riemann", _times(1 + 2e-5)),
    "curvature-closed-form": ("curvature", qg, "geometry_sample",
                              _curvature(lambda r: r * (1 + 2e-4))),
    "classical-closed-form": ("classical", qg, "geometry_sample", _curvature(lambda r: 1e-300)),
    "classical-numeric": ("classical", gc, "scalar_curvature_det", _plus(2e-8)),
    "fd-negativity": ("fd-negativity", qg, "geometry_grid", _grid_curvature(lambda r: -r, "fd")),
    "limits": ("limits", qg, "limit_curvature", _times(1 + 2e-3)),
    "polylog-edge": ("polylog-edge", verification, "polylog", _times(1 + 2e-6)),
    # a ground-state curvature held flat below the edge bound
    "condensation-flat": ("condensation", qg, "geometry_sample", _curvature(lambda r: 7e-7, "be")),
    "condensation-edge-bound": ("condensation", qg, "geometry_sample",
                                _curvature(lambda r: r + 2e-5, "be")),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_suite_fails_on_injected_fault(fault, monkeypatch):
    suite, module, name, wrap = FAULTS[fault]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    result = verification.SUITES[suite]()
    assert result.passed is False, result
    assert type(result.max_deviation) is float, result


def test_fd_negativity_raises_the_error_of_a_grid_point(monkeypatch):
    # the suite reads geometry_grid, which yields a point's package error
    # instead of raising it; the suite raises it, as geometry_sample would
    monkeypatch.setattr(qg, "geometry_grid", lambda *args: iter([DomainError("injected")]))
    with pytest.raises(DomainError, match="injected"):
        verification.suite_fd_negativity()


def _counted(monkeypatch, module, name):
    # replaces module.name by a wrapper that records each call's arguments
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_computes_each_pass_and_stencil_point_once(monkeypatch):
    # identity 1 and the centre covariance take one fock_moments call per
    # fixture and point; identity 2's four stencil points read the means
    # alone; the Riemann route reads the determinant route's metric values
    moments, means = (_counted(monkeypatch, gc, n) for n in ("fock_moments", "fock_means"))
    assert_passes(verification.suite_fock_identities())
    assert (len(moments), len(means)) == (5 * 2, 5 * 2 * 4)
    metric = _counted(monkeypatch, qg, "metric")
    assert_passes(verification.suite_curvature_routes())
    assert len(metric) == 3 * 2 * 25 * 9  # statistics x eta x grid points x stencil
