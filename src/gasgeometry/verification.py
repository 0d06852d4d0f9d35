"""Self-check suites: every closed form against an independent oracle.

Each suite pits one computational route against another that shares no
code path with it (series vs quadrature, closed form vs finite
differences, determinant vs Christoffel contraction, product form vs
brute enumeration) and reports the worst observed deviation against the
suite tolerance.  ``SUITES`` lists the nine suites in the order
``run_suites`` runs them; the CLI ``verify`` subcommand is a thin wrapper.
The package loads no scipy module, so scipy's ``quad`` is not an oracle here.

All sampling is deterministic (fixed seeds, fixed grids); random points
come from the standard library's ``random``, not ``numpy.random``, whose
import would cost more than the suite that draws them.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import gibbs_core, quantum_gas
from .gibbs_core import FockEnsembleSpec, LagrangeCoords
from .quantum_gas import GasModel, ThermoPoint
from .special_functions import (polylog, polylog_quadrature, polylog_series,
                                polylog_step_down)

__all__ = ["SuiteResult", "run_suites", "SUITES"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    tolerance: float
    max_deviation: float
    passed: bool
    detail: str = ""


def _result(name: str, tol: float, dev: float, detail: str = "") -> SuiteResult:
    return SuiteResult(name, tol, float(dev), passed=bool(dev <= tol), detail=detail)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def suite_polylog_identities() -> SuiteResult:
    """Closed forms, the order-lowering identity and series vs quadrature."""
    tol = 1e-6
    worst = 0.0
    # closed forms at integer orders
    for y in (-3.0, -0.9, -0.3, 0.3, 0.5, 0.9, 0.99):
        worst = max(worst, _rel(polylog(y, 1.0), -math.log1p(-y)))
        worst = max(worst, _rel(polylog(y, 0.0), y / (1.0 - y)))
        worst = max(worst, _rel(polylog(y, -1.0), y / (1.0 - y) ** 2))
    # derivative identity Li(y, phi-1) = y d/dy Li(y, phi) on random points
    rng = random.Random(20240817)
    for _ in range(100):
        phi = rng.uniform(0.2, 5.0)
        y = rng.uniform(-4.0, 0.95)
        if abs(y) < 1e-3:
            continue
        worst = max(worst, _rel(polylog_step_down(y, phi), polylog(y, phi - 1.0)))
    # series vs quadrature where both converge
    grid_y = (-0.9, -0.75, 0.55, 0.75, 0.9)
    grid_phi = (0.5, 1.3, 2.5, 4.0)
    for y in grid_y:
        for phi in grid_phi:
            worst = max(worst, _rel(polylog_series(y, phi), polylog_quadrature(y, phi)))
    return _result("polylog identities", tol, worst)


def suite_polylog_edge_identities() -> SuiteResult:
    """The condensation edge and the Fermi rule at y < -1, tied to other regimes."""
    tol = 1e-6
    worst = 0.0
    # condensation edge against the step-down route
    for phi in (1.5, 2.0, 2.5, 3.0, 4.0):
        y = 1.0 - 1e-6
        worst = max(worst, _rel(polylog(y, phi - 1.0), polylog_step_down(y, phi)))
    # Euler's reflection ties order 2 at the edge to the series regime
    for y in (1.0 - 1e-6, 1.0 - 1e-8):
        x = 1.0 - y  # exact, so x and y sum to one
        worst = max(worst, _rel(polylog(y, 2.0) + polylog(x, 2.0),
                                math.pi**2 / 6.0 - math.log(y) * math.log(x)))
    # Lewin's inversion formulas tie the Fermi rule at -x to the series at -1/x
    for x in (4.0, 1e2, 1e4, 1e8):
        ln, pi2 = math.log(x), math.pi**2
        worst = max(worst,
                    _rel(polylog(-x, 2.0) + polylog(-1.0 / x, 2.0), -pi2 / 6.0 - ln**2 / 2.0),
                    _rel(polylog(-x, 3.0) - polylog(-1.0 / x, 3.0), -pi2 * ln / 6.0 - ln**3 / 6.0),
                    _rel(polylog(-x, 4.0) + polylog(-1.0 / x, 4.0),
                         -7.0 * pi2**2 / 360.0 - pi2 * ln**2 / 12.0 - ln**4 / 24.0))
    # duplication Li(y) + Li(-y) = 2^(1-phi) Li(y^2) ties the edge regime
    # to the Fermi rule; y = 1 - 2^-k keeps y^2 exact
    for k in (10, 14, 20):
        y = 1.0 - 2.0**-k
        for phi in (0.3, 0.7, 1.5, 2.5, 3.3, 4.5):
            worst = max(worst, _rel(polylog(y, phi) + polylog(-y, phi),
                                    2.0 ** (1.0 - phi) * polylog(y * y, phi)))
    return _result("polylog identities", tol, worst,
                   "edge step-down, Euler's reflection, Lewin's inversion and duplication")


def _fock_fixtures() -> Iterable[FockEnsembleSpec]:
    yield FockEnsembleSpec((1.0,), "fd")
    yield FockEnsembleSpec((1.0, 2.0, 3.0), "fd")
    yield FockEnsembleSpec((0.5, 1.0, 1.5, 2.2, 3.1, 4.0), "fd")
    yield FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=200)
    yield FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=60)


def suite_fock_identities() -> SuiteResult:
    """Covariance = -Hessian F (identity 1) and g dlambda = -dA (identity 2)."""
    tol_id1, tol_id2, worst_id1, worst_id2 = 1e-8, 1e-6, 0.0, 0.0
    points = (LagrangeCoords(1.0, 0.3), LagrangeCoords(0.7, 0.9))
    steps = [(1e-4 * max(1.0, abs(at.lambda1)), 1e-4 * max(1.0, abs(at.lambda2))) for at in points]
    stencil = [at.shifted(*d) for at, (h1, h2) in zip(points, steps)
               for d in ((h1, 0.0), (-h1, 0.0), (0.0, h2), (0.0, -h2))]
    for spec in _fock_fixtures():
        hessians = gibbs_core.hessian_metric(gibbs_core.fock_free_energy_field(spec), points)
        _, _, covs = gibbs_core.fock_moments(spec, points)
        means = np.array(gibbs_core.fock_means(spec, stencil)).T.reshape(len(points), 4, 2)
        for cov, hess, (h1, h2), a in zip(covs, hessians, steps, means):
            for c, h in zip(cov.entries(), hess.entries()):
                worst_id1 = max(worst_id1, abs(c - h) / max(abs(c), 1e-30))
            # identity 2 along both axes: column n of g equals -dA/dlambda^n
            dA = np.column_stack(((a[0] - a[1]) / (2 * h1), (a[2] - a[3]) / (2 * h2)))
            g = cov.as_array()
            worst_id2 = max(worst_id2, float(np.max(np.abs(g + dA) / np.maximum(np.abs(dA), 1e-30))))
    passed = bool(worst_id1 <= tol_id1 and worst_id2 <= tol_id2)
    detail = f"identity 1 dev {worst_id1:.2e} (tol 1e-8), identity 2 dev {worst_id2:.2e} (tol 1e-6)"
    return SuiteResult("fock enumeration identities", tol_id1, float(worst_id1), passed, detail)


_GRID_BETA = (0.5, 0.875, 1.25, 1.625, 2.0)
_GRID_XI = {
    quantum_gas.FERMI_DIRAC: (0.2, 1.15, 2.1, 3.05, 4.0),
    quantum_gas.BOSE_EINSTEIN: (0.1, 0.3, 0.5, 0.7, 0.9),
    quantum_gas.BOSE_EINSTEIN_NO_GROUND: (0.1, 0.3, 0.5, 0.7, 0.9),
    quantum_gas.CLASSICAL_IDEAL: (0.2, 0.65, 1.1, 1.55, 2.0),
}


def _averages(model: GasModel, lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    # (U, N) by the public closed form, point by point: the engine's one path to a closed form
    return np.array([quantum_gas.averages(model, ThermoPoint.from_coords(LagrangeCoords(*c)))
                     for c in zip(lambda1.tolist(), lambda2.tolist())]).T


def suite_metric_oracles() -> SuiteResult:
    """Closed-form metric vs finite-difference Hessian/Jacobian, 5x5 grids."""
    tol = 1e-6
    worst = 0.0
    for stat, xis in _GRID_XI.items():
        for eta in (0.5, 2.0):
            model = GasModel(stat, eta=eta, kappa=1.0)
            points = [ThermoPoint(beta, xi) for beta in _GRID_BETA for xi in xis]
            coords = [p.to_coords() for p in points]
            oracles = (gibbs_core.jacobian_metric(functools.partial(_averages, model), coords)
                       if stat == quantum_gas.BOSE_EINSTEIN else
                       gibbs_core.hessian_metric(quantum_gas.free_energy_field(model), coords))
            for p, oracle in zip(points, oracles):
                for a, b in zip(quantum_gas.metric(model, p).entries(), oracle.entries()):
                    worst = max(worst, _rel(a, b))
    return _result("metric closed form vs difference oracle", tol, worst)


def suite_curvature_routes() -> SuiteResult:
    """Determinant route = Christoffel route = closed-form curvature."""
    tol_routes = 1e-5
    tol_closed = 1e-4
    worst_routes = 0.0
    worst_closed = 0.0
    for stat in (quantum_gas.FERMI_DIRAC, quantum_gas.BOSE_EINSTEIN,
                 quantum_gas.BOSE_EINSTEIN_NO_GROUND):
        for eta in (0.5, 2.0):
            model = GasModel(stat, eta=eta, kappa=1.0)
            samples = list(quantum_gas.geometry_grid(model, _GRID_BETA, _GRID_XI[stat]))
            for s in samples:
                if isinstance(s, Exception):
                    raise s  # as geometry_sample would have raised it
            coords = [s.point.to_coords() for s in samples]
            r_dets = gibbs_core.scalar_curvature_det(quantum_gas.metric_field(model), coords)
            r_riems = gibbs_core.scalar_curvature_riemann(quantum_gas.metric_field(model), coords)
            for s, r_det, r_riem in zip(samples, r_dets.tolist(), r_riems.tolist()):
                worst_routes = max(worst_routes, _rel(r_det, r_riem))
                worst_closed = max(worst_closed, _rel(r_det, s.R), _rel(r_riem, s.R))
    passed = bool(worst_routes <= tol_routes and worst_closed <= tol_closed)
    detail = (f"routes {worst_routes:.2e} (tol 1e-5), "
              f"vs closed form {worst_closed:.2e} (tol 1e-4)")
    return SuiteResult("curvature route equivalence", tol_routes, float(worst_routes),
                       passed, detail)


def suite_classical_flatness() -> SuiteResult:
    """R = 0 exactly in closed form and < 1e-8 numerically, 10x10 grid."""
    tol = 1e-8
    worst = 0.0
    model = GasModel(quantum_gas.CLASSICAL_IDEAL, eta=0.5, kappa=1.0)
    points = [ThermoPoint(float(beta), float(xi)) for beta in np.geomspace(0.1, 10.0, 10)
              for xi in np.linspace(0.1, 2.0, 10)]
    if any(quantum_gas.geometry_sample(model, p).R != 0.0 for p in points):
        return _result("classical flatness", tol, math.inf, "closed form not exactly 0")
    r = gibbs_core.scalar_curvature_det(quantum_gas.metric_field(model), [p.to_coords() for p in points])
    worst = max([worst, *map(abs, r.tolist())])
    return _result("classical flatness", tol, worst)


def suite_fd_negativity() -> SuiteResult:
    """R < 0 on the full Fermi grid (eta in {1/2, 2}, beta and xi sweeps)."""
    worst = -math.inf
    for eta in (0.5, 2.0):
        model = GasModel(quantum_gas.FERMI_DIRAC, eta=eta, kappa=1.0)
        for s in quantum_gas.geometry_grid(model, np.geomspace(0.1, 10.0, 20),
                                           np.linspace(0.1, 5.0, 50)):
            if isinstance(s, Exception):
                raise s  # as geometry_sample would have raised it
            worst = max(worst, s.R)
    # pass iff strictly negative everywhere; deviation is the worst (largest) R
    return SuiteResult("fermi curvature negativity", 0.0, worst, worst < 0.0,
                       f"max R over grid = {worst:.6e}")


def suite_limit_asymptotics() -> SuiteResult:
    """Small-x bundle scaling against the limit coefficients, Richardson."""
    tol = 1e-3
    worst = 0.0
    for eta in (0.5, 2.0):
        c = quantum_gas.limit_coefficients(eta)
        targets = (("A", 2, c.f), ("B", 4, c.h), ("A_c", 2, c.f_c), ("B_c", 4, c.h_c))
        for sign in (1.0, -1.0):
            xs = (sign * 1e-3, sign * 1e-4)
            bundles = [quantum_gas.det_bundle(x, eta) for x in xs]
            # the ground-state companions exist only for 0 < x < 1
            for attr, power, coeff in targets if sign > 0 else targets[:2]:
                v3, v4 = (getattr(b, attr) / x**power for b, x in zip(bundles, xs))
                # first corrections are O(x), so Richardson in x at ratio 10
                worst = max(worst, _rel((10.0 * v4 - v3) / 9.0, coeff))
        # limit formula vs geometry at small fugacity
        for beta in (0.5, 1.0, 2.0):
            for stat in (quantum_gas.FERMI_DIRAC, quantum_gas.BOSE_EINSTEIN):
                model = GasModel(stat, eta=eta, kappa=1.0)
                lim = quantum_gas.limit_curvature(model, beta)
                samp = quantum_gas.geometry_sample(model, ThermoPoint(beta, 1e-5)).R
                worst = max(worst, _rel(lim, samp))
    return _result("low-fugacity asymptotics", tol, worst)


def suite_condensation_edge() -> SuiteResult:
    """Ground-state term: divergence removed, curvature falls toward 0."""
    eta, kappa, beta = 0.5, 1.0, 1.0
    m0 = GasModel(quantum_gas.BOSE_EINSTEIN_NO_GROUND, eta=eta, kappa=kappa)
    m1 = GasModel(quantum_gas.BOSE_EINSTEIN, eta=eta, kappa=kappa)
    xis = 1.0 - np.geomspace(1.4e-6, 1e-8, 12)
    r0 = [quantum_gas.geometry_sample(m0, ThermoPoint(beta, float(x))).R for x in xis]
    r1 = [quantum_gas.geometry_sample(m1, ThermoPoint(beta, float(x))).R for x in xis]
    blow_up = r0[0] > 1e2 and all(b > a for a, b in zip(r0, r0[1:]))
    # bound frozen from the det_bundle evaluation at xi = 1 - 1e-6 (7.8e-7)
    r_at_edge = quantum_gas.geometry_sample(m1, ThermoPoint(beta, 1.0 - 1e-6)).R
    converges = (abs(r_at_edge) < 1e-5 and abs(r1[-1]) < abs(r1[0])
                 and all(b < a for a, b in zip(r1, r1[1:])))
    ok = blow_up and converges
    detail = f"R0(1-1.4e-6) = {r0[0]:.4g}, R(1-1e-6) = {r_at_edge:.4g}"
    return SuiteResult("condensation edge", 1e-5, abs(r_at_edge), ok, detail)


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "polylog": suite_polylog_identities,
    "fock": suite_fock_identities,
    "metric": suite_metric_oracles,
    "curvature": suite_curvature_routes,
    "classical": suite_classical_flatness,
    "fd-negativity": suite_fd_negativity,
    "limits": suite_limit_asymptotics,
    "polylog-edge": suite_polylog_edge_identities,
    "condensation": suite_condensation_edge,
}


def run_suites(level: str = "full") -> list[SuiteResult]:
    """Run every suite of ``SUITES``, in its order.  ``"full"`` is the only
    level."""
    if level != "full":
        raise ValueError(f"level must be 'full', got {level!r}")
    return [suite() for suite in SUITES.values()]
