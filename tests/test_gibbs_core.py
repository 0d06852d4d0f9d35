"""Geometry engine and Fock-space oracle tests.

The trinomial distribution is the strongest external anchor here: its
Fisher metric is the round metric on a sphere octant of radius 2, so the
scalar curvature must come out exactly +1/2 in the sphere-positive
convention, independent of everything gas-related.
"""
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import gasgeometry.gibbs_core as gc
from gasgeometry import quantum_gas as qg
from gasgeometry.errors import (ConditioningWarning, DomainError,
                                EnumerationLimitError, SingularMetricError)
from gasgeometry.gibbs_core import FockEnsembleSpec, LagrangeCoords, MetricTensor2

GAMMA_32 = 0.8862269254527580137
GAMMA_52 = 1.3293403881791370205
GAMMA_72 = 3.3233509704478425512


# ---------------------------------------------------------------------------
# coordinates and fields
# ---------------------------------------------------------------------------

def test_lagrange_coords_validation_and_fugacity():
    c = LagrangeCoords(2.0, math.log(2.0))
    assert c.xi == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DomainError):
        LagrangeCoords(0.0, 1.0)
    with pytest.raises(DomainError):
        LagrangeCoords(-1.0, 1.0)


_FD = qg.GasModel("fd", eta=0.5, kappa=1.0)


def averages_field(model):
    # (U, N) of the closed form as an array field, one averages call per point
    def field(lambda1, lambda2):
        return np.array([qg.averages(model, qg.ThermoPoint.from_coords(LagrangeCoords(*c)))
                         for c in zip(lambda1.tolist(), lambda2.tolist())]).T
    return field


@pytest.mark.parametrize("entry", [
    lambda at: gc.hessian_metric(qg.free_energy_field(_FD), at),
    lambda at: gc.jacobian_metric(averages_field(_FD), at),
    lambda at: gc.scalar_curvature_det(qg.metric_field(_FD), at),
    lambda at: gc.scalar_curvature_riemann(qg.metric_field(_FD), at),
    lambda at: gc.legendre_entropy(qg.free_energy_field(_FD), at),
    qg.ThermoPoint.from_coords,
], ids=["hessian_metric", "jacobian_metric", "scalar_curvature_det",
        "scalar_curvature_riemann", "legendre_entropy", "from_coords"])
def test_fugacity_past_the_double_range_is_a_domain_error(entry):
    # xi = exp(800) overflows a double: a DomainError, not a bare OverflowError
    at = LagrangeCoords(1.0, -800.0)
    assert at.xi == math.inf
    with pytest.raises(DomainError):
        entry(at)


# ---------------------------------------------------------------------------
# hessian metric
# ---------------------------------------------------------------------------

def test_hessian_of_bilinear_form_is_degenerate():
    def field(lambda1, lambda2):
        return -(lambda1 * lambda2)

    with pytest.warns(ConditioningWarning):
        g = gc.hessian_metric(field, LagrangeCoords(1.3, 0.4))
    assert g.g11 == pytest.approx(0.0, abs=1e-8)
    assert g.g12 == pytest.approx(1.0, rel=1e-8)
    assert g.g22 == pytest.approx(0.0, abs=1e-8)
    assert g.det < 0


def test_hessian_matches_classical_closed_form():
    model = qg.GasModel("classical", eta=0.5, kappa=1.0)
    field = qg.free_energy_field(model)
    g = gc.hessian_metric(field, LagrangeCoords(1.0, 0.0))  # beta=1, xi=1
    assert g.g11 == pytest.approx(GAMMA_72, rel=1e-6)
    assert g.g12 == pytest.approx(GAMMA_52, rel=1e-6)
    assert g.g22 == pytest.approx(GAMMA_32, rel=1e-6)


def test_hessian_matches_fd_closed_form():
    model = qg.GasModel("fd", eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.5)
    g = gc.hessian_metric(qg.free_energy_field(model), p.to_coords())
    closed = qg.metric(model, p)
    for a, b in zip(g.entries(), closed.entries()):
        assert a == pytest.approx(b, rel=1e-6)


def test_hessian_stencil_domain_error():
    # the centre is a valid Bose point, but the lambda2 stencil reaches xi > 1
    field = qg.free_energy_field(qg.GasModel("be", eta=0.5, kappa=1.0))
    at = qg.ThermoPoint(1.0, 1.0 - 1e-4).to_coords()
    field(np.array([at.lambda1]), np.array([at.lambda2]))
    with pytest.raises(DomainError):
        gc.hessian_metric(field, at)


def test_jacobian_metric_matches_hessian_for_gradient_pair():
    model = qg.GasModel("fd", eta=0.5, kappa=1.0)
    at = qg.ThermoPoint(1.2, 0.6).to_coords()
    gj = gc.jacobian_metric(averages_field(model), at)
    gh = gc.hessian_metric(qg.free_energy_field(model), at)
    for a, b in zip(gj.entries(), gh.entries()):
        assert a == pytest.approx(b, rel=1e-6)


# Richardson-order fixtures.  One halving cancels the h^2 error of a central
# difference, leaving h^4 terms that need fifth (first differences) or sixth
# (second differences) derivatives; these vanish for the polynomials below,
# so at the coarse step 0.1 the stencils are exact up to rounding, while a
# plain central difference misses by ~1e-3 or more.  The engine's steps
# (h^2 ~ 1e-8) are too fine for the other tests to tell the two apart.
ORDER_STEP = 0.1


@pytest.fixture
def coarse_steps(monkeypatch):
    monkeypatch.setattr(gc, "HESS_STEP", ORDER_STEP)
    monkeypatch.setattr(gc, "GRAD_STEP", ORDER_STEP)


def quartic(x, y):
    return x**4 + x * x * y * y + y**4 + x * y**3


def quartic_gradient(x, y):
    return 4 * x**3 + 2 * x * y * y + y**3, 2 * x * x * y + 4 * y**3 + 3 * x * y * y


def quartic_hessian(x, y):
    return 12 * x * x + 2 * y * y, 4 * x * y + 3 * y * y, 2 * x * x + 12 * y * y + 6 * x * y


def test_stencils_are_exact_on_a_quartic_field(coarse_steps):
    x, y = 1.0, 0.5
    at = LagrangeCoords(x, y)
    # F = -Q, so g = Hess Q is positive definite and A = dF/dlambda = -grad Q
    def field(lambda1, lambda2):
        return -quartic(lambda1, lambda2)

    grad = quartic_gradient(x, y)
    hess = quartic_hessian(x, y)

    g = gc.hessian_metric(field, at)
    assert g.entries() == pytest.approx(hess, rel=1e-10, abs=1e-10)

    def avg(lambda1, lambda2):
        gx, gy = quartic_gradient(lambda1, lambda2)
        return -gx, -gy

    gj = gc.jacobian_metric(avg, at)
    assert gj.entries() == pytest.approx(hess, rel=1e-10, abs=1e-10)

    s = gc.legendre_entropy(field, at)
    assert s == pytest.approx(-x * grad[0] - y * grad[1] + quartic(x, y), rel=1e-10, abs=1e-10)


def test_curvature_stencils_are_exact_on_a_polynomial_metric(coarse_steps):
    # Hessian metric of P = x^6/10 + x^3 y^3/5 + y^6/10 + x^2 + y^2: the
    # entries are quartic, their derivatives (third derivatives of P) cubic
    def metric(x, y):
        return (3 * x**4 + 1.2 * x * y**3 + 2, 1.8 * x * x * y * y,
                1.2 * x**3 * y + 3 * y**4 + 2)

    x, y = 1.2, 0.7
    d1g = (12 * x**3 + 1.2 * y**3, 3.6 * x * y * y, 3.6 * x * x * y)
    d2g = (3.6 * x * y * y, 3.6 * x * x * y, 1.2 * x**3 + 12 * y**3)
    g11, g12, g22 = metric(x, y)
    detg = g11 * g22 - g12 * g12
    expected = -np.linalg.det(np.array([metric(x, y), d1g, d2g])) / (2 * detg * detg)
    at = LagrangeCoords(x, y)
    assert gc.scalar_curvature_det(metric, at) == pytest.approx(expected, rel=1e-10)
    assert gc.scalar_curvature_riemann(metric, at) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def constant_metric_field(g11=2.0, g12=0.3, g22=1.0):
    return lambda lambda1, lambda2: tuple(np.full_like(lambda1, g) for g in (g11, g12, g22))


def test_constant_metric_has_zero_curvature():
    at = LagrangeCoords(1.0, 0.2)
    assert gc.scalar_curvature_det(constant_metric_field(), at) == 0.0
    assert gc.scalar_curvature_riemann(constant_metric_field(), at) == 0.0


def test_classical_gas_is_flat():
    model = qg.GasModel("classical", eta=0.5, kappa=1.0)
    at = qg.ThermoPoint(1.0, 0.7).to_coords()
    assert abs(gc.scalar_curvature_det(qg.metric_field(model), at)) < 1e-8


def test_fd_curvature_routes_match_closed_form():
    model = qg.GasModel("fd", eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.5)
    gfield = qg.metric_field(model)
    r_det = gc.scalar_curvature_det(gfield, p.to_coords())
    r_riem = gc.scalar_curvature_riemann(gfield, p.to_coords())
    r_closed = qg.geometry_sample(model, p).R
    assert r_det == pytest.approx(r_closed, rel=1e-5)
    assert r_riem == pytest.approx(r_det, rel=1e-5)


def test_be_ground_state_curvature_route():
    model = qg.GasModel("be", eta=2.0, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.9)
    r_riem = gc.scalar_curvature_riemann(qg.metric_field(model), p.to_coords())
    assert r_riem == pytest.approx(qg.geometry_sample(model, p).R, rel=1e-4)


def test_trinomial_sphere_curvature(monkeypatch):
    # categorical family on 3 outcomes: Fisher metric = octant of a radius-2
    # sphere, scalar curvature +1/2 everywhere in this sign convention
    monkeypatch.setattr(gc, "HESS_STEP", 1e-3)
    monkeypatch.setattr(gc, "GRAD_STEP", 2e-2)

    def F(lambda1, lambda2):
        return -np.log(1.0 + np.exp(-lambda1) + np.exp(-lambda2))

    def gfield(lambda1, lambda2):
        gs = gc.hessian_metric(F, [LagrangeCoords(*c) for c in zip(lambda1.tolist(), lambda2.tolist())])
        return np.array([g.entries() for g in gs]).T

    for at in (LagrangeCoords(0.3, -0.2), LagrangeCoords(1.0, 0.5)):
        assert gc.scalar_curvature_det(gfield, at) == pytest.approx(0.5, rel=2e-4)
        assert gc.scalar_curvature_riemann(gfield, at) == pytest.approx(0.5, rel=2e-4)


def test_singular_metric_raises():
    field = constant_metric_field(1.0, 2.0, 1.0)  # det = -3
    with pytest.raises(SingularMetricError):
        gc.scalar_curvature_det(field, LagrangeCoords(1.0, 0.0))
    with pytest.raises(SingularMetricError):
        gc.scalar_curvature_riemann(field, LagrangeCoords(1.0, 0.0))


def test_hessian_symmetry_of_gas_metric_derivatives():
    # d_sigma g_mu_nu must be symmetric under (sigma <-> nu) for every
    # closed-form gas metric; checked with plain central differences
    for stat, xi in (("fd", 1.5), ("be", 0.6), ("be0", 0.6), ("classical", 0.8)):
        model = qg.GasModel(stat, eta=0.7, kappa=1.3)
        gfield = qg.metric_field(model)
        at = qg.ThermoPoint(0.9, xi).to_coords()
        h = 1e-4

        def d(axis, entry):
            plus = at.shifted(h, 0.0) if axis == 0 else at.shifted(0.0, h)
            minus = at.shifted(-h, 0.0) if axis == 0 else at.shifted(0.0, -h)
            g = gfield(np.array([plus.lambda1, minus.lambda1]),
                       np.array([plus.lambda2, minus.lambda2]))[entry]
            return (g[0] - g[1]) / (2 * h)

        assert d(0, 1) == pytest.approx(d(1, 0), rel=1e-6)  # d1 g12 = d2 g11
        assert d(0, 2) == pytest.approx(d(1, 1), rel=1e-6)  # d1 g22 = d2 g12


# ---------------------------------------------------------------------------
# batches: a sequence of points is one field call with the bits of each point
# ---------------------------------------------------------------------------

_BATCH = [qg.ThermoPoint(beta, xi).to_coords() for beta in (0.6, 1.0, 1.7) for xi in (0.2, 0.5, 0.8)]


def entry_points(model):
    F, G = qg.free_energy_field(model), qg.metric_field(model)
    return {
        "hessian_metric": lambda at: gc.hessian_metric(F, at),
        "jacobian_metric": lambda at: gc.jacobian_metric(averages_field(model), at),
        "scalar_curvature_det": lambda at: gc.scalar_curvature_det(G, at),
        "scalar_curvature_riemann": lambda at: gc.scalar_curvature_riemann(G, at),
        "legendre_entropy": lambda at: gc.legendre_entropy(F, at),
    }


def hexes(value):
    if isinstance(value, MetricTensor2):
        return value.g11.hex(), value.g12.hex(), value.g22.hex()
    return float(value).hex()


@pytest.mark.parametrize("stat", ["fd", "be"])
def test_one_point_gives_python_floats(stat):
    at = qg.ThermoPoint(1.0, 0.5).to_coords()
    for name, entry in entry_points(qg.GasModel(stat, eta=0.5, kappa=1.0)).items():
        got = entry(at)
        values = (got.g11, got.g12, got.g22) if isinstance(got, MetricTensor2) else (got,)
        assert all(type(v) is float for v in values), (name, got)


@pytest.mark.parametrize("eta", [0.5, 2.0])
@pytest.mark.parametrize("stat", ["fd", "be", "be0", "classical"])
def test_a_batch_has_the_bits_of_its_points(stat, eta):
    for name, entry in entry_points(qg.GasModel(stat, eta=eta, kappa=1.0)).items():
        batch = entry(_BATCH)
        assert len(batch) == len(_BATCH), name
        assert [hexes(v) for v in batch] == [hexes(entry(at)) for at in _BATCH], name


def scalar_engine(model, at):
    # the point-by-point engine the batch one replaced, on the scalar closed
    # forms in Python floats, in the same operation order
    def F(l1, l2):
        return qg.free_energy(model, qg.ThermoPoint.from_coords(LagrangeCoords(l1, l2)))

    def G(l1, l2):
        return qg.metric(model, qg.ThermoPoint.from_coords(LagrangeCoords(l1, l2))).entries()

    def A(l1, l2):
        return np.array(qg.averages(model, qg.ThermoPoint.from_coords(LagrangeCoords(l1, l2))))

    def richardson(estimate):
        return (4.0 * estimate(0.5) - estimate(1.0)) / 3.0

    def d1(f, h, axis):
        def estimate(c):
            s = c * h
            plus, minus = ((s, 0.0), (-s, 0.0)) if axis == 0 else ((0.0, s), (0.0, -s))
            return (f(x + plus[0], y + plus[1]) - f(x + minus[0], y + minus[1])) / (2.0 * s)
        return richardson(estimate)

    x, y = at.lambda1, at.lambda2
    h1, h2 = (gc.HESS_STEP * max(1.0, abs(v)) for v in (x, y))
    f0 = F(x, y)
    g11 = -richardson(lambda c: (F(x + c * h1, y + 0.0) - 2.0 * f0 + F(x + -(c * h1), y + 0.0))
                      / ((c * h1) * (c * h1)))
    g22 = -richardson(lambda c: (F(x + 0.0, y + c * h2) - 2.0 * f0 + F(x + 0.0, y + -(c * h2)))
                      / ((c * h2) * (c * h2)))
    g12 = -richardson(lambda c: (F(x + c * h1, y + c * h2) - F(x + c * h1, y - c * h2)
                                 - F(x - c * h1, y + c * h2) + F(x - c * h1, y - c * h2))
                      / (4.0 * (c * h1) * (c * h2)))
    h1, h2 = (gc.GRAD_STEP * max(1.0, abs(v)) for v in (x, y))
    (du1, dn1), (du2, dn2) = d1(A, h1, 0), d1(A, h2, 1)
    g0, dg = G(x, y), (d1(G, h1, 0), d1(G, h2, 1))
    detg = g0[0] * g0[2] - g0[1] * g0[1]
    ginv = np.array([[g0[2], -g0[1]], [-g0[1], g0[0]]]) / detg
    r1212 = 0.0
    for o in range(2):
        for w in range(2):
            r1212 += ginv[o, w] * (dg[o][1] * dg[w][1] - dg[o][0] * dg[w][2])
    return {
        "hessian_metric": MetricTensor2(g11, g12, g22),
        "jacobian_metric": MetricTensor2(-du1, -0.5 * (dn1 + du2), -dn2),
        "scalar_curvature_det": -np.linalg.det(np.array([g0, *dg])) / (2.0 * detg * detg),
        "scalar_curvature_riemann": 2.0 * (r1212 * 0.25) / detg,
        "legendre_entropy": x * d1(F, h1, 0) + y * d1(F, h2, 1) - f0,
    }


@pytest.mark.parametrize("eta", [0.5, 2.0])
@pytest.mark.parametrize("stat", ["fd", "be", "be0", "classical"])
def test_a_batch_has_the_bits_of_the_point_by_point_engine(stat, eta):
    model = qg.GasModel(stat, eta=eta, kappa=1.0)
    reference = [scalar_engine(model, at) for at in _BATCH]
    for name, entry in entry_points(model).items():
        assert [hexes(v) for v in entry(_BATCH)] == [hexes(r[name]) for r in reference], name


@pytest.mark.parametrize("spec", [FockEnsembleSpec((0.5, 1.0, 1.5, 2.2, 3.1, 4.0), "fd"),
                                  FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=60)],
                         ids=lambda s: s.statistics)
def test_a_fock_batch_has_the_bits_of_its_points(spec):
    field = gc.fock_free_energy_field(spec)
    points = [LagrangeCoords(1.0, 0.3), LagrangeCoords(0.7, 0.9)]
    batch = gc.hessian_metric(field, points)
    assert [hexes(g) for g in batch] == [hexes(gc.hessian_metric(field, at)) for at in points]


@pytest.mark.parametrize("name", list(entry_points(_FD)))
def test_a_batch_with_one_point_outside_the_domain_raises(name):
    entry = entry_points(qg.GasModel("be", eta=0.5, kappa=1.0))[name]
    entry(_BATCH)
    with pytest.raises(DomainError):
        entry([*_BATCH, qg.ThermoPoint(1.0, 1.5).to_coords()])  # Bose xi > 1


@pytest.mark.parametrize("lambda1, lambda2", [(-1.0, 0.3), (0.0, 0.3), (math.nan, 0.3),
                                               (1.0, math.nan), (1.0, math.inf)])
def test_a_fock_field_called_outside_the_domain_raises(lambda1, lambda2):
    # as free_energy_field does: the finite Fermi ensemble has a value at any
    # lambda1, but the field's domain is the finite coordinates with lambda1 > 0
    field = gc.fock_free_energy_field(FockEnsembleSpec((1.0, 2.0), "fd"))
    field(np.array([1.0]), np.array([0.3]))
    with pytest.raises(DomainError):
        field(np.array([1.0, lambda1]), np.array([0.3, lambda2]))


def test_a_fock_batch_with_one_point_outside_the_domain_raises():
    field = gc.fock_free_energy_field(FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=60))
    with pytest.raises(DomainError):  # xi exp(-beta eps_1) > 1 at the last point
        gc.hessian_metric(field, [LagrangeCoords(1.0, 0.3), LagrangeCoords(1.0, -2.0)])
    with pytest.raises(DomainError):
        field(np.array([1.0, 1.0]), np.array([0.3, -2.0]))


# ---------------------------------------------------------------------------
# Legendre entropy
# ---------------------------------------------------------------------------

def test_entropy_single_fermi_level():
    spec = FockEnsembleSpec((1.0,), "fd")
    at = LagrangeCoords(1.0, 1e-13)
    expected = math.log(1.0 + math.exp(-1.0)) + math.exp(-1.0) / (1.0 + math.exp(-1.0))
    assert expected == pytest.approx(0.5822031088882180, rel=1e-12)
    s_legendre = gc.legendre_entropy(gc.fock_free_energy_field(spec), at)
    s_enum = gc.fock_entropy(spec, at)
    assert s_legendre == pytest.approx(expected, rel=1e-8)
    assert s_enum == pytest.approx(expected, rel=1e-12)
    assert s_legendre == pytest.approx(s_enum, abs=1e-8)


def test_entropy_of_empty_ensemble_is_zero():
    spec = FockEnsembleSpec((), "fd")
    at = LagrangeCoords(1.0, 0.3)
    assert gc.fock_entropy(spec, at) == 0.0
    assert gc.legendre_entropy(gc.fock_free_energy_field(spec), at) == pytest.approx(0.0, abs=1e-12)
    # one joint state at any cap: no occupancy axis of 1e300 + 1 entries is made
    huge = FockEnsembleSpec((), "be", be_occupancy_cap=1e300)
    assert gc.fock_moments(huge, at) == (0.0, 0.0, MetricTensor2(0.0, 0.0, 0.0))
    assert gc.fock_entropy(huge, at) == 0.0


def test_entropy_classical_gas_analytic_cross_check():
    # S = beta U + lambda2 N - F with the analytic gradient of the
    # classical free energy F = -kappa Gamma(3/2) xi / beta^(3/2)
    model = qg.GasModel("classical", eta=0.5, kappa=1.0)
    beta, xi = 1.0, 1.0
    u = GAMMA_52 * xi / beta**2.5
    n = GAMMA_32 * xi / beta**1.5
    f = -GAMMA_32 * xi / beta**1.5
    expected = beta * u + (-math.log(xi)) * n - f
    at = qg.ThermoPoint(beta, xi).to_coords()
    got = gc.legendre_entropy(qg.free_energy_field(model), at)
    assert got == pytest.approx(expected, rel=1e-7)


# ---------------------------------------------------------------------------
# Fock enumeration oracle
# ---------------------------------------------------------------------------

def test_fock_spec_validation():
    with pytest.raises(DomainError):
        FockEnsembleSpec((1.0, -0.5), "fd")
    with pytest.raises(DomainError):
        FockEnsembleSpec((1.0,), "maxwell")
    with pytest.raises(DomainError):
        FockEnsembleSpec((1.0,), "be", be_occupancy_cap=0)
    with pytest.raises(EnumerationLimitError):
        FockEnsembleSpec((1.0, 2.0, 3.0), "be", be_occupancy_cap=300)  # 301^3 > 1e7


@pytest.mark.parametrize("cap, error", [(2.5, DomainError), (math.nan, DomainError),
                                        (1e300, EnumerationLimitError), (math.inf, DomainError)])
def test_occupancy_cap_is_a_whole_number_within_the_budget(cap, error):
    # a fractional cap once enumerated cap 3 while the product form used
    # 2.5; nan and 1e300 escaped as bare ValueError and OverflowError
    with pytest.raises(error):
        FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=cap)
    assert FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=60.0).be_occupancy_cap == 60


def test_single_level_log_partition():
    spec = FockEnsembleSpec((1.0,), "fd")
    got = gc.fock_log_partition(spec, LagrangeCoords(1.0, 1e-13))
    assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-12)


def test_fermi_product_past_the_double_range_stays_finite():
    # xi = exp(800) overflows q_i, but not log(1 + q_i); every level is full
    spec = FockEnsembleSpec((1.0, 2.0), "fd")
    at = LagrangeCoords(1.0, -800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert gc.fock_log_partition(spec, at) == pytest.approx(1597.0, rel=1e-12)
        with pytest.warns(ConditioningWarning):
            g = gc.hessian_metric(gc.fock_free_energy_field(spec), at)
        with pytest.raises(DomainError):  # a Bose level there has q_i > 1
            gc.fock_log_partition(FockEnsembleSpec((1.0, 2.0), "be"), at)
    assert np.all(np.isfinite(g.entries()))


def test_be_truncated_vs_closed_form():
    spec = FockEnsembleSpec((1.0,), "be", be_occupancy_cap=200)
    at = LagrangeCoords(1.0, -math.log(0.5))  # xi = 0.5
    truncated = gc.fock_log_partition(spec, at)
    closed = -math.log1p(-0.5 * math.exp(-1.0))
    tail = gc.fock_be_tail_bound(spec, at)
    assert abs(truncated - closed) <= max(tail, 1e-12)
    assert truncated == pytest.approx(closed, abs=1e-12)


def test_three_level_product_equals_explicit_enumeration():
    # 8-state brute force written out independently of the library paths
    energies = (1.0, 2.0, 3.0)
    beta, lam2 = 0.7, -math.log(0.3)
    z = 0.0
    for occ in itertools.product((0, 1), repeat=3):
        a1 = sum(e * x for e, x in zip(energies, occ))
        a2 = sum(occ)
        z += math.exp(-beta * a1 - lam2 * a2)
    spec = FockEnsembleSpec(energies, "fd")
    got = gc.fock_log_partition(spec, LagrangeCoords(beta, lam2))
    assert got == pytest.approx(math.log(z), rel=1e-14)


def test_be_cap_independence_precondition():
    spec = FockEnsembleSpec((0.0,), "be")  # ground level: needs xi < 1
    with pytest.raises(DomainError):
        gc.fock_log_partition(spec, LagrangeCoords(1.0, -0.1))  # xi > 1


@pytest.mark.parametrize("oracle", [gc.fock_log_partition, gc.fock_moments, gc.fock_entropy],
                         ids=lambda f: f.__name__)
def test_every_bose_oracle_rejects_a_level_ratio_above_one(oracle):
    # q = xi exp(-beta eps) = exp(0.5) on the lower level: the enumerated
    # values would depend on the occupancy cap
    spec = FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=60)
    with pytest.raises(DomainError):
        oracle(spec, LagrangeCoords(1.0, -1.5))


def test_single_level_moments():
    spec = FockEnsembleSpec((1.0,), "fd")
    u, n, cov = gc.fock_moments(spec, LagrangeCoords(1.0, 1e-13))
    expected_n = 1.0 / (math.e + 1.0)
    assert n == pytest.approx(expected_n, rel=1e-12)
    assert n == pytest.approx(0.268941, abs=1e-6)
    assert cov.g22 == pytest.approx(expected_n * (1.0 - expected_n), rel=1e-12)
    assert cov.g22 == pytest.approx(0.196612, abs=1e-6)


def test_equal_energies_make_u_proportional_to_n():
    spec = FockEnsembleSpec((1.7, 1.7, 1.7), "fd")
    u, n, _ = gc.fock_moments(spec, LagrangeCoords(0.8, 0.2))
    assert u == pytest.approx(1.7 * n, rel=1e-14)


def test_be_covariance_equals_hessian():
    spec = FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=100)
    at = LagrangeCoords(1.0, -math.log(0.4))
    _, _, cov = gc.fock_moments(spec, at)
    hess = gc.hessian_metric(gc.fock_free_energy_field(spec), at)
    for c, h in zip(cov.entries(), hess.entries()):
        assert c == pytest.approx(h, rel=1e-8)


def test_identity2_lowering_on_fock_ensemble():
    # g . e_n = -dA/dlambda^n entrywise, central differences of (U, N)
    spec = FockEnsembleSpec((0.5, 1.0, 1.5), "fd")
    at = LagrangeCoords(1.1, 0.4)
    _, _, cov = gc.fock_moments(spec, at)
    g = cov.as_array()
    h = 1e-4

    def avg(c):
        u, n, _ = gc.fock_moments(spec, c)
        return np.array([u, n])

    for axis in range(2):
        dplus = at.shifted(h, 0.0) if axis == 0 else at.shifted(0.0, h)
        dminus = at.shifted(-h, 0.0) if axis == 0 else at.shifted(0.0, -h)
        dA = (avg(dplus) - avg(dminus)) / (2 * h)
        assert np.allclose(g[:, axis], -dA, rtol=1e-6, atol=1e-12)


def test_positive_definiteness_on_physical_points():
    for spec in (FockEnsembleSpec((0.5, 1.5, 2.5), "fd"),
                 FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=80)):
        for at in (LagrangeCoords(0.7, 0.5), LagrangeCoords(1.5, 1.0)):
            _, _, cov = gc.fock_moments(spec, at)
            assert cov.g11 > 0.0
            assert cov.det > 0.0


# ---------------------------------------------------------------------------
# blocked enumeration against the full-array reference
# ---------------------------------------------------------------------------
#
# The oracles sum the joint states in blocks of gc._BLOCK, shifted by the
# largest logit, and take the sums over a block from its row and column
# totals.  The reference below is the full-array form: one logits array the
# size of the state space, one logsumexp and one dot product per moment.
# Only the order of summation differs, so the two agree to a few ulps;
# 1e-14 leaves room for the 226,981-state sums.

def _reference_statistics(spec):
    # a1 = sum_i eps_i x_i (energy) and a2 = sum_i x_i (number) of every
    # joint state, the last level varying fastest, as two state-sized arrays
    occ = np.arange(spec.occupancy_count, dtype=float)
    a1 = a2 = np.zeros(1)
    for eps in spec.energies:
        a1, a2 = np.add.outer(a1, eps * occ).ravel(), np.add.outer(a2, occ).ravel()
    return a1, a2


def _reference_logsumexp(a):
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))


def _reference_log_rho(spec, at):
    if spec.statistics == "be":
        gc._bose_ratios(spec, at.lambda1, at.lambda2)
    a1, a2 = _reference_statistics(spec)
    logits = -at.lambda1 * a1 - at.lambda2 * a2
    return logits - _reference_logsumexp(logits)


def _reference_log_partition(spec, at):
    # the enumerated half of fock_log_partition
    a1, a2 = _reference_statistics(spec)
    return _reference_logsumexp(-at.lambda1 * a1 - at.lambda2 * a2)


def _reference_moments(spec, at):
    rho = np.exp(_reference_log_rho(spec, at))
    a1, a2 = _reference_statistics(spec)
    u, n = float(rho @ a1), float(rho @ a2)
    da1, da2 = a1 - u, a2 - n
    return u, n, MetricTensor2(float(rho @ (da1 * da1)), float(rho @ (da1 * da2)),
                               float(rho @ (da2 * da2)))


def _reference_entropy(spec, at):
    logrho = _reference_log_rho(spec, at)
    return float(-np.sum(np.exp(logrho) * logrho))


_BLOCK_SPECS = [
    FockEnsembleSpec((), "fd"),                                      # 1 state, entropy 0.0
    FockEnsembleSpec((0.5, 1.0, 1.5, 2.2, 3.1, 4.0), "fd"),          # 64
    FockEnsembleSpec(tuple(0.1 * k for k in range(1, 14)), "fd"),    # 8,192: one block
    FockEnsembleSpec((0.5,), "be", be_occupancy_cap=8192),           # 8,193: one state over
    FockEnsembleSpec((0.9, 1.7), "be", be_occupancy_cap=127),        # 16,384: two blocks
    FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=200),        # 40,401
    FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=60),    # 226,981
]


def _close(a, b):
    return abs(a - b) <= 1e-14 * max(abs(a), abs(b))


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=lambda s: f"{s.statistics}-{s.state_count}")
def test_blocked_enumeration_matches_the_full_array_reference(spec):
    assert gc._BLOCK == 8192
    points = [LagrangeCoords(1.0, 0.3), LagrangeCoords(0.7, 0.9)]
    if spec.statistics == "fd":
        points.append(LagrangeCoords(1.0, -800.0))  # logits far past exp's range
    for at in points:
        u, n, cov = gc.fock_moments(spec, at)
        ru, rn, rcov = _reference_moments(spec, at)
        for got, want in zip((u, n, *cov.entries()), (ru, rn, *rcov.entries())):
            assert _close(got, want), (at, got, want)
        enumerated = gc._enumerate(spec, at)[1]
        assert _close(enumerated[0, 0], _reference_log_partition(spec, at))
        assert gc.fock_log_partition(spec, at) == gc._product_log_partition(spec, at.lambda1,
                                                                            at.lambda2)
        assert _close(gc.fock_entropy(spec, at), _reference_entropy(spec, at))


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=lambda s: f"{s.statistics}-{s.state_count}")
def test_fock_means_are_the_bits_of_fock_moments(spec):
    points = [LagrangeCoords(1.0, 0.3), LagrangeCoords(0.7, 0.9)]
    if spec.statistics == "fd":
        points.append(LagrangeCoords(1.0, -800.0))
    for at in points:
        got = [v.hex() for v in gc.fock_means(spec, at)]
        assert got == [v.hex() for v in gc.fock_moments(spec, at)[:2]], at


def _hexes_of(result, i=None):
    # float.hex of each value an oracle returned: for one point, or for point i of a batch
    if isinstance(result, tuple):
        return tuple(_hexes_of(r, i) for r in result)
    return hexes(result if i is None else result[i])


_BATCH_POINTS = [LagrangeCoords(1.0, 0.3), LagrangeCoords(0.7, 0.9), LagrangeCoords(1.3, 0.5),
                 LagrangeCoords(0.9, 1.7), LagrangeCoords(2.0, 0.1), LagrangeCoords(0.8, 0.4),
                 LagrangeCoords(1.1, 2.5), LagrangeCoords(0.6, 1.2)]
# one level of 2,000,001 occupancies; ratios q just under 1, so no weight underflows
_LONE_POINTS = [LagrangeCoords(b, -0.5 * b + d) for b, d in itertools.product(
    (0.5, 1.0, 2.0, 4.0), (1e-5, 1e-4))]


@pytest.mark.parametrize("oracle", [gc.fock_log_partition, gc.fock_moments, gc.fock_means,
                                    gc.fock_entropy], ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec, points", [
    (FockEnsembleSpec((0.5, 1.0, 1.5, 2.2, 3.1, 4.0), "fd"),
     [*_BATCH_POINTS[:3], LagrangeCoords(1.0, -800.0), *_BATCH_POINTS[4:]]),
    (FockEnsembleSpec((1.0, 2.0), "be", be_occupancy_cap=200), _BATCH_POINTS),
    (FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=60), _BATCH_POINTS),
    (FockEnsembleSpec((0.5,), "be", be_occupancy_cap=2_000_000), _LONE_POINTS),
], ids=lambda v: f"{v.statistics}-{v.state_count}" if isinstance(v, FockEnsembleSpec) else "")
def test_a_fock_oracle_batch_has_the_bits_of_its_points(oracle, spec, points):
    # one sweep serves a batch, each point reduced by its own rows: a point's
    # values do not depend on the points that share its call
    want = [_hexes_of(oracle(spec, at)) for at in points]
    for size in (1, 2, 8):
        for lo in range(0, len(points), size):
            got = oracle(spec, points[lo:lo + size])
            assert [_hexes_of(got, i) for i in range(size)] == want[lo:lo + size], (size, lo)


def test_a_fock_oracle_gives_floats_for_a_point_and_arrays_for_a_sequence():
    spec = FockEnsembleSpec((1.0, 2.0, 3.0), "fd")
    at = LagrangeCoords(1.0, 0.3)
    u, n, cov = gc.fock_moments(spec, at)
    assert {type(v) for v in (u, n, *vars(cov).values(), *gc.fock_means(spec, at),
                              gc.fock_log_partition(spec, at), gc.fock_entropy(spec, at))} == {float}
    u, n, covs = gc.fock_moments(spec, [at, at])
    assert isinstance(u, np.ndarray) and isinstance(n, np.ndarray) and len(covs) == 2
    assert all(isinstance(v, np.ndarray) and v.shape == (2,) for v in (
        *gc.fock_means(spec, [at, at]), gc.fock_log_partition(spec, [at, at]),
        gc.fock_entropy(spec, [at, at])))


def _hex_moments(spec, at):
    u, n, cov = gc.fock_moments(spec, at)
    return [v.hex() for v in (u, n, *cov.entries().tolist())]


def test_concurrent_callers_get_the_bits_of_serial_calls():
    # more threads than cores, switching every microsecond: no call shares a
    # buffer or a table with another, so each returns what it does alone
    at = LagrangeCoords(1.0, 0.3)
    specs = [FockEnsembleSpec(tuple(0.1 * k for k in range(1, m)), "fd") for m in (7, 8, 9, 15)]
    want = {spec: _hex_moments(spec, at) for spec in specs}
    errors = []

    def work(offset):
        try:
            for i in range(100):
                spec = specs[(i + offset) % len(specs)]
                assert _hex_moments(spec, at) == want[spec], spec
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors


@pytest.mark.parametrize("spec", [
    FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=60),   # 226,981 states
    FockEnsembleSpec((0.8, 1.3, 2.1), "be", be_occupancy_cap=200),  # criterion 8: 8,120,601
    FockEnsembleSpec((0.5,), "be", be_occupancy_cap=2_000_000),     # one level, 2,000,001
], ids=lambda s: f"{len(s.energies)}x{s.occupancy_count}")
def test_fock_oracles_allocate_no_state_sized_temporary(spec):
    # each call builds its own level tables and a work array of a block per
    # point of a group of at most 8, at most about 2.3 MB at any state count
    # or batch size; the statistics of all joint states would take 16 bytes
    # per state (130 MB at 8.1M).  The batch's ratios q lie just under 1, so
    # no weight underflows and exp keeps its fast path on 65M joint states
    batch = [LagrangeCoords(b, -0.5 * b + 1e-4) for b in np.linspace(0.1, 0.8, 8).tolist()]
    for at in (LagrangeCoords(1.0, 0.3), batch):
        for oracle in (gc.fock_moments, gc.fock_means, gc.fock_log_partition, gc.fock_entropy):
            tracemalloc.start()
            try:
                oracle(spec, at)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, (oracle.__name__, peak)
