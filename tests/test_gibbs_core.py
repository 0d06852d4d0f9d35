"""Geometry engine and Fock-space oracle tests.

The trinomial distribution is the strongest external anchor here: its
Fisher metric is the round metric on a sphere octant of radius 2, so the
scalar curvature must come out exactly +1/2 in the sphere-positive
convention, independent of everything gas-related.
"""
import itertools
import math

import numpy as np
import pytest

import gasgeometry.gibbs_core as gc
from gasgeometry import quantum_gas as qg
from gasgeometry.errors import (ConditioningWarning, DomainError,
                                EnumerationLimitError, SingularMetricError)
from gasgeometry.gibbs_core import (FockEnsembleSpec, FreeEnergyField,
                                    LagrangeCoords, MetricTensor2)

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


def test_free_energy_field_domain_box():
    field = FreeEnergyField(lambda c: 0.0, beta_range=(0.5, 2.0), xi_range=(0.0, 1.0))
    assert field.contains(LagrangeCoords(1.0, 0.5))
    assert not field.contains(LagrangeCoords(3.0, 0.5))
    assert not field.contains(LagrangeCoords(1.0, -0.5))  # xi > 1


# ---------------------------------------------------------------------------
# hessian metric
# ---------------------------------------------------------------------------

def test_hessian_of_bilinear_form_is_degenerate():
    field = FreeEnergyField(lambda c: -(c.lambda1 * c.lambda2))
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
    closed = qg.metric_fd(model, p)
    for a, b in zip(g.entries(), closed.entries()):
        assert a == pytest.approx(b, rel=1e-6)


def test_hessian_stencil_domain_error():
    field = FreeEnergyField(lambda c: 0.0, beta_range=(0.999, 1.001))
    with pytest.raises(DomainError):
        gc.hessian_metric(field, LagrangeCoords(1.0, 0.0))


def test_jacobian_metric_matches_hessian_for_gradient_pair():
    model = qg.GasModel("fd", eta=0.5, kappa=1.0)
    at = qg.ThermoPoint(1.2, 0.6).to_coords()

    def avg(c):
        return qg.averages(model, qg.ThermoPoint.from_coords(c))

    gj = gc.jacobian_metric(avg, at)
    gh = gc.hessian_metric(qg.free_energy_field(model), at)
    for a, b in zip(gj.entries(), gh.entries()):
        assert a == pytest.approx(b, rel=1e-6)


# Richardson-order fixtures.  One halving cancels the h^2 error of a central
# difference, leaving h^4 terms that need fifth (first differences) or sixth
# (second differences) derivatives; these vanish for the polynomials below,
# so at the coarse step 0.1 the stencils are exact up to rounding, while a
# plain central difference misses by ~1e-3 or more.  The default steps
# (h^2 ~ 1e-8) are too fine for the other tests to tell the two apart.
ORDER_STEP = 0.1


def quartic(x, y):
    return x**4 + x * x * y * y + y**4 + x * y**3


def quartic_gradient(x, y):
    return 4 * x**3 + 2 * x * y * y + y**3, 2 * x * x * y + 4 * y**3 + 3 * x * y * y


def quartic_hessian(x, y):
    return 12 * x * x + 2 * y * y, 4 * x * y + 3 * y * y, 2 * x * x + 12 * y * y + 6 * x * y


def test_stencils_are_exact_on_a_quartic_field():
    x, y = 1.0, 0.5
    at = LagrangeCoords(x, y)
    # F = -Q, so g = Hess Q is positive definite and A = dF/dlambda = -grad Q
    field = FreeEnergyField(lambda c: -quartic(c.lambda1, c.lambda2))
    grad = quartic_gradient(x, y)
    hess = quartic_hessian(x, y)

    g = gc.hessian_metric(field, at, step=ORDER_STEP)
    assert g.entries() == pytest.approx(hess, rel=1e-10, abs=1e-10)

    def avg(c):
        gx, gy = quartic_gradient(c.lambda1, c.lambda2)
        return -gx, -gy

    gj = gc.jacobian_metric(avg, at, step=ORDER_STEP)
    assert gj.entries() == pytest.approx(hess, rel=1e-10, abs=1e-10)

    s = gc.legendre_entropy(field, at, step=ORDER_STEP)
    assert s == pytest.approx(-x * grad[0] - y * grad[1] + quartic(x, y), rel=1e-10, abs=1e-10)


def test_curvature_stencils_are_exact_on_a_polynomial_metric():
    # Hessian metric of P = x^6/10 + x^3 y^3/5 + y^6/10 + x^2 + y^2: the
    # entries are quartic, their derivatives (third derivatives of P) cubic
    def metric(x, y):
        return (3 * x**4 + 1.2 * x * y**3 + 2, 1.8 * x * x * y * y,
                1.2 * x**3 * y + 3 * y**4 + 2)

    def gfield(c):
        return MetricTensor2(*metric(c.lambda1, c.lambda2))

    x, y = 1.2, 0.7
    d1g = (12 * x**3 + 1.2 * y**3, 3.6 * x * y * y, 3.6 * x * x * y)
    d2g = (3.6 * x * y * y, 3.6 * x * x * y, 1.2 * x**3 + 12 * y**3)
    g11, g12, g22 = metric(x, y)
    detg = g11 * g22 - g12 * g12
    expected = -np.linalg.det(np.array([metric(x, y), d1g, d2g])) / (2 * detg * detg)
    at = LagrangeCoords(x, y)
    assert gc.scalar_curvature_det(gfield, at, step=ORDER_STEP) == pytest.approx(
        expected, rel=1e-10)
    assert gc.scalar_curvature_riemann(gfield, at, step=ORDER_STEP) == pytest.approx(
        expected, rel=1e-10)


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def constant_metric_field(g11=2.0, g12=0.3, g22=1.0):
    return lambda c: MetricTensor2(g11, g12, g22)


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


def test_trinomial_sphere_curvature():
    # categorical family on 3 outcomes: Fisher metric = octant of a radius-2
    # sphere, scalar curvature +1/2 everywhere in this sign convention
    def F(c):
        return -math.log(1.0 + math.exp(-c.lambda1) + math.exp(-c.lambda2))

    field = FreeEnergyField(F)

    def gfield(c):
        return gc.hessian_metric(field, c, step=1e-3)

    for at in (LagrangeCoords(0.3, -0.2), LagrangeCoords(1.0, 0.5)):
        assert gc.scalar_curvature_det(gfield, at, step=2e-2) == pytest.approx(0.5, rel=2e-4)
        assert gc.scalar_curvature_riemann(gfield, at, step=2e-2) == pytest.approx(0.5, rel=2e-4)


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
            return (gfield(plus).entries()[entry] - gfield(minus).entries()[entry]) / (2 * h)

        assert d(0, 1) == pytest.approx(d(1, 0), rel=1e-6)  # d1 g12 = d2 g11
        assert d(0, 2) == pytest.approx(d(1, 1), rel=1e-6)  # d1 g22 = d2 g12


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


def test_single_level_log_partition():
    spec = FockEnsembleSpec((1.0,), "fd")
    got = gc.fock_log_partition(spec, LagrangeCoords(1.0, 1e-13))
    assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-12)


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
