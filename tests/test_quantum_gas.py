"""Closed-form gas thermodynamics and geometry tests.

Independent oracles used here: direct quadrature of the continuous
energy integrals (scipy, no polylog involved), finite-difference
Hessians/Jacobians from the geometry engine, and frozen mpmath values.
"""
import math
import warnings
from dataclasses import FrozenInstanceError

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import gasgeometry.gibbs_core as gc
import gasgeometry.quantum_gas as qg
from gasgeometry.errors import (ConditioningWarning, DomainError, PolylogOverflowError,
                                SingularMetricError)
from gasgeometry.special_functions import gamma_real, polylog

GAMMA_32 = 0.8862269254527580137


def quad_average(eta, kappa, beta, xi, power, sign):
    """kappa * int eps^(eta+power) / (e^(beta eps)/xi + sign) deps.

    sign = +1 is the Fermi factor, -1 the Bose factor; straight QUADPACK
    on the defining integral, no polylogarithms.
    """
    def integrand(eps):
        q = xi * math.exp(-beta * eps)
        return eps ** (eta + power) * q / (1.0 + sign * q)

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    return kappa * val


# ---------------------------------------------------------------------------
# model and point validation
# ---------------------------------------------------------------------------

def test_gas_model_validation():
    with pytest.raises(DomainError):
        qg.GasModel("fd", eta=-1.0)
    with pytest.raises(DomainError):
        qg.GasModel("fd", eta=-1.5)
    with pytest.raises(DomainError):
        qg.GasModel("fd", kappa=0.0)
    with pytest.raises(DomainError):
        qg.GasModel("bose")
    with pytest.raises(FrozenInstanceError):
        qg.GasModel("fd").eta = 2.0


def test_thermo_point_validation_and_coords():
    with pytest.raises(DomainError):
        qg.ThermoPoint(0.0, 0.5)
    with pytest.raises(DomainError):
        qg.ThermoPoint(1.0, 0.0)
    p = qg.ThermoPoint(2.0, 0.25)
    at = p.to_coords()
    assert at.lambda2 == pytest.approx(math.log(4.0), rel=1e-15)
    back = qg.ThermoPoint.from_coords(at)
    assert (back.beta, back.xi) == (pytest.approx(2.0), pytest.approx(0.25))


def test_bose_requires_fugacity_below_one():
    model = qg.GasModel("be", eta=0.5)
    with pytest.raises(DomainError):
        qg.free_energy(model, qg.ThermoPoint(1.0, 1.0))
    with pytest.raises(DomainError):
        qg.geometry_sample(model, qg.ThermoPoint(1.0, 1.2))


# ---------------------------------------------------------------------------
# free energy and averages
# ---------------------------------------------------------------------------

def test_free_energy_small_fugacity_leading_term():
    model = qg.GasModel("fd", eta=0.7, kappa=2.0)
    p = qg.ThermoPoint(1.3, 1e-6)
    lead = -model.kappa * qg.gamma_real(model.eta + 1.0) * p.xi / p.beta ** (model.eta + 1.0)
    assert qg.free_energy(model, p) == pytest.approx(lead, rel=1e-5)


def test_free_energy_bose_frozen_value_and_quadrature():
    model = qg.GasModel("be0", eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.5)
    f = qg.free_energy(model, p)
    assert f == pytest.approx(-0.4918535319524683288, rel=1e-10)  # -Gamma(3/2) Li(0.5, 5/2)

    # continuous-approximation integral, evaluated directly
    def integrand(eps):
        return eps**0.5 * math.log1p(-p.xi * math.exp(-p.beta * eps))

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert f == pytest.approx(val, rel=1e-10)
    # the ground level at zero energy adds its own log(1 - xi)
    ground = qg.GasModel("be", eta=0.5, kappa=1.0)
    assert qg.free_energy(ground, p) == f + math.log1p(-p.xi)


def test_free_energy_classical_value():
    model = qg.GasModel("classical", eta=0.5, kappa=1.0)
    f = qg.free_energy(model, qg.ThermoPoint(1.0, 1.0))
    assert f == pytest.approx(-GAMMA_32, rel=1e-12)
    assert f == pytest.approx(-0.886227, abs=1e-6)


@pytest.mark.parametrize("stat", sorted(qg.STATISTICS))
def test_free_energy_gradient_reproduces_averages(stat):
    # dF/dlambda^mu must equal (U, N); pins the coefficient of F
    model = qg.GasModel(stat, eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.1, 0.6)
    at = p.to_coords()
    field = qg.free_energy_field(model)
    h = 1e-5

    def d(axis):
        plus = at.shifted(h, 0.0) if axis == 0 else at.shifted(0.0, h)
        minus = at.shifted(-h, 0.0) if axis == 0 else at.shifted(0.0, -h)
        f = field(np.array([plus.lambda1, minus.lambda1]), np.array([plus.lambda2, minus.lambda2]))
        return (f[0] - f[1]) / (2 * h)

    u, n = qg.averages(model, p)
    assert d(0) == pytest.approx(u, rel=1e-8)
    assert d(1) == pytest.approx(n, rel=1e-8)


def test_averages_small_fugacity_and_fd_quadrature():
    model = qg.GasModel("be0", eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.0, 1e-7)
    _, n = qg.averages(model, p)
    assert n == pytest.approx(GAMMA_32 * p.xi, rel=1e-6)

    fd = qg.GasModel("fd", eta=0.5, kappa=1.0)
    pt = qg.ThermoPoint(2.0, 0.7)
    u, n = qg.averages(fd, pt)
    assert u == pytest.approx(quad_average(0.5, 1.0, 2.0, 0.7, 1.0, +1.0), rel=1e-9)
    assert n == pytest.approx(quad_average(0.5, 1.0, 2.0, 0.7, 0.0, +1.0), rel=1e-9)
    assert u == pytest.approx(0.1480423817230051158, rel=1e-10)  # frozen mpmath
    assert n == pytest.approx(0.1794184821548827467, rel=1e-10)


def test_averages_bose_quadrature_cross_check():
    model = qg.GasModel("be0", eta=2.0, kappa=1.5)
    p = qg.ThermoPoint(0.8, 0.6)
    u, n = qg.averages(model, p)
    assert u == pytest.approx(quad_average(2.0, 1.5, 0.8, 0.6, 1.0, -1.0), rel=1e-9)
    assert n == pytest.approx(quad_average(2.0, 1.5, 0.8, 0.6, 0.0, -1.0), rel=1e-9)


def test_bose_particle_number_dominated_by_ground_state():
    model = qg.GasModel("be", eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.999)
    _, n = qg.averages(model, p)
    n0 = qg.ground_state_occupation(p)
    assert n0 == pytest.approx(999.0, rel=1e-12)
    assert n > n0 > 0.99 * n


def test_ground_state_occupation_values():
    assert qg.ground_state_occupation(qg.ThermoPoint(1.0, 0.5)) == 1.0
    assert qg.ground_state_occupation(qg.ThermoPoint(1.0, 1e-12)) == pytest.approx(1e-12, rel=1e-9)
    edge = qg.ground_state_occupation(qg.ThermoPoint(1.0, 1.0 - 1e-6))
    assert edge == pytest.approx(1e6 - 1.0, rel=1e-9)
    with pytest.raises(DomainError):
        qg.ground_state_occupation(qg.ThermoPoint(1.0, 1.0))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metric_fd_first_term_and_positivity():
    model = qg.GasModel("fd", eta=0.5, kappa=1.0)
    g = qg.metric(model, qg.ThermoPoint(1.0, 1e-6))
    assert g.g22 == pytest.approx(GAMMA_32 * 1e-6, rel=1e-5)
    assert g.g22 == pytest.approx(8.8623e-7, rel=1e-3)
    for xi in (0.1, 0.5, 2.0, 5.0):
        g = qg.metric(model, qg.ThermoPoint(0.7, xi))
        assert g.g11 > 0.0 and g.g12 > 0.0 and g.g22 > 0.0
        assert g.g12**2 < g.g11 * g.g22


def test_metric_fd_matches_hessian_oracle():
    model = qg.GasModel("fd", eta=0.5, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.5)
    closed = qg.metric(model, p)
    oracle = gc.hessian_metric(qg.free_energy_field(model), p.to_coords())
    for a, b in zip(closed.entries(), oracle.entries()):
        assert a == pytest.approx(b, rel=1e-6)


def test_metric_be_ground_state_structure():
    p = qg.ThermoPoint(1.3, 0.5)
    for eta, kappa in ((0.5, 1.0), (2.0, 3.0)):
        with_g = qg.metric(qg.GasModel("be", eta=eta, kappa=kappa), p)
        without = qg.metric(qg.GasModel("be0", eta=eta, kappa=kappa), p)
        assert with_g.g11 == without.g11
        assert with_g.g12 == without.g12
        assert with_g.g22 - without.g22 == pytest.approx(2.0, rel=1e-14)  # 0.5/0.25


def test_metric_be_matches_jacobian_oracle():
    model = qg.GasModel("be", eta=2.0, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.9)
    closed = qg.metric(model, p)

    def avg(lambda1, lambda2):
        # (U, N) as an array field, one averages call per point
        return np.array([qg.averages(model, qg.ThermoPoint(b, math.exp(-y)))
                         for b, y in zip(lambda1.tolist(), lambda2.tolist())]).T

    oracle = gc.jacobian_metric(avg, p.to_coords())
    for a, b in zip(closed.entries(), oracle.entries()):
        assert a == pytest.approx(b, rel=1e-6)


def test_metric_be_equals_hessian_of_corrected_potential():
    model = qg.GasModel("be", eta=2.0, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.9)
    oracle = gc.hessian_metric(qg.free_energy_field(model), p.to_coords())
    closed = qg.metric(model, p)
    for a, b in zip(closed.entries(), oracle.entries()):
        assert a == pytest.approx(b, rel=1e-6)


# ---------------------------------------------------------------------------
# determinant bundles
# ---------------------------------------------------------------------------

def test_det_bundle_small_x_coefficients():
    b = qg.det_bundle(-1e-4, 0.5)
    assert b.A / 1e-8 == pytest.approx(1.178, abs=1e-3)
    b3 = qg.det_bundle(-1e-3, 0.5)
    assert abs(b3.B) < 1e-8  # vanishes through order x^3
    assert b3.B / 1e-12 == pytest.approx(-0.6921, abs=5e-3)
    bc = qg.det_bundle(1e-3, 0.5)
    assert bc.A_c / 1e-6 == pytest.approx(3.323, abs=1e-2)
    assert bc.B_c / 1e-12 == pytest.approx(-5.321, abs=5e-2)


def test_negative_eta_one_dimensional_box():
    # eta = -1/2 (a 1-d box) pushes the lowest bundle order to -3/2, which
    # is reached through the derivative identity rather than directly
    entry = qg.dos_catalog("box", 1)
    assert entry.eta == pytest.approx(-0.5)
    model = qg.GasModel("fd", eta=entry.eta, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.5)
    s = qg.geometry_sample(model, p)
    assert s.R < 0.0
    r_det = gc.scalar_curvature_det(qg.metric_field(model), p.to_coords())
    assert s.R == pytest.approx(r_det, rel=1e-4)
    bose = qg.GasModel("be", eta=entry.eta, kappa=1.0)
    s_be = qg.geometry_sample(bose, qg.ThermoPoint(1.0, 0.6))
    assert s_be.R == pytest.approx(
        gc.scalar_curvature_riemann(qg.metric_field(bose),
                                    qg.ThermoPoint(1.0, 0.6).to_coords()), rel=1e-4)


def _mp_bundle(x, eta):
    # (A, B, A_c, B_c) from the determinant definitions in det_bundle's
    # docstring, at 40 digits; no recurrence or row reduction involved
    with mp.workdps(40):
        e, y = mp.mpf(eta), mp.mpf(x)
        g = {k: mp.gamma(e + k) for k in (1, 2, 3, 4)}
        L = {j: mp.re(mp.polylog(e + j, y)) for j in (-1, 0, 1, 2)}
        a = g[3] * L[2] * g[1] * L[0] - (g[2] * L[1]) ** 2
        b = mp.det(mp.matrix([[g[3] * L[2], g[2] * L[1], g[1] * L[0]],
                              [g[4] * L[2], g[3] * L[1], g[2] * L[0]],
                              [g[3] * L[1], g[2] * L[0], g[1] * L[-1]]]))
        if not 0.0 < x < 1.0:
            return float(a), float(b), None, None
        s1, s2 = y / (1 - y) ** 2, y * (1 + y) / (1 - y) ** 3
        b_c = mp.det(mp.matrix([[g[3] * L[2], g[2] * L[1], s1],
                                [g[4] * L[2], g[3] * L[1], 0],
                                [g[3] * L[1], g[2] * L[0], s2]]))
        return float(a), float(b), float(g[3] * L[2] * s1), float(b_c)


# B at eta < 0 takes order eta - 1 from polylog_step_down
@pytest.mark.parametrize("eta, b_budget", [(0.5, 1e-10), (2.0, 1e-10), (10.0, 1e-10),
                                           (-0.5, 1e-10), (-0.9, 1e-10)])
def test_det_bundle_matches_mpmath(eta, b_budget):
    budgets = (1e-13, b_budget, 1e-13, 1e-10)
    for x in (-50.0, -5.0, -1.0, -0.3, 0.3, 0.9, 0.999):
        bundle = qg.det_bundle(x, eta)
        got = (bundle.A, bundle.B, bundle.A_c, bundle.B_c)
        for name, ours, ref, budget in zip(("A", "B", "A_c", "B_c"), got,
                                           _mp_bundle(x, eta), budgets):
            if ref is None:
                assert ours is None, (name, x)
            else:
                assert ours == pytest.approx(ref, rel=budget), (name, x)


def test_det_bundle_ground_terms_only_inside_unit_interval():
    assert qg.det_bundle(-0.3, 0.5).A_c is None
    assert qg.det_bundle(-0.3, 0.5).B_c is None
    assert qg.det_bundle(0.3, 0.5).A_c is not None
    with pytest.raises(DomainError):
        qg.det_bundle(1.0, 0.5)
    with pytest.raises(DomainError):
        qg.det_bundle(0.5, -1.0)


@pytest.mark.parametrize("stat", ["fd", "be", "be0"])
def test_cancellation_in_b_warns_at_tiny_fugacity(stat):
    # B ~ x^4 is what survives of x^3 terms; at xi = 1e-16 R has the wrong sign
    model = qg.GasModel(stat, eta=0.5, kappa=1.0)
    for xi in (1e-12, 1e-16):
        with pytest.warns(ConditioningWarning, match="det_bundle"):
            qg.geometry_sample(model, qg.ThermoPoint(1.0, xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        qg.geometry_sample(model, qg.ThermoPoint(1.0, 1e-4))


def test_cancellation_in_b_warns_at_large_eta():
    with pytest.warns(ConditioningWarning, match="det_bundle") as caught:
        bundle = qg.det_bundle(-1.0, 50.0)
    assert bundle.warning == str(caught[0].message)
    assert qg.det_bundle(-1.0, 0.5).warning is None


# ---------------------------------------------------------------------------
# geometry samples
# ---------------------------------------------------------------------------

def test_classical_geometry_is_flat_with_expected_determinant():
    for eta, kappa, beta, xi in ((0.5, 1.0, 1.0, 1.0), (2.0, 1.5, 0.4, 2.0)):
        model = qg.GasModel("classical", eta=eta, kappa=kappa)
        s = qg.geometry_sample(model, qg.ThermoPoint(beta, xi))
        assert s.R == 0.0
        assert s.R_bar == 0.0
        f = qg.limit_coefficients(eta).f
        expected = (kappa * xi / beta ** (eta + 2.0)) ** 2 * f
        assert s.det_g == pytest.approx(expected, rel=1e-12)
        assert s.det_g == pytest.approx(s.metric.det, rel=1e-12)


def test_fd_curvature_negative_on_sample_grid():
    for eta in (0.5, 2.0):
        model = qg.GasModel("fd", eta=eta, kappa=1.0)
        for beta in (0.1, 1.0, 10.0):
            for xi in (0.1, 1.0, 5.0):
                assert qg.geometry_sample(model, qg.ThermoPoint(beta, xi)).R < 0.0


def test_be_no_ground_curvature_positive_on_sample_grid():
    for eta in (0.5, 2.0):
        model = qg.GasModel("be0", eta=eta, kappa=1.0)
        for beta in (0.2, 1.0, 5.0):
            for xi in (0.05, 0.4, 0.8, 0.99):
                assert qg.geometry_sample(model, qg.ThermoPoint(beta, xi)).R > 0.0


def test_metric_positive_definite_for_all_statistics():
    for stat, xi in (("fd", 2.5), ("be", 0.85), ("be0", 0.85), ("classical", 1.3)):
        for eta in (0.5, 2.0):
            g = qg.metric(qg.GasModel(stat, eta=eta, kappa=0.7), qg.ThermoPoint(0.8, xi))
            assert g.g11 > 0.0
            assert g.det > 0.0


EXTREME_POINTS = [(1e-300, 0.5), (1e-200, 0.5), (1e200, 0.5), (1.0, 1e-300)]


@pytest.mark.filterwarnings("ignore::gasgeometry.errors.ConditioningWarning")
@pytest.mark.parametrize("stat", sorted(qg.STATISTICS))
@pytest.mark.parametrize("beta, xi", EXTREME_POINTS)
def test_extreme_points_keep_the_error_contract(stat, beta, xi):
    # no bare ZeroDivisionError or OverflowError may escape
    p = qg.ThermoPoint(beta, xi)
    for eta in (-0.5, 0.5, 3.0):
        model = qg.GasModel(stat, eta=eta)
        for f in (qg.geometry_sample, qg.averages, qg.free_energy, qg.metric):
            try:
                out = f(model, p)
            except (DomainError, PolylogOverflowError, SingularMetricError):
                continue
            if f is qg.geometry_sample:
                out = (out.det_g, out.g_bar, out.R, out.R_bar, *out.metric.entries())
            elif f is qg.metric:
                out = out.entries()
            assert np.all(np.isfinite(out)), (f.__name__, eta, out)


def test_condensation_edge_divergence_removed():
    p = qg.ThermoPoint(1.0, 1.0 - 1e-6)
    r0 = qg.geometry_sample(qg.GasModel("be0", eta=0.5), p).R
    r = qg.geometry_sample(qg.GasModel("be", eta=0.5), p).R
    assert r0 > 1e2
    assert abs(r) < 1e-2


# Bose points with the ground state where (A + t A_c)^2 overflows; R, R_bar
# and det_g from perfbench/reference.py's formulas at 400 digits
LARGE_T_POINTS = [
    (20.0, 1e8, 0.02272724291679322, -4.5454485833586434e-170, 1.1240008617778984e-163),
    (10.0, 1e15, 0.041635647762389386, -8.327129552477878e-167, 4.790603009054483e-187),
    (5.0, 1e30, 0.07031494649011524, -1.4062989298023045e-181, 5.060306798313061e-237),
]


def test_geometry_sample_det_consistent_with_metric():
    points = [("fd", 0.5, 2.0, 0.9, 1.2), ("be", 0.5, 2.0, 0.9, 0.8), ("be0", 0.5, 2.0, 0.9, 0.8)]
    points += [("be", eta, 1.0, beta, 0.5) for eta, beta, *_ in LARGE_T_POINTS]
    for stat, eta, kappa, beta, xi in points:
        model = qg.GasModel(stat, eta=eta, kappa=kappa)
        s = qg.geometry_sample(model, qg.ThermoPoint(beta, xi))
        assert s.det_g == pytest.approx(s.metric.det, rel=1e-11, abs=0.0), (stat, eta)
        t = s.point.beta ** (model.eta + 1.0) / model.kappa
        sign = 1.0 if stat == "fd" else -1.0
        assert s.R == pytest.approx(sign * 0.5 * t * s.R_bar, rel=1e-14), (stat, eta)


@pytest.mark.parametrize("eta, beta, r, r_bar, det_g", LARGE_T_POINTS)
def test_ground_state_curvature_survives_overflow_of_g_bar_squared(eta, beta, r, r_bar, det_g):
    model = qg.GasModel("be", eta=eta, kappa=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        s = qg.geometry_sample(model, qg.ThermoPoint(beta, 0.5))
        bundle = qg.det_bundle(0.5, eta)
    assert (s.R, s.R_bar, s.det_g) == pytest.approx((r, r_bar, det_g), rel=1e-12, abs=0.0)
    # at this t the curvature has reached its t -> infinity limit
    assert s.R == pytest.approx(-bundle.B_c / (2.0 * bundle.A_c**2), rel=1e-12)


def test_rbar_scaling_laws():
    # Fermi: R_bar depends only on (xi, eta)
    p = qg.ThermoPoint(1.0, 0.7)
    base = qg.geometry_sample(qg.GasModel("fd", eta=0.5, kappa=1.0), p).R_bar
    for beta, kappa in ((0.3, 2.0), (2.5, 0.7)):
        s = qg.geometry_sample(qg.GasModel("fd", eta=0.5, kappa=kappa),
                               qg.ThermoPoint(beta, 0.7))
        assert s.R_bar == pytest.approx(base, rel=1e-12)
    # Bose: R_bar depends on (xi, eta) and t = beta^(eta+1)/kappa only
    eta = 0.5
    t = 1.7
    vals = []
    for beta in (0.5, 1.0, 2.0):
        kappa = beta ** (eta + 1.0) / t
        s = qg.geometry_sample(qg.GasModel("be", eta=eta, kappa=kappa),
                               qg.ThermoPoint(beta, 0.6))
        vals.append(s.R_bar)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


# ---------------------------------------------------------------------------
# one ladder, bit for bit the per-statistics formulas
# ---------------------------------------------------------------------------
# The closed forms evaluate every quantity through one ladder term.  The
# functions below are the per-statistics formulas written out by hand, with
# their own operation order; the ladder must reproduce them exactly (==),
# including kappa != 1 and eta < 0, which no figure preset reaches.

def _handwritten_free_energy(model, p):
    eta, kappa = model.eta, model.kappa
    pref = kappa * gamma_real(eta + 1.0) / p.beta ** (eta + 1.0)
    if model.statistics == "fd":
        return pref * polylog(-p.xi, eta + 2.0)
    if model.statistics == "be":
        return -pref * polylog(p.xi, eta + 2.0) + math.log1p(-p.xi)
    if model.statistics == "be0":
        return -pref * polylog(p.xi, eta + 2.0)
    return -pref * p.xi


def _handwritten_averages(model, p):
    eta, kappa = model.eta, model.kappa
    cu = kappa * gamma_real(eta + 2.0) / p.beta ** (eta + 2.0)
    cn = kappa * gamma_real(eta + 1.0) / p.beta ** (eta + 1.0)
    if model.statistics == "fd":
        return -cu * polylog(-p.xi, eta + 2.0), -cn * polylog(-p.xi, eta + 1.0)
    if model.statistics in ("be", "be0"):
        n = cn * polylog(p.xi, eta + 1.0)
        if model.statistics == "be":
            n += p.xi / (1.0 - p.xi)
        return cu * polylog(p.xi, eta + 2.0), n
    return cu * p.xi, cn * p.xi


def _handwritten_metric(model, p):
    eta, kappa, b = model.eta, model.kappa, p.beta
    if model.statistics == "fd":
        return (-kappa * gamma_real(eta + 3.0) / b ** (eta + 3.0) * polylog(-p.xi, eta + 2.0),
                -kappa * gamma_real(eta + 2.0) / b ** (eta + 2.0) * polylog(-p.xi, eta + 1.0),
                -kappa * gamma_real(eta + 1.0) / b ** (eta + 1.0) * polylog(-p.xi, eta))
    if model.statistics in ("be", "be0"):
        g22 = kappa * gamma_real(eta + 1.0) / b ** (eta + 1.0) * polylog(p.xi, eta)
        if model.statistics == "be":
            w = 1.0 - p.xi
            g22 += p.xi / (w * w)
        return (kappa * gamma_real(eta + 3.0) / b ** (eta + 3.0) * polylog(p.xi, eta + 2.0),
                kappa * gamma_real(eta + 2.0) / b ** (eta + 2.0) * polylog(p.xi, eta + 1.0),
                g22)
    return (kappa * gamma_real(eta + 3.0) / b ** (eta + 3.0) * p.xi,
            kappa * gamma_real(eta + 2.0) / b ** (eta + 2.0) * p.xi,
            kappa * gamma_real(eta + 1.0) / b ** (eta + 1.0) * p.xi)


def _handwritten_geometry(model, p):
    # (g_bar, R, R_bar) from the determinant bundles, branch by branch
    eta, kappa = model.eta, model.kappa
    t = p.beta ** (eta + 1.0) / kappa
    if model.statistics == "classical":
        return p.xi * p.xi * qg.limit_coefficients(eta).f, 0.0, 0.0
    if model.statistics == "fd":
        bundle = qg.det_bundle(-p.xi, eta)
        return bundle.A, 0.5 * (t / bundle.A) * (bundle.B / bundle.A), bundle.B / bundle.A / bundle.A
    bundle = qg.det_bundle(p.xi, eta)
    if model.statistics == "be":
        g_bar = bundle.A + t * bundle.A_c
        b = bundle.B + t * bundle.B_c
    else:
        g_bar, b = bundle.A, bundle.B
    return g_bar, -0.5 * (t / g_bar) * (b / g_bar), b / g_bar / g_bar


_LADDER_XI = {
    "fd": (0.01, 0.4, 0.9, 3.0, 50.0),
    "be": (0.01, 0.4, 0.9, 0.999),
    "be0": (0.01, 0.4, 0.9, 0.999),
    "classical": (0.01, 0.4, 3.0, 50.0),
}


@pytest.mark.filterwarnings("ignore", category=ConditioningWarning)
@pytest.mark.parametrize("stat", sorted(_LADDER_XI))
def test_ladder_reproduces_handwritten_formulas_bit_for_bit(stat):
    for eta in (-0.5, 0.5, 2.0):
        for kappa in (1.0, 2.5):
            model = qg.GasModel(stat, eta=eta, kappa=kappa)
            for beta in (0.3, 1.0, 4.0):
                for xi in _LADDER_XI[stat]:
                    p = qg.ThermoPoint(beta, xi)
                    where = (stat, eta, kappa, beta, xi)
                    assert qg.free_energy(model, p) == _handwritten_free_energy(model, p), where
                    assert qg.averages(model, p) == _handwritten_averages(model, p), where
                    g = tuple(_handwritten_metric(model, p))
                    assert tuple(qg.metric(model, p).entries()) == g, where
                    s = qg.geometry_sample(model, p)
                    assert tuple(s.metric.entries()) == g, where
                    assert (s.g_bar, s.R, s.R_bar) == _handwritten_geometry(model, p), where


# ---------------------------------------------------------------------------
# grids: geometry_sample and averages one xi column at a time
# ---------------------------------------------------------------------------

def _point_or_error(fn, model, beta, xi):
    try:
        return fn(model, qg.ThermoPoint(beta, xi))
    except (DomainError, PolylogOverflowError, SingularMetricError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _grid_items(grid):
    return [f"{type(item).__name__}: {item}" if isinstance(item, Exception) else item
            for item in grid]


def _sweep_items(grid):
    # a sweep grid's (sample, means, error), with the error as its text
    return [(s, m, None if e is None else f"{type(e).__name__}: {e}") for _, s, m, e in grid]


@pytest.mark.parametrize("stat, xis", [
    ("fd", [1e-320, 0.3, 4.0]), ("be", [0.2, 0.9, 1.5]), ("be0", [0.2, 0.9]),
    ("classical", [0.2, 3.0]),
])
def test_grids_equal_their_point_functions_at_every_point(stat, xis):
    # beta outer, xi inner; each error is yielded in place, with its text
    model = qg.GasModel(stat, eta=0.5)
    betas = [1e-300, 0.7, 3.0, 1e300]
    points = [(b, x) for b in betas for x in xis]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        samples = _grid_items(qg.geometry_grid(model, betas, xis))
        means = [_point_or_error(qg.averages, model, b, x) for b, x in points]
        assert samples == [_point_or_error(qg.geometry_sample, model, b, x) for b, x in points]
        # the sweep grid: averages alone, and after the geometry from the
        # same columns, where a point whose geometry fails computes none
        assert _sweep_items(qg._grid(model, betas, xis, geometry=False, averages=True)) == [
            (None, None, m) if isinstance(m, str) else (None, m, None) for m in means]
        assert _sweep_items(qg._grid(model, betas, xis, averages=True)) == [
            (None, None, s) if isinstance(s, str) else
            (s, None, m) if isinstance(m, str) else (s, m, None)
            for s, m in zip(samples, means)]
    assert any(isinstance(s, qg.GeometrySample) for s in samples)
    assert any(isinstance(s, str) for s in samples)
    assert any(isinstance(m, str) for m in means) and any(isinstance(m, tuple) for m in means)


def test_grid_builds_no_bundle_for_a_column_of_failing_points():
    # Gamma(201) overflows, so every rung fails its range check before the
    # bundle, which would warn at xi = 1e-12, is made
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        items = list(qg.geometry_grid(qg.GasModel("fd", eta=200.0), [1.0, 2.0], [1e-12, 0.5]))
    assert [type(item) for item in items] == [DomainError] * 4


def test_grid_is_lazy_and_rejects_a_bad_beta_when_it_reaches_it():
    grid = qg.geometry_grid(qg.GasModel("fd"), [1.0, -1.0], [0.5])
    assert isinstance(next(grid), qg.GeometrySample)
    with pytest.raises(DomainError):
        next(grid)


# ---------------------------------------------------------------------------
# limit coefficients and limit curvature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [71.0, 100.0, 170.0])
def test_limit_coefficients_outside_the_float_range_raise(eta):
    # h = -g1 g2 g3 / 2^(eta+2) overflows first, at eta = 71; f at eta ~ 99
    with pytest.raises(DomainError, match="float range"):
        qg.limit_coefficients(eta)
    assert qg.limit_curvature(qg.GasModel("fd", eta=eta), 0.0) == 0.0
    with pytest.raises(DomainError):
        qg.limit_curvature(qg.GasModel("be", eta=eta), 1.0)


def test_limit_coefficients_keep_the_float_range_below_eta_71():
    c = qg.limit_coefficients(70.0)
    assert all(math.isfinite(v) for v in (c.f, c.f_c, c.h, c.h_c))
    # the classical determinant needs only f, which stays finite to eta ~ 99
    s = qg.geometry_sample(qg.GasModel("classical", eta=80.0), qg.ThermoPoint(1.0, 0.5))
    assert s.g_bar == pytest.approx(0.25 * gamma_real(81.0) * gamma_real(82.0), rel=1e-15)


def test_limit_coefficients_integer_eta_exact():
    c = qg.limit_coefficients(2.0)
    assert c.f == pytest.approx(12.0, rel=1e-12)
    assert c.f_c == pytest.approx(24.0, rel=1e-12)
    assert c.h == pytest.approx(-18.0, rel=1e-12)
    assert c.h_c == pytest.approx(-234.0, rel=1e-12)


@pytest.mark.parametrize("eta", [-0.9, -0.5, 0.5, 1.0, 2.0, 3.7, 10.0, 20.0])
def test_f_equals_gamma_recurrence_product(eta):
    # all four recurrence products against the determinant definitions in
    # the limit_coefficients docstring, evaluated at 50 digits
    with mp.workdps(50):
        g1, g2, g3, g4 = (mp.gamma(mp.mpf(eta) + k) for k in (1, 2, 3, 4))
        half_pow = mp.mpf(2) ** -(mp.mpf(eta) + 1)
        ref = (g3 * g1 - g2 ** 2, g3,
               half_pow * (-g1 * g2 * g4 + 3 * g1 * g3 ** 2 / 2 - g2 ** 2 * g3 / 2),
               half_pow * (g2 * g4 - g3 ** 2 / 2) + 2 * (g3 ** 2 - g2 * g4))
        ref = [float(v) for v in ref]
    c = qg.limit_coefficients(eta)
    for name, ours, want in zip(("f", "f_c", "h", "h_c"), (c.f, c.f_c, c.h, c.h_c), ref):
        assert ours == pytest.approx(want, rel=1e-14), name


def test_limit_curvature_values():
    fd = qg.GasModel("fd", eta=0.5, kappa=1.0)
    be = qg.GasModel("be", eta=0.5, kappa=1.0)
    assert qg.limit_curvature(fd, 1.0) == pytest.approx(-0.4987 / 2.0, abs=1e-3)
    # arithmetic on the expansion constants (with the 1/2 prefactor)
    c = qg.limit_coefficients(0.5)
    expected_be = -0.5 * (c.h + c.h_c) / (c.f + c.f_c) ** 2
    assert expected_be == pytest.approx(0.148385, abs=2e-4)
    assert qg.limit_curvature(be, 1.0) == pytest.approx(expected_be, rel=1e-12)
    assert qg.limit_curvature(fd, 0.0) == 0.0
    assert qg.limit_curvature(be, 0.0) == 0.0
    # beta^(eta+1) overflows; at t = 1e200 the Bose limit nears -h_c/(2 f_c^2)
    for stat in ("fd", "be"):
        with pytest.raises(DomainError):
            qg.limit_curvature(qg.GasModel(stat, eta=2.0), 1e200)
    c0 = qg.limit_coefficients(0.0)
    assert qg.limit_curvature(qg.GasModel("be", eta=0.0), 1e200) == pytest.approx(
        -0.5 * c0.h_c / c0.f_c**2, rel=1e-12)
    with pytest.raises(DomainError):
        qg.limit_curvature(qg.GasModel("classical"), 1.0)


# ---------------------------------------------------------------------------
# density-of-states catalog
# ---------------------------------------------------------------------------

def test_dos_box_three_dimensions():
    entry = qg.dos_catalog("box", 3)
    assert entry.eta == pytest.approx(0.5)
    # g_s V / (4 pi^2) * (2 m / hbar^2)^(3/2)
    expected = 2.0 * 3.0 / (4.0 * math.pi**2) * (2.0 * 1.5) ** 1.5
    assert entry.kappa_formula(g_s=2.0, V=3.0, m=1.5) == pytest.approx(expected, rel=1e-12)


def test_dos_box_dimension_scan():
    assert qg.dos_catalog("box", 2).eta == pytest.approx(0.0)
    assert qg.dos_catalog("box", 5).eta == pytest.approx(1.5)


def test_dos_harmonic_trap():
    entry = qg.dos_catalog("harmonic_trap", 3)
    assert entry.eta == pytest.approx(2.0)
    assert entry.kappa_formula(g_s=2.0, omega=0.5) == pytest.approx(
        (2.0 / 2.0) * (1.0 / 0.5) ** 3, rel=1e-12)


def test_dos_ultrarelativistic_matches_printed_three_dim_form():
    entry = qg.dos_catalog("ultrarelativistic", 3)
    assert entry.eta == pytest.approx(2.0)
    got = entry.kappa_formula(g_s=2.0, V=1.7)
    printed = 2.0 * 1.7 / (2.0 * math.pi**2)
    assert got == pytest.approx(printed, rel=1e-12)


def test_dos_unknown_system():
    with pytest.raises(DomainError):
        qg.dos_catalog("anyon_gas", 3)
    for dims in (0, 2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            qg.dos_catalog("box", dims)
