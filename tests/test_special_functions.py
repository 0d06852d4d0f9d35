"""Gamma / zeta / polylogarithm tests.

mpmath (arbitrary precision) is the independent reference for frozen
values; the tanh-sinh rule below is a second quadrature scheme, applied
to the original integral representation with its own map and step,
independent of the integration-by-parts double-exponential rule inside
the package.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasgeometry import GasModel, ThermoPoint, geometry_sample
from gasgeometry import special_functions as sf
from gasgeometry.errors import DomainError, PolylogOverflowError

mp.mp.dps = 40

SQRT_PI = 1.7724538509055160273


def mp_polylog(y: float, phi: float) -> float:
    return float(mp.re(mp.polylog(mp.mpf(phi), mp.mpf(y))))


def tanh_sinh_polylog(y: float, phi: float, n: int = 160, h: float = 0.03) -> float:
    """Tanh-sinh quadrature of Li = (1/Gamma(phi)) int u^(phi-1)/(e^u/y - 1) du.

    Valid for phi > 0 and y < 1.  The map u = exp(pi/2 sinh t) sends the
    real line to (0, inf) with double-exponential endpoint decay.
    """
    assert phi > 0.0
    total = 0.0
    for k in range(-n, n + 1):
        t = k * h
        s = 0.5 * math.pi * math.sinh(t)
        if s > 6.5:  # u > ~665: integrand ~ e^-u, below double precision
            continue
        u = math.exp(s)
        du = u * 0.5 * math.pi * math.cosh(t)
        denom = math.exp(u) / y - 1.0 if y > 0 else -(math.exp(u) / abs(y) + 1.0)
        total += u ** (phi - 1.0) / denom * du
    return h * total / math.gamma(phi)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x, expected", [
    (0.5, SQRT_PI),
    (5.0, 24.0),
    (3.5, 2.5 * 1.5 * 0.5 * SQRT_PI),  # recurrence from Gamma(1/2)
])
def test_gamma_known_values(x, expected):
    assert sf.gamma_real(x) == pytest.approx(expected, rel=1e-12)


def test_gamma_against_mpmath_grid():
    for x in np.linspace(0.05, 20.0, 57):
        assert sf.gamma_real(float(x)) == pytest.approx(float(mp.gamma(x)), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_gamma_domain(x):
    with pytest.raises(DomainError):
        sf.gamma_real(x)


@given(st.floats(min_value=0.1, max_value=19.0))
@settings(max_examples=50, deadline=None)
def test_gamma_recurrence(x):
    assert sf.gamma_real(x + 1.0) == pytest.approx(x * sf.gamma_real(x), rel=1e-12)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s, expected", [
    (2.0, math.pi**2 / 6.0),
    (2.5, 1.34148725725091718),
    (0.5, -1.460354508809586813),
    (-0.5, -0.207886224977354566),
    (-1.0, -1.0 / 12.0),
])
def test_zeta_known_values(s, expected):
    assert sf.zeta_real(s) == pytest.approx(expected, rel=1e-12)


def test_zeta_trivial_zeros_and_pole():
    assert sf.zeta_real(-2.0) == 0.0
    assert sf.zeta_real(-6.0) == 0.0
    with pytest.raises(DomainError):
        sf.zeta_real(1.0)


def test_zeta_near_zero_and_near_pole():
    assert sf.zeta_real(0.0) == pytest.approx(-0.5, abs=1e-14)
    assert sf.zeta_real(1e-8) == pytest.approx(float(mp.zeta(mp.mpf(1e-8))), rel=1e-10)
    assert sf.zeta_real(1.0001) == pytest.approx(float(mp.zeta(mp.mpf("1.0001"))), rel=1e-12)


def test_zeta_against_mpmath_sweep():
    for s in np.concatenate([np.linspace(-12.3, -0.1, 40), np.linspace(0.1, 8.0, 40)]):
        s = float(s)
        ref = float(mp.zeta(s))
        assert sf.zeta_real(s) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def _zeta_accuracy_points():
    # seeded points in [-60.5, 10] at least 1e-3 from a trivial zero, where
    # the value vanishes, plus the pole, s = 0 and the s = 1/2 branch seam
    rng = np.random.default_rng(7)
    points = [s for s in rng.uniform(-60.5, 10.0, 520).tolist()
              if s > 0.0 or abs(s - 2.0 * round(0.5 * s)) >= 1e-3]
    return points + [1.0 + 1e-8, 1.0 - 1e-8, 1e-8, 0.5 + 1e-10, 0.5 - 1e-10, -59.5]


def test_zeta_against_mpmath_dense():
    worst = max((abs(sf.zeta_real(s) / float(mp.zeta(mp.mpf(s))) - 1.0), s)
                for s in _zeta_accuracy_points())
    assert worst[0] < 1e-13, worst


_inf = float("inf")


@pytest.mark.parametrize("call, expected", [
    (lambda: sf.gamma_real(200.0), _inf),
    (lambda: sf.zeta_real(-260.5), -_inf),
    (lambda: sf.zeta_real(-262.5), _inf),
    (lambda: sf.zeta_real(-1e6 - 0.5), -_inf),
    (lambda: sf.zeta_real(math.nan), DomainError),
    (lambda: sf.zeta_real(_inf), DomainError),
    (lambda: sf.zeta_real(-_inf), DomainError),
    # the ladder turns gamma_real's inf into the package error
    (lambda: geometry_sample(GasModel("fd", eta=200.0), ThermoPoint(1.0, 0.5)), DomainError),
], ids=["gamma-overflow", "zeta-neg-overflow", "zeta-pos-overflow", "zeta-far",
        "zeta-nan", "zeta-inf", "zeta-neg-inf", "ladder-gamma-overflow"])
def test_gamma_zeta_overflow_and_domain_contract(call, expected):
    # past the double range: a signed inf, as scipy.special gives; a
    # non-finite argument: DomainError, never a bare ArithmeticError
    if expected is DomainError:
        with pytest.raises(DomainError):
            call()
    else:
        assert call() == expected


# ---------------------------------------------------------------------------
# polylog: closed forms and frozen references
# ---------------------------------------------------------------------------

def test_polylog_trivial_examples():
    assert sf.polylog(0.0, 2.5) == 0.0
    assert sf.polylog(0.5, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert sf.polylog(0.9, -1.0) == pytest.approx(90.0, rel=1e-12)
    assert sf.polylog(-1.0, 1.0) == pytest.approx(-math.log(2.0), rel=1e-12)
    assert sf.polylog(0.25, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


# frozen with mpmath at 40 digits
FROZEN = [
    (-3.0, 2.5, -2.162700712002056662),
    (-0.7, 0.5, -0.47746759105126794),
    (0.5, 2.5, 0.5549972787175122932),
    (0.9, 1.5, 1.614438528566339726),
    (-10000.0, 3.0, -145.3699325506637025),
    (1.0 - 1e-6, 0.5, 1770.993053491000789),
    (1.0 - 1e-6, 4.0, 1.082322031654456468),
    (0.999999, 2.0, 1.644919251330510712),
    (-0.25, -0.5, -0.1825754671012099072),
    (0.8, -0.5, 8.205534225765720134),
]


@pytest.mark.parametrize("y, phi, expected", FROZEN)
def test_polylog_frozen_values(y, phi, expected):
    assert sf.polylog(y, phi) == pytest.approx(expected, rel=1e-10)


def test_polylog_dual_quadrature_cross_check():
    # series-free regime; the package's integration-by-parts rule and the
    # test-only rule on the original integrand agree
    ours = sf.polylog_quadrature(-3.0, 2.5)
    other = tanh_sinh_polylog(-3.0, 2.5)
    assert ours == pytest.approx(other, rel=1e-9)
    assert ours == pytest.approx(-2.162700712002056662, rel=1e-10)


def test_polylog_against_mpmath_broad_grid():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(250):
        phi = float(rng.uniform(-0.999, 6.0))
        mode = rng.uniform()
        if mode < 0.4:
            y = -float(10 ** rng.uniform(-3, 4))
        elif mode < 0.7:
            y = float(rng.uniform(-1, 0.999))
        else:
            y = 1.0 - float(10 ** rng.uniform(-8, -0.3))
        if y == 0.0:
            continue
        with mp.workdps(25):  # agrees with 40 digits to ~1e-26 on these points
            ref = mp_polylog(y, phi)
        rel = abs(sf.polylog(y, phi) - ref) / max(abs(ref), 1e-300)
        worst = max(worst, rel)
    assert worst < 1e-10, f"worst relative error {worst:.3e}"


def test_polylog_near_integer_orders_at_edge():
    # orders within _EDGE_BAND of a positive integer leave the edge expansion,
    # whose Gamma and zeta poles cancel there, for the double-exponential
    # rule: both sides of the band edge, and orders near 1 down to 2e-5 away
    band = sf._EDGE_BAND
    phis = [1.999999, 2.000001, 3.0 + 3e-6, 4.0 - 1e-7, 2.0 + 1e-13]
    phis += [n + s * band * (1.0 + t) for n in range(1, 7) for s in (-1, 1) for t in (-1e-3, 1e-3)]
    phis += [1.0 + d for d in (2e-5, -2e-5, 1e-4, -1e-4, -1e-3)]
    for phi in phis:
        for y in (0.9995, 1.0 - 1e-7, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-8):
            with mp.workdps(30):
                ref = mp_polylog(y, phi)
            assert sf.polylog(y, phi) == pytest.approx(ref, rel=1e-13), (y, phi)


def test_polylog_series_vs_quadrature_agreement():
    for y in (-0.9, -0.75, -0.55, 0.55, 0.75, 0.9):
        for phi in (0.5, 1.0, 2.0, 3.0, 4.0):
            a = sf.polylog_series(y, phi)
            b = sf.polylog_quadrature(y, phi)
            assert a == pytest.approx(b, rel=1e-9)


def _quadrature_points():
    # seeded mid-range points plus the far Fermi tail, where the Fermi edge
    # is narrow on the rule's logarithmic scale
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        phi = float(rng.uniform(-1.0, 22.0))
        if rng.uniform() < 0.6:
            y = -float(10 ** rng.uniform(math.log10(0.5), 4.0))
        else:
            y = float(rng.uniform(0.5, 1.0 - 1e-3))
        yield y, phi
    for y in (-1e6, -1e8, -1e12, -1e50, -1e300):
        for phi in (-1.0 + 1e-9, -0.7, 0.5, 3.3, 21.0):
            yield y, phi


def test_polylog_quadrature_against_mpmath():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow/invalid may escape
        for y, phi in _quadrature_points():
            with mp.workdps(25):
                ref = mp.re(mp.polylog(mp.mpf(phi), mp.mpf(y)))
                rel = float(abs((sf.polylog_quadrature(y, phi) - ref) / ref))
            assert rel < 1e-13, (y, phi, rel)


def test_polylog_order_near_minus_one():
    # u^phi and the map's Jacobian both reach e^(+-1e10) as phi -> -1
    for k in (3, 6, 9, 12):
        phi = -1.0 + 10.0 ** -k
        for y in (-300.0, -2.0, 0.6, 0.85):
            assert sf.polylog(y, phi) == pytest.approx(mp_polylog(y, phi), rel=1e-12), (y, k)
    # the eta - 1 order of the closed forms reaches it at small eta
    point = ThermoPoint(1.0, 2.0)
    near = geometry_sample(GasModel("fd", eta=1e-6), point).R
    at_zero = geometry_sample(GasModel("fd", eta=0.0), point).R
    assert near == pytest.approx(at_zero, rel=1e-5)


# ---------------------------------------------------------------------------
# polylog: domain, overflow, invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y, phi", [(1.0, 2.0), (1.5, 2.0), (0.5, -1.5), (math.nan, 2.0),
                                    (0.999, -0.9), (-0.999, 2.0)])
def test_polylog_domain_errors(y, phi):
    # the last two lie inside the domain, but the direct series runs out of
    # terms there; polylog itself serves them by the other regimes
    with pytest.raises(DomainError):
        sf.polylog_series(y, phi)
    if not (abs(y) < 1.0 and phi >= -1.0):
        with pytest.raises(DomainError):
            sf.polylog(y, phi)


def test_step_down_domain_error_at_order_minus_one():
    # Li(y, -2) lies outside the rule's domain phi > -1
    with pytest.raises(DomainError):
        sf.polylog_step_down(0.5, -1.0)


@pytest.mark.parametrize("y, phi", [(-1e300, 150.0), (-1e300, 100.0), (-1e50, 120.0)])
def test_polylog_large_order_at_huge_fermi_argument(y, phi):
    # u^(phi+1) alone reaches ~e^987 at (-1e300, 150) while the value is
    # ~1e163; the ~1e3 exponent costs about three digits
    with mp.workdps(30):
        ref = float(mp.re(mp.polylog(mp.mpf(phi), mp.mpf(y))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.polylog(y, phi) == pytest.approx(ref, rel=1e-12)


def test_polylog_overflow_signalled(monkeypatch):
    # No float64 input inside the admitted domain can actually overflow, so
    # exercise the guard by forcing a branch to report divergence.
    sf.polylog.cache_clear()
    monkeypatch.setattr(sf, "_polylog_edge", lambda y, phi: math.inf)
    with pytest.raises(PolylogOverflowError):
        sf.polylog(0.99944321, 0.5)
    sf.polylog.cache_clear()


@given(st.floats(min_value=0.02, max_value=0.97),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_polylog_monotone_in_y_and_sign(y, phi):
    step = 0.02
    assert sf.polylog(y, phi) < sf.polylog(min(y + step, 0.99), phi)
    assert sf.polylog(y, phi) > 0.0
    assert sf.polylog(-y, phi) < 0.0


@given(st.floats(min_value=-1e-3, max_value=1e-3),
       st.floats(min_value=-0.9, max_value=6.0))
@settings(max_examples=80, deadline=None)
def test_polylog_first_term_expansion(y, phi):
    if y == 0.0:
        return
    assert abs(sf.polylog(y, phi) - y) <= 2.0 * y * y * 2.0 ** (-phi)


# ---------------------------------------------------------------------------
# order stepping via the derivative identity
# ---------------------------------------------------------------------------

def test_step_down_closed_forms():
    assert sf.polylog_step_down(0.5, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert sf.polylog_step_down(0.25, 0.0) == pytest.approx(0.25 / 0.75**2, rel=1e-9)
    assert sf.polylog_step_down(0.0, 2.0) == 0.0


def test_step_down_matches_direct_polylog():
    assert sf.polylog_step_down(-0.7, 1.5) == pytest.approx(sf.polylog(-0.7, 0.5), rel=1e-12)
    assert sf.polylog_step_down(-0.7, 1.5) == pytest.approx(-0.47746759105126794, rel=1e-12)


def test_step_down_reaches_order_below_domain():
    # phi - 1 = -1.6 is not directly evaluable; compare with mpmath
    got = sf.polylog_step_down(-0.4, -0.6)
    assert got == pytest.approx(mp_polylog(-0.4, -1.6), rel=1e-12)


def _step_down_points():
    # small |y|, the Fermi side, the Bose mid-range, the Bose edge, and
    # orders phi -> -1+ (step-down orders -> -2+)
    rng = np.random.default_rng(20261019)
    for _ in range(30):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        yield sign * float(10 ** rng.uniform(-6.0, math.log10(0.5))), float(rng.uniform(-1.0, 5.0))
        yield -float(10 ** rng.uniform(math.log10(0.5), 4.0)), float(rng.uniform(-1.0, 5.0))
        yield float(rng.uniform(0.5, 1.0 - 1e-3)), float(rng.uniform(-1.0, 5.0))
        yield 1.0 - float(10 ** rng.uniform(-8.0, -3.0)), float(rng.uniform(-1.0, 5.0))
    for k in (3, 6, 9, 12):
        for y in (-300.0, -1.0, -0.3, 0.3, 0.85, 1.0 - 1e-6):
            yield y, -1.0 + 10.0 ** -k


def test_polylog_step_down_against_mpmath():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow/invalid may escape
        for y, phi in _step_down_points():
            with mp.workdps(25):
                ref = mp.re(mp.polylog(mp.mpf(phi) - 1, mp.mpf(y)))
                rel = float(abs((sf.polylog_step_down(y, phi) - ref) / ref))
            assert rel < 1e-13, (y, phi, rel)


def test_step_down_near_its_fermi_zero():
    # Li(y, s) changes sign at an order s just below -1 on the Fermi side
    # (Li(-1000, -1.0064) = 2.2e-6, Li(-1000, -1) = -1.0e-3), so near it the
    # error is absolute: that of the tanh-weighted sum of terms of size
    # |Li(y, phi)| ~ 1, while the relative error reaches 1.5e-11
    for y, phi in ((-1000.0, -0.0064), (-1e4, -0.001), (-3162.28, -0.003)):
        with mp.workdps(60):
            ref = mp.re(mp.polylog(mp.mpf(phi) - 1, mp.mpf(y)))
            err = float(abs(sf.polylog_step_down(y, phi) - ref))
        assert err <= 1e-15 * abs(sf.polylog(y, phi)), (y, phi, err)


def _de_rule_reference(y, phi, lower):
    # the rule as one numpy expression per pass, with fresh arrays throughout
    y, phi = sf._validate(y, phi)
    c = -math.log(abs(y))
    scale = max(1.0, -c) if y < 0.0 else 1.0
    r = min(1.0, sf._DE_EDGE / scale)
    p1 = phi + 1.0
    head = math.log(min(1.0, c)) if y > 0.0 else 0.0
    start = int(sf._DE_S.searchsorted((head - 45.0 / p1) / r))
    s = r * sf._DE_S[start:]
    v = scale * np.exp(s) + c
    if y > 0.0:
        log_k = -v - 2.0 * np.log(-np.expm1(-v))
    else:
        a = np.abs(v)
        log_k = -a - 2.0 * np.log1p(np.exp(-a))
    log_gamma = math.log(math.gamma(p1)) if p1 < 171.0 else math.lgamma(p1)
    terms = np.exp(p1 * (math.log(scale) + s) + log_k + sf._DE_LOG_W[start:] - log_gamma)
    if lower:
        half = np.tanh(0.5 * v)
        terms = terms / half if y > 0.0 else terms * half
    return (r if y > 0.0 else -r) * float(np.sum(terms))


def _rule_parity_points():
    # each y kind: Bose mid-range, Bose edge, Fermi |y| <= e (scale 1),
    # e < |y| <= e^15 (scale > 1, r = 1), beyond (r < 1) up to 1e300
    rng = np.random.default_rng(20261019)
    kinds = (
        lambda: float(rng.uniform(0.5, 1.0 - 1e-3)),
        lambda: 1.0 - float(10 ** rng.uniform(-8.0, -3.0)),
        lambda: -float(rng.uniform(0.5, math.e)),
        lambda: -math.exp(float(rng.uniform(1.0, 15.0))),
        lambda: -float(10 ** rng.uniform(15.0 / math.log(10.0), 300.0)),
    )
    for kind in kinds:
        for _ in range(40):
            yield kind(), float(rng.uniform(-0.99, 6.0)), bool(rng.integers(2))
        for _ in range(8):  # phi -> -1+: the sum starts at the first node (2,130 of them)
            yield kind(), -1.0 + float(10 ** rng.uniform(-12.0, -2.0)), bool(rng.integers(2))
        for _ in range(8):
            yield kind(), float(rng.uniform(6.0, 150.0)), bool(rng.integers(2))


def test_rule_matches_its_plain_form_bit_for_bit():
    # The in-place passes must not move a bit.  Both sides run on the same
    # numpy kernels, which round differently on different CPUs, so the test
    # compares the two forms instead of pinning hex literals.
    points = list(_rule_parity_points())
    assert len(points) == 280
    for y, phi, lower in points:
        got = sf._de_rule(y, phi, lower)
        want = _de_rule_reference(y, phi, lower)
        assert got.hex() == want.hex(), (y, phi, lower, got, want)


def test_polylog_thread_safety():
    # pure and re-entrant: concurrent evaluation must match serial results
    from concurrent.futures import ThreadPoolExecutor

    args = [(-0.5 - 0.01 * k, 0.3 + 0.05 * k) for k in range(40)]
    serial = [sf.polylog(y, phi) for y, phi in args]
    sf.polylog.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: sf.polylog(*a), args))
    assert parallel == serial


def test_quadrature_nodes_are_read_only():
    # every caller shares the module-level node arrays, and the rule reads
    # slices of them (views) in the passes it runs in place
    tables = (sf._DE_T, sf._DE_S, sf._DE_EXP_S, sf._DE_LOG_W)
    for nodes in tables:
        with pytest.raises(ValueError):
            nodes[0] = 0.0
    before = [nodes.copy() for nodes in tables]
    for y, phi, lower in _rule_parity_points():
        sf._de_rule(y, phi, lower)
    for nodes, copy in zip(tables, before):
        assert np.array_equal(nodes, copy)
    assert sf._DE_S_FLOATS == tuple(sf._DE_S.tolist())  # the nodes the rule bisects


def test_derivative_identity_on_random_points():
    rng = np.random.default_rng(7)
    for _ in range(100):
        phi = float(rng.uniform(0.2, 5.0))
        y = float(rng.uniform(-4.0, 0.95))
        if abs(y) < 1e-3:
            continue
        lhs = sf.polylog_step_down(y, phi)
        rhs = sf.polylog(y, phi - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-6)
