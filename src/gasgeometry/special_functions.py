"""Gamma, Riemann zeta and real-order polylogarithm on the real line.

The polylogarithm

    Li(y, phi) = sum_{k>=1} y^k / k^phi
               = (1/Gamma(phi)) * int_0^inf u^(phi-1) / (y^{-1} e^u - 1) du

is the workhorse of ideal quantum gas thermodynamics: Fermi-Dirac
statistics evaluates it at y = -xi with xi in (0, inf), Bose-Einstein at
y = xi in (0, 1).  No single representation covers that range at the
1e-10 relative accuracy this package targets, so :func:`polylog` switches
between three regimes:

* direct series summation for |y| <= 0.5,
* a fixed-node double-exponential (Takahasi-Mori) rule on the integral
  representation for mid-range y, after one integration by parts, which
  keeps a single code path valid down to order phi > -1; its map, step,
  scale and truncation are given in :func:`polylog_quadrature`, and
  :func:`polylog_step_down` differentiates it exactly for Li(y, phi - 1),
* an expansion about ln y = 0 for y in [1 - 1e-3, 1), which is the
  Bose-Einstein condensation edge, at orders phi < 0.5 or at least 0.03
  from an integer; nearer a positive integer its Gamma and zeta poles
  cancel, so there the double-exponential rule serves the edge too.

Each branch is cross-checked against the others by the test suite and by
``gasgeometry.verification``.  Gamma is the standard library's
``math.gamma``; the Riemann zeta that the edge expansion sums over is an
Euler-Maclaurin sum with the functional equation below s = 1/2.  Both add
the package's :class:`DomainError` contract, and neither needs scipy.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, PolylogOverflowError

__all__ = [
    "gamma_real",
    "zeta_real",
    "polylog",
    "polylog_series",
    "polylog_quadrature",
    "polylog_step_down",
]

# Series regime |y| <= 0.5, quadrature up to the condensation edge window.
_SERIES_CUT = 0.5
_SERIES_TOL = 1e-16
_SERIES_MAX_TERMS = 5000
_EDGE_CUT = 1.0 - 1e-3
_EDGE_BAND = 0.03  # orders phi >= 0.5 this close to an integer go to the DE rule

# Nodes ln(u/scale) = pi/2 sinh t and log weights ln(h pi/2 cosh t) of
# polylog_quadrature at t = k h; read-only, as every caller shares them.
_DE_EDGE = 15.0  # scale above which the map is compressed by r = _DE_EDGE/scale
_DE_H = 0.02
_DE_T = _DE_H * np.arange(-2000, 130)
_DE_S = 0.5 * math.pi * np.sinh(_DE_T)
_DE_LOG_W = np.log(_DE_H * 0.5 * math.pi * np.cosh(_DE_T))
_DE_T.setflags(write=False)
_DE_S.setflags(write=False)
_DE_LOG_W.setflags(write=False)


# --------------------------------------------------------------------------
# gamma
# --------------------------------------------------------------------------

def gamma_real(x: float) -> float:
    """Euler gamma function for real x > 0.

    ``math.gamma``: relative error below 1e-15 on (0, 25], which covers
    every order Gamma(eta + k), k = 1..4, eta > -1 used by the gas
    formulas.  Returns ``inf`` past x ~ 171.6, where Gamma leaves the double
    range.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_real requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# zeta
# --------------------------------------------------------------------------

# Euler-Maclaurin: N terms summed directly, then B_2k/(2k)! for k = 1..7
_EM_N = 10.0
_EM_POWERS = tuple(float(n) for n in range(2, 10))
_EM_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                 -691 / 1307674368000, 1 / 74724249600)


def _zeta_em(s: float, sm1: float) -> float:
    # zeta(s) for s >= 1/2, given sm1 = s - 1 exactly for the pole term:
    #   sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
    #     + sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k)
    x = _EM_N ** -s
    tail = _EM_N * x / sm1 + 0.5 * x
    f = s * x / _EM_N
    a = s
    for c in _EM_BERNOULLI:
        tail += c * f
        # f leads: once N^-s underflows at huge s, f stays 0, never 0 * inf
        f = f * (a + 1.0) * (a + 2.0) / (_EM_N * _EM_N)
        a += 2.0
    return 1.0 + sum([n ** -s for n in _EM_POWERS]) + tail


@lru_cache(maxsize=4096)
def zeta_real(s: float) -> float:
    """Riemann zeta at real finite s != 1, accurate to ~1e-14 relative.

    An Euler-Maclaurin sum (N = 10, Bernoulli terms B_2..B_14) for
    s >= 1/2; below, the functional equation

        zeta(s) = 2 (2 pi)^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s),

    with sin reduced to its nearest zero, so the trivial zeros at negative
    even integers are exact and the relative error stays ~1e-14 up to 1e-3
    from them.  Returns a signed ``inf`` where |zeta| leaves the double
    range (s < ~-260).  Memoized because the edge expansion of
    :func:`polylog` reuses the orders phi - j.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"zeta_real requires finite s, got {s!r}")
    if s == 1.0:
        raise DomainError("zeta_real has a pole at s = 1")
    if s >= 0.5:
        return _zeta_em(s, s - 1.0)
    if s == 0.0:
        return -0.5
    # sin(pi s/2) = -sin(pi r/2), r = fmod(-s, 4) = d + 2k with |d| <= 1 exact
    r = math.fmod(-s, 4.0)
    k = round(0.5 * r)
    d = r - 2.0 * k
    if d == 0.0:
        return 0.0
    sine = math.sin(0.5 * math.pi * d) if k == 1 else -math.sin(0.5 * math.pi * d)
    t = 1.0 - s
    if t > 340.0:  # Gamma(t/2) nears overflow; |zeta| is long past the double range
        return math.copysign(math.inf, sine)
    # 2 (2 pi)^-t Gamma(t) = Gamma(t/2) Gamma(t/2 + 1/2) pi^-t / sqrt(pi)
    # (Legendre's duplication): neither factor overflows before |zeta| does
    h = math.pi ** (-0.5 * t)
    return (sine * _zeta_em(t, -s) * (math.gamma(0.5 * t) * h)
            * (math.gamma(0.5 * t + 0.5) * h / math.sqrt(math.pi)))


# --------------------------------------------------------------------------
# polylogarithm
# --------------------------------------------------------------------------

def _validate(y: float, phi: float) -> tuple[float, float]:
    y = float(y)
    phi = float(phi)
    if not (math.isfinite(y) and math.isfinite(phi)):
        raise DomainError(f"polylog arguments must be finite, got y={y!r}, phi={phi!r}")
    if y >= 1.0:
        raise DomainError(f"polylog requires y < 1, got y={y!r}")
    if phi < -1.0:
        raise DomainError(f"polylog requires phi >= -1, got phi={phi!r}")
    return y, phi


def polylog_series(y: float, phi: float) -> float:
    """Direct summation of sum_k y^k / k^phi.

    Terminates once a term drops below 1e-16 times the partial sum, and
    raises DomainError if 5000 terms do not get there.  Practical for
    |y| <= ~0.9; the dispatcher uses it for |y| <= 0.5.
    """
    y, phi = _validate(y, phi)
    if abs(y) >= 1.0:
        raise DomainError("series representation needs |y| < 1")
    total = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = y**k / k**phi
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            return total
    raise DomainError(f"polylog series did not converge within {_SERIES_MAX_TERMS} "
                      f"terms at y={y!r}, phi={phi!r}")


def _de_rule(y: float, phi: float, lower: bool) -> float:
    # Li(y, phi), or Li(y, phi - 1) if lower; see the two public functions
    y, phi = _validate(y, phi)
    if y == 0.0:
        return 0.0
    if phi <= -1.0:
        raise DomainError("quadrature representation needs phi > -1")
    c = -math.log(abs(y))
    scale = max(1.0, -c) if y < 0.0 else 1.0
    r = min(1.0, _DE_EDGE / scale)
    p1 = phi + 1.0
    head = math.log(min(1.0, c)) if y > 0.0 else 0.0
    start = int(_DE_S.searchsorted((head - 45.0 / p1) / r))
    s = r * _DE_S[start:]
    v = scale * np.exp(s) + c
    if y > 0.0:
        log_k = -v - 2.0 * np.log(-np.expm1(-v))
    else:
        a = np.abs(v)
        log_k = -a - 2.0 * np.log1p(np.exp(-a))
    # ln Gamma(p1): math.lgamma alone is off by up to 1.8e-15 absolute on [1, 6]
    log_gamma = math.log(math.gamma(p1)) if p1 < 171.0 else math.lgamma(p1)
    terms = np.exp(p1 * (math.log(scale) + s) + log_k + _DE_LOG_W[start:] - log_gamma)
    if lower:  # times -d ln K/dv: coth(v/2) for Bose, tanh(v/2) for Fermi
        half = np.tanh(0.5 * v)
        terms = terms / half if y > 0.0 else terms * half
    return (r if y > 0.0 else -r) * float(np.sum(terms))


def polylog_quadrature(y: float, phi: float) -> float:
    """Double-exponential quadrature of the integral representation.

    One integration by parts turns the u^(phi-1) weight of the defining
    integral into u^phi, so a single integrable form covers all orders
    phi > -1:

        Li(y, phi) = (1/Gamma(phi+1)) * int_0^inf u^phi K(u - ln|y|) du,

    with K the Bose kernel e^v/(e^v-1)^2 for y > 0 and the (negated)
    Fermi kernel e^v/(e^v+1)^2 for y < 0.

    The rule is the double-exponential trapezoid sum of Takahasi & Mori
    (1974) on the map u = scale * exp(r pi/2 sinh t), at the fixed nodes
    t = k h, h = 0.02, k = -2000..129 (computed from integer k: the nodes
    of np.arange(a, b, h) drift by up to ~7e-12 and bias the sum by
    ~1e-13).  scale = ln|y| for Fermi y < -1 puts the nodes on the Fermi
    edge u ~ ln|y|, else scale = 1; r = min(1, 15/scale) keeps that edge,
    of width ~1/scale in ln u, resolved (without r the error reaches 1e-10
    at y = -1e10 and 9e-2 at -1e50).  Each term is one exponential of
    (phi+1) ln u + ln K + ln(h pi/2 cosh t) - ln Gamma(phi+1), times the
    common factor r: u^phi and du/dt reach e^(+-1e10) separately as
    phi -> -1, and u^(phi+1) alone overflows at (y, phi) = (-1e300, 150).
    The sum starts at the first node with (phi+1) ln(u/(scale m)) >= -45,
    m = min(1, -ln y) for Bose y, else 1, which keeps the slowly decaying
    head near phi = -1 and the head below the peak u ~ -ln y at the Bose edge.
    """
    return _de_rule(y, phi, lower=False)


def _polylog_edge(y: float, phi: float) -> float:
    # Expansion about ln y = 0 (Lewin 1981), w = ln y, y in [1 - 1e-3, 1):
    #   Li(y, phi) = Gamma(1-phi) (-w)^(phi-1) + sum_j zeta(phi-j) w^j / j!
    # Near a positive integer order n the Gamma term and the j = n-1 zeta
    # term are both singular and cancel, so polylog sends orders within
    # _EDGE_BAND of n >= 1 to the double-exponential rule instead.
    w = math.log(y)
    total = math.gamma(1.0 - phi) * (-w) ** (phi - 1.0)
    wj = 1.0
    for j in range(60):
        if j > 0:
            wj *= w / j
        term = zeta_real(phi - j) * wj
        total += term
        if j > 4 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


@lru_cache(maxsize=1 << 16)
def polylog(y: float, phi: float) -> float:
    """Polylogarithm Li(y, phi) for real y < 1 and real order phi >= -1.

    Relative accuracy is ~1e-13 (target 1e-10) on y in [-1e4, 1 - 1e-8],
    phi in [-1, 6].  Orders -1, 0, 1 use their closed forms
    y/(1-y)^2, y/(1-y) and -ln(1-y).  For y >= 1 - 1e-3 the expansion
    about ln y = 0 serves orders phi < 0.5 and those at least 0.03 from an
    integer (~1e-15 there); the double-exponential rule serves the orders
    near a positive integer, where the expansion's poles would cancel
    ~log10(1/delta) digits at distance delta.  Divergence toward y -> 1- with
    phi <= 1 is physical; a value outside the representable range raises
    :class:`PolylogOverflowError` rather than returning ``inf``.

    Results are memoized; the function is pure and safe to call from
    concurrent workers.
    """
    y, phi = _validate(y, phi)
    if phi == 1.0:
        out = -math.log1p(-y)
    elif phi == 0.0:
        out = y / (1.0 - y)
    elif phi == -1.0:
        out = y / ((1.0 - y) * (1.0 - y))
    elif abs(y) <= _SERIES_CUT:
        out = polylog_series(y, phi)
    elif y >= _EDGE_CUT and (phi < 0.5 or abs(phi - round(phi)) >= _EDGE_BAND):
        out = _polylog_edge(y, phi)
    else:
        out = polylog_quadrature(y, phi)
    if not math.isfinite(out):
        raise PolylogOverflowError(
            f"Li({y!r}, {phi!r}) exceeds the representable range "
            "(the function diverges as y -> 1- for phi <= 1)")
    return out


def polylog_step_down(y: float, phi: float) -> float:
    """Li(y, phi - 1) for phi > -1, one order below the direct domain.

    With c = -ln|y|, Li(y, phi-1) = y d/dy Li(y, phi) = -d/dc Li(y, phi)
    differentiates the integral of :func:`polylog_quadrature` exactly:
    each node of its rule is multiplied by -d ln K/dv, coth(v/2) for Bose
    and tanh(v/2) for Fermi y.  Relative error <= 1e-13 against mpmath on
    y in [-1e4, 1 - 1e-8]; below, the sign change of tanh at the Fermi edge
    u ~ ln|y| cancels ~ln|y| of it (4e-12 at y = -1e300).
    """
    return _de_rule(y, phi, lower=True)
