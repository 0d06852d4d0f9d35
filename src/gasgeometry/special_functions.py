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
* adaptive quadrature of the integral representation (after one
  integration by parts, which keeps a single code path valid down to
  order phi > -1) for mid-range y,
* an expansion about ln y = 0 for y in [1 - 1e-3, 1), which is the
  Bose-Einstein condensation edge.

Each branch is cross-checked against the others by the test suite and by
``gasgeometry.verification``.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

from scipy import integrate
from scipy.special import gamma as _scipy_gamma, polygamma as _scipy_polygamma

from .errors import DomainError, PolylogOverflowError

__all__ = [
    "gamma_real",
    "zeta_real",
    "polylog",
    "polylog_series",
    "polylog_quadrature",
    "polylog_step_down",
]

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328606
# Stieltjes constants gamma_1, gamma_2 (expansion of zeta about its pole)
_STIELTJES_1 = -0.0728158454836767249
_STIELTJES_2 = -0.00969036319287191723
# zeta(s) = -1/2 - ln(2 pi)/2 * s + zeta''(0)/2 * s^2 + O(s^3) near s = 0
_ZETA_TAYLOR_1 = -0.9189385332046727418
_ZETA_TAYLOR_2 = -1.0031782279542924256

# Series regime |y| <= 0.5, quadrature up to the condensation edge window.
_SERIES_CUT = 0.5
_EDGE_CUT = 1.0 - 1e-3


# --------------------------------------------------------------------------
# gamma
# --------------------------------------------------------------------------

def gamma_real(x: float) -> float:
    """Euler gamma function for real x > 0.

    Relative error is below 1e-12 on (0, 20], which covers every order
    Gamma(eta + k), k = 1..4, eta > -1 used by the gas formulas.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_real requires x > 0, got {x!r}")
    return float(_scipy_gamma(x))


# --------------------------------------------------------------------------
# zeta
# --------------------------------------------------------------------------

def _borwein_coefficients(n: int) -> tuple[float, ...]:
    # d_k of Borwein's algorithm for the alternating zeta (eta) series;
    # exact rational arithmetic, converted to float once.
    acc = Fraction(0)
    out = []
    for i in range(n + 1):
        acc += Fraction(math.factorial(n + i - 1) * 4**i,
                        math.factorial(n - i) * math.factorial(2 * i))
        out.append(float(n * acc))
    return tuple(out)


_BORWEIN_N = 36
_BORWEIN_D = _borwein_coefficients(_BORWEIN_N)


def _eta_alternating(s: float) -> float:
    # Accelerated alternating series for eta(s) = sum (-1)^(k-1) k^-s,
    # reliable for s >= 0.5; error ~ 3 / (3 + sqrt(8))^n.
    n = _BORWEIN_N
    dn = _BORWEIN_D[n]
    total = 0.0
    for k in range(n):
        term = (_BORWEIN_D[k] - dn) / (k + 1) ** s
        total = total - term if k % 2 else total + term
    return -total / dn


@lru_cache(maxsize=4096)
def zeta_real(s: float) -> float:
    """Riemann zeta at real s != 1, accurate to ~1e-13 relative.

    Uses the globally convergent alternating (eta) series with Borwein
    acceleration for s >= 1/2 and the functional equation for s < 1/2;
    a short Taylor expansion handles the neighbourhood of s = 0 and the
    trivial zeros at negative even integers are returned exactly.
    """
    s = float(s)
    if s == 1.0:
        raise DomainError("zeta_real has a pole at s = 1")
    if abs(s) <= 1e-5:
        return -0.5 + s * (_ZETA_TAYLOR_1 + s * _ZETA_TAYLOR_2)
    if s >= 0.5:
        denom = -math.expm1((1.0 - s) * _LN2)  # 1 - 2^(1-s)
        return _eta_alternating(s) / denom
    if s == round(s) and round(s) % 2 == 0:
        return 0.0  # trivial zeros
    ref = 1.0 - s
    return (2.0**s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
            * float(_scipy_gamma(ref)) * zeta_real(ref))


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


def polylog_series(y: float, phi: float, tol: float = 1e-16, max_terms: int = 5000) -> float:
    """Direct summation of sum_k y^k / k^phi.

    Terminates once a term drops below ``tol`` times the partial sum.
    Practical for |y| <= ~0.9; the dispatcher uses it for |y| <= 0.5.
    """
    y, phi = _validate(y, phi)
    if y == 0.0:
        return 0.0
    if abs(y) >= 1.0:
        raise DomainError("series representation needs |y| < 1")
    total = 0.0
    for k in range(1, max_terms + 1):
        term = y**k / k**phi
        total += term
        if abs(term) <= tol * abs(total):
            return total
    raise ArithmeticError(f"polylog series did not converge for y={y}, phi={phi}")


def _bose_kernel(v: float) -> float:
    # e^v / (e^v - 1)^2, written to stay finite for v in (0, inf)
    t = math.exp(-v)
    em = -math.expm1(-v)
    return t / (em * em)


def _fermi_kernel(v: float) -> float:
    # e^v / (e^v + 1)^2
    t = math.exp(-v)
    return t / ((1.0 + t) * (1.0 + t))


def polylog_quadrature(y: float, phi: float) -> float:
    """Adaptive quadrature of the integral representation.

    One integration by parts turns the u^(phi-1) weight of the defining
    integral into u^phi, so a single integrable form covers all orders
    phi > -1:

        Li(y, phi) = (1/Gamma(phi+1)) * int_0^inf u^phi K(u - ln|y|) du,

    with K the Bose kernel e^v/(e^v-1)^2 for y > 0 and the (negated)
    Fermi kernel e^v/(e^v+1)^2 for y < 0.
    """
    y, phi = _validate(y, phi)
    if y == 0.0:
        return 0.0
    if phi <= -1.0:
        raise DomainError("quadrature representation needs phi > -1")
    c = -math.log(abs(y))
    kern = _bose_kernel if y > 0.0 else _fermi_kernel

    def f(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return u**phi * kern(u + c)

    peak = max(-c, 0.0)  # for y < -1 the kernel peaks at u = ln|y|
    brk = peak + 30.0
    pts = sorted({p for p in (abs(c), peak, peak + 1.0) if 0.0 < p < brk})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(f, 0.0, brk, epsabs=0.0, epsrel=1e-12,
                                 limit=400, points=pts or None)
        tail, _ = integrate.quad(f, brk, math.inf, epsabs=1e-280, epsrel=1e-12,
                                 limit=400)
    sign = 1.0 if y > 0.0 else -1.0
    return sign * (head + tail) / float(_scipy_gamma(phi + 1.0))


def _edge_regular_part(w: float, phi: float, skip: int) -> float:
    # sum_{j != skip} zeta(phi - j) w^j / j!  (skip < 0 skips nothing)
    total = 0.0
    wj = 1.0
    for j in range(0, 60):
        if j > 0:
            wj *= w / j
        if j == skip:
            continue
        term = zeta_real(phi - j) * wj
        total += term
        if j > 4 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _polylog_edge(y: float, phi: float) -> float:
    # Expansion about ln y = 0 for y in [1 - 1e-3, 1):
    #   Li(y, phi) = Gamma(1-phi) (-w)^(phi-1) + sum_j zeta(phi-j) w^j / j!
    # with w = ln y.  For phi at (or within ~2e-5 of) a positive integer n
    # the Gamma term and the j = n-1 zeta term are separately singular and
    # are combined analytically.
    w = math.log(y)
    n = round(phi)
    delta = phi - n
    if n < 1:
        return (_edge_regular_part(w, phi, skip=-1)
                + float(_scipy_gamma(1.0 - phi)) * (-w) ** (phi - 1.0))
    regular = _edge_regular_part(w, phi, skip=n - 1)
    wn = w ** (n - 1) / math.factorial(n - 1)
    L = math.log(-w)
    if abs(delta) < 2e-5:
        # limit n integer: bracket -> H_{n-1} - ln(-w); kept to second order
        # in delta so the handover to the direct pole-pair form stays below
        # 1e-10 even for order phi near 1 at y = 1 - 1e-8
        ps = float(_scipy_polygamma(0, n))
        ps1 = float(_scipy_polygamma(1, n))
        ps2 = float(_scipy_polygamma(2, n))
        a1 = -ps
        a2 = 0.5 * (ps * ps - ps1)
        a3 = -(ps**3 - 3.0 * ps * ps1 + ps2) / 6.0
        pi2_6 = math.pi**2 / 6.0
        p2 = 0.5 * L * L + pi2_6 + a2 + L * a1
        p3 = L**3 / 6.0 + 0.5 * L * L * a1 + L * a2 + a3 + pi2_6 * (L + a1)
        bracket = ((_EULER_GAMMA + ps - L) + delta * (-_STIELTJES_1 - p2)
                   + delta * delta * (0.5 * _STIELTJES_2 - p3))
        return regular + wn * bracket
    pole_pair = ((-1.0) ** n * math.pi / (math.sin(math.pi * delta)
                 * float(_scipy_gamma(n + delta))) * (-w) ** (phi - 1.0)
                 + zeta_real(1.0 + delta) * wn)
    return regular + pole_pair


@lru_cache(maxsize=1 << 16)
def polylog(y: float, phi: float) -> float:
    """Polylogarithm Li(y, phi) for real y < 1 and real order phi >= -1.

    Relative accuracy is ~1e-13 (target 1e-10) on y in [-1e4, 1 - 1e-8],
    phi in [-1, 6].  Orders -1, 0, 1 use their closed forms
    y/(1-y)^2, y/(1-y) and -ln(1-y).  Divergence toward y -> 1- with
    phi <= 1 is physical; a value outside the representable range raises
    :class:`PolylogOverflowError` rather than returning ``inf``.

    Results are memoized; the function is pure and safe to call from
    concurrent workers.
    """
    y, phi = _validate(y, phi)
    if y == 0.0:
        return 0.0
    if phi == 1.0:
        out = -math.log1p(-y)
    elif phi == 0.0:
        out = y / (1.0 - y)
    elif phi == -1.0:
        out = y / ((1.0 - y) * (1.0 - y))
    elif abs(y) <= _SERIES_CUT:
        out = polylog_series(y, phi)
    elif y >= _EDGE_CUT:
        out = _polylog_edge(y, phi)
    else:
        out = polylog_quadrature(y, phi)
    if not math.isfinite(out):
        raise PolylogOverflowError(
            f"Li({y!r}, {phi!r}) exceeds the representable range "
            "(the function diverges as y -> 1- for phi <= 1)")
    return out


def polylog_step_down(y: float, phi: float) -> float:
    """Li(y, phi - 1) obtained from the derivative identity.

    Uses y * d/dy Li(y, phi), the order-lowering property of the
    polylogarithm, with a Richardson-extrapolated central difference.
    Agrees with direct evaluation at order phi - 1 to ~1e-7 relative and
    reaches orders down to -2, one below the direct domain.
    """
    y, phi = _validate(y, phi)
    if y == 0.0:
        return 0.0
    h = 1e-3 * max(1.0, abs(y))
    if y > 0.0:
        # truncation grows like (h/(1-y))^4 toward the edge
        h = min(h, (1.0 - y) / 128.0)

    def central(step: float) -> float:
        return (polylog(y + step, phi) - polylog(y - step, phi)) / (2.0 * step)

    d = (4.0 * central(0.5 * h) - central(h)) / 3.0
    return y * d
