"""Closed-form thermodynamics and Fisher-Rao geometry of ideal gases.

A gas model is fixed by its statistics and by the density-of-states power
law G(eps) = kappa * eps^eta (eta > -1, kappa > 0).  In the coordinates
(beta, xi) of the grand canonical ensemble every quantity below reduces to
Gamma functions and polylogarithms:

    free energy   F   = +- kappa Gamma(eta+1) beta^-(eta+1) Li(-+xi, eta+2)
    energy        U   = -+ kappa Gamma(eta+2) beta^-(eta+2) Li(-+xi, eta+2)
    particles     N   = -+ kappa Gamma(eta+1) beta^-(eta+1) Li(-+xi, eta+1)

with the upper sign for Fermi-Dirac and the lower for Bose-Einstein.
All of them, and the metric entries, are rungs of one ladder

    T(k, j) = kappa Gamma(eta+k) beta^-(eta+k) L(eta+j),

with L = -Li(-xi, .) for Fermi-Dirac, Li(xi, .) for Bose-Einstein and
xi for the classical gas, so that L > 0 for every statistics:

    F = -T(1, 2)    U = T(2, 2)    N = T(1, 1)
    g = (g11, g12, g22) = (T(3, 2), T(2, 1), T(1, 0))

The Bose branch optionally carries the ground state, whose level at zero
energy adds log(1-xi) to F, N0 = xi/(1-xi) to the particle number and
xi/(1-xi)^2 to g22; it removes the curvature singularity at the
condensation edge xi -> 1.

Metric determinants and scalar curvatures are assembled from the unitless
determinant bundles A, B (and their ground-state companions A_c, B_c):

    det g = (kappa / beta^(eta+2))^2 * g_bar
    R     = +- (beta^(eta+1) / 2 kappa) * R_bar

with the sign positive for fermions (R < 0 follows from B < 0) and
negative for bosons.  The Gamma recurrence Gamma(eta+k+1) =
(eta+k) Gamma(eta+k) reduces every bundle to Gamma(eta+1) times a
polynomial in the polylogarithms (see det_bundle).  The classical ideal
gas is the xi -> 0 envelope of both branches and is exactly flat.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .errors import (ConditioningWarning, DomainError, PolylogOverflowError,
                     SingularMetricError)
from .gibbs_core import FreeEnergyField, LagrangeCoords, MetricField, MetricTensor2
from .special_functions import gamma_real, polylog, polylog_step_down

__all__ = [
    "FERMI_DIRAC",
    "BOSE_EINSTEIN",
    "BOSE_EINSTEIN_NO_GROUND",
    "CLASSICAL_IDEAL",
    "STATISTICS",
    "GasModel",
    "ThermoPoint",
    "DeterminantBundle",
    "GeometrySample",
    "LimitCoefficients",
    "DensityOfStatesEntry",
    "free_energy",
    "averages",
    "ground_state_occupation",
    "metric",
    "det_bundle",
    "geometry_sample",
    "geometry_grid",
    "limit_coefficients",
    "limit_curvature",
    "dos_catalog",
    "free_energy_field",
    "metric_field",
]

FERMI_DIRAC = "fd"
BOSE_EINSTEIN = "be"
BOSE_EINSTEIN_NO_GROUND = "be0"
CLASSICAL_IDEAL = "classical"
STATISTICS = frozenset({FERMI_DIRAC, BOSE_EINSTEIN, BOSE_EINSTEIN_NO_GROUND,
                        CLASSICAL_IDEAL})

_BOSONIC = frozenset({BOSE_EINSTEIN, BOSE_EINSTEIN_NO_GROUND})


@dataclass(frozen=True)
class GasModel:
    """Statistics plus the density-of-states pair (eta, kappa).

    eta > -1 keeps Gamma(eta+1)..Gamma(eta+4) finite; kappa > 0 carries
    units of energy^-(eta+1), so kappa^(-1/(eta+1)) is the emergent energy
    unit of the model.  The classical gas needs eta > -1 as well (for
    Gamma(eta+1)) and is the textbook three-dimensional box gas at eta = 1/2.
    """

    statistics: str
    eta: float = 0.5
    kappa: float = 1.0

    def __post_init__(self):
        if self.statistics not in STATISTICS:
            raise DomainError(
                f"unknown statistics {self.statistics!r}; expected one of {sorted(STATISTICS)}")
        if not math.isfinite(self.eta) or self.eta <= -1.0:
            raise DomainError(f"eta must be > -1, got {self.eta}")
        if not math.isfinite(self.kappa) or self.kappa <= 0.0:
            raise DomainError(f"kappa must be > 0, got {self.kappa}")


@dataclass(frozen=True)
class ThermoPoint:
    """A point (beta, xi) on the statistical manifold.

    beta > 0 is the inverse temperature, xi > 0 the fugacity.  Bosonic
    statistics additionally require xi < 1, checked where a model is known.
    """

    beta: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")
        if not (math.isfinite(self.xi) and self.xi > 0.0):
            raise DomainError(f"xi must be finite and > 0, got {self.xi}")

    def to_coords(self) -> LagrangeCoords:
        return LagrangeCoords(self.beta, -math.log(self.xi))

    @classmethod
    def from_coords(cls, at: LagrangeCoords) -> "ThermoPoint":
        return cls(at.lambda1, at.xi)


@dataclass(frozen=True)
class DeterminantBundle:
    """Unitless determinant factors at one (x, eta).

    A and B are the 2x2 and 3x3 Gamma/polylog determinants entering the
    metric determinant and curvature; A_c and B_c are their ground-state
    companions, defined only for 0 < x < 1 (None otherwise).  ``warning``
    is the text of the ConditioningWarning det_bundle emitted, or None.
    """

    A: float
    B: float
    A_c: Optional[float]
    B_c: Optional[float]
    warning: Optional[str] = field(default=None, compare=False)


@dataclass(frozen=True)
class GeometrySample:
    """Metric, determinant and curvature data at one point.

    det_g = (kappa/beta^(eta+2))^2 * g_bar and
    R = +-(beta^(eta+1)/2 kappa) * R_bar, sign fixed by the statistics.
    """

    point: ThermoPoint
    metric: MetricTensor2
    det_g: float
    g_bar: float
    R: float
    R_bar: float


@dataclass(frozen=True)
class LimitCoefficients:
    """Low-fugacity expansion constants f, f_c, h, h_c of the bundles."""

    f: float
    f_c: float
    h: float
    h_c: float


def _require_point(model: GasModel, p: ThermoPoint) -> None:
    if model.statistics in _BOSONIC and p.xi >= 1.0:
        raise DomainError(
            f"Bose-Einstein statistics require xi < 1, got xi = {p.xi}")


def _ground_terms(xi: float) -> tuple[float, float]:
    # (xi/(1-xi)^2, xi(1+xi)/(1-xi)^3) with w = 1 - xi held explicitly;
    # the subtraction is exact in binary for xi in [0.5, 1).
    w = 1.0 - xi
    return xi / (w * w), xi * (1.0 + xi) / (w * w * w)


# --------------------------------------------------------------------------
# grid cells: what a point shares with its xi column and its beta row
# --------------------------------------------------------------------------
#
# Every closed form below is built from rungs T(k, j) = c_k L_j, with
# L_j = L(eta+j) and c_k = kappa Gamma(eta+k) / beta^(eta+k).  A point's
# column [L_0, L_1, L_2, bundle] depends on xi alone and its ladder
# [-, c_1, c_2, c_3] on beta alone.  Both start as four Nones and are
# filled on first use, so the points of a grid share them; a lone point is
# the one-cell case, whose lists are literals (they build faster than
# [None] * 4).  A value that raises is not kept: each point raises it
# again, as it would on its own.

def _column_value(model: GasModel, xi: float, j: int) -> float:
    # L(eta+j) = -Li(-xi, .) (fd), Li(xi, .) (Bose) or xi (classical);
    # negation is exact, so carrying the sign on L changes no bit
    if model.statistics == FERMI_DIRAC:
        return -polylog(-xi, model.eta + j)
    if model.statistics == CLASSICAL_IDEAL:
        return xi  # classical: leading polylog term exactly
    return polylog(xi, model.eta + j)


@lru_cache(maxsize=256)
def _gamma(x: float) -> float:
    # Gamma(eta + k) of the ladders and bundles: one evaluation per argument, not per point
    return gamma_real(x)


def _ladder_factor(model: GasModel, beta: float, k: int) -> float:
    # c_k; outside the float range it is inf, as is every rung that uses it (L > 0)
    try:
        return model.kappa * _gamma(model.eta + k) / beta ** (model.eta + k)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _rung(model: GasModel, p: ThermoPoint, column: list, ladder: list, k: int, j: int) -> float:
    # T(k, j) = c_k L_j, the same product and bits as
    # kappa * Gamma(eta+k) / beta**(eta+k) * L; a rung outside the float
    # range raises DomainError, not a bare error
    l = column[j]
    if l is None:
        l = column[j] = _column_value(model, p.xi, j)
    c = ladder[k]
    if c is None:
        c = ladder[k] = _ladder_factor(model, p.beta, k)
    out = c * l
    if out == 0.0 or math.isinf(out):
        raise DomainError(f"a ladder term leaves the float range at beta = {p.beta!r} and xi = {p.xi!r}")
    return out


# --------------------------------------------------------------------------
# thermodynamic closed forms
# --------------------------------------------------------------------------

def free_energy(model: GasModel, p: ThermoPoint) -> float:
    """Grand canonical free energy F = -log Z per the closed forms above.

    With the Bose ground state F includes log(1-xi), so that grad F = (U, N)
    and -Hess F = g hold for every statistics.
    """
    _require_point(model, p)
    f = -_rung(model, p, [None, None, None, None], [None, None, None, None], 1, 2)
    if model.statistics == BOSE_EINSTEIN:
        f += math.log1p(-p.xi)
    return f


def _cell_averages(model: GasModel, p: ThermoPoint, column: list,
                   ladder: list) -> tuple[float, float]:
    _require_point(model, p)
    u = _rung(model, p, column, ladder, 2, 2)
    n = _rung(model, p, column, ladder, 1, 1)
    if model.statistics == BOSE_EINSTEIN:
        n += ground_state_occupation(p)
    return u, n


def averages(model: GasModel, p: ThermoPoint) -> tuple[float, float]:
    """Mean energy U and particle number N.

    For Bose-Einstein statistics with the ground state, N includes
    N0 = xi/(1-xi); the energy is unchanged because the ground level
    carries zero energy.
    """
    return _cell_averages(model, p, [None, None, None, None], [None, None, None, None])


def ground_state_occupation(p: ThermoPoint) -> float:
    """Ground-state population N0 = xi/(1-xi) = 1/(exp(lambda^2) - 1)."""
    if p.xi >= 1.0:
        raise DomainError(f"ground-state occupation needs xi < 1, got {p.xi}")
    return p.xi / (1.0 - p.xi)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _cell_metric(model: GasModel, p: ThermoPoint, column: list,
                 ladder: list) -> MetricTensor2:
    _require_point(model, p)
    g22 = _rung(model, p, column, ladder, 1, 0)
    if model.statistics == BOSE_EINSTEIN:
        g22 += _ground_terms(p.xi)[0]
    return MetricTensor2(_rung(model, p, column, ladder, 3, 2),
                         _rung(model, p, column, ladder, 2, 1), g22)


def metric(model: GasModel, p: ThermoPoint) -> MetricTensor2:
    """Closed-form metric (T(3,2), T(2,1), T(1,0)) of any statistics.

    All entries are positive; with the ground state only g22 changes, by
    xi/(1-xi)^2.
    """
    return _cell_metric(model, p, [None, None, None, None], [None, None, None, None])


# --------------------------------------------------------------------------
# determinant bundles and curvature
# --------------------------------------------------------------------------

def _gammas(eta: float) -> tuple[float, float, float]:
    # (g1, g2, g3), g_k = Gamma(eta+k), from one Gamma evaluation and the recurrence
    g1 = _gamma(eta + 1.0)
    g2 = (eta + 1.0) * g1
    return g1, g2, (eta + 2.0) * g2


def det_bundle(x: float, eta: float) -> DeterminantBundle:
    """Evaluate the determinant factors A, B (and A_c, B_c for 0 < x < 1).

    With g_k = Gamma(eta+k), L_j = Li(x, eta+j) and the ground-state terms
    s1 = x/(1-x)^2, s2 = x(1+x)/(1-x)^3, the bundles are defined as

        A   = g3 L2 g1 L0 - (g2 L1)^2
        B   = det [[g3 L2, g2 L1, g1 L0],     B_c = det [[g3 L2, g2 L1, s1],
                   [g4 L2, g3 L1, g2 L0],                [g4 L2, g3 L1, 0 ],
                   [g3 L1, g2 L0, g1 L-1]]               [g3 L1, g2 L0, s2]]
        A_c = g3 L2 s1

    The recurrence g_(k+1) = (eta+k) g_k factors the Gammas out: row 2
    minus (eta+1) times row 1 of B is [2 g3 L2, g2 L1, 0], and
    g3^2 - g2 g4 = -(eta+2) g2^2, so that

        A   = g1 g2 ((eta+2) L0 L2 - (eta+1) L1^2)
        B   = g1 g2 g3 (L0 (2 L0 L2 - L1^2) - L-1 L1 L2)
        B_c = (eta+2) g2^2 (s1 ((eta+3) L0 L2 - (eta+2) L1^2) - s2 L1 L2)

    and one Gamma evaluation serves all four.
    """
    if not math.isfinite(x) or x >= 1.0:
        raise DomainError(f"det_bundle requires x < 1, got {x}")
    if eta <= -1.0:
        raise DomainError(f"det_bundle requires eta > -1, got {eta}")
    g1, g2, g3 = _gammas(eta)
    # order eta - 1 drops below the direct polylog domain when eta < 0
    # (e.g. the one-dimensional box); step down from order eta instead
    l_m1 = polylog(x, eta - 1.0) if eta >= 0.0 else polylog_step_down(x, eta)
    l_0 = polylog(x, eta)
    l_1 = polylog(x, eta + 1.0)
    l_2 = polylog(x, eta + 2.0)

    a = g1 * g2 * ((eta + 2.0) * l_0 * l_2 - (eta + 1.0) * l_1 * l_1)
    core = l_0 * (2.0 * l_0 * l_2 - l_1 * l_1) - l_m1 * l_1 * l_2
    terms = abs(l_0) * (2.0 * abs(l_0 * l_2) + l_1 * l_1) + abs(l_m1 * l_1 * l_2)
    note = None
    if terms > 1e-8 * 2.0**52 * abs(core):  # 2^-52 terms / |core| estimates B's relative error
        note = (f"det_bundle: B at x = {x!r}, eta = {eta!r} keeps fewer than 8 digits "
                "after cancellation")
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    b = g1 * g2 * g3 * core
    if 0.0 < x < 1.0:
        gs1, gs2 = _ground_terms(x)
        b_c = (eta + 2.0) * g2 * g2 * (
            gs1 * ((eta + 3.0) * l_0 * l_2 - (eta + 2.0) * l_1 * l_1) - gs2 * l_1 * l_2)
        return DeterminantBundle(a, b, g3 * l_2 * gs1, b_c, note)
    return DeterminantBundle(a, b, None, None, note)


def _curvature(bundle: DeterminantBundle, t: float, statistics: str) -> tuple[float, float, float]:
    # (g_bar, R_bar, R) with g_bar = A (+ t A_c with the ground state) and
    # R_bar = b/g_bar^2 for b = B (+ t B_c); formed from the ratios b/g_bar
    # and t/g_bar, which stay finite where g_bar^2 overflows at large t
    g_bar, b = bundle.A, bundle.B
    if statistics == BOSE_EINSTEIN:
        g_bar = bundle.A + t * bundle.A_c
        b = bundle.B + t * bundle.B_c
    if g_bar * g_bar == 0.0:
        raise SingularMetricError(f"determinant factor {g_bar} underflows")
    ratio = b / g_bar
    sign = 0.5 if statistics == FERMI_DIRAC else -0.5
    return g_bar, ratio / g_bar, sign * (t / g_bar) * ratio


def _cell_sample(model: GasModel, p: ThermoPoint, column: list,
                 ladder: list) -> GeometrySample:
    eta, kappa = model.eta, model.kappa
    g = _cell_metric(model, p, column, ladder)  # has checked that beta^(eta+k), k = 1..3, are finite
    scale = kappa / p.beta ** (eta + 2.0)
    t = p.beta ** (eta + 1.0) / kappa
    if model.statistics == CLASSICAL_IDEAL:
        g1, g2, _ = _gammas(eta)
        g_bar = p.xi * p.xi * (g1 * g2)  # xi^2 f, with f = g1 g2 as in limit_coefficients
        r = r_bar = 0.0
    else:
        # the bundle is made only once a point of the column passes the range
        # checks above, so a column of failing points makes none; one that
        # warned is made again at every point, which then warns from the same
        # place, as it would on its own
        bundle = column[3]
        if bundle is None or bundle.warning is not None:
            x = -p.xi if model.statistics == FERMI_DIRAC else p.xi
            bundle = column[3] = det_bundle(x, eta)
        g_bar, r_bar, r = _curvature(bundle, t, model.statistics)
    det_g = scale * (scale * g_bar)
    if not (math.isfinite(det_g) and math.isfinite(r)):
        raise DomainError(f"geometry_sample: det g = {det_g} or R = {r} leaves the float range")
    if g_bar <= 0.0 or det_g < 1e-12 * (abs(g.g11 * g.g22) + g.g12 * g.g12):
        warnings.warn(
            f"geometry_sample: determinant factor {g_bar:.3e} is degenerate, "
            "curvature may be ill-conditioned", ConditioningWarning, stacklevel=3)
    return GeometrySample(p, g, det_g, g_bar, r, r_bar)


def geometry_sample(model: GasModel, p: ThermoPoint) -> GeometrySample:
    """Metric, determinant, dimensionless factors and curvature at a point.

    Fermi-Dirac:      g_bar = A(-xi), R = +(beta^(eta+1)/2 kappa) B/A^2 < 0
    Bose (ground):    g_bar = A + t A_c, R = -(t/2) (B + t B_c)/g_bar^2,
                      t = beta^(eta+1)/kappa
    Bose (no ground): g_bar = A(xi),  R = -(beta^(eta+1)/2 kappa) B/A^2 > 0
    Classical:        g_bar = xi^2 f(eta), R = 0 exactly

    The one-cell case of :func:`geometry_grid`.
    """
    return _cell_sample(model, p, [None, None, None, None], [None, None, None, None])


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

_POINT_ERRORS = (DomainError, PolylogOverflowError, SingularMetricError)


def _grid(model: GasModel, betas: Iterable[float], xis: Iterable[float],
          geometry: bool = True, averages: bool = False) -> Iterator[tuple]:
    # (point, sample, means, error) at each point, beta outer and xi inner:
    # the GeometrySample and (U, N) asked for, each None where not asked or
    # not reached, and the package error that ended the point, or None.  The
    # geometry comes first, so a point whose geometry fails computes no
    # averages; the columns last as long as the generator, so memory grows
    # with the number of xi, not of points
    xis = [float(xi) for xi in xis]
    columns = [[None] * 4 for _ in xis]
    for beta in betas:
        beta = float(beta)
        ladder = [None] * 4
        for xi, column in zip(xis, columns):
            p = ThermoPoint(beta, xi)
            sample = means = error = None
            try:
                if geometry:
                    sample = _cell_sample(model, p, column, ladder)
                if averages:
                    means = _cell_averages(model, p, column, ladder)
            except _POINT_ERRORS as exc:
                error = exc
            yield p, sample, means, error


def geometry_grid(model: GasModel, betas: Iterable[float], xis: Iterable[float]
                  ) -> Iterator[Union[GeometrySample, Exception]]:
    """:func:`geometry_sample` at every (beta, xi), beta outer and xi inner.

    Yields each point's GeometrySample, or the DomainError,
    PolylogOverflowError or SingularMetricError that geometry_sample raises
    there; a ConditioningWarning is emitted at each point it concerns.  The
    polylogarithms and the determinant bundle of each xi are made once, at
    the first point of the column that needs them, and the factors
    kappa Gamma(eta+k) / beta^(eta+k) once per beta.  Values are bit-identical
    to geometry_sample's.  A beta or xi that is not finite and > 0 raises
    DomainError when its point is reached.
    """
    for _, sample, _, error in _grid(model, betas, xis):
        yield sample if error is None else error


@lru_cache(maxsize=256)
def limit_coefficients(eta: float) -> LimitCoefficients:
    """Leading small-x coefficients of the bundles.

    A -> f x^2, A_c -> f_c x^2, B -> h x^4, B_c -> h_c x^4 as x -> 0.  By
    definition (the x^2 and x^4 terms of the determinants of det_bundle)

        f   = Gamma(eta+3) Gamma(eta+1) - Gamma(eta+2)^2
        f_c = Gamma(eta+3)
        h   = 2^-(eta+1) [ -Gamma(eta+1) Gamma(eta+2) Gamma(eta+4)
                           + (3/2) Gamma(eta+1) Gamma(eta+3)^2
                           - (1/2) Gamma(eta+2)^2 Gamma(eta+3) ]
        h_c = 2^-(eta+1) [ Gamma(eta+2) Gamma(eta+4) - Gamma(eta+3)^2 / 2 ]
              + 2 [ Gamma(eta+3)^2 - Gamma(eta+2) Gamma(eta+4) ]

    The Gamma recurrence collapses each cancelling sum to one product,
    with g_k = Gamma(eta+k):

        f = g1 g2,  f_c = g3,  h = -g1 g2 g3 / 2^(eta+2),
        h_c = (eta+2) g2^2 ((eta+4) / 2^(eta+2) - 2)

    A coefficient outside the float range raises DomainError; h is the
    first to leave it, at eta = 71.  Results are memoized per eta.
    """
    if eta <= -1.0:
        raise DomainError(f"limit coefficients need eta > -1, got {eta}")
    g1, g2, g3 = _gammas(eta)
    inv_pow2 = 2.0 ** (-(eta + 2.0))
    h_c = (eta + 2.0) * g2 * g2 * ((eta + 4.0) * inv_pow2 - 2.0)
    out = LimitCoefficients(g1 * g2, g3, -g1 * g2 * g3 * inv_pow2, h_c)
    if not all(map(math.isfinite, (out.f, out.f_c, out.h, out.h_c))):
        raise DomainError(f"the low-fugacity coefficients leave the float range at eta = {eta!r}")
    return out


def limit_curvature(model: GasModel, beta: float) -> float:
    """Low-fugacity (xi -> 0) limit of the scalar curvature.

    Fermi-Dirac:  R -> (beta^(eta+1)/2 kappa) h/f^2            (negative)
    Bose-Einstein: R -> -(beta^(eta+1)/2 kappa)
                        (h + h_c t) / (f + f_c t)^2, t = beta^(eta+1)/kappa
    (positive).  beta = 0 is admitted and gives 0, the classical limit; a
    t or limit outside the float range raises DomainError.
    """
    if model.statistics not in (FERMI_DIRAC, BOSE_EINSTEIN):
        raise DomainError("limit_curvature is defined for 'fd' and 'be' statistics")
    if not math.isfinite(beta) or beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    try:
        t = beta ** (model.eta + 1.0) / model.kappa
    except OverflowError:
        t = math.inf
    if t == 0.0:
        return 0.0  # classical limit beta -> 0
    c = limit_coefficients(model.eta)
    out = _curvature(DeterminantBundle(c.f, c.h, c.f_c, c.h_c), t, model.statistics)[2]
    if not math.isfinite(out):
        raise DomainError(f"the low-fugacity limit leaves the float range at beta = {beta!r}")
    return out


# --------------------------------------------------------------------------
# density-of-states catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityOfStatesEntry:
    """One catalog row: G(eps) = kappa * eps^eta for a physical system.

    ``kappa_formula`` evaluates the prefactor from the physical inputs it
    depends on (spin degeneracy g_s, volume V, mass m, trap frequency
    omega, with hbar and c defaulting to 1).
    """

    system: str
    dims: int
    eta: float
    kappa_formula: Callable[..., float]


def dos_catalog(system: str, dims: int = 3) -> DensityOfStatesEntry:
    """Density-of-states parameters for the standard gas models.

    ============================  =========  ==========================================
    system                        eta        kappa
    ============================  =========  ==========================================
    box (D dims)                  D/2 - 1    g_s V / Gamma(D/2) * (m / 2 pi hbar^2)^(D/2)
    ultrarelativistic (D dims)    D - 1      2 g_s V / Gamma(D/2) * (1 / 2 sqrt(pi) hbar c)^D
    harmonic_trap (D dims)        D - 1      g_s / Gamma(D) * (1 / hbar omega)^D
    ============================  =========  ==========================================

    At D = 3 these reduce to eta = 1/2 with
    kappa = g_s V/(4 pi^2) (2m/hbar^2)^(3/2) for the box, and eta = 2 for
    the other two.
    """
    if not (dims >= 1 and math.isfinite(dims) and dims == int(dims)):
        raise DomainError(f"dims must be a whole number >= 1, got {dims}")
    d = int(dims)

    if system == "box":
        def kappa_formula(g_s: float = 1.0, V: float = 1.0, m: float = 1.0,
                          hbar: float = 1.0) -> float:
            return g_s * V / gamma_real(d / 2.0) * (m / (2.0 * math.pi * hbar**2)) ** (d / 2.0)
        return DensityOfStatesEntry(system, d, d / 2.0 - 1.0, kappa_formula)

    if system == "ultrarelativistic":
        def kappa_formula(g_s: float = 1.0, V: float = 1.0, hbar: float = 1.0,
                          c: float = 1.0) -> float:
            return 2.0 * g_s * V / gamma_real(d / 2.0) * (1.0 / (2.0 * math.sqrt(math.pi) * hbar * c)) ** d
        return DensityOfStatesEntry(system, d, d - 1.0, kappa_formula)

    if system == "harmonic_trap":
        def kappa_formula(g_s: float = 1.0, omega: float = 1.0,
                          hbar: float = 1.0) -> float:
            return g_s / gamma_real(float(d)) * (1.0 / (hbar * omega)) ** d
        return DensityOfStatesEntry(system, d, d - 1.0, kappa_formula)

    raise DomainError(f"unknown system {system!r}; expected 'box', "
                      "'ultrarelativistic' or 'harmonic_trap'")


# --------------------------------------------------------------------------
# adapters to the generic geometry engine
# --------------------------------------------------------------------------

def _batch_rungs(model: GasModel, lambda1: np.ndarray, lambda2: np.ndarray, *rungs) -> tuple:
    # (a row of T(k, j) per rung, the distinct xi, each point's index into them): each distinct
    # lambda1 and lambda2 is checked and makes its ladder, or xi and column, once, as _rung does
    betas, ys = (sorted(set(x.tolist())) for x in (lambda1, lambda2))  # np.unique: +0.5 MB of RSS
    betas = [LagrangeCoords(b, 0.0).lambda1 for b in betas]
    xis = [LagrangeCoords(1.0, y).xi for y in ys]
    bi, yi = np.searchsorted(betas, lambda1), np.searchsorted(ys, lambda2)
    for xi in xis:
        _require_point(model, ThermoPoint(1.0, xi))
    with np.errstate(over="ignore"):  # a rung past the float range fails the check
        t = (np.array([[_ladder_factor(model, b, k) for b in betas] for k, _ in rungs])[:, bi]
             * np.array([[_column_value(model, xi, j) for xi in xis] for _, j in rungs])[:, yi])
    bad = np.flatnonzero(((t == 0.0) | np.isinf(t)).any(axis=0))
    if bad.size:
        raise DomainError(f"a ladder term leaves the float range at beta = "
                          f"{float(lambda1[bad[0]])!r} and xi = {xis[yi[bad[0]]]!r}")
    return t, xis, yi


def free_energy_field(model: GasModel) -> FreeEnergyField:
    """The model's free energy as a field, with free_energy's bits at each point."""
    def field(lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
        (t,), xis, yi = _batch_rungs(model, lambda1, lambda2, (1, 2))
        if model.statistics == BOSE_EINSTEIN:
            return -t + np.array([math.log1p(-xi) for xi in xis])[yi]
        return -t
    return field


def metric_field(model: GasModel) -> MetricField:
    """The closed-form metric as a field, with metric's bits at each point."""
    def field(lambda1: np.ndarray, lambda2: np.ndarray) -> tuple:
        (g22, g11, g12), xis, yi = _batch_rungs(model, lambda1, lambda2, (1, 0), (3, 2), (2, 1))
        if model.statistics == BOSE_EINSTEIN:
            g22 = g22 + np.array([_ground_terms(xi)[0] for xi in xis])[yi]
        return g11, g12, g22
    return field
