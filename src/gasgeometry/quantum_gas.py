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

The Bose branch optionally carries the ground-state correction
N0 = xi/(1-xi), which enters the particle number and (through
g22 += xi/(1-xi)^2) the metric; it removes the curvature singularity at
the condensation edge xi -> 1.

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
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ConditioningWarning, DomainError, SingularMetricError
from .gibbs_core import FreeEnergyField, LagrangeCoords, MetricTensor2
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
    "ground_state_free_energy",
    "metric",
    "metric_fd",
    "metric_be",
    "metric_classical",
    "det_bundle",
    "geometry_sample",
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
    unit of the model.  The classical gas accepts any eta and reduces to
    the textbook three-dimensional box gas at eta = 1/2.
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
    companions, defined only for 0 < x < 1 (None otherwise).
    """

    A: float
    B: float
    A_c: Optional[float]
    B_c: Optional[float]


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
# thermodynamic closed forms
# --------------------------------------------------------------------------

def _term(model: GasModel, p: ThermoPoint, k: float, j: float) -> float:
    # ladder rung T(k, j) = (kappa Gamma(eta+k) / beta^(eta+k)) * L(eta+j);
    # negation is exact, so carrying the sign on L changes no bit of the
    # product, and each quantity fetches only the polylog orders it needs;
    # a rung outside the float range raises DomainError, not a bare error
    eta = model.eta
    if model.statistics == FERMI_DIRAC:
        l = -polylog(-p.xi, eta + j)
    elif model.statistics == CLASSICAL_IDEAL:
        l = p.xi  # classical: leading polylog term exactly
    else:
        l = polylog(p.xi, eta + j)
    try:
        out = model.kappa * gamma_real(eta + k) / p.beta ** (eta + k) * l
    except (OverflowError, ZeroDivisionError):
        out = math.inf
    if out == 0.0 or math.isinf(out):
        raise DomainError(f"a ladder term leaves the float range at beta = {p.beta!r} and xi = {p.xi!r}")
    return out


def free_energy(model: GasModel, p: ThermoPoint) -> float:
    """Grand canonical free energy F = -log Z per the closed forms above."""
    _require_point(model, p)
    return -_term(model, p, 1.0, 2.0)


def averages(model: GasModel, p: ThermoPoint) -> tuple[float, float]:
    """Mean energy U and particle number N.

    For Bose-Einstein statistics with the ground state, N includes
    N0 = xi/(1-xi); the energy is unchanged because the ground level
    carries zero energy.
    """
    _require_point(model, p)
    u = _term(model, p, 2.0, 2.0)
    n = _term(model, p, 1.0, 1.0)
    if model.statistics == BOSE_EINSTEIN:
        n += ground_state_occupation(p)
    return u, n


def ground_state_occupation(p: ThermoPoint) -> float:
    """Ground-state population N0 = xi/(1-xi) = 1/(exp(lambda^2) - 1)."""
    if p.xi >= 1.0:
        raise DomainError(f"ground-state occupation needs xi < 1, got {p.xi}")
    return p.xi / (1.0 - p.xi)


def ground_state_free_energy(p: ThermoPoint) -> float:
    """Free-energy term log(1-xi) implied by the ground-state correction.

    Adding it to the continuous Bose free energy makes dF/dlambda^2
    reproduce the corrected particle number, and its Hessian the
    xi/(1-xi)^2 increment of g22.  Diagnostic only; the published metric
    is defined through the averages, not through this potential.
    """
    if p.xi >= 1.0:
        raise DomainError(f"ground-state term needs xi < 1, got {p.xi}")
    return math.log1p(-p.xi)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def metric(model: GasModel, p: ThermoPoint) -> MetricTensor2:
    """Closed-form metric (T(3,2), T(2,1), T(1,0)) of any statistics.

    All entries are positive; with the ground state only g22 changes, by
    xi/(1-xi)^2.
    """
    _require_point(model, p)
    g22 = _term(model, p, 1.0, 0.0)
    if model.statistics == BOSE_EINSTEIN:
        g22 += _ground_terms(p.xi)[0]
    return MetricTensor2(_term(model, p, 3.0, 2.0), _term(model, p, 2.0, 1.0), g22)


def metric_fd(model: GasModel, p: ThermoPoint) -> MetricTensor2:
    """Fermi-Dirac metric; all entries positive since Li(-xi, .) < 0."""
    if model.statistics != FERMI_DIRAC:
        raise DomainError("metric_fd needs Fermi-Dirac statistics")
    return metric(model, p)


def metric_be(model: GasModel, p: ThermoPoint) -> MetricTensor2:
    """Bose-Einstein metric; only g22 feels the ground state."""
    if model.statistics not in _BOSONIC:
        raise DomainError("metric_be needs Bose-Einstein statistics")
    return metric(model, p)


def metric_classical(model: GasModel, p: ThermoPoint) -> MetricTensor2:
    """Classical ideal gas metric, the xi -> 0 envelope of both branches."""
    if model.statistics != CLASSICAL_IDEAL:
        raise DomainError("metric_classical needs classical statistics")
    return metric(model, p)


# --------------------------------------------------------------------------
# determinant bundles and curvature
# --------------------------------------------------------------------------

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
    g1 = gamma_real(eta + 1.0)
    g2 = (eta + 1.0) * g1
    g3 = (eta + 2.0) * g2
    # order eta - 1 drops below the direct polylog domain when eta < 0
    # (e.g. the one-dimensional box); step down from order eta instead
    l_m1 = polylog(x, eta - 1.0) if eta >= 0.0 else polylog_step_down(x, eta)
    l_0 = polylog(x, eta)
    l_1 = polylog(x, eta + 1.0)
    l_2 = polylog(x, eta + 2.0)

    a = g1 * g2 * ((eta + 2.0) * l_0 * l_2 - (eta + 1.0) * l_1 * l_1)
    b = g1 * g2 * g3 * (l_0 * (2.0 * l_0 * l_2 - l_1 * l_1) - l_m1 * l_1 * l_2)
    if 0.0 < x < 1.0:
        gs1, gs2 = _ground_terms(x)
        b_c = (eta + 2.0) * g2 * g2 * (
            gs1 * ((eta + 3.0) * l_0 * l_2 - (eta + 2.0) * l_1 * l_1) - gs2 * l_1 * l_2)
        return DeterminantBundle(a, b, g3 * l_2 * gs1, b_c)
    return DeterminantBundle(a, b, None, None)


def geometry_sample(model: GasModel, p: ThermoPoint) -> GeometrySample:
    """Metric, determinant, dimensionless factors and curvature at a point.

    Fermi-Dirac:      g_bar = A(-xi), R = +(beta^(eta+1)/2 kappa) B/A^2 < 0
    Bose (ground):    g_bar = A + t A_c, R = -(t/2) (B + t B_c)/g_bar^2,
                      t = beta^(eta+1)/kappa
    Bose (no ground): g_bar = A(xi),  R = -(beta^(eta+1)/2 kappa) B/A^2 > 0
    Classical:        g_bar = xi^2 f(eta), R = 0 exactly
    """
    _require_point(model, p)
    eta, kappa = model.eta, model.kappa
    g = metric(model, p)  # has checked that beta^(eta+k), k = 1..3, are finite
    scale = kappa / p.beta ** (eta + 2.0)
    t = p.beta ** (eta + 1.0) / kappa
    if model.statistics == CLASSICAL_IDEAL:
        g_bar = p.xi * p.xi * limit_coefficients(eta).f
        r = r_bar = 0.0
    else:
        fermi = model.statistics == FERMI_DIRAC
        bundle = det_bundle(-p.xi if fermi else p.xi, eta)
        g_bar, b = bundle.A, bundle.B
        if model.statistics == BOSE_EINSTEIN:
            g_bar = bundle.A + t * bundle.A_c
            b = bundle.B + t * bundle.B_c
        if g_bar * g_bar == 0.0:
            raise SingularMetricError(f"geometry_sample: determinant factor {g_bar} underflows")
        r_bar = b / (g_bar * g_bar)
        r = (0.5 if fermi else -0.5) * t * r_bar
    det_g = scale * scale * g_bar
    if not (math.isfinite(det_g) and math.isfinite(r)):
        raise DomainError(f"geometry_sample: det g = {det_g} or R = {r} leaves the float range")
    if g_bar <= 0.0 or det_g < 1e-12 * (abs(g.g11 * g.g22) + g.g12 * g.g12):
        warnings.warn(
            f"geometry_sample: determinant factor {g_bar:.3e} is degenerate, "
            "curvature may be ill-conditioned", ConditioningWarning, stacklevel=2)
    return GeometrySample(p, g, det_g, g_bar, r, r_bar)


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
    """
    if eta <= -1.0:
        raise DomainError(f"limit coefficients need eta > -1, got {eta}")
    g1 = gamma_real(eta + 1.0)
    g2 = (eta + 1.0) * g1
    g3 = (eta + 2.0) * g2
    inv_pow2 = 2.0 ** (-(eta + 2.0))
    h_c = (eta + 2.0) * g2 * g2 * ((eta + 4.0) * inv_pow2 - 2.0)
    return LimitCoefficients(g1 * g2, g3, -g1 * g2 * g3 * inv_pow2, h_c)


def limit_curvature(model: GasModel, beta: float) -> float:
    """Low-fugacity (xi -> 0) limit of the scalar curvature.

    Fermi-Dirac:  R -> (beta^(eta+1)/2 kappa) h/f^2            (negative)
    Bose-Einstein: R -> -(beta^(eta+1)/2 kappa)
                        (h + h_c t) / (f + f_c t)^2, t = beta^(eta+1)/kappa
    (positive).  beta = 0 is admitted and gives 0, the classical limit.
    """
    if model.statistics not in (FERMI_DIRAC, BOSE_EINSTEIN):
        raise DomainError("limit_curvature is defined for 'fd' and 'be' statistics")
    if not math.isfinite(beta) or beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    c = limit_coefficients(model.eta)
    t = beta ** (model.eta + 1.0) / model.kappa
    if t == 0.0:
        return 0.0  # classical limit beta -> 0
    if model.statistics == FERMI_DIRAC:
        return 0.5 * t * c.h / (c.f * c.f)
    denom = c.f + c.f_c * t
    return -0.5 * t * (c.h + c.h_c * t) / (denom * denom)


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
    if dims < 1:
        raise DomainError(f"dims must be >= 1, got {dims}")
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

def free_energy_field(model: GasModel) -> FreeEnergyField:
    """The model's free energy as a differentiable field over coordinates."""
    xi_hi = 1.0 if model.statistics in _BOSONIC else math.inf

    def evaluator(at: LagrangeCoords) -> float:
        return free_energy(model, ThermoPoint.from_coords(at))

    return FreeEnergyField(evaluator, beta_range=(0.0, math.inf),
                           xi_range=(0.0, xi_hi))


def metric_field(model: GasModel) -> Callable[[LagrangeCoords], MetricTensor2]:
    """The closed-form metric as a field over Lagrange coordinates."""

    def field(at: LagrangeCoords) -> MetricTensor2:
        return metric(model, ThermoPoint.from_coords(at))

    return field
