"""Generic two-parameter Gibbs-family geometry engine.

A Gibbs (exponential-family) distribution with sufficient statistics
(a_1, a_2) and Lagrange multipliers (lambda^1, lambda^2) has free energy
F = -log Z and Fisher-Rao metric

    g_mn = -d^2 F / d lambda^m d lambda^n,

the covariance matrix of the sufficient statistics.  This module knows
nothing about gases: it differentiates arbitrary free-energy fields and
metric fields numerically (central differences with one Richardson
halving), computes the scalar curvature of 2-d Hessian metrics by two
independent routes, and carries an exact finite Fock-space enumeration
that serves as the ground-truth oracle for all of it.

Curvature convention: a two-sphere has positive scalar curvature.  For a
Hessian metric the Levi-Civita scalar curvature reduces to

    R = -1/(2 g^2) * det [[ g11,    g12,    g22   ],
                          [ d1 g11, d1 g12, d1 g22],
                          [ d2 g11, d2 g12, d2 g22]],      g = det g_mn,

which :func:`scalar_curvature_det` evaluates directly.  The independent
route :func:`scalar_curvature_riemann` builds the Christoffel symbols
Gamma_{s|mn} = (1/2) d_s g_mn (valid precisely because the metric is a
Hessian), contracts them into R_1212 and uses R = 2 R_1212 / det g.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .errors import (ConditioningWarning, DomainError, EnumerationLimitError,
                     SingularMetricError)

__all__ = [
    "LagrangeCoords",
    "FreeEnergyField",
    "MetricTensor2",
    "MetricField",
    "FockEnsembleSpec",
    "hessian_metric",
    "jacobian_metric",
    "scalar_curvature_det",
    "scalar_curvature_riemann",
    "legendre_entropy",
    "fock_log_partition",
    "fock_moments",
    "fock_entropy",
    "fock_be_tail_bound",
    "fock_free_energy_field",
    "MAX_FOCK_STATES",
]

# Default steps, scaled by max(1, |coordinate|).  First-derivative stencils
# keep the 1e-4 baseline; the second-difference step is larger because the
# ~1e-13 relative noise of the special-function layer is amplified by 1/h^2.
GRAD_STEP = 1e-4
HESS_STEP = 5e-3

MAX_FOCK_STATES = 10**7

_DEGENERACY_CUT = 1e-12


@dataclass(frozen=True)
class LagrangeCoords:
    """Lagrange-multiplier coordinates (lambda^1, lambda^2).

    lambda^1 is the inverse temperature beta (> 0, units 1/energy) and
    lambda^2 = -mu/kT is dimensionless; the fugacity is xi = exp(-lambda^2).
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)):
            raise DomainError("coordinates must be finite")
        if self.lambda1 <= 0.0:
            raise DomainError(f"lambda1 (inverse temperature) must be > 0, got {self.lambda1}")

    @property
    def xi(self) -> float:
        return math.exp(-self.lambda2)

    def shifted(self, d1: float = 0.0, d2: float = 0.0) -> "LagrangeCoords":
        return LagrangeCoords(self.lambda1 + d1, self.lambda2 + d2)


@dataclass(frozen=True)
class FreeEnergyField:
    """A free energy F(lambda) = -log Z together with its validity box.

    ``beta_range`` and ``xi_range`` are open intervals bounding the domain
    in (beta, xi); stencil points outside the box raise ``DomainError``.
    """

    evaluator: Callable[[LagrangeCoords], float]
    beta_range: tuple[float, float] = (0.0, math.inf)
    xi_range: tuple[float, float] = (0.0, math.inf)

    def contains(self, at: LagrangeCoords) -> bool:
        xi = at.xi
        return (self.beta_range[0] < at.lambda1 < self.beta_range[1]
                and self.xi_range[0] < xi < self.xi_range[1])

    def __call__(self, at: LagrangeCoords) -> float:
        return float(self.evaluator(at))


@dataclass(frozen=True)
class MetricTensor2:
    """Symmetric 2x2 metric; g21 = g12 is implied by storage."""

    g11: float
    g12: float
    g22: float

    @property
    def det(self) -> float:
        return self.g11 * self.g22 - self.g12 * self.g12

    def as_array(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    def entries(self) -> np.ndarray:
        return np.array([self.g11, self.g12, self.g22])


MetricField = Callable[[LagrangeCoords], MetricTensor2]


def _steps(at: LagrangeCoords, step: float | None, default: float) -> tuple[float, float]:
    base = default if step is None else float(step)
    if base <= 0.0:
        raise DomainError("step must be positive")
    if step is not None:
        return base, base
    return base * max(1.0, abs(at.lambda1)), base * max(1.0, abs(at.lambda2))


def _field_eval(F: FreeEnergyField, at: LagrangeCoords) -> float:
    if not F.contains(at):
        raise DomainError(
            f"stencil point (lambda1={at.lambda1:g}, lambda2={at.lambda2:g}, "
            f"xi={at.xi:g}) exits the field domain")
    return F(at)


def _along(at: LagrangeCoords, axis: int, s: float) -> LagrangeCoords:
    return at.shifted(s, 0.0) if axis == 0 else at.shifted(0.0, s)


def _richardson(estimate: Callable[[float], float]) -> float:
    # estimate(c) is an O(h^2) central difference at steps scaled by c; one
    # halving cancels the h^2 term: (4 D(h/2) - D(h)) / 3
    coarse = estimate(1.0)
    return (4.0 * estimate(0.5) - coarse) / 3.0


def _d1(f: Callable, at: LagrangeCoords, axis: int, h: float):
    """Richardson first derivative of f (scalar or array) along one axis."""
    def estimate(c: float):
        ch = c * h
        return (f(_along(at, axis, ch)) - f(_along(at, axis, -ch))) / (2.0 * ch)
    return _richardson(estimate)


def _warn_if_degenerate(g: MetricTensor2, context: str) -> None:
    scale = abs(g.g11 * g.g22) + g.g12 * g.g12
    if g.det <= 0.0 or g.det < _DEGENERACY_CUT * scale:
        warnings.warn(
            f"{context}: metric determinant {g.det:.3e} is degenerate relative "
            f"to its entries (scale {scale:.3e})", ConditioningWarning, stacklevel=3)


def hessian_metric(F: FreeEnergyField, at: LagrangeCoords,
                   step: float | None = None) -> MetricTensor2:
    """Fisher-Rao metric g_mn = -d^2 F/d lambda^m d lambda^n by differences.

    Central second differences with one Richardson halving; relative error
    ~1e-7 for smooth fields evaluated at ~1e-13 accuracy.  A degenerate
    result (det g <= 0) triggers a :class:`ConditioningWarning`.
    """
    h1, h2 = _steps(at, step, HESS_STEP)
    f0 = _field_eval(F, at)

    def cross(s: float, t: float) -> float:
        return _field_eval(F, at.shifted(s, t))

    def d2_axis(h: float, axis: int) -> float:
        def estimate(c: float) -> float:
            ch = c * h
            return ((_field_eval(F, _along(at, axis, ch)) - 2.0 * f0
                     + _field_eval(F, _along(at, axis, -ch))) / (ch * ch))
        return _richardson(estimate)

    def mixed(c: float) -> float:
        ch, ck = c * h1, c * h2
        return ((cross(ch, ck) - cross(ch, -ck) - cross(-ch, ck) + cross(-ch, -ck))
                / (4.0 * ch * ck))

    g = MetricTensor2(-d2_axis(h1, 0), -_richardson(mixed), -d2_axis(h2, 1))
    _warn_if_degenerate(g, "hessian_metric")
    return g


def jacobian_metric(averages: Callable[[LagrangeCoords], tuple[float, float]],
                    at: LagrangeCoords, step: float | None = None) -> MetricTensor2:
    """Metric from expected values, g_mn = -d A_m / d lambda^n.

    This is the covariance-route metric used when only (U, N) are known in
    closed form (the Bose gas with its ground-state correction).  The two
    off-diagonal estimates -dN/dlambda^1 and -dU/dlambda^2 must agree for a
    Hessian metric; their mean is returned.
    """
    h1, h2 = _steps(at, step, GRAD_STEP)

    def d1(component: int, axis: int, h: float) -> float:
        return _d1(lambda c: averages(c)[component], at, axis, h)

    g11 = -d1(0, 0, h1)
    g12 = -0.5 * (d1(1, 0, h1) + d1(0, 1, h2))
    g22 = -d1(1, 1, h2)
    g = MetricTensor2(g11, g12, g22)
    _warn_if_degenerate(g, "jacobian_metric")
    return g


def _metric_rows(gfield: MetricField, at: LagrangeCoords,
                 step: float | None) -> tuple[MetricTensor2, np.ndarray, np.ndarray]:
    h1, h2 = _steps(at, step, GRAD_STEP)
    g0 = gfield(at)

    def entries(c: LagrangeCoords) -> np.ndarray:
        return gfield(c).entries()

    return g0, _d1(entries, at, 0, h1), _d1(entries, at, 1, h2)


def _require_regular(g: MetricTensor2, context: str) -> float:
    detg = g.det
    if detg <= 0.0 or not math.isfinite(detg):
        raise SingularMetricError(
            f"{context}: metric determinant must be positive, got {detg:.6e}")
    _warn_if_degenerate(g, context)
    return detg


def scalar_curvature_det(gfield: MetricField, at: LagrangeCoords,
                         step: float | None = None) -> float:
    """Scalar curvature of a Hessian metric field, determinant route."""
    g0, d1g, d2g = _metric_rows(gfield, at, step)
    detg = _require_regular(g0, "scalar_curvature_det")
    det3 = float(np.linalg.det(np.array([g0.entries(), d1g, d2g])))
    return -det3 / (2.0 * detg * detg)


def scalar_curvature_riemann(gfield: MetricField, at: LagrangeCoords,
                             step: float | None = None) -> float:
    """Scalar curvature via Christoffel symbols and R_1212.

    For a Hessian metric Gamma_{s|mn} = (1/2) d_s g_mn, and the lowered
    Riemann component reduces to first derivatives of the metric:

        R_1212 = (1/4) g^{ow} (d_o g_12 d_w g_12 - d_o g_11 d_w g_22),

    contracted as R = 2 R_1212 / det g.  Agrees with the determinant route
    to stencil accuracy; the pair is the route-equivalence check used by
    the verification suite.
    """
    g0, d1g, d2g = _metric_rows(gfield, at, step)
    detg = _require_regular(g0, "scalar_curvature_riemann")
    dg = (d1g, d2g)  # dg[s] = (d_s g11, d_s g12, d_s g22)
    ginv = np.array([[g0.g22, -g0.g12], [-g0.g12, g0.g11]]) / detg
    r1212 = 0.0
    for o in range(2):
        for w in range(2):
            r1212 += ginv[o, w] * (dg[o][1] * dg[w][1] - dg[o][0] * dg[w][2])
    r1212 *= 0.25
    return 2.0 * r1212 / detg


def legendre_entropy(F: FreeEnergyField, at: LagrangeCoords,
                     step: float | None = None) -> float:
    """Entropy S = lambda^m A_m - F with A_m = dF/dlambda^m by differences."""
    h1, h2 = _steps(at, step, GRAD_STEP)
    f0 = _field_eval(F, at)

    def field(c: LagrangeCoords) -> float:
        return _field_eval(F, c)

    return at.lambda1 * _d1(field, at, 0, h1) + at.lambda2 * _d1(field, at, 1, h2) - f0


# --------------------------------------------------------------------------
# exact Fock-space enumeration oracle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FockEnsembleSpec:
    """A finite list of single-particle levels with an occupancy rule.

    ``statistics`` is ``'fd'`` (occupancies {0, 1}) or ``'be'``
    (occupancies {0..be_occupancy_cap}).  The joint state space is
    enumerated exactly, so its size (occupancies ** levels) is capped at
    ``MAX_FOCK_STATES``; this is a desk-scale oracle, not a solver.
    """

    energies: tuple[float, ...]
    statistics: str
    be_occupancy_cap: int = 200

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if any(not math.isfinite(e) or e < 0.0 for e in self.energies):
            raise DomainError("level energies must be finite and >= 0")
        if self.statistics not in ("fd", "be"):
            raise DomainError(f"statistics must be 'fd' or 'be', got {self.statistics!r}")
        if self.be_occupancy_cap < 1:
            raise DomainError("be_occupancy_cap must be >= 1")
        if self.state_count > MAX_FOCK_STATES:
            raise EnumerationLimitError(
                f"{self.state_count} joint states exceed the {MAX_FOCK_STATES} budget")

    @property
    def occupancy_count(self) -> int:
        return 2 if self.statistics == "fd" else self.be_occupancy_cap + 1

    @property
    def state_count(self) -> int:
        return self.occupancy_count ** len(self.energies)


@lru_cache(maxsize=8)
def _sufficient_statistics(spec: FockEnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    # per joint state: a1 = sum_i eps_i x_i (energy), a2 = sum_i x_i (count)
    occ = np.arange(spec.occupancy_count, dtype=float)
    a1 = np.zeros(1)
    a2 = np.zeros(1)
    for eps in spec.energies:
        a1 = np.add.outer(a1, eps * occ).ravel()
        a2 = np.add.outer(a2, occ).ravel()
    return a1, a2


def _level_weights(spec: FockEnsembleSpec, at: LagrangeCoords) -> np.ndarray:
    # q_i = xi * exp(-beta * eps_i), the per-level Boltzmann ratio; Bose
    # levels must have q_i < 1 or the occupancy cap would matter
    eps = np.asarray(spec.energies)
    q = np.exp(-at.lambda1 * eps - at.lambda2)
    if spec.statistics == "be" and np.any(q >= 1.0):
        raise DomainError(
            "Bose enumeration needs xi * exp(-beta*eps) < 1 on every level "
            f"for cap-independence; got max ratio {float(np.max(q)):.6g}")
    return q


def _product_log_partition(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    q = _level_weights(spec, at)
    if len(spec.energies) == 0:
        return 0.0
    if spec.statistics == "fd":
        return float(np.sum(np.log1p(q)))
    # truncated geometric sum per level, matching the enumeration exactly
    cap = spec.be_occupancy_cap
    return float(np.sum(np.log1p(-q ** (cap + 1)) - np.log1p(-q)))


def fock_be_tail_bound(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    """Bound on |log Z_truncated - log Z_exact| from the occupancy cap."""
    if spec.statistics != "be" or len(spec.energies) == 0:
        return 0.0
    q = _level_weights(spec, at)
    cap = spec.be_occupancy_cap
    return float(np.sum(q ** (cap + 1) / (1.0 - q)))


def fock_log_partition(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    """log Z by the exact product form, verified against brute enumeration.

    Both routes are computed on every call: the per-level product (Fermi
    factors 1 + q_i, Bose truncated geometric sums) and a logsumexp over
    every joint occupancy state.  They must agree to 1e-12; the product
    value is returned.  For Bose statistics the truncation tail against
    the untruncated closed form is bounded by :func:`fock_be_tail_bound`.
    """
    product = _product_log_partition(spec, at)
    a1, a2 = _sufficient_statistics(spec)
    enumerated = float(logsumexp(-at.lambda1 * a1 - at.lambda2 * a2))
    if abs(product - enumerated) > 1e-12 * max(1.0, abs(product)):
        raise ArithmeticError(
            f"product form ({product!r}) and enumeration ({enumerated!r}) disagree")
    return product


def fock_moments(spec: FockEnsembleSpec,
                 at: LagrangeCoords) -> tuple[float, float, MetricTensor2]:
    """Exact (U, N) and covariance of the sufficient statistics.

    The covariance equals the Fisher-Rao metric of the ensemble, i.e.
    the negative Hessian of F = -log Z (identity checked by the tests).
    """
    _level_weights(spec, at)  # rejects Bose levels with q_i >= 1
    a1, a2 = _sufficient_statistics(spec)
    logits = -at.lambda1 * a1 - at.lambda2 * a2
    rho = np.exp(logits - logsumexp(logits))
    u = float(rho @ a1)
    n = float(rho @ a2)
    da1 = a1 - u
    da2 = a2 - n
    cov = MetricTensor2(float(rho @ (da1 * da1)),
                        float(rho @ (da1 * da2)),
                        float(rho @ (da2 * da2)))
    return u, n, cov


def fock_entropy(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    """Directly enumerated Gibbs entropy -sum rho log rho (uniform prior)."""
    a1, a2 = _sufficient_statistics(spec)
    logits = -at.lambda1 * a1 - at.lambda2 * a2
    logrho = logits - logsumexp(logits)
    rho = np.exp(logrho)
    return float(-np.sum(rho * logrho))


def fock_free_energy_field(spec: FockEnsembleSpec) -> FreeEnergyField:
    """F = -log Z of the ensemble as a differentiable field (product form)."""
    return FreeEnergyField(lambda at: -_product_log_partition(spec, at))
