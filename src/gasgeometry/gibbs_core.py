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
that serves as the ground-truth oracle for all of it.  The enumeration runs
over the joint states in blocks of 8,192, each made from small level tables
of its own call, so a call holds at most about 1.2 MB at any state count.

A field takes a batch of points as equal-length float64 arrays (lambda1,
lambda2) and returns an array (free energy), the triple (g11, g12, g22)
(metric) or the pair (U, N) (averages), or raises DomainError if any point is
outside its domain.  An entry point takes one LagrangeCoords, giving a float
or a MetricTensor2 of floats, or a sequence, giving an array or a list with
the same bits per point, and calls its field once, on every stencil point.

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
from typing import Callable, Sequence, Union

import numpy as np

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
    "fock_means",
    "fock_entropy",
    "fock_be_tail_bound",
    "fock_free_energy_field",
    "MAX_FOCK_STATES",
]

# Stencil steps, scaled by max(1, |coordinate|).  First-derivative stencils
# keep the 1e-4 baseline; the second-difference step is larger because the
# ~1e-13 relative noise of the special-function layer is amplified by 1/h^2.
GRAD_STEP = 1e-4
HESS_STEP = 5e-3

MAX_FOCK_STATES = 10**7
_BLOCK = 1 << 13  # joint states per enumeration block: 64 KB per float64 row

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
        try:  # inf past the double range (lambda2 < -709.78) fails every domain check
            return math.exp(-self.lambda2)
        except OverflowError:
            return math.inf

    def shifted(self, d1: float = 0.0, d2: float = 0.0) -> "LagrangeCoords":
        return LagrangeCoords(self.lambda1 + d1, self.lambda2 + d2)


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


FreeEnergyField = Callable[[np.ndarray, np.ndarray], np.ndarray]
MetricField = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
AveragesField = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
Points = Union[LagrangeCoords, Sequence[LagrangeCoords]]

# stencil offsets in steps (h1, h2): the centre and each axis at the Richardson steps 1 and 1/2
_CENTRE_AXES = ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.5, 0.0), (-0.5, 0.0),
                (0.0, 1.0), (0.0, -1.0), (0.0, 0.5), (0.0, -0.5))
_CORNERS = tuple((c * a, c * b) for c in (1.0, 0.5) for a in (1.0, -1.0) for b in (1.0, -1.0))


def _stencil(field: Callable, at: Points, base: float, offsets: tuple) -> tuple:
    # (one, lambda1, lambda2, h1, h2, v): whether `at` is one point, the points' coordinates
    # and steps as arrays, and v[offset], the field at that offset of each point, from one call
    one = isinstance(at, LagrangeCoords)
    l1, l2 = np.array([(p.lambda1, p.lambda2) for p in ((at,) if one else at)]).reshape(-1, 2).T
    h1, h2 = base * np.maximum(1.0, np.abs(l1)), base * np.maximum(1.0, np.abs(l2))
    s = np.array(offsets)
    with np.errstate(over="ignore"):  # a point past the double range fails the check
        x1, x2 = (l1 + s[:, :1] * h1).ravel(), (l2 + s[:, 1:] * h2).ravel()
    if not (np.isfinite(x1).all() and np.isfinite(x2).all() and (x1 > 0.0).all()):
        raise DomainError("a stencil point leaves the finite coordinates with lambda1 > 0")
    v = np.asarray(field(x1, x2), dtype=float)
    v = v.reshape(v.shape[:-1] + (len(offsets), l1.size))
    return one, l1, l2, h1, h2, {o: v[..., i, :] for i, o in enumerate(offsets)}


def _results(one: bool, *r: np.ndarray):
    # one point: its float, or MetricTensor2 of floats; a sequence: an array, or a list of them
    out = r[0] if len(r) == 1 else [MetricTensor2(*g) for g in zip(*(x.tolist() for x in r))]
    return out if not one else float(out[0]) if len(r) == 1 else out[0]


def _offset(axis: int, s: float) -> tuple[float, float]:
    return (s, 0.0) if axis == 0 else (0.0, s)


def _richardson(estimate: Callable[[float], np.ndarray]) -> np.ndarray:
    # estimate(c) is an O(h^2) central difference at steps scaled by c; one
    # halving cancels the h^2 term: (4 D(h/2) - D(h)) / 3
    coarse = estimate(1.0)
    return (4.0 * estimate(0.5) - coarse) / 3.0


def _d1(v: dict, axis: int, h: np.ndarray) -> np.ndarray:
    """Richardson first derivative along one axis from the stencil values v."""
    def estimate(c: float) -> np.ndarray:
        return (v[_offset(axis, c)] - v[_offset(axis, -c)]) / (2.0 * (c * h))
    return _richardson(estimate)


def _warn_if_degenerate(g11: np.ndarray, g12: np.ndarray, g22: np.ndarray, context: str) -> None:
    det, scale = g11 * g22 - g12 * g12, np.abs(g11 * g22) + g12 * g12
    for i in np.flatnonzero((det <= 0.0) | (det < _DEGENERACY_CUT * scale)):
        warnings.warn(
            f"{context}: metric determinant {det[i]:.3e} is degenerate relative "
            f"to its entries (scale {scale[i]:.3e})", ConditioningWarning, stacklevel=3)


def hessian_metric(F: FreeEnergyField, at: Points):
    """Fisher-Rao metric g_mn = -d^2 F/d lambda^m d lambda^n by differences.

    Central second differences with one Richardson halving; relative error
    ~1e-7 for smooth fields evaluated at ~1e-13 accuracy.  A degenerate
    result (det g <= 0) triggers a :class:`ConditioningWarning`.
    """
    one, _, _, h1, h2, v = _stencil(F, at, HESS_STEP, _CENTRE_AXES + _CORNERS)

    def d2_axis(h: np.ndarray, axis: int) -> np.ndarray:
        def estimate(c: float) -> np.ndarray:
            ch = c * h
            return (v[_offset(axis, c)] - 2.0 * v[0.0, 0.0] + v[_offset(axis, -c)]) / (ch * ch)
        return _richardson(estimate)

    def mixed(c: float) -> np.ndarray:
        ch, ck = c * h1, c * h2
        return (v[c, c] - v[c, -c] - v[-c, c] + v[-c, -c]) / (4.0 * ch * ck)

    g = (-d2_axis(h1, 0), -_richardson(mixed), -d2_axis(h2, 1))
    _warn_if_degenerate(*g, "hessian_metric")
    return _results(one, *g)


def jacobian_metric(averages: AveragesField, at: Points):
    """Metric from expected values, g_mn = -d A_m / d lambda^n.

    This is the covariance-route metric used when only (U, N) are known in
    closed form (the Bose gas with its ground-state correction).  The two
    off-diagonal estimates -dN/dlambda^1 and -dU/dlambda^2 must agree for a
    Hessian metric; their mean is returned.
    """
    one, _, _, h1, h2, v = _stencil(averages, at, GRAD_STEP, _CENTRE_AXES[1:])
    (du1, dn1), (du2, dn2) = _d1(v, 0, h1), _d1(v, 1, h2)
    g = (-du1, -0.5 * (dn1 + du2), -dn2)
    _warn_if_degenerate(*g, "jacobian_metric")
    return _results(one, *g)


def _metric_rows(gfield: MetricField, at: Points) -> tuple:
    one, _, _, h1, h2, v = _stencil(gfield, at, GRAD_STEP, _CENTRE_AXES)
    return one, v[0.0, 0.0], _d1(v, 0, h1), _d1(v, 1, h2)


def _require_regular(g: np.ndarray, context: str) -> np.ndarray:
    detg = g[0] * g[2] - g[1] * g[1]
    bad = (detg <= 0.0) | ~np.isfinite(detg)
    if bad.any():
        raise SingularMetricError(
            f"{context}: metric determinant must be positive, got {detg[bad][0]:.6e}")
    _warn_if_degenerate(*g, context)
    return detg


def scalar_curvature_det(gfield: MetricField, at: Points):
    """Scalar curvature of a Hessian metric field, determinant route."""
    one, g0, d1g, d2g = _metric_rows(gfield, at)
    detg = _require_regular(g0, "scalar_curvature_det")
    det3 = np.linalg.det(np.moveaxis(np.array([g0, d1g, d2g]), -1, 0))
    return _results(one, -det3 / (2.0 * detg * detg))


def scalar_curvature_riemann(gfield: MetricField, at: Points):
    """Scalar curvature via Christoffel symbols and R_1212.

    For a Hessian metric Gamma_{s|mn} = (1/2) d_s g_mn, and the lowered
    Riemann component reduces to first derivatives of the metric:

        R_1212 = (1/4) g^{ow} (d_o g_12 d_w g_12 - d_o g_11 d_w g_22),

    contracted as R = 2 R_1212 / det g.  Agrees with the determinant route
    to stencil accuracy; the pair is the route-equivalence check used by
    the verification suite.
    """
    one, g0, d1g, d2g = _metric_rows(gfield, at)
    detg = _require_regular(g0, "scalar_curvature_riemann")
    dg = (d1g, d2g)  # dg[s] = (d_s g11, d_s g12, d_s g22)
    ginv = np.array([[g0[2], -g0[1]], [-g0[1], g0[0]]]) / detg
    r1212 = 0.25 * sum(ginv[o, w] * (dg[o][1] * dg[w][1] - dg[o][0] * dg[w][2])
                       for o in range(2) for w in range(2))
    return _results(one, 2.0 * r1212 / detg)


def legendre_entropy(F: FreeEnergyField, at: Points):
    """Entropy S = lambda^m A_m - F with A_m = dF/dlambda^m by differences."""
    one, l1, l2, h1, h2, v = _stencil(F, at, GRAD_STEP, _CENTRE_AXES)
    return _results(one, l1 * _d1(v, 0, h1) + l2 * _d1(v, 1, h2) - v[0.0, 0.0])


# --------------------------------------------------------------------------
# exact Fock-space enumeration oracle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FockEnsembleSpec:
    """A finite list of single-particle levels with an occupancy rule.

    ``statistics`` is ``'fd'`` (occupancies {0, 1}) or ``'be'`` (occupancies
    {0..be_occupancy_cap}, a whole number >= 1).  The joint state space is
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
        if not (float(self.be_occupancy_cap).is_integer() and self.be_occupancy_cap >= 1):
            raise DomainError(
                f"be_occupancy_cap must be a whole number >= 1, got {self.be_occupancy_cap!r}")
        object.__setattr__(self, "be_occupancy_cap", int(self.be_occupancy_cap))
        if self.state_count > MAX_FOCK_STATES:
            raise EnumerationLimitError(
                f"{self.state_count} joint states exceed the {MAX_FOCK_STATES} budget")

    @property
    def occupancy_count(self) -> int:
        return 2 if self.statistics == "fd" else self.be_occupancy_cap + 1

    @property
    def state_count(self) -> int:
        return self.occupancy_count ** len(self.energies)


def _joint_statistics(energies: tuple[float, ...], count: int) -> tuple[np.ndarray, np.ndarray]:
    # a1 = sum_i eps_i x_i (energy) and a2 = sum_i x_i (number) of every joint
    # state of the levels, x_i in 0..count-1, the last level varying fastest
    a1 = a2 = np.zeros(1)
    for eps in energies:  # the axis is made per level: with no level, count may be past any array
        occ = np.arange(count, dtype=float)
        a1, a2 = np.add.outer(a1, eps * occ).ravel(), np.add.outer(a2, occ).ravel()
    return a1, a2


def _level_logits(spec: FockEnsembleSpec, lambda1, lambda2) -> np.ndarray:
    # log q_i of the per-level Boltzmann ratio q_i = xi * exp(-beta * eps_i), a row per point
    return -lambda1 * np.asarray(spec.energies) - lambda2


def _bose_ratios(spec: FockEnsembleSpec, lambda1, lambda2) -> np.ndarray:
    # Bose levels must have q_i < 1 or the occupancy cap would matter;
    # capping log q_i at 0 keeps exp from overflowing on a rejected level
    t = _level_logits(spec, lambda1, lambda2)
    q = np.exp(np.minimum(t, 0.0))
    if np.any(q >= 1.0):
        raise DomainError(
            "Bose enumeration needs xi * exp(-beta*eps) < 1 on every level "
            f"for cap-independence; got max log ratio {float(np.max(t)):.6g}")
    return q


def _product_log_partition(spec: FockEnsembleSpec, lambda1, lambda2):
    if spec.statistics == "fd":  # log(1 + q_i), never forming a q_i > 1, which can overflow
        t = _level_logits(spec, lambda1, lambda2)
        return np.sum(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))), axis=-1)
    # truncated geometric sum per level, matching the enumeration exactly
    q = _bose_ratios(spec, lambda1, lambda2)
    cap = spec.be_occupancy_cap
    return np.sum(np.log1p(-q ** (cap + 1)) - np.log1p(-q), axis=-1)


def fock_be_tail_bound(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    """Bound on |log Z_truncated - log Z_exact| from the occupancy cap."""
    if spec.statistics != "be" or len(spec.energies) == 0:
        return 0.0
    q = _bose_ratios(spec, at.lambda1, at.lambda2)
    cap = spec.be_occupancy_cap
    return float(np.sum(q ** (cap + 1) / (1.0 - q)))


def _logit_blocks(spec: FockEnsembleSpec, at: LagrangeCoords):
    # each block of joint states as (rows, a1, a2): rows[0] holds the logits
    # -lambda1 a1 - lambda2 a2, rows[1:] are spare, all reused by the next block.
    # A block adds the table of the trailing levels, the most that fit in one,
    # to a chunk of the leading levels' table, or of a lone leading level's
    # occupancy axis (which may be longer than _BLOCK): nothing is state-sized
    if spec.statistics == "be":
        _bose_ratios(spec, at.lambda1, at.lambda2)  # rejects Bose levels with q_i >= 1
    count, levels = spec.occupancy_count, spec.energies
    split = next(k for k in range(len(levels) + 1) if count ** (len(levels) - k) <= _BLOCK)
    t1, t2 = _joint_statistics(levels[split:], count)
    step = _BLOCK // t1.size
    if split == 1:
        ranges = (np.arange(lo, min(lo + step, count), dtype=float) for lo in range(0, count, step))
        leads = ((levels[0] * x, x) for x in ranges)
    else:
        l1, l2 = _joint_statistics(levels[:split], count)
        leads = ((l1[lo:lo + step], l2[lo:lo + step]) for lo in range(0, l1.size, step))
    work, size = np.empty((6, min(spec.state_count, _BLOCK))), 0
    for c1, c2 in leads:
        if c1.size != size:  # row views cost on every block; only a shorter last one remakes them
            size = c1.size
            *rows, b1, b2 = work[:, :size * t1.size]
            grid1, grid2 = b1.reshape(size, t1.size), b2.reshape(size, t2.size)
        np.add.outer(c1, t1, out=grid1)
        np.add.outer(c2, t2, out=grid2)
        np.multiply(b1, -at.lambda1, out=rows[0])
        np.subtract(rows[0], np.multiply(b2, at.lambda2, out=rows[1]), out=rows[0])
        yield rows, b1, b2


def _log_z_and_means(spec: FockEnsembleSpec, at: LagrangeCoords) -> tuple[float, float, float]:
    # log Z, U and N in one pass: Z, sum w a1 and sum w a2, w = exp(logit - m),
    # against a running block maximum m, rescaled by exp(m_old - m_new) as m rises
    m, z, s1, s2 = -math.inf, 0.0, 0.0, 0.0
    for (w, *_), b1, b2 in _logit_blocks(spec, at):
        top = float(w.max())
        if top > m:
            scale, m = math.exp(m - top), top
            z, s1, s2 = z * scale, s1 * scale, s2 * scale
        np.exp(np.subtract(w, m, out=w), out=w)
        z, s1, s2 = z + float(w.sum()), s1 + float(w @ b1), s2 + float(w @ b2)
    return m + math.log(z), s1 / z, s2 / z


def fock_log_partition(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    """log Z by the exact product form, verified against brute enumeration.

    Both routes are computed on every call: the per-level product (Fermi
    factors 1 + q_i, Bose truncated geometric sums) and a logsumexp over
    every joint occupancy state, block by block.  They must agree to 1e-12;
    the product value is returned.  For Bose statistics the truncation tail
    against the untruncated closed form is bounded by :func:`fock_be_tail_bound`.
    """
    product = float(_product_log_partition(spec, at.lambda1, at.lambda2))
    enumerated = _log_z_and_means(spec, at)[0]
    if not math.isfinite(product) or abs(product - enumerated) > 1e-12 * max(1.0, abs(product)):
        raise ArithmeticError(
            f"product form ({product!r}) and enumeration ({enumerated!r}) disagree")
    return product


def fock_moments(spec: FockEnsembleSpec,
                 at: LagrangeCoords) -> tuple[float, float, MetricTensor2]:
    """Exact (U, N) and covariance of the sufficient statistics.

    The covariance equals the Fisher-Rao metric of the ensemble, i.e.
    the negative Hessian of F = -log Z (identity checked by the tests).
    Two blocked passes: (log Z, U, N), then the second moments centred on
    (U, N), which do not cancel as E[a^2] - E[a]^2 would.
    """
    log_z, u, n = _log_z_and_means(spec, at)
    g = np.zeros(3)
    for (rho, da1, da2, sq), b1, b2 in _logit_blocks(spec, at):
        np.exp(np.subtract(rho, log_z, out=rho), out=rho)
        np.subtract(b1, u, out=da1)
        np.subtract(b2, n, out=da2)
        g += [rho @ np.multiply(x, y, out=sq) for x, y in ((da1, da1), (da1, da2), (da2, da2))]
    return u, n, MetricTensor2(*g.tolist())


def fock_means(spec: FockEnsembleSpec, at: LagrangeCoords) -> tuple[float, float]:
    """Exact (U, N) alone: the first pass of :func:`fock_moments`, same bits."""
    return _log_z_and_means(spec, at)[1:]


def fock_entropy(spec: FockEnsembleSpec, at: LagrangeCoords) -> float:
    """Directly enumerated Gibbs entropy -sum rho log rho (uniform prior), by blocks."""
    log_z = _log_z_and_means(spec, at)[0]
    s = 0.0
    for (log_rho, rho, *_), _, _ in _logit_blocks(spec, at):
        np.subtract(log_rho, log_z, out=log_rho)
        s -= float(np.exp(log_rho, out=rho) @ log_rho)
    return s


def fock_free_energy_field(spec: FockEnsembleSpec) -> FreeEnergyField:
    """F = -log Z of the ensemble as a field (product form), over points x levels at once."""
    return lambda lambda1, lambda2: -_product_log_partition(spec, lambda1[:, None], lambda2[:, None])
