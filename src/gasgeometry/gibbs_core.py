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
that serves as the ground-truth oracle for all of it.  The enumeration makes
one sweep over the joint states for up to 8 points at a time, in blocks of
8,192 per point, so a call holds at most about 2.3 MB at any size.

A field takes a batch of points as equal-length float64 arrays (lambda1,
lambda2) and returns an array (free energy), the triple (g11, g12, g22)
(metric) or the pair (U, N) (averages), or raises DomainError if any point is
outside its domain.  An entry point or a Fock oracle takes one LagrangeCoords,
giving floats or MetricTensor2s of floats, or a sequence, giving arrays or lists
with the same bits per point; an entry point calls its field once.

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


def _points(at: Points) -> tuple[bool, np.ndarray, np.ndarray]:
    # whether `at` is one point, and the points' coordinates as two arrays
    one = isinstance(at, LagrangeCoords)
    return one, *np.array([(p.lambda1, p.lambda2) for p in ((at,) if one else at)]).reshape(-1, 2).T


def _require_domain(lambda1, lambda2) -> None:
    if not np.all(np.isfinite(lambda1) & np.isfinite(lambda2) & (lambda1 > 0.0)):
        raise DomainError("a point leaves the finite coordinates with lambda1 > 0")


def _stencil(field: Callable, at: Points, base: float, offsets: tuple) -> tuple:
    # (one, lambda1, lambda2, h1, h2, v): whether `at` is one point, the points' coordinates
    # and steps as arrays, and v[offset], the field at that offset of each point, from one call
    one, l1, l2 = _points(at)
    h1, h2 = base * np.maximum(1.0, np.abs(l1)), base * np.maximum(1.0, np.abs(l2))
    s = np.array(offsets)
    with np.errstate(over="ignore"):  # a point past the double range fails the check
        x1, x2 = (l1 + s[:, :1] * h1).ravel(), (l2 + s[:, 1:] * h2).ravel()
    _require_domain(x1, x2)
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


def _joint_statistics(energies: tuple[float, ...], count: int, lo: int, hi: int) -> tuple:
    # a1 = sum_i eps_i x_i (energy) and a2 = sum_i x_i (number) of the joint states lo..hi-1
    # of the levels, x_i in 0..count-1, the last level varying fastest
    index, a1, a2 = np.arange(lo, hi), np.zeros(hi - lo), np.zeros(hi - lo)
    for k, eps in enumerate(energies):
        occ = (index // count ** (len(energies) - 1 - k) % count).astype(float)
        a1, a2 = a1 + eps * occ, a2 + occ
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
    _require_domain(lambda1, lambda2)
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


def _groups(spec: FockEnsembleSpec, lambda1: np.ndarray, lambda2: np.ndarray):
    # Yields per group of points (g, m, (t1, t2, xt), sweep), the levels split where the trailing
    # levels' joint states first fit in a block: t1, t2 are their statistics, xt each point's
    # logits -lambda1 a1 - lambda2 a2 of them less the largest, m the largest joint logit (exact:
    # rounding is monotone).  sweep(c, *v) yields per leading chunk (c1, c2, xl, r): statistics,
    # logits less the largest and row totals r of w = exp(xl + xt) and of w v, and adds w's column
    # totals to c.  Every joint state has its own exp, every point its own rows and bits
    if spec.statistics == "be":
        _bose_ratios(spec, lambda1[:, None], lambda2[:, None])  # rejects Bose levels with q_i >= 1
    count, levels = spec.occupancy_count, spec.energies
    split = next(k for k in range(len(levels) + 1) if count ** (len(levels) - k) <= _BLOCK)
    t1, t2 = _joint_statistics(levels[split:], count, 0, count ** (len(levels) - split))
    step, size = _BLOCK // t1.size, spec.state_count // t1.size
    rows = step * max(1, _BLOCK // 8 // step)  # a leading chunk: about an eighth of a block
    # a group's work array holds at most 8 blocks, its row arrays 1 and its column arrays 4
    group = 8 * _BLOCK // max(min(spec.state_count, _BLOCK), 2 * t1.size, 8 * min(rows, size))
    work = np.empty(min(group, lambda1.size) * step * t1.size)

    def leads():
        return (_joint_statistics(levels[:split], count, lo, min(lo + rows, size))
                for lo in range(0, size, rows))
    for lo in range(0, lambda1.size, group):
        g = slice(lo, lo + group)
        b1, b2 = -lambda1[g, None], lambda2[g, None]
        top = np.max([(b1 * c1 - b2 * c2).max(axis=1) for c1, c2 in leads()], axis=0)[:, None]
        xt = b1 * t1 - b2 * t2
        xt -= (m := xt.max(axis=1, keepdims=True))

        def sweep(c, *vectors):
            for c1, c2 in leads():
                xl, r = b1 * c1 - b2 * c2 - top, np.empty((1 + len(vectors), b1.size, c1.size))
                for j in range(0, xl.shape[1], step):
                    n, rj = xl[:, j:j + step, None], r[:, :, j:j + step]
                    w = work[:n.size * t1.size].reshape(*n.shape[:2], t1.size)
                    np.exp(np.add(n, xt[:, None], out=w), out=w)
                    np.einsum("gst->gs", w, out=rj[0])
                    for k, v in enumerate(vectors, 1):
                        np.einsum("gst,gt->gs", w, v, out=rj[k])
                    if c is not None:
                        np.add(c, w.sum(axis=1), out=c)
                yield c1, c2, xl, r
        yield g, (top + m)[:, 0], (t1, t2, xt), sweep


def _enumerate(spec: FockEnsembleSpec, at: Points, moments: bool = False) -> tuple:
    # (one, f), f per point: log Z, the leading and trailing levels' shares of U and of N, the
    # entropy log z - sum w x / z and, for moments, (g11, g12, g22): each sum w f is R.f_lead +
    # C.f_trail by the row and column totals of the weights.  The covariance's sweep centres each
    # level group on its own mean: sum w (d + v)(d' + v') = R.d d' + C.v v' + d.W v' + d'.W v
    one, l1, l2 = _points(at)
    out, pairs = np.empty((l1.size, 9 if moments else 6)), ((0, 0), (0, 1), (1, 1))
    for g, m, (t1, t2, xt), sweep in _groups(spec, l1, l2):
        c, s = np.zeros(xt.shape), 0.0
        for c1, c2, xl, (r,) in sweep(c):
            s = s + np.array([(r * f).sum(axis=1) for f in (1.0, c1, c2, xl)])
        (z, s1, s2, sx), (u1, u2, ux) = s, ((c * f).sum(axis=1) / s[0] for f in (t1, t2, xt))
        out[g, :6] = np.array([m + np.log(z), s1 / z, u1, s2 / z, u2, np.log(z) - sx / z - ux]).T
        if moments:
            ul1, ut1, ul2, ut2 = out[g, 1:5].T[:, :, None]
            v, s = (t1 - ut1, t2 - ut2), 0.0
            for c1, c2, _, (r, *x) in sweep(None, *v):
                d = (c1 - ul1, c2 - ul2)
                s = s + np.array([(r * d[a] * d[b] + d[a] * x[b] + d[b] * x[a]).sum(axis=1)
                                  for a, b in pairs])
            out[g, 6:] = ((s + np.array([(c * v[a] * v[b]).sum(axis=1) for a, b in pairs])) / z).T
    return one, out


def fock_log_partition(spec: FockEnsembleSpec, at: Points):
    """log Z by the exact product form, verified against brute enumeration.

    Both routes are computed on every call: the per-level product (Fermi
    factors 1 + q_i, Bose truncated geometric sums) and a logsumexp over
    every joint occupancy state, block by block.  They must agree to 1e-12;
    the product value is returned.  For Bose statistics the truncation tail
    against the untruncated closed form is bounded by :func:`fock_be_tail_bound`.
    """
    one, l1, l2 = _points(at)
    product, enumerated = _product_log_partition(spec, l1[:, None], l2[:, None]), np.empty(l1.size)
    for g, m, _, sweep in _groups(spec, l1, l2):  # log Z alone: no column totals
        enumerated[g] = m + np.log(sum(r[0].sum(axis=1) for *_, r in sweep(None)))
    for p, e in zip(product.tolist(), enumerated.tolist()):
        if not math.isfinite(p) or abs(p - e) > 1e-12 * max(1.0, abs(p)):
            raise ArithmeticError(f"product form ({p!r}) and enumeration ({e!r}) disagree")
    return _results(one, product)


def fock_moments(spec: FockEnsembleSpec, at: Points):
    """Exact (U, N) and covariance of the sufficient statistics.

    The covariance equals the Fisher-Rao metric of the ensemble, i.e.
    the negative Hessian of F = -log Z (identity checked by the tests).
    Two sweeps: (log Z, U, N), then the second moments centred on each level
    group's mean, which do not cancel as E[a^2] - E[a]^2 would.
    """
    one, f = _enumerate(spec, at, moments=True)
    return (_results(one, f[:, 1] + f[:, 2]), _results(one, f[:, 3] + f[:, 4]),
            _results(one, *f[:, 6:].T))


def fock_means(spec: FockEnsembleSpec, at: Points):
    """Exact (U, N) alone: the first sweep of :func:`fock_moments`, same bits."""
    one, f = _enumerate(spec, at)
    return _results(one, f[:, 1] + f[:, 2]), _results(one, f[:, 3] + f[:, 4])


def fock_entropy(spec: FockEnsembleSpec, at: Points):
    """Directly enumerated Gibbs entropy -sum rho log rho (uniform prior), by blocks."""
    one, f = _enumerate(spec, at)
    return _results(one, f[:, 5])


def fock_free_energy_field(spec: FockEnsembleSpec) -> FreeEnergyField:
    """F = -log Z of the ensemble as a field (product form), over points x levels at once."""
    return lambda l1, l2: -_product_log_partition(spec, l1[:, None], l2[:, None])
