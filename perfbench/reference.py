"""mpmath evaluation of the paper's closed forms, the benchmark's oracle.

Works in the Lagrange coordinates lambda1 = beta, lambda2 = -ln xi with

    P(p)   = kappa Gamma(eta+p) beta^-(eta+p)      dP(p)/dbeta = -P(p+1)
    L(k)   = Li(s xi, eta+k)                        dL(k)/dlambda2 = -L(k-1)
    g11, g12, g22 = s P(3) L(2), s P(2) L(1), s P(1) L(0)   (+ xi/(1-xi)^2 on g22, be)
    U, N   = s P(2) L(2), s P(1) L(1)                        (+ xi/(1-xi) on N, be)
    R      = -1/(2 det g^2) det[[g_mn], [d_1 g_mn], [d_2 g_mn]]

with s = -1 for fd and +1 for the Bose branches; the classical gas
replaces every L(k) by xi.  The curvature is taken from the exact metric
derivatives, not from the library's determinant bundles A, B, so the two
share no algebra beyond the closed forms themselves.
"""
from __future__ import annotations

import math

import mpmath as mp

# README accuracy budgets: polylog values, and so every quantity linear in
# one polylog, to 1e-10 relative; the quantities built from a determinant
# of polylog products to the 1e-4 budget the README sets for curvature
# against the closed forms.  The derived budget has to cover
# polylog_step_down (~1e-7) amplified by the cancellation in the bundle B.
LINEAR_BUDGET = 1e-10
DERIVED_BUDGET = 1e-4
BUDGETS = {"g11": LINEAR_BUDGET, "g12": LINEAR_BUDGET, "g22": LINEAR_BUDGET,
           "U": LINEAR_BUDGET, "N": LINEAR_BUDGET,
           "det_g": DERIVED_BUDGET, "g_bar": DERIVED_BUDGET,
           "R": DERIVED_BUDGET, "R_bar": DERIVED_BUDGET}

_DPS = 60


def _polylog(s, y):
    # mpmath's own route for non-integer order at y < -0.75 sums zeta
    # values of ever lower order and is ~10x slower than Jonquiere's
    # Hurwitz-zeta formula, which holds off the cut [1, inf)
    if y < -0.75 and not mp.isint(s):
        v = 1 - s
        a = mp.ln(-y) / (2j * mp.pi)
        return mp.re(mp.gamma(v) * (mp.j**v * mp.zeta(v, 0.5 + a)
                                    + mp.j**-v * mp.zeta(v, 0.5 - a)) / (2 * mp.pi)**v)
    return mp.re(mp.polylog(s, y))


def closed_forms(stat: str, eta: float, kappa: float, beta: float, xi: float) -> dict:
    """Every output of ``geometry_sample`` and ``averages``, as floats."""
    with mp.workdps(_DPS):
        eta_, kappa_, beta_, xi_ = (mp.mpf(v) for v in (eta, kappa, beta, xi))

        def P(p):
            return kappa_ * mp.gamma(eta_ + p) * beta_ ** -(eta_ + p)

        if stat == "classical":
            s = 1
            L = {k: xi_ for k in (-1, 0, 1, 2)}
        else:
            s = -1 if stat == "fd" else 1
            L = {k: _polylog(eta_ + k, s * xi_) for k in (-1, 0, 1, 2)}
        g = [s * P(3) * L[2], s * P(2) * L[1], s * P(1) * L[0]]
        d1 = [-s * P(4) * L[2], -s * P(3) * L[1], -s * P(2) * L[0]]
        d2 = [-s * P(3) * L[1], -s * P(2) * L[0], -s * P(1) * L[-1]]
        u, n = s * P(2) * L[2], s * P(1) * L[1]
        if stat == "be":
            w = 1 - xi_
            g[2] += xi_ / w**2
            d2[2] -= xi_ * (1 + xi_) / w**3
            n += xi_ / w
        det_g = g[0] * g[2] - g[1] ** 2
        r = -mp.det(mp.matrix([g, d1, d2])) / (2 * det_g**2)
        unit = (kappa_ / beta_ ** (eta_ + 2)) ** 2
        t = beta_ ** (eta_ + 1) / kappa_
        r_bar = (2 if stat == "fd" else -2) * r / t
        out = {"g11": g[0], "g12": g[1], "g22": g[2], "det_g": det_g,
               "g_bar": det_g / unit, "R": r, "R_bar": r_bar, "U": u, "N": n}
        if stat == "classical":
            out["R"] = out["R_bar"] = mp.mpf(0)
        return {k: float(v) for k, v in out.items()}


def deviations(stat: str, got: dict, ref: dict) -> dict:
    """Relative deviation of each reported quantity from the reference.

    The classical curvature is exactly 0 on both sides and is checked by
    the sign headline, so it is left out here.
    """
    out = {}
    for key, value in got.items():
        if stat == "classical" and key in ("R", "R_bar"):
            continue
        want = ref[key]
        out[key] = abs(value - want) / max(abs(want), 1e-300)
    return out


def check(stat: str, got: dict, ref: dict) -> str:
    """Empty when every quantity is within budget, else the worst miss."""
    worst = ""
    worst_ratio = 1.0
    for key, dev in deviations(stat, got, ref).items():
        ratio = dev / BUDGETS[key] if math.isfinite(dev) else math.inf
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst = f"{key} off by {dev:.2e} relative (budget {BUDGETS[key]:.0e})"
    return worst
