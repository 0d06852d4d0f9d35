"""Workload inputs and the code a benchmark child runs for each workload.

Input generation uses only the standard library, so a child can build its
inputs without importing numpy or scipy before it times the import of
``gasgeometry.cli``.  The library is imported by the functions that run a
workload and receives only the generated inputs.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import time

WORKLOADS = ("figures", "scatter", "verify")
STATISTICS = ("fd", "be", "be0", "classical")

SCATTER_POINTS = 4000
# Points per run compared against the mpmath closed forms.
REFERENCE_POINTS = 24

# Orders used by the closed forms are eta-1 .. eta+2.  Half of the points
# take eta from the physical systems of the density-of-states catalog
# (1-d/2-d/3-d box, harmonic trap, ultrarelativistic gas), which puts some
# orders on the integers -1, 0, 1 that polylog evaluates in closed form.
CATALOG_ETAS = (-0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
ETA_MAX = 4.0
BETA_DECADES = (-3.0, 3.0)
XI_DECADES = (-4.0, 4.0)
# Bose points reaching the condensation edge 1 - xi in [1e-8, 1e-3],
# where polylog switches to its expansion about ln y = 0.
EDGE_DECADES = (-8.0, -3.0)
EDGE_CUT = 1.0 - 1e-3


def _decades(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (lo + (hi - lo) * u)


def _strata(rng: random.Random, n: int) -> list[float]:
    # one uniform draw inside each of n equal bins, in shuffled order
    # (Latin hypercube), so every seed gets the same share of each regime
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _eta(u: float) -> float:
    if u < 0.5:
        return CATALOG_ETAS[int(2.0 * u * len(CATALOG_ETAS))]
    return ETA_MAX - (ETA_MAX + 1.0) * (2.0 * u - 1.0)  # (-1, 4]


def _xi(stat: str, u: float) -> float:
    if stat not in ("be", "be0"):
        return _decades(u, *XI_DECADES)
    if u < 0.5:
        return 1.0 - _decades(2.0 * u, *EDGE_DECADES)
    return _decades(2.0 * u - 1.0, XI_DECADES[0], math.log10(EDGE_CUT))


def scatter_inputs(seed: int) -> list[tuple[str, float, float, float]]:
    """Seeded ``(stat, eta, beta, xi)`` points, an even mix of statistics.

    eta lies in (-1, 4], half of it on the catalog values; beta is
    log-uniform over six decades; Fermi and classical xi are log-uniform
    on [1e-4, 1e4]; half the Bose xi lie at the condensation edge, up to
    1 - 1e-8.  No two points share an ``(xi, eta)`` pair, so polylog's
    cache is only reused within one point.
    """
    rng = random.Random(seed)
    per_stat = SCATTER_POINTS // len(STATISTICS)
    draws = {stat: list(zip(_strata(rng, per_stat), _strata(rng, per_stat),
                            _strata(rng, per_stat)))
             for stat in STATISTICS}
    points = []
    seen = set()
    for i in range(SCATTER_POINTS):
        stat = STATISTICS[i % len(STATISTICS)]
        u_eta, u_beta, u_xi = draws[stat][i // len(STATISTICS)]
        eta = _eta(u_eta)
        xi = _xi(stat, u_xi)
        while (xi, eta) in seen:
            xi = math.nextafter(xi, 0.0)
        seen.add((xi, eta))
        points.append((stat, eta, _decades(u_beta, *BETA_DECADES), xi))
    return points


def reference_subset(seed: int, population: int, size: int = REFERENCE_POINTS) -> list[int]:
    """Sorted indices of the operations compared against mpmath."""
    return sorted(random.Random(seed ^ 0x5EED).sample(range(population), size))


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def sign_ok(stat: str, r: float) -> bool:
    """The paper's sign headline: R < 0 (fd), R > 0 (be0), R == 0 (classical)."""
    if stat == "fd":
        return r < 0.0
    if stat == "be0":
        return r > 0.0
    if stat == "classical":
        return r == 0.0
    return True  # the ground-state corrected Bose curvature has no fixed sign


def r_from_r_bar(stat: str, r_bar: float) -> float:
    """R up to the positive factor t/2: R = +(t/2) R_bar for fd, -(t/2) R_bar for Bose."""
    return r_bar if stat in ("fd", "classical") else -r_bar


# --------------------------------------------------------------------------
# workload runners (run inside a child, after gasgeometry.cli is imported)
# --------------------------------------------------------------------------

SCATTER_FIELDS = ("g11", "g12", "g22", "det_g", "g_bar", "R", "R_bar", "U", "N")


def run_scatter(seed: int, subset: list[int]) -> dict:
    """Evaluate every scatter point through geometry_sample plus averages."""
    import gasgeometry

    points = scatter_inputs(seed)
    latencies = []
    outputs = []
    start = time.perf_counter()
    for stat, eta, beta, xi in points:
        t0 = time.perf_counter()
        try:
            model = gasgeometry.GasModel(stat, eta=eta, kappa=1.0)
            p = gasgeometry.ThermoPoint(beta, xi)
            s = gasgeometry.geometry_sample(model, p)
            u, n = gasgeometry.averages(model, p)
            out = (s.metric.g11, s.metric.g12, s.metric.g22, s.det_g, s.g_bar,
                   s.R, s.R_bar, u, n)
        except Exception as exc:  # any escape is a failed operation
            out = type(exc).__name__
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - start

    failures = {}
    digest = hashlib.sha256()
    for i, ((stat, *_), out) in enumerate(zip(points, outputs)):
        digest.update(repr(out).encode())
        if isinstance(out, str):
            failures[i] = f"raised {out}"
        elif not _finite(*out):
            failures[i] = "non-finite output"
        elif not sign_ok(stat, out[5]):
            failures[i] = f"sign headline violated: R = {out[5]!r}"
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "ops": len(points),
        "failures": failures,
        "digest": digest.hexdigest(),
        "subset": {i: outputs[i] for i in subset},
    }


FIGURE_NUMBERS = (1, 2, 3, 4, 5, 6)
_FIGURE_VALUE_COLUMNS = ("g_bar", "R", "R_bar")


def figure_inputs() -> list[tuple[str, float, float, float, float]]:
    """``(stat, eta, kappa, beta, xi)`` of every figure row, in CSV order."""
    from gasgeometry.cli import FIGURE_PRESETS

    return [(spec.model.statistics, spec.model.eta, spec.model.kappa,
             float(beta), float(xi))
            for n in FIGURE_NUMBERS for spec in FIGURE_PRESETS[n]
            for beta in spec.beta_grid.values() for xi in spec.xi_grid.values()]


def expected_ops(workload: str) -> int | None:
    """Operations of a complete repetition, where the inputs fix them."""
    if workload == "scatter":
        return SCATTER_POINTS
    if workload == "figures":
        return len(figure_inputs())
    return None


def run_figures(workdir: str, subset: list[int]) -> dict:
    """Write figures 1-6 through ``gasgeometry.cli.main`` with cold caches."""
    from gasgeometry import cli, special_functions as sf

    paths = [os.path.join(workdir, f"fig{n}.csv") for n in FIGURE_NUMBERS]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for n, path in zip(FIGURE_NUMBERS, paths):
            # a fresh `gasgeometry figure N` starts with empty caches
            sf.polylog.cache_clear()
            sf.zeta_real.cache_clear()
            code = cli.main(["figure", str(n), "--out", path])
            if code != 0:
                raise RuntimeError(f"figure {n} exited with {code}")
    wall = time.perf_counter() - start

    failures = {}
    digest = hashlib.sha256()
    rows = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        rows.extend(csv.DictReader(io.StringIO(data.decode())))
    for i, row in enumerate(rows):
        if row["error"]:
            failures[i] = f"error column: {row['error']}"
            continue
        values = [float(row[c]) for c in _FIGURE_VALUE_COLUMNS if row[c]]
        if not values or not _finite(*values):
            failures[i] = "missing or non-finite value"
        elif row["R"] and not sign_ok(row["stat"], float(row["R"])):
            failures[i] = f"sign headline violated: R = {row['R']}"
        elif row["R_bar"] and not sign_ok(row["stat"], r_from_r_bar(row["stat"], float(row["R_bar"]))):
            failures[i] = f"sign headline violated: R_bar = {row['R_bar']}"
    return {
        "wall_s": wall,
        "ops": len(rows),
        "failures": failures,
        "digest": digest.hexdigest(),
        "subset": {i: rows[i] for i in subset if i < len(rows)},
    }


def run_verify() -> dict:
    """``verification.run_suites("full")``; each suite is one operation."""
    from gasgeometry import verification

    start = time.perf_counter()
    try:
        results = verification.run_suites("full")
    except Exception as exc:
        results = exc
    wall = time.perf_counter() - start

    if isinstance(results, Exception):
        return {"wall_s": wall, "ops": 1,
                "failures": {0: f"run_suites raised {type(results).__name__}: {results}"},
                "digest": "", "subset": {}}
    failures = {i: f"suite failed: {r.name} ({r.detail or r.max_deviation})"
                for i, r in enumerate(results) if not r.passed}
    digest = hashlib.sha256(repr([(r.name, r.max_deviation, r.passed)
                                  for r in results]).encode())
    return {
        "wall_s": wall,
        "ops": len(results),
        "failures": failures,
        "digest": digest.hexdigest(),
        "subset": {},
    }
