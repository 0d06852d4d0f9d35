"""In-memory spans around the calls into each layer of gasgeometry.

``Tracer.install()`` replaces each traced public function with a timing
wrapper in every namespace that holds it: the defining module, each
module that imported the name, the package namespace, the verification
``SUITES`` table and any default argument bound to it.  An untraced
child installs only the spans of the workload operations, the CLI rows
and the verification suites, whose ``durations()`` are the operation
latencies.  ``restore()`` puts the originals back.  Spans are kept in
flat arrays while the workload runs; ``layer_metrics()`` turns them into
counts, busy times (outermost spans of a name) and self times (span minus
its direct child spans).
"""
from __future__ import annotations

import math
import time
from array import array
from collections import Counter

# Traced function -> span name.  Functions of one span name share a
# metric (the Fock enumeration entry points all count as "fock").
SPECIAL_FUNCTIONS = {
    "polylog": "polylog",
    "polylog_series": "polylog.series",
    "polylog_quadrature": "polylog.quad",
    "polylog_step_down": "polylog_step_down",
    "gamma_real": "gamma_real",
    "zeta_real": "zeta_real",
}
QUANTUM_GAS = {
    "geometry_sample": "geometry_sample",
    "det_bundle": "det_bundle",
    "metric": "metric",
    "averages": "averages",
    "free_energy": "free_energy",
}
GIBBS_CORE = {
    "hessian_metric": "hessian_metric",
    "jacobian_metric": "jacobian_metric",
    "scalar_curvature_det": "scalar_curvature_det",
    "scalar_curvature_riemann": "scalar_curvature_riemann",
    "fock_moments": "fock",
    "fock_log_partition": "fock",
    "fock_entropy": "fock",
}
_ENGINE_SPANS = frozenset({"hessian_metric", "jacobian_metric",
                           "scalar_curvature_det", "scalar_curvature_riemann"})
_CLOSED_FORM_SPANS = frozenset({"free_energy", "averages", "metric"})

LAYER_METRICS = (
    # special_functions
    ("polylog.calls", "count", "lower"),
    ("polylog.busy_s", "s", "lower"),
    ("polylog.cache_hit_ratio", "ratio", "higher"),
    ("polylog.series.calls", "count", "lower"),
    ("polylog.series.busy_s", "s", "lower"),
    ("polylog.quad.calls", "count", "lower"),
    ("polylog.quad.busy_s", "s", "lower"),
    ("polylog.edge.calls", "count", "lower"),
    ("polylog.edge.busy_s", "s", "lower"),
    ("polylog.closed_form.calls", "count", "lower"),
    ("polylog_step_down.calls", "count", "lower"),
    ("gamma_real.calls", "count", "lower"),
    ("gamma_real.busy_s", "s", "lower"),
    ("zeta_real.calls", "count", "lower"),
    ("zeta_real.cache_hit_ratio", "ratio", "higher"),
    # quantum_gas
    ("geometry_sample.calls", "count", "lower"),
    ("geometry_sample.self_s", "s", "lower"),
    ("det_bundle.calls", "count", "lower"),
    ("det_bundle.self_s", "s", "lower"),
    ("metric.calls", "count", "lower"),
    ("metric.self_s", "s", "lower"),
    ("averages.calls", "count", "lower"),
    ("free_energy.calls", "count", "lower"),
    ("conditioning_warnings", "count", "lower"),
    # gibbs_core
    ("hessian_metric.calls", "count", "lower"),
    ("hessian_metric.self_s", "s", "lower"),
    ("jacobian_metric.calls", "count", "lower"),
    ("jacobian_metric.self_s", "s", "lower"),
    ("scalar_curvature_det.calls", "count", "lower"),
    ("scalar_curvature_det.self_s", "s", "lower"),
    ("scalar_curvature_riemann.calls", "count", "lower"),
    ("scalar_curvature_riemann.self_s", "s", "lower"),
    ("field_evals", "count", "lower"),
    ("fock.calls", "count", "lower"),
    ("fock.busy_s", "s", "lower"),
    ("fock.states", "count", "lower"),
    # cli / verification
    ("cli.sweep.rows", "count", "higher"),
    ("cli.sweep.self_s", "s", "lower"),
    ("verification.suite.runs", "count", "lower"),
    *((f"verification.suite.{name}.wall_s", "s", "lower")
      for name in ("polylog", "fock", "metric", "curvature", "classical",
                   "fd-negativity", "limits", "condensation")),
    # import, from `python -X importtime`
    ("import.scipy_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.gasgeometry_s", "s", "lower"),
    # traced minus untraced wall_s of the same run
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder plus the patch table that installs its wrappers."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.outermost = array("b")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list = []
        self._polylog_misses: dict[int, tuple[float, float]] = {}

    # ---------------------------------------------------------------- spans
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _open(self, nid: int, outermost: bool) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(outermost)
        self.t1.append(math.nan)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``before(args)`` runs at entry and its result is handed to
        ``after(state, index)`` at exit, both outside the span.
        """
        nid = self._id(name)
        depth = self._depth

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = self._open(nid, depth[nid] == 0)
            depth[nid] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                depth[nid] -= 1
                if after is not None:
                    after(state, idx)

        # the figures workload clears the polylog and zeta caches
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def wrap_rows(self, gen_fn, name: str):
        """One span per item a generator function yields.

        The closing pull, which yields none, is a span of ``name:end``.
        """
        nid = self._id(name)
        end = self._id(name + ":end")

        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                idx = self._open(nid, True)
                try:
                    item = next(it)
                except StopIteration:
                    self.name[idx] = end
                    return
                finally:
                    self._close(idx)
                self.counts[name + ".rows"] += 1
                yield item

        return wrapper

    def active(self, name: str) -> bool:
        return self._depth[self._ids.get(name, -1)] > 0

    # -------------------------------------------------------------- patches
    def _patch_everywhere(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    ns[key] = wrapper
                elif (callable(value) and getattr(value, "__defaults__", None)
                      and any(d is original for d in value.__defaults__)):
                    self._patches.append((value, "__defaults__", value.__defaults__))
                    value.__defaults__ = tuple(wrapper if d is original else d
                                               for d in value.__defaults__)

    def install(self, layers: bool = True) -> None:
        """Wrap the operations of the figures and verify workloads.

        Every child records one span per CLI row (``cli.sweep``) and per
        verification suite, which ``durations`` turns into operation
        latencies.  With ``layers`` every traced function of the imported
        package is wrapped as well.
        """
        import gasgeometry
        from gasgeometry import (cli, gibbs_core, quantum_gas,
                                 special_functions, verification)

        modules = (gasgeometry, special_functions, gibbs_core, quantum_gas,
                   verification, cli)
        namespaces = [m.__dict__ for m in modules] + [verification.SUITES]
        # layer functions first: a suite's wrapper hides the original suite
        # function, and with it the defaults that bind layer functions
        if layers:
            self._install_layers(namespaces)
        suites = {fn: key for key, fn in verification.SUITES.items()}
        suites[verification.suite_condensation_edge] = "condensation"
        for original, key in suites.items():
            self._patch_everywhere(namespaces, original,
                                   self.wrap(original, f"verification.suite.{key}"))
        self._patch_everywhere([cli.__dict__], cli.sweep_rows,
                               self.wrap_rows(cli.sweep_rows, "cli.sweep"))

    def _install_layers(self, namespaces) -> None:
        from gasgeometry import gibbs_core, quantum_gas, special_functions

        zeta = special_functions.zeta_real

        def zeta_before(args):
            return zeta.cache_info().misses

        def zeta_after(misses, idx):
            self.counts["zeta_real.misses"] += zeta.cache_info().misses > misses

        def engine_eval(args):
            if any(self.active(n) for n in _ENGINE_SPANS):
                self.counts["field_evals"] += 1

        def fock_states(args):
            self.counts["fock.states"] += args[0].state_count

        hooks = {
            "zeta_real": (zeta_before, zeta_after),
            "fock": (fock_states, None),
            **{n: (engine_eval, None) for n in _CLOSED_FORM_SPANS},
        }
        for module, table in ((special_functions, SPECIAL_FUNCTIONS),
                              (quantum_gas, QUANTUM_GAS), (gibbs_core, GIBBS_CORE)):
            for attr, name in table.items():
                original = getattr(module, attr)
                if name == "polylog":
                    wrapper = self._wrap_polylog(original)
                else:
                    wrapper = self.wrap(original, name, *hooks.get(name, (None, None)))
                self._patch_everywhere(namespaces, original, wrapper)

    def _wrap_polylog(self, original):
        # a call is a cache miss when it raised the lru_cache miss count;
        # misses keep their arguments so the regime can be told afterwards
        def before(args):
            return original.cache_info().misses, args

        def after(state, idx):
            misses, args = state
            if original.cache_info().misses > misses:
                self._polylog_misses[idx] = (float(args[0]), float(args[1]))

        return self.wrap(original, "polylog", before, after)

    def restore(self) -> None:
        """Put back every original function and default argument."""
        while self._patches:
            target, key, value = self._patches.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -------------------------------------------------------------- metrics
    def durations(self, prefix: str) -> list[float]:
        """Seconds of each outermost span named ``prefix`` or ``prefix.*``."""
        ids = {i for name, i in self._ids.items()
               if name == prefix or name.startswith(prefix + ".")}
        return [self.t1[i] - self.t0[i] for i in range(len(self.t0))
                if self.name[i] in ids and self.outermost[i]]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the recorded spans."""
        names = self._names
        n = len(self.t0)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            key = names[self.name[i]]
            calls[key] += 1
            self_s[key] += dur[i] - child[i]
            if self.outermost[i]:
                busy[key] += dur[i]

        # polylog regimes: a cache miss is served by series or quadrature
        # when it has that child span, by its integer-order closed form at
        # orders -1, 0, 1, and by the edge expansion otherwise
        regime_child = {}
        for i in range(n):
            key = names[self.name[i]]
            if key in ("polylog.series", "polylog.quad") and self.parent[i] >= 0:
                regime_child[self.parent[i]] = key
        closed = edge = 0
        edge_s = 0.0
        for idx, (y, phi) in self._polylog_misses.items():
            if idx in regime_child or y == 0.0:
                continue
            if phi in (-1.0, 0.0, 1.0):
                closed += 1
            else:
                edge += 1
                edge_s += dur[idx]

        def ratio(hits, total):
            return hits / total if total else 0.0

        out = {
            "polylog.calls": calls["polylog"],
            "polylog.busy_s": busy["polylog"],
            "polylog.cache_hit_ratio": ratio(calls["polylog"] - len(self._polylog_misses),
                                             calls["polylog"]),
            "polylog.series.calls": calls["polylog.series"],
            "polylog.series.busy_s": busy["polylog.series"],
            "polylog.quad.calls": calls["polylog.quad"],
            "polylog.quad.busy_s": busy["polylog.quad"],
            "polylog.edge.calls": edge,
            "polylog.edge.busy_s": edge_s,
            "polylog.closed_form.calls": closed,
            "polylog_step_down.calls": calls["polylog_step_down"],
            "gamma_real.calls": calls["gamma_real"],
            "gamma_real.busy_s": busy["gamma_real"],
            "zeta_real.calls": calls["zeta_real"],
            "zeta_real.cache_hit_ratio": ratio(calls["zeta_real"] - self.counts["zeta_real.misses"],
                                               calls["zeta_real"]),
            "field_evals": self.counts["field_evals"],
            "fock.calls": calls["fock"],
            "fock.busy_s": busy["fock"],
            "fock.states": self.counts["fock.states"],
            "cli.sweep.rows": self.counts["cli.sweep.rows"],
            "cli.sweep.self_s": self_s["cli.sweep"],
            "verification.suite.runs": sum(c for k, c in calls.items()
                                           if k.startswith("verification.suite.")),
        }
        for key in ("geometry_sample", "det_bundle", "metric", "hessian_metric",
                    "jacobian_metric", "scalar_curvature_det", "scalar_curvature_riemann"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
        out["averages.calls"] = calls["averages"]
        out["free_energy.calls"] = calls["free_energy"]
        for key in ("polylog", "fock", "metric", "curvature", "classical",
                    "fd-negativity", "limits", "condensation"):
            out[f"verification.suite.{key}.wall_s"] = busy[f"verification.suite.{key}"]
        return out


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import time owned by numpy, scipy and gasgeometry.

    Each module's self time from ``python -X importtime`` goes to the
    nearest enclosing import (itself included) whose top-level package is
    one of the three, so the three shares partition the attributed time.
    """
    tracked = ("numpy", "scipy", "gasgeometry")
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        label = fields[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        entries.append((depth, int(fields[0]), name))
    owners_at_depth: dict[int, str | None] = {}
    totals = {pkg: 0 for pkg in tracked}
    # the log is post-order, so reversed it lists each import before its
    # children and the owner of depth d - 1 is the parent's owner
    for depth, self_us, name in reversed(entries):
        top = name.split(".")[0]
        owner = top if top in tracked else owners_at_depth.get(depth - 1)
        owners_at_depth[depth] = owner
        if owner is not None:
            totals[owner] += self_us
    return {f"import.{pkg}_s": us * 1e-6 for pkg, us in totals.items()}
