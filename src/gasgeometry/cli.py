"""Command-line front end: point evaluation, grid sweeps, limit tables,
figure-reproduction datasets and the verification suites.

Numbers are printed with 17 significant digits, so every reported value
round-trips to the exact double produced by the library call.  Sweeps run
in row-major grid order (beta outer, xi inner), byte-identical across runs
on one machine; a block's rows copy a template holding its eta, kappa and
stat text, and format each xi once per column and each beta once per row.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or
domain errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import quantum_gas, verification
from .errors import (DomainError, EnumerationLimitError, PolylogOverflowError,
                     SingularMetricError)
from .quantum_gas import GasModel, ThermoPoint

__all__ = ["GridSpec", "SweepSpec", "main", "FIGURE_PRESETS",
           "CSV_COLUMNS", "OUTPUT_CHOICES", "OUTPUT_COLUMNS"]

# each output quantity and the CSV cells it fills
OUTPUT_COLUMNS = {"metric": ("g11", "g12", "g22"), "det": ("det_g", "g_bar"),
                  "curvature": ("R",), "gbar": ("g_bar",), "rbar": ("R_bar",),
                  "averages": ("U", "N")}
OUTPUT_CHOICES = tuple(OUTPUT_COLUMNS)
CSV_COLUMNS = ("beta", "xi", "eta", "kappa", "stat",
               "g11", "g12", "g22", "det_g", "g_bar", "R", "R_bar", "U", "N",
               "error")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# where a cell's GeometrySample or (U, N) holds each value column
_CELLS = {**{c: attrgetter(f"metric.{c}") for c in ("g11", "g12", "g22")},
          **{c: attrgetter(c) for c in ("det_g", "g_bar", "R", "R_bar")},
          "U": itemgetter(0), "N": itemgetter(1)}


@dataclass(frozen=True)
class GridSpec:
    """One sweep axis: count points from lo to hi, linear or log spaced."""

    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (self.count >= 2 and math.isfinite(self.count) and self.count == int(self.count)):
            raise DomainError(f"grid needs a whole count >= 2, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DomainError(f"grid needs min < max, got [{self.lo}, {self.hi}]")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and self.lo <= 0.0:
            raise DomainError("log spacing needs min > 0")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse 'min:max:count[:log]'."""
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise DomainError(f"expected min:max:count[:log], got {text!r}")
        spacing = parts[3] if len(parts) == 4 else "linear"  # checked by __post_init__
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"bad grid {text!r}: {exc}") from None
        return cls(lo, hi, count, spacing)

    @classmethod
    def from_config(cls, obj) -> "GridSpec":
        if isinstance(obj, str):
            return cls.parse(obj)
        return cls(float(obj["min"]), float(obj["max"]), float(obj["count"]),
                   obj.get("spacing", "linear"))

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A model, two grid axes, and the set of quantities to emit."""

    model: GasModel
    beta_grid: GridSpec
    xi_grid: GridSpec
    outputs: frozenset[str]

    def __post_init__(self):
        bad = self.outputs - set(OUTPUT_CHOICES)
        if bad:
            raise DomainError(f"unknown outputs {sorted(bad)}; choose from {OUTPUT_CHOICES}")
        for axis, grid in (("beta", self.beta_grid), ("xi", self.xi_grid)):
            if grid.lo <= 0.0:
                raise DomainError(f"{axis} grid needs min > 0, got {grid.lo}")
        if self.model.statistics in (quantum_gas.BOSE_EINSTEIN,
                                     quantum_gas.BOSE_EINSTEIN_NO_GROUND):
            if self.xi_grid.hi >= 1.0:
                raise DomainError("Bose statistics need a xi grid inside (0, 1)")


def _text_rows(model: GasModel, xis, cells, outputs: frozenset[str]) -> Iterator[dict[str, str]]:
    # (point, sample, means, error) cells, beta outer and xi inner, as rows from text
    # formatted once: eta, kappa and stat into a template, each xi once per column and
    # each beta once per grid row; a row formats only its own requested values, and
    # keeps those computed before a failure
    template = dict.fromkeys(CSV_COLUMNS, "")
    template.update(eta=_fmt(model.eta), kappa=_fmt(model.kappa), stat=model.statistics)
    wanted = {column for name in outputs for column in OUTPUT_COLUMNS[name]}
    columns = [(c, c in ("U", "N"), _CELLS[c]) for c in CSV_COLUMNS if c in wanted]
    texts = [_fmt(xi) for xi in xis]
    for i, (p, sample, means, error) in enumerate(cells):
        if (j := i % len(texts)) == 0:
            beta = _fmt(p.beta)
        row = template.copy()
        row["beta"], row["xi"] = beta, texts[j]
        for column, average, get in columns:
            if (cell := means if average else sample) is not None:
                row[column] = _fmt(get(cell))
        if error is not None:
            row["error"] = str(error).replace(",", ";")
        yield row


def _rows(model: GasModel, betas, xis, outputs: frozenset[str]) -> Iterator[dict[str, str]]:
    # one pass of the grid, beta outer and xi inner, evaluates only what outputs ask for
    xis = [float(xi) for xi in xis]
    cells = quantum_gas._grid(model, betas, xis, geometry=bool(outputs - {"averages"}),
                              averages="averages" in outputs)
    return _text_rows(model, xis, cells, outputs)


def sweep_rows(spec: SweepSpec) -> Iterator[dict[str, str]]:
    """The CSV rows of one sweep block, made one at a time."""
    return _rows(spec.model, spec.beta_grid.values(), spec.xi_grid.values(), spec.outputs)


def write_sweep(specs: Sequence[SweepSpec], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for spec in specs:
        if spec.outputs:  # an empty set writes the header only
            writer.writerows(row.values() for row in sweep_rows(spec))


# --------------------------------------------------------------------------
# figure presets (datasets behind the six standard plots)
# --------------------------------------------------------------------------

def _preset(stat, eta, beta_grid, xi_grid, outputs):
    return SweepSpec(GasModel(stat, eta=eta, kappa=1.0), beta_grid, xi_grid,
                     frozenset(outputs))


_FD_XI = GridSpec(0.02, 5.0, 250)
_FD_CONTOUR = (GridSpec(0.1, 5.0, 40, "log"), GridSpec(0.01, 5.0, 60))
_BE_XI = GridSpec(0.01, 0.99, 99)
_BE_BETAS = GridSpec(0.5, 2.0, 3, "log")  # 0.5, 1, 2
_BE_CONTOUR = (GridSpec(0.1, 5.0, 40, "log"), GridSpec(0.01, 0.99, 50))

FIGURE_PRESETS: dict[int, list[SweepSpec]] = {
    # determinant factor of the Fermi gas vs fugacity (beta-independent)
    1: [_preset("fd", 0.5, GridSpec(1.0, 2.0, 2), _FD_XI, {"gbar"})],
    # curvature factor of the Fermi gas vs fugacity
    2: [_preset("fd", 0.5, GridSpec(1.0, 2.0, 2), _FD_XI, {"rbar"})],
    # Fermi curvature over the (beta, xi) plane, eta = 1/2 and 2
    3: [_preset("fd", eta, *_FD_CONTOUR, {"curvature"}) for eta in (0.5, 2.0)],
    # Bose determinant factor vs fugacity for several beta
    4: [_preset("be", eta, _BE_BETAS, _BE_XI, {"gbar"}) for eta in (0.5, 2.0)],
    # Bose curvature factor with and without the ground state
    5: [_preset(stat, eta, _BE_BETAS, _BE_XI, {"rbar"})
        for stat in ("be", "be0") for eta in (0.5, 2.0)],
    # Bose curvature over the (beta, xi) plane, with vs without ground state
    6: [_preset(stat, eta, *_BE_CONTOUR, {"curvature"})
        for stat in ("be", "be0") for eta in (0.5, 2.0)],
}


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_eval(args) -> int:
    model = GasModel(args.stat, eta=args.eta, kappa=args.kappa)
    outputs = frozenset(args.outputs or OUTPUT_CHOICES)
    # the point's own error is raised, not the sweep's error cell; same bits as the one-cell grid
    p = ThermoPoint(args.beta, args.xi)
    sample = quantum_gas.geometry_sample(model, p) if outputs - {"averages"} else None
    means = quantum_gas.averages(model, p) if "averages" in outputs else None
    row = next(_text_rows(model, (p.xi,), [(p, sample, means, None)], outputs))
    print("\n".join(f"{key}={value}" for key, value in row.items() if value))
    return 0


_REQUIRED = {"stat": "--stat (or 'stat' in the config file)",
             "beta_grid": "--beta-grid min:max:count[:log]",
             "xi_grid": "--xi-grid min:max:count[:log]"}


def _sweep_spec_from_args(args) -> SweepSpec:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise DomainError(f"config file {args.config} must hold a JSON object")
    for key in (*_REQUIRED, "eta", "kappa", "outputs"):
        if getattr(args, key) is not None:  # a flag wins over the config file
            cfg[key] = getattr(args, key)
    for key, flag in _REQUIRED.items():
        if key not in cfg:
            raise DomainError(f"sweep needs {flag}")
    try:
        model = GasModel(cfg["stat"], eta=float(cfg.get("eta", 0.5)),
                         kappa=float(cfg.get("kappa", 1.0)))
        return SweepSpec(model, GridSpec.from_config(cfg["beta_grid"]),
                         GridSpec.from_config(cfg["xi_grid"]),
                         frozenset(cfg.get("outputs", OUTPUT_CHOICES)))
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad sweep config: {type(exc).__name__}: {exc}") from None


def cmd_sweep(args) -> int:
    spec = _sweep_spec_from_args(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep([spec], fh)
    else:
        write_sweep([spec], sys.stdout)
    return 0


def cmd_limits(args) -> int:
    coeffs = quantum_gas.limit_coefficients(args.eta)
    models = [GasModel(stat, eta=args.eta, kappa=args.kappa) for stat in ("fd", "be")]
    lines = [f"eta={_fmt(args.eta)}", f"kappa={_fmt(args.kappa)}",
             *(f"{name}={_fmt(getattr(coeffs, name))}" for name in ("f", "f_c", "h", "h_c")),
             "beta,R_limit_fd,R_limit_be"]
    for beta in args.beta:  # every row is made before any is printed
        limits = [quantum_gas.limit_curvature(m, beta) for m in models]
        lines.append(",".join(_fmt(v) for v in (beta, *limits)))
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    results = verification.run_suites()
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"[{status}] {r.name:<36} tolerance {r.tolerance:.1e}  "
                f"max deviation {r.max_deviation:.3e}")
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failures += 0 if r.passed else 1
    print(f"summary: {len(results) - failures}/{len(results)} suites passed")
    return 1 if failures else 0


def cmd_figure(args) -> int:
    specs = FIGURE_PRESETS[args.number]
    out = args.out or f"fig{args.number}.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_sweep(specs, fh)
    total = sum(s.beta_grid.count * s.xi_grid.count for s in specs)
    print(f"wrote {out}: {total} grid points across {len(specs)} sweep blocks")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasgeometry",
        description="Fisher-Rao geometry of ideal quantum and classical gases")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sorted(quantum_gas.STATISTICS)

    p_eval = sub.add_parser("eval", help="evaluate one point")
    p_eval.add_argument("--stat", required=True, choices=stats)
    p_eval.add_argument("--eta", type=float, default=0.5)
    p_eval.add_argument("--kappa", type=float, default=1.0)
    p_eval.add_argument("--beta", type=float, required=True)
    p_eval.add_argument("--xi", type=float, required=True)
    p_eval.add_argument("--outputs", nargs="+", choices=OUTPUT_CHOICES,
                        metavar="QUANTITY")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a (beta, xi) grid to CSV")
    p_sweep.add_argument("--stat", choices=stats)
    p_sweep.add_argument("--eta", type=float)
    p_sweep.add_argument("--kappa", type=float)
    p_sweep.add_argument("--beta-grid", metavar="MIN:MAX:COUNT[:log]")
    p_sweep.add_argument("--xi-grid", metavar="MIN:MAX:COUNT[:log]")
    p_sweep.add_argument("--outputs", nargs="*", choices=OUTPUT_CHOICES,
                         metavar="QUANTITY")
    p_sweep.add_argument("--out", metavar="PATH")
    p_sweep.add_argument("--config", metavar="PATH",
                         help="JSON file mirroring the sweep spec; flags override")
    p_sweep.set_defaults(func=cmd_sweep)

    p_limits = sub.add_parser("limits", help="low-fugacity constants and limit curvatures")
    p_limits.add_argument("--eta", type=float, default=0.5)
    p_limits.add_argument("--kappa", type=float, default=1.0)
    p_limits.add_argument("--beta", type=float, nargs="+", default=[1.0])
    p_limits.set_defaults(func=cmd_limits)

    p_verify = sub.add_parser("verify", help="run the oracle verification suites")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="emit the dataset behind a standard figure")
    p_fig.add_argument("number", type=int, choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument("--out", metavar="PATH")
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # a reader such as `head` closed stdout: stop quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DomainError, EnumerationLimitError, PolylogOverflowError,
            SingularMetricError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
