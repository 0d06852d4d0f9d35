"""Command-line interface tests: formats, determinism, exit codes."""
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gasgeometry.cli as cli
import gasgeometry.quantum_gas as qg
import gasgeometry.verification as verification
from gasgeometry.cli import CSV_COLUMNS, GridSpec, SweepSpec
from gasgeometry.errors import ConditioningWarning, DomainError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_fd_reports_negative_curvature(capsys):
    code, out, _ = run(capsys, "eval", "--stat", "fd", "--eta", "0.5",
                       "--kappa", "1", "--beta", "1", "--xi", "0.5")
    assert code == 0
    pairs = parse_kv(out)
    assert float(pairs["R"]) < 0.0
    assert pairs["stat"] == "fd"


def test_eval_classical_is_flat(capsys):
    code, out, _ = run(capsys, "eval", "--stat", "classical", "--beta", "1",
                       "--xi", "1", "--kappa", "1")
    assert code == 0
    assert float(parse_kv(out)["R"]) == 0.0


def test_eval_matches_library_bit_for_bit(capsys):
    code, out, _ = run(capsys, "eval", "--stat", "be", "--eta", "2",
                       "--beta", "1", "--xi", "0.9")
    assert code == 0
    pairs = parse_kv(out)
    model = qg.GasModel("be", eta=2.0, kappa=1.0)
    p = qg.ThermoPoint(1.0, 0.9)
    sample = qg.geometry_sample(model, p)
    u, n = qg.averages(model, p)
    assert float(pairs["g11"]) == sample.metric.g11
    assert float(pairs["g12"]) == sample.metric.g12
    assert float(pairs["g22"]) == sample.metric.g22
    assert float(pairs["det_g"]) == sample.det_g
    assert float(pairs["R"]) == sample.R
    assert float(pairs["R_bar"]) == sample.R_bar
    assert float(pairs["U"]) == u
    assert float(pairs["N"]) == n


def test_eval_domain_violation_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--stat", "be", "--eta", "0.5",
                         "--beta", "1", "--xi", "1.5")
    assert code == 2
    assert out == ""
    # the library's own text, not the sweep's error cell with its commas made ';'
    assert err == "error: Bose-Einstein statistics require xi < 1, got xi = 1.5\n"


@pytest.mark.parametrize("beta, xi", [("1e-300", "0.5"), ("1e200", "0.5"), ("1", "1e-300")])
def test_eval_out_of_range_point_exits_2(beta, xi, capsys):
    code, _, err = run(capsys, "eval", "--stat", "fd", "--beta", beta, "--xi", xi)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [["--stat", "maxwell"], ["--stat", "fd", "--outputs", "bogus"]],
                         ids=["stat-maxwell", "outputs-bogus"])
def test_unknown_stat_is_usage_error(extra, capsys):
    # argparse choices reject both; eval has no check of its own
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", *extra, "--beta", "1", "--xi", "0.5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# grids and sweep specs
# ---------------------------------------------------------------------------

def test_grid_parse_and_values():
    g = GridSpec.parse("0.1:10:4:log")
    assert g.spacing == "log"
    vals = g.values()
    assert vals[0] == pytest.approx(0.1)
    assert vals[-1] == pytest.approx(10.0)
    lin = GridSpec.parse("1:2:3")
    assert list(lin.values()) == pytest.approx([1.0, 1.5, 2.0])
    for bad in ("1:2", "2:1:5", "1:2:1", "0:1:5:log", "1:2:3:cubic"):
        with pytest.raises(DomainError):
            GridSpec.parse(bad)
    assert GridSpec(1.0, 2.0, 3.0).values().tolist() == [1.0, 1.5, 2.0]
    for count in (2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            GridSpec(1.0, 2.0, count)


def test_sweep_spec_respects_bose_domain():
    model = qg.GasModel("be", eta=0.5)
    with pytest.raises(DomainError):
        SweepSpec(model, GridSpec(0.5, 2.0, 2), GridSpec(0.1, 1.1, 3), frozenset({"det"}))


def point_record(model, p, outputs):
    return next(cli._rows(model, (p.beta,), (p.xi,), outputs))  # the one-cell grid


def test_point_record_error_column():
    row = point_record(qg.GasModel("be", eta=0.5), qg.ThermoPoint(1.0, 1.2),
                       frozenset({"curvature"}))
    assert row["error"] == "Bose-Einstein statistics require xi < 1; got xi = 1.2"
    assert row["R"] == ""
    assert row["beta"] == "1"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_args(tmp_path, name="out.csv", extra=()):
    out = tmp_path / name
    argv = ["sweep", "--stat", "fd", "--eta", "0.5", "--kappa", "1",
            "--beta-grid", "0.5:2:3", "--xi-grid", "0.2:1:5",
            "--out", str(out), *extra]
    return argv, out


def test_sweep_csv_structure_and_values(tmp_path, capsys):
    argv, out = sweep_args(tmp_path)
    assert cli.main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 15
    # row-major: beta outer, xi inner
    betas = [float(r["beta"]) for r in rows]
    assert betas == sorted(betas)
    assert [float(r["xi"]) for r in rows[:5]] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    # spot value equals the library result exactly
    r0 = rows[0]
    sample = qg.geometry_sample(qg.GasModel("fd", eta=0.5, kappa=1.0),
                                qg.ThermoPoint(0.5, 0.2))
    assert float(r0["R"]) == sample.R
    assert float(r0["g_bar"]) == sample.g_bar
    assert r0["error"] == ""


def test_sweep_fills_error_column_and_continues(tmp_path, capsys):
    out = tmp_path / "extreme.csv"
    assert cli.main(["sweep", "--stat", "be0", "--beta-grid", "1e-300:1:3:log",
                     "--xi-grid", "1e-300:0.5:2:log", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["error"] for r in rows[:4])  # beta = 1e-300 and 1e-150
    assert rows[4]["error"] and rows[4]["R"] == ""  # beta = 1, xi = 1e-300
    assert rows[5]["error"] == ""
    assert float(rows[5]["R"]) > 0.0


def test_sweep_deterministic_bytes(tmp_path, capsys):
    argv1, out1 = sweep_args(tmp_path, "a.csv")
    argv2, out2 = sweep_args(tmp_path, "b.csv")
    assert cli.main(argv1) == 0
    assert cli.main(argv2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_empty_outputs_header_only(tmp_path, capsys):
    argv, out = sweep_args(tmp_path, extra=("--outputs",))
    assert cli.main(argv) == 0
    content = out.read_text().strip().splitlines()
    assert content == [",".join(CSV_COLUMNS)]


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"stat": "fd", "eta": 0.5, "kappa": 1.0,
           "beta_grid": {"min": 1.0, "max": 2.0, "count": 2},
           "xi_grid": "0.5:1.5:3",
           "outputs": ["curvature", "averages"]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "cfg.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--eta", "2.0",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(float(r["eta"]) == 2.0 for r in rows)  # flag wins over config
    assert all(r["g11"] == "" for r in rows)          # metric not requested
    assert all(r["R"] != "" for r in rows)


# the cells each output quantity fills, spelled out independently of cli
CELLS = {"metric": {"g11", "g12", "g22"}, "det": {"det_g", "g_bar"}, "curvature": {"R"},
         "gbar": {"g_bar"}, "rbar": {"R_bar"}, "averages": {"U", "N"}}


@pytest.mark.parametrize("choice", list(CELLS))
def test_sweep_fills_exactly_the_cells_of_one_output(choice, tmp_path, capsys):
    columns = CELLS[choice]
    assert set(cli.OUTPUT_COLUMNS[choice]) == columns
    argv, out = sweep_args(tmp_path, extra=("--outputs", choice))
    assert cli.main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    for row in rows:
        filled = {key for key, value in row.items() if value}
        assert filled == {"beta", "xi", "eta", "kappa", "stat"} | columns


@pytest.mark.parametrize("cfg", [
    {"stat": "fd", "beta_grid": {"min": 1.0, "count": 2}, "xi_grid": "0.5:1:2"},
    {"stat": "fd", "eta": "abc", "beta_grid": "1:2:2", "xi_grid": "0.5:1:2"},
    ["fd", "1:2:2", "0.5:1:2"],
    {"stat": "fd", "beta_grid": {"min": 1, "max": 2, "count": 2.9}, "xi_grid": "0.5:1:2"},
], ids=["grid-without-max", "eta-not-a-number", "top-level-list", "fractional-count"])
def test_sweep_malformed_config_is_domain_error(cfg, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path),
                       "--out", str(tmp_path / "bad.csv"))
    assert code == 2
    assert err.startswith("error:")


def test_sweep_into_a_closed_pipe_exits_141_quietly():
    # 10,000 rows overfill a 64 KiB pipe, so a write meets the closed pipe
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "gasgeometry.cli", "sweep", "--stat", "fd",
         "--beta-grid", "0.5:2:100", "--xi-grid", "0.1:4:100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline().startswith(b"beta,xi,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("axis, cfg, flags", [
    ("beta", {}, ("--beta-grid", "0:1:3", "--xi-grid", "0.5:1:2")),
    ("xi", {"beta_grid": "0.5:1:2", "xi_grid": "-1:1:3"}, ()),
], ids=["beta-flag", "xi-config"])
def test_sweep_nonpositive_grid_writes_nothing(axis, cfg, flags, tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"stat": "fd", **cfg}))
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg_path), *flags,
                            "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: {axis} grid needs min > 0")
    assert stdout == "" and not out.exists()


def test_sweep_missing_grid_is_domain_error(capsys):
    code, _, err = run(capsys, "sweep", "--stat", "fd", "--beta-grid", "1:2:2")
    assert code == 2
    assert "xi-grid" in err


# ---------------------------------------------------------------------------
# grid path parity: a sweep evaluates each xi column once, with the same
# bytes, error texts and warnings as evaluating every point on its own
# ---------------------------------------------------------------------------

def sweep_text(stat, eta, beta_grid, xi_grid, outputs):
    spec = SweepSpec(qg.GasModel(stat, eta=eta), GridSpec.parse(beta_grid),
                     GridSpec.parse(xi_grid), frozenset(outputs))
    buf = io.StringIO()
    cli.write_sweep([spec], buf)
    return buf.getvalue()


HEADER = "beta,xi,eta,kappa,stat,g11,g12,g22,det_g,g_bar,R,R_bar,U,N,error"
LADDER = "a ladder term leaves the float range at beta = {} and xi = {}"
TINY_XI = "9.9998886718268301e-321"  # the grid's 1e-320


def csv_text(*rows):
    return "".join(row + "\n" for row in (HEADER, *rows))


# fd at eta = 1/2 over beta in {1e-300, 1, 1e300} and xi in {1e-320, 0.5}:
# a ladder term out of range at beta = 1e-300 and 1e300, and a determinant
# factor that underflows (SingularMetricError) at xi = 1e-320; only the
# polylog series is reached, so no numpy kernel touches the values
ERROR_GRID = ("fd", 0.5, "1e-300:1e300:3:log", "1e-320:0.5:2:log")
ERROR_ROWS = (
    f"1e-300,{TINY_XI},0.5,1,fd,,,,,,,,,," + LADDER.format("1e-300", "1e-320"),
    "1e-300,0.5,0.5,1,fd,,,,,,,,,," + LADDER.format("1e-300", "0.5"),
    f"1,{TINY_XI},0.5,1,fd,,,,,,,,,,determinant factor 0.0 underflows",
    None,  # the one point that evaluates
    f"1.0000000000000001e+300,{TINY_XI},0.5,1,fd,,,,,,,,,," + LADDER.format("1e+300", "1e-320"),
    "1.0000000000000001e+300,0.5,0.5,1,fd,,,,,,,,,," + LADDER.format("1e+300", "0.5"),
)


def with_row_4(row):
    return [row if r is None else r for r in ERROR_ROWS]


def test_sweep_pins_a_row_for_each_caught_error():
    assert sweep_text(*ERROR_GRID, cli.OUTPUT_CHOICES) == csv_text(*with_row_4(
        "1,0.5,0.5,1,fd,1.5363777830772321,0.57146657894321684,0.33122929674696533,"
        "0.18231928177726942,0.18231928177726942,-0.22626830932045383,-0.45253661864090766,"
        "0.61455111323089295,0.3809777192954778,"))


def test_sweep_pins_averages_alone_and_mixed_with_geometry():
    assert sweep_text("be", 2.0, "1e-300:2:2", "0.1:0.4:2", ["averages"]) == csv_text(
        "1e-300,0.10000000000000001,2,1,be,,,,,,,,,," + LADDER.format("1e-300", "0.1"),
        "1e-300,0.40000000000000002,2,1,be,,,,,,,,,," + LADDER.format("1e-300", "0.4"),
        "2,0.10000000000000001,2,1,be,,,,,,,,0.03773915741995168,0.13643328223091686,",
        "2,0.40000000000000002,2,1,be,,,,,,,,0.15409146179365746,0.7723861217145277,")
    assert sweep_text(*ERROR_GRID, ["gbar", "averages"]) == csv_text(*with_row_4(
        "1,0.5,0.5,1,fd,,,,,0.18231928177726942,,,0.61455111323089295,0.3809777192954778,"))


def test_sweep_repeats_the_det_bundle_warning_at_every_point():
    # B keeps fewer than 8 digits at xi ~ 1e-8: each of the 3 x 2 points warns,
    # as geometry_sample warns at each of them on its own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = sweep_text("fd", 0.5, "0.5:2:3", "1e-8:1e-7:2", ["curvature"])
    assert len(text.splitlines()) - 1 == len(caught) == 6
    assert all(w.category is ConditioningWarning
               and str(w.message).startswith("det_bundle: B at x = -1e-0") for w in caught)


def test_figure_rows_equal_their_points_evaluated_one_at_a_time():
    # every row of figures 1-6 against the one-cell grid of its point (fresh
    # column and ladder), as text, so no platform's last bits are pinned
    for n in range(1, 7):
        for spec in cli.FIGURE_PRESETS[n]:
            rows = list(cli.sweep_rows(spec))
            points = [qg.ThermoPoint(float(b), float(x))
                      for b in spec.beta_grid.values() for x in spec.xi_grid.values()]
            assert len(rows) == len(points)
            for row, p in zip(rows, points):
                assert row == point_record(spec.model, p, spec.outputs), (n, row)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_limits_table(capsys):
    code, out, _ = run(capsys, "limits", "--eta", "0.5", "--kappa", "1",
                       "--beta", "0", "1")
    assert code == 0
    pairs = parse_kv(out.split("beta,")[0])
    assert float(pairs["f"]) == pytest.approx(1.178, abs=1e-3)
    assert float(pairs["f_c"]) == pytest.approx(3.323, abs=1e-3)
    assert float(pairs["h"]) == pytest.approx(-0.6921, abs=1e-3)
    assert float(pairs["h_c"]) == pytest.approx(-5.321, abs=1e-3)
    lines = out.strip().splitlines()
    row0 = lines[-2].split(",")
    row1 = lines[-1].split(",")
    assert float(row0[0]) == 0.0 and float(row0[1]) == 0.0 and float(row0[2]) == 0.0
    assert float(row1[1]) == pytest.approx(-0.24935, abs=1e-3)


def test_limits_table_evaluates_gamma_once(capsys, monkeypatch):
    # limit_coefficients is memoized per eta: the whole table makes one Gamma
    # evaluation, not one more per beta > 0 and statistics
    calls = []
    gamma_real = qg.gamma_real
    monkeypatch.setattr(qg, "gamma_real", lambda x: calls.append(x) or gamma_real(x))
    qg.limit_coefficients.cache_clear()
    code, out, _ = run(capsys, "limits", "--eta", "0.5", "--beta", "0", "0.5", "1", "2")
    assert code == 0 and len(out.splitlines()) == 11
    assert out.endswith("\n2,-0.70523697943469543,0.19897711842810609\n")
    assert calls == [1.5]


def test_limits_out_of_range_eta_writes_nothing(capsys):
    # Gamma(101) Gamma(102) leaves the float range: no inf is printed
    code, out, err = run(capsys, "limits", "--eta", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the low-fugacity coefficients leave the float range")


def test_limits_out_of_range_beta_exits_2(capsys):
    # a bad beta after good ones, or a bad kappa, prints no partial table either
    for argv in (["--beta", "1e200"], ["--beta", "1", "-1"], ["--beta", "1", "1e300"],
                 ["--kappa", "-1"]):
        code, out, err = run(capsys, "limits", "--eta", "2", *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# `verify` has one level now; these two tests keep the names of the old
# `--fast` and `--full` checks, and each asserts its flag is gone.

def test_verify_fast_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0, out
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("[PASS] ") for line in lines[:9])
    assert lines[9] == "summary: 9/9 suites passed"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--fast"])
    assert exc.value.code == 2


def test_verify_full_includes_condensation_edge(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0, out
    assert any(line.startswith("[PASS] ") and "condensation edge" in line
               for line in out.splitlines())
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--full"])
    assert exc.value.code == 2


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = verification.SuiteResult("stub", 1e-6, 1.0, passed=False)
    monkeypatch.setattr(verification, "run_suites", lambda *args: [failing])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[FAIL]" in out


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_figure_presets_cover_all_six():
    assert sorted(cli.FIGURE_PRESETS) == [1, 2, 3, 4, 5, 6]


def test_figure_one_dataset(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code, msg, _ = run(capsys, "figure", "1", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 250
    gbar = [float(r["g_bar"]) for r in rows[:250]]
    # determinant factor grows monotonically with fugacity for fermions
    assert all(b > a for a, b in zip(gbar, gbar[1:]))
    # beta-independence of g_bar: second block identical
    gbar2 = [float(r["g_bar"]) for r in rows[250:]]
    assert gbar == gbar2
    # spot value against the determinant bundle
    xi0 = float(rows[0]["xi"])
    assert gbar[0] == pytest.approx(qg.det_bundle(-xi0, 0.5).A, rel=1e-12)


def test_figure_five_condensation_contrast(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    code, _, _ = run(capsys, "figure", "5", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # qualitative structure at eta = 1/2, beta = 1: |R_bar| of the
    # no-ground gas keeps growing toward xi = 1, the ground-corrected one
    # has peaked and falls toward zero
    def rbar_curve(stat):
        return [abs(float(r["R_bar"])) for r in rows
                if r["stat"] == stat and float(r["eta"]) == 0.5
                and math.isclose(float(r["beta"]), 1.0)]

    no_ground = rbar_curve("be0")
    corrected = rbar_curve("be")
    tail = slice(-10, None)
    assert all(b > a for a, b in zip(no_ground[tail], no_ground[tail][1:]))
    assert all(b < a for a, b in zip(corrected[tail], corrected[tail][1:]))
    assert no_ground[-1] > 50.0 * corrected[-1]
    assert max(corrected) > corrected[-1]  # rose and fell
