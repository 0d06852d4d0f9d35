"""Command-line interface tests: formats, determinism, exit codes."""
import csv
import json
import math
from dataclasses import replace

import pytest

import gasgeometry.cli as cli
import gasgeometry.quantum_gas as qg
import gasgeometry.verification as verification
from gasgeometry.cli import CSV_COLUMNS, GridSpec, SweepSpec
from gasgeometry.errors import DomainError


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
    code, _, err = run(capsys, "eval", "--stat", "be", "--eta", "0.5",
                       "--beta", "1", "--xi", "1.5")
    assert code == 2
    assert "error" in err


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


def test_sweep_spec_respects_bose_domain():
    model = qg.GasModel("be", eta=0.5)
    with pytest.raises(DomainError):
        SweepSpec(model, GridSpec(0.5, 2.0, 2), GridSpec(0.1, 1.1, 3), frozenset({"det"}))


def test_point_record_error_column():
    row = cli._point_record(qg.GasModel("be", eta=0.5), qg.ThermoPoint(1.0, 1.2),
                            frozenset({"curvature"}))
    assert row["error"] != ""
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


def test_sweep_missing_grid_is_domain_error(capsys):
    code, _, err = run(capsys, "sweep", "--stat", "fd", "--beta-grid", "1:2:2")
    assert code == 2
    assert "xi-grid" in err


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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fast_passes(capsys):
    code, out, _ = run(capsys, "verify", "--fast")
    assert code == 0, out
    assert "summary:" in out
    assert "FAIL" not in out


def test_verify_full_includes_condensation_edge(capsys):
    code, out, _ = run(capsys, "verify", "--full")
    assert code == 0, out
    assert "condensation edge" in out
    assert "FAIL" not in out


def test_negativity_suite_catches_injected_sign_flip():
    def flipped(model, point):
        s = qg.geometry_sample(model, point)
        return replace(s, R=-s.R)

    result = verification.suite_fd_negativity(sample=flipped)
    assert not result.passed


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = verification.SuiteResult("stub", 1e-6, 1.0, passed=False)
    monkeypatch.setattr(verification, "run_suites", lambda level: [failing])
    code, out, _ = run(capsys, "verify", "--fast")
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
