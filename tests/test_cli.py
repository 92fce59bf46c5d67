import argparse
import csv
import io
import json
import math
import threading
import time

import pytest

from weyl import charfun, cli, models, verify
from weyl.cli import main
from weyl.errors import ContractError, RangeError, WeylError
from weyl.linalg import Matrix
from weyl.problems import parse_problem, problem_from_data, request_value
from weyl.triplets import transform_boundary_operator, transform_weyl
from weyl.verify import Assertion


@pytest.fixture
def robin_problem(tmp_path):
    f = tmp_path / "robin.json"
    f.write_text(json.dumps({
        "model": {"kind": "half_line", "potential": {"kind": "zero"}},
        "boundary": -2,
        "task": {"window": [-5.0, -0.05]},
    }))
    return str(f)


@pytest.fixture
def sector_problem(tmp_path):
    f = tmp_path / "sector.json"
    f.write_text(json.dumps({
        "model": {"kind": "sector", "beta": 0.75},
        "boundary": [0.4, 1.1],
    }))
    return str(f)


def test_parse_grid_cardinality():
    res, ims = request_value("grid", "-5:5:41,0.1:5:20", "--grid")
    assert (len(res), len(ims)) == (41, 20)  # 820 points
    assert (res[0], ims[0]) == (-5.0, 0.1)


def test_parse_grid_errors():
    with pytest.raises(WeylError):
        request_value("grid", "1:2:3", "--grid")
    with pytest.raises(WeylError):
        request_value("grid", "a:b:c,0:1:2", "--grid")
    assert request_value("window", "-1:2.5", "--window") == (-1.0, 2.5)
    assert request_value("rect", "0:1:2:3", "--rect") == (0.0, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("model", [
    {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
    {"kind": "finite_interval", "potential": {"kind": "zero"}, "b": 2},
])
@pytest.mark.parametrize("cmd", [["negcount"], ["spectrum", "--window=-5:0.5"]])
def test_boundary_entries_whose_squares_overflow_get_no_traceback(tmp_path, model, cmd):
    # the counts' Hermitian tolerance squares B's entries: 1e160 overflowed into an OverflowError
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": model, "boundary": [[1e160, 1e160], [1e160, 1e160]]}))
    assert main([*cmd, "--problem", str(f), "--out", str(tmp_path / "o.json")]) in (0, 1)


@pytest.mark.parametrize("boundary, line", [
    # det(M(z) - B) is about -1e600 on the contour
    ([[0, 1e300], [1e300, 0]], "det(M(z)-B) is not finite at contour point (-5+0.1j)"),
    # about -(0.9 + 0.9i) 1e308: finite, but a quotient of two samples overflows
    ([[0, 1e154], [[0.9e154, 0.9e154], 0]], "det(M(z)-B) lies too near the float limit for the phase steps"),
], ids=["det-overflows", "quotient-overflows"])
def test_rect_with_a_determinant_that_overflows_is_an_error_line(tmp_path, capsys, boundary, line):
    # both once reached round() as a nan winding, a ValueError
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "finite_interval", "b": 2}, "boundary": boundary}))
    rc = main(["spectrum", "--problem", str(f), "--rect=-5:50:0.1:2"])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {line}"), err


def test_negcount_json(robin_problem, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["negcount", "--problem", robin_problem, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kappa_M"] == 1 and data["kappa_oracle"] == 1
    assert data["tool_version"] and len(data["problem_sha256"]) == 64


def test_spectrum_json(robin_problem, tmp_path):
    out = tmp_path / "s.json"
    rc = main(["spectrum", "--problem", robin_problem, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["eigenvalues"]) == 1
    assert abs(data["eigenvalues"][0]["location"] + 4.0) < 1e-6


def test_eval_csv_deterministic(sector_problem, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["eval", "--problem", sector_problem, "--grid=-2:2:5,0.5:2:3",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 16  # header + 15 points
    assert lines[0] == "re_z,im_z,M_0_0_re,M_0_0_im"
    assert out1.read_text().endswith("\n")


def test_charfn_csv(sector_problem, tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["charfn", "--problem", sector_problem, "--grid=-1:1:3,0.5:1.5:2",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_z,im_z,W_0_0_re,W_0_0_im"
    assert len(lines) == 7


def test_charfn_transformed_rank_one_uses_reduced_space(tmp_path):
    data = {
        "model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
        "boundary": [[0.3, 0.1], [0.1, [0.5, 0.8]]],  # Im B = diag(0, 0.8): rank 1
        "transform": {"U": [[0, 1], [1, 0]], "X11": [[1, 0], [0, 1]], "X12": [[1, 0.5], [0.5, -1]],
                      "X21": [[0, 0], [0, 0]], "X22": [[1, 0], [0, 1]]},
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(data))
    out = tmp_path / "w.csv"
    rc = main(["charfn", "--problem", str(f), "--grid=-1:1:3,0.5:1.5:2",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["re_z", "im_z", "W_0_0_re", "W_0_0_im"]  # reduced size r = 1
    assert len(rows) == 7
    p = problem_from_data(data)
    col = charfun.factor_colligation(transform_boundary_operator(p.transform, p.boundary))
    for row in rows[1:]:
        z = complex(float(row[0]), float(row[1]))
        m = transform_weyl(p.transform, models.evaluate_matrix(p.model, z))
        w = charfun.char_function_colligation(col, m)
        assert abs(complex(float(row[2]), float(row[3])) - w.at(0, 0)) <= 1e-12


def test_krein_json(tmp_path):
    f = tmp_path / "op.json"
    f.write_text(json.dumps({"model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]}}))
    out = tmp_path / "k.json"
    rc = main(["krein", "--problem", str(f), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["method"] == "closed_form"
    assert abs(data["robin_matrix"][0][0] + 1.0) < 1e-12
    assert abs(data["robin_matrix"][1][1] + 2.0) < 1e-12


@pytest.mark.parametrize("cmd", ["negcount", "krein"])
def test_json_only_subcommands_have_no_format_option(robin_problem, cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--problem", robin_problem, "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_spectrum_rect_csv_is_an_error_line(sector_problem, tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["spectrum", "--problem", sector_problem, "--rect=3:5:0.5:2", "--format", "csv",
               "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--rect" in err[0]


def test_missing_problem_file_is_input_error(tmp_path):
    rc = main(["negcount", "--problem", str(tmp_path / "nope.json")])
    assert rc == 1


def test_complex_power_is_an_error_line(tmp_path, capsys):
    # (x-2)^0.5 is complex on [0, 2): an error line and exit 1, not a traceback
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {
        "kind": "finite_interval", "b": 3.0,
        "potential": {"kind": "expression", "source": "(x-2)^0.5"},
    }}))
    rc = main(["eval", "--problem", str(f), "--grid=0:1:2,1:2:2", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "left the real line" in err[0]


@pytest.mark.parametrize("model, grid, z", [
    # a_diag 1e300 over width 1e-300 overflows M; the sector's Bessel ratio at
    # beta next to 1 and |z| = 1e300 does too
    ({"kind": "strip", "a_diag": [1e300, 2], "width": 1e-300}, "-1:1:2,0.5:1:2", "(-1+0.5j)"),
    ({"kind": "sector", "beta": 0.9999999999999999}, "-1e300:-1e300:1,1e-300:1e-300:1",
     "(-1e+300+1e-300j)"),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_grid_entry_is_an_error_line(tmp_path, capsys, model, grid, z, fmt):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": model}))
    out = tmp_path / f"o.{fmt}"
    rc = main(["eval", "--problem", str(f), f"--grid={grid}", "--format", fmt, "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: M(z) is not finite at z={z}"]


def _direct_grid_report(problem_path: str, axes) -> str:
    """The eval JSON report of axes with models.evaluate at every point."""
    problem = parse_problem(problem_path)
    n, (res, ims) = problem.model.n, axes
    results = [models.evaluate(problem.model, complex(r, i)) for r in res for i in ims]
    return "".join(cli._matrix_grid_json(problem, axes, (n, n), results, "M"))


@pytest.mark.parametrize("model,res", [
    ({"kind": "finite_interval", "b": 2, "potential": {"kind": "square_well", "depth": -3, "width": 1.5}},
     [-0.0, 0.0, 1.0]),
    ({"kind": "half_line", "h": 1.5, "potential": {"kind": "expression", "source": "-3*exp(-x*x)*cos(2*x)"}},
     [-2.0, -1.0]),
    ({"kind": "multi_corner", "betas": [0.6, 0.85]}, [-2.0, -0.5]),
    ({"kind": "strip", "a_diag": [2, 3]}, [-0.0, 0.0, 0.5]),
], ids=["finite_interval", "half_line", "multi_corner", "strip"])
def test_paired_grid_writes_every_points_own_bits(tmp_path, model, res):
    # a mirrored kind pairs conj z with z, but no real point: conj of a 0.0
    # imaginary part is -0.0; the real axis's -0.0 and 0.0 share their pairs
    f, out = tmp_path / "p.json", tmp_path / "o.json"
    f.write_text(json.dumps({"model": model}))
    axes = (res, [0.0, -0.0, 0.5, -0.5, 2.0, -0.5])  # no grid text lists both zeros
    problem = parse_problem(str(f))
    cli._emit_grid(argparse.Namespace(format="json", out=str(out)), problem, axes, None, "M")
    assert out.read_text() == _direct_grid_report(str(f), axes)
    # the structural zeros of the diagonal and strip kinds print as 0.0 at every point
    zeros = [k for k, v in enumerate(models.evaluate(problem.model, 0.5j)) if not v]
    assert len(zeros) == problem.model.structural_zeros
    for row in json.loads(out.read_text())["rows"]:
        entries = [entry for matrix_row in row["M"] for entry in matrix_row]
        assert all(math.copysign(1.0, part) == 1.0 for k in zeros for part in entries[k]), row["z"]


def test_contour_count_builds_no_matrix_per_sample(sector_problem, tmp_path, monkeypatch):
    # each sample of the winding-number walk takes M(z) as its entries straight into
    # the det kernel; the one Matrix is the parsed boundary operator
    built, init = [], Matrix.__init__

    def counted(self, *args):
        built.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counted)
    out = tmp_path / "r.json"
    assert main(["spectrum", "--problem", sector_problem, "--rect=-1:1:0.5:1.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["contour_samples"] == 67
    assert built == [(1, 1)]


def test_sector_grid_evaluates_each_conjugate_point(sector_problem, tmp_path):
    # sector's power is not bit-symmetric, so its grids pair no points
    grid = "-1:1:5,-0.5:0.5:2"
    out = tmp_path / "o.json"
    assert main(["eval", "--problem", sector_problem, f"--grid={grid}", "--out", str(out)]) == 0
    axes = request_value("grid", grid, "--grid")
    assert out.read_text() == _direct_grid_report(sector_problem, axes)
    model = parse_problem(sector_problem).model
    pairs = [(models.evaluate_matrix(model, complex(r, -0.5)), models.evaluate_matrix(model, complex(r, 0.5)))
             for r in axes[0]]
    assert any(lo.data != hi.conjugate().data for lo, hi in pairs)  # what pairing would write differs


@pytest.mark.parametrize("cmd", ["eval", "charfn"])
def test_error_at_a_paired_grid_point_names_the_z_met_first(tmp_path, capsys, cmd):
    # the grid twin of test_slsolve's errors at mirrored points
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "half_line", "potential": {"kind": "expression", "source": "exp(-x)"}},
                             "boundary": [0.5, 0.8]}))
    rc = main([cmd, "--problem", str(f), "--grid=1:1:1,-0.05:0.05:2", "--out", str(tmp_path / "o.json")])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncation at L=200.0 insufficient for z=(1-0.05j) "), err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("cmd", ["krein", "negcount"])
def test_non_finite_m_at_zero_is_an_error_line(tmp_path, capsys, cmd):
    # a_diag 1e300 over width 1e-300 overflows M(0): krein wrote -Infinity and NaN with exit 0
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "strip", "a_diag": [1e300, 2], "width": 1e-300},
                             "boundary": [[0] * 4] * 4}))
    out = tmp_path / "o.json"
    assert main([cmd, "--problem", str(f), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr() == ("", "error: M(0) of the strip model is not finite\n")


def test_non_finite_transform_block_is_an_error_line(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "model": {"kind": "half_line", "potential": {"kind": "zero"}},
        "transform": {"U": [[1]], "X11": [[1]], "X12": [[0]], "X21": [[math.inf]], "X22": [[1]]},
    }))
    assert "Infinity" in f.read_text()
    rc = main(["eval", "--problem", str(f), "--grid=-1:1:3,1:1:1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    # the schema refuses the entry at its path before make_transform sees the block
    assert len(err) == 1 and err[0] == "error: $.transform.X21[0][0]: must be finite"


def test_schema_violation_is_input_error(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"model": {"kind": "sector", "beta": 2.0}}))
    rc = main(["negcount", "--problem", str(f)])
    assert rc == 1


_TABLE = {"kind": "sampled_table", "nodes": [0.0, 1.0], "values": [1.0, 2.0]}


@pytest.mark.parametrize("model,path", [
    ({"kind": "strip", "a_diag": ["x"]}, "$.model.a_diag[0]"),
    ({"kind": "strip", "a_diag": [2.0, 0.5]}, "$.model.a_diag[1]"),
    ({"kind": "strip", "a_diag": [2.0], "width": 0.0}, "$.model.width"),
    ({"kind": "half_line", "potential": {**_TABLE, "nodes": [0.0, "x"]}}, "$.model.potential.nodes[1]"),
    ({"kind": "half_line", "potential": {**_TABLE, "values": [1.0, "x"]}}, "$.model.potential.values[1]"),
    ({"kind": "half_line", "potential": {**_TABLE, "nodes": [0.0], "values": [1.0]}},
     "$.model.potential.nodes:"),
])
def test_malformed_model_is_an_error_line_at_its_path(tmp_path, capsys, model, path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": model}))
    rc = main(["eval", "--problem", str(f), "--grid=-1:1:2,1:2:2", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}")


@pytest.mark.parametrize("h", [1.0, -1.0])
@pytest.mark.parametrize("argv", [["eval", "--grid=-1:1:2,0.5:1:2", "--format", "csv"], ["negcount"]])
def test_degenerate_h_family_member_is_an_error_line_at_its_path(tmp_path, capsys, h, argv):
    # m_h = (1 - h m) / (m - h) is the constant -h at h = +-1, whatever the potential
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "half_line", "h": h}, "boundary": 0.5}))
    rc = main([argv[0], "--problem", str(f), *argv[1:]])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: $.model.h: ")


def test_h_family_member_next_to_one_is_accepted(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "half_line", "h": 1.0 + 1e-9}, "boundary": 0.5}))
    assert main(["eval", "--problem", str(f), "--grid=-1:1:2,0.5:1:2", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 5 and all(math.isfinite(float(v)) for row in rows[1:] for v in row)


@pytest.mark.parametrize("argv, line", [
    (["eval", "--grid=-1:1:3,0:0:1"], "error: z=0.0 lies on/above the essential-spectrum floor 0.0"),
    (["spectrum", "--window=-1:0.5"], "error: window top 0.5 reaches the essential-spectrum floor 0.0"),
])
def test_half_line_floor_of_a_vanishing_tail_is_printed_as_zero(tmp_path, capsys, argv, line):
    # -2*exp(-x) at large x is -0.0; the floor is 0.0
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "half_line", "potential": {"kind": "expression",
                                                                          "source": "-2*exp(-x)"}},
                             "boundary": 0.5}))
    assert main([argv[0], "--problem", str(f), *argv[1:]]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]


_ROBIN = {"kind": "half_line", "potential": {"kind": "zero"}}


@pytest.mark.parametrize("data,argv,path", [
    ({"model": _ROBIN, "boundary": -0.5, "task": {"window": [1]}}, ["spectrum"], "$.task.window"),
    ({"model": _ROBIN, "boundary": -0.5, "task": {"window": [-2.0, "x"]}}, ["spectrum"], "$.task.window[1]"),
    ({"model": _ROBIN, "boundary": -0.5, "task": {"rect": [-2.0, 2.0, 0.1]}}, ["spectrum"], "$.task.rect"),
    ({"model": _ROBIN, "task": {"grid": [[-1, 1, 2], [1, 2, 2]]}}, ["eval"], "$.task.grid"),
    ({"model": _ROBIN, "boundary": -0.5, "task": {"window": "-2:-0.1", "grid_n": 128}}, ["spectrum"],
     "$.task.grid_n"),
    ({"model": _ROBIN, "boundary": True}, ["negcount"], "$.boundary"),
    ({"model": _ROBIN, "boundary": [[True]]}, ["negcount"], "$.boundary[0][0]"),
])
def test_malformed_problem_is_an_error_line_at_its_path(tmp_path, capsys, data, argv, path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(data))
    rc = main([argv[0], "--problem", str(f), *argv[1:]])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}")


def test_unknown_suite_is_input_error():
    rc = main(["verify", "--suite", "not_a_suite"])
    assert rc == 1


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "expression_parser", "--seed", "7", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "[pass] expression_parser" in captured
    report = json.loads(out.read_text())
    assert report["suites"][0]["passed"] is True
    assert report["seed"] == 7


def test_verify_failure_exit_code(monkeypatch, capsys):
    def failing(rng):
        return [Assertion("always fails", False, "synthetic")]

    monkeypatch.setitem(verify.SUITES, "synthetic_failure", failing)
    rc = main(["verify", "--suite", "synthetic_failure"])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_suite_that_raises_is_recorded(monkeypatch, tmp_path, capsys):
    def raising(rng):
        raise ContractError("synthetic")

    suites = {"synthetic_raise": raising, "expression_parser": verify.SUITES["expression_parser"]}
    monkeypatch.setattr(verify, "SUITES", suites)
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "all", "--out", str(out)])
    assert rc == 2
    assert "[FAIL] synthetic_raise" in capsys.readouterr().out
    report = json.loads(out.read_text())
    raised, parser = report["suites"]
    assert raised["passed"] is False
    assert raised["assertions"] == [
        {"label": "synthetic_raise: suite raised", "ok": False, "detail": "ContractError: synthetic"}
    ]
    assert parser["suite"] == "expression_parser" and parser["passed"] is True


def test_task_defaults_used_when_flags_absent(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "model": {"kind": "sector", "beta": 0.75},
        "boundary": [0.0, 2.0],
        "task": {"grid": "1:2:2,1:1:1", "rect": [3.0, 5.0, 0.5, 2.0]},
    }))
    out = tmp_path / "g.json"
    assert main(["eval", "--problem", str(f), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 2
    out2 = tmp_path / "c.json"
    assert main(["spectrum", "--problem", str(f), "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["count"] == 0


def test_transform_in_problem_applies_to_eval(tmp_path):
    # Gamma1 shift by K = 1: M -> M + 1
    f = tmp_path / "t.json"
    f.write_text(json.dumps({
        "model": {"kind": "sector", "beta": 0.75},
        "transform": {"U": [[1]], "X11": [[1]], "X12": [[1]], "X21": [[0]], "X22": [[1]]},
    }))
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"model": {"kind": "sector", "beta": 0.75}}))
    out_t = tmp_path / "t.out"
    out_b = tmp_path / "b.out"
    assert main(["eval", "--problem", str(f), "--grid=1:1:1,2:2:1", "--out", str(out_t)]) == 0
    assert main(["eval", "--problem", str(base), "--grid=1:1:1,2:2:1", "--out", str(out_b)]) == 0
    vt = json.loads(out_t.read_text())["rows"][0]["M"][0][0]
    vb = json.loads(out_b.read_text())["rows"][0]["M"][0][0]
    assert abs(vt[0] - (vb[0] + 1.0)) < 1e-12 and abs(vt[1] - vb[1]) < 1e-12


def test_spectrum_finds_close_eigenvalue_pair(tmp_path):
    # the two eigenvalues lie 0.012 apart, closer than the scan's grid step
    prob = tmp_path / "pair.json"
    prob.write_text(json.dumps({
        "model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
        "boundary": [[0.4535, 0.0], [0.0, 0.4133]],
    }))
    out = tmp_path / "s.json"
    rc = main(["spectrum", "--problem", str(prob), "--out", str(out), "--window=-5.0:0.9"])
    assert rc == 0
    data = json.loads(out.read_text())
    # closed form: a - sqrt(a) sqrt(a - 1 - x) = b in each channel
    want = sorted(a - 1.0 - ((a - b) / a ** 0.5) ** 2 for a, b in ((2.0, 0.4535), (5.0, 0.4133)))
    got = [e["location"] for e in data["eigenvalues"]]
    assert len(got) == 2 and all(abs(x - y) < 1e-8 for x, y in zip(got, want))
    assert [e["multiplicity"] for e in data["eigenvalues"]] == [1, 1]


def test_spectrum_compares_every_eigenvalue_below_the_window_top(tmp_path):
    # Neumann on [0, 2]: 14 eigenvalues (k pi / 2)^2 below 420, more than the
    # oracle was once asked for; each must meet its own oracle value
    prob = tmp_path / "interval.json"
    prob.write_text(json.dumps({
        "model": {"kind": "finite_interval", "b": 2, "potential": {"kind": "zero"}},
        "boundary": [[0, 0], [0, 0]],
    }))
    out = tmp_path / "s.json"
    assert main(["spectrum", "--problem", str(prob), "--out", str(out), "--window=-1:420"]) == 0
    data = json.loads(out.read_text())
    assert len(data["eigenvalues"]) == 14
    assert len(data["oracle_delta"]) == 14 and max(data["oracle_delta"]) <= 2e-2


@pytest.mark.parametrize("flag", ["--window=a:b", "--rect=x:1:0.1:2"])
def test_malformed_window_or_rect_is_an_error_line(robin_problem, capsys, flag):
    rc = main(["spectrum", "--problem", robin_problem, flag])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    name = flag[2:flag.index("=")]
    assert len(err) == 1 and err[0].startswith(f"error: --{name}: bad {name} ")


def test_spectrum_csv_matches_csv_writer(tmp_path):
    prob = tmp_path / "pair.json"
    prob.write_text(json.dumps({
        "model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
        "boundary": [[0.4535, 0.0], [0.0, 0.4133]],
        "task": {"window": [-5.0, 0.9]},
    }))
    out_json, out_csv = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(["spectrum", "--problem", str(prob), "--out", str(out_json)]) == 0
    assert main(["spectrum", "--problem", str(prob), "--format", "csv", "--out", str(out_csv)]) == 0
    eigenvalues = json.loads(out_json.read_text())["eigenvalues"]
    assert len(eigenvalues) == 2
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["location", "multiplicity"])
    for e in eigenvalues:
        writer.writerow([repr(e["location"]), e["multiplicity"]])
    assert out_csv.read_bytes() == buf.getvalue().encode()


def test_parser_is_reused_across_calls(sector_problem, capsys):
    # one parser per process: each call writes what it writes as the first call of a process
    calls = [
        ["eval", "--grid"],  # argparse error: --grid needs a value
        ["eval", "--problem", sector_problem, "--grid=-2:2:3,0.5:1:2"],
        ["charfn", "--problem", sector_problem, "--grid=-1:1:3,0.5:1.5:2", "--format", "csv"],
        ["--version"],
    ]

    def run(argv):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        return rc, capsys.readouterr()

    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run(argv))
    assert [rc for rc, _ in first] == [2, 0, 0, 0]
    assert first[1][1].out.startswith("{") and first[2][1].out.startswith("re_z,im_z,W_0_0_re")
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls] == first
    assert cli.build_parser() is cli.build_parser()


# Python's json reads NaN and Infinity; a problem file that holds one is refused at its path
_WELL = {"kind": "half_line", "potential": {"kind": "square_well", "depth": math.nan, "width": 1.0}}
_PAIR = {"kind": "operator_potential_halfline", "a_diag": [2, 5]}


@pytest.mark.parametrize("data,argv,path", [
    ({"model": _WELL, "boundary": -1.0}, ["negcount"], "$.model.potential.depth"),
    ({"model": _WELL}, ["eval", "--grid=-1:1:2,1:2:2"], "$.model.potential.depth"),
    ({"model": {"kind": "sector", "beta": 0.75}, "boundary": math.inf},
     ["spectrum", "--rect=-2:2:0.1:2"], "$.boundary"),
    ({"model": {"kind": "half_line"}, "boundary": math.inf}, ["negcount"], "$.boundary"),
    ({"model": _PAIR, "boundary": [[0.4, math.nan], [0.0, 0.4]]},
     ["charfn", "--grid=-1:1:3,0.5:1:2"], "$.boundary[0][1]"),
    ({"model": _PAIR, "boundary": [[[0.4, -math.inf], 0.0], [0.0, 0.4]]},
     ["charfn", "--grid=-1:1:3,0.5:1:2"], "$.boundary[0][0]"),
    # an integer literal past the float range
    ({"model": {**_WELL, "potential": {**_WELL["potential"], "depth": -10**400}}},
     ["eval", "--grid=-1:1:2,1:2:2"], "$.model.potential.depth"),
    ({"model": _PAIR, "boundary": [[0.4, 0.0], [0.0, 10**400]]},
     ["negcount"], "$.boundary[1][1]"),
])
def test_non_finite_problem_number_is_an_error_line_at_its_path(tmp_path, capsys, data, argv, path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(data))
    rc = main([argv[0], "--problem", str(f), *argv[1:]])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"error: {path}: must be finite"


@pytest.mark.parametrize("grid,axis", [
    ("nan:1:2,0.5:1:2", "real axis"),
    ("-1:inf:3,0.5:1:2", "real axis"),
    ("-1:1:1,-inf:1:1", "imaginary axis"),
    ("-1:1:2,0.5:nan:1", "imaginary axis"),  # a one-point axis still has its stop read
    ("-1e308:1e308:3,0.5:1:2", "real axis"),  # finite ends whose difference overflows
])
@pytest.mark.parametrize("model", [{"kind": "sector", "beta": 0.75}, {"kind": "half_line"}])
def test_non_finite_grid_axis_is_an_error_line(tmp_path, capsys, grid, axis, model):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": model, "boundary": 0.5}))
    rc = main(["eval", "--problem", str(f), f"--grid={grid}"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0] == (
        f"error: --grid: {axis} values must be finite, got {grid.split(',')[axis == 'imaginary axis']!r}")


# Request values through both channels: the key, its flag's text, the task
# forms of the same value (text, and a JSON array where that form exists) and
# the typed value all of them read to.
_REQUEST_FORMS = [
    ("window", "-5:-0.1", ["-5:-0.1", [-5, -0.1], [-5.0, -0.1]], (-5.0, -0.1)),
    ("rect", "0:1:0.1:2", ["0:1:0.1:2", [0, 1, 0.1, 2]], (0.0, 1.0, 0.1, 2.0)),
    ("grid", "-1:1:3,0.5:1:2", ["-1:1:3,0.5:1:2"], ([-1.0, 0.0, 1.0], [0.5, 1.0])),
]


@pytest.mark.parametrize("key,text,task_forms,typed", _REQUEST_FORMS)
def test_flag_and_task_read_to_equal_typed_values(key, text, task_forms, typed):
    values = [request_value(key, text, "--" + key)]
    values += [problem_from_data({"model": _ROBIN, "task": {key: v}}).task[key] for v in task_forms]
    for v in values:
        assert v == typed and type(v) is type(typed)
        if key in ("window", "rect"):
            assert all(type(x) is float for x in v)


@pytest.mark.parametrize("argv,task,key,flag_value", [
    (["spectrum", "--no-oracle"], {"window": [-5.0, -0.05]}, "window", "-3:-0.05"),
    (["spectrum", "--no-oracle"], {"window": "-5:-0.05"}, "window", "-4:-0.1"),
    (["spectrum"], {"rect": [3.0, 5.0, 0.5, 2.0]}, "rect", "3:5:0.6:2"),
    (["eval"], {"grid": "1:2:2,1:1:1"}, "grid", "1:3:3,1:1:1"),
])
def test_flag_overrides_task(tmp_path, monkeypatch, argv, task, key, flag_value):
    """Each request reaches the library with the task's value, and with the
    flag's where the flag is given."""
    seen = []

    def recorder(fn):
        def record(spec, value, **kw):
            seen.append({"window": value, "rect": value, **kw})
            return fn(spec, value, **kw)
        return record

    for name in ("point_spectrum_real", "count_complex_eigenvalues"):
        monkeypatch.setattr(cli.extensions, name, recorder(getattr(cli.extensions, name)))
    monkeypatch.setattr(cli, "_emit_grid", lambda args, problem, axes, *a: seen.append({"grid": axes}))
    model = {"kind": "sector", "beta": 0.75} if key in ("rect", "grid") else _ROBIN
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": model, "boundary": [0.0, 2.0] if key == "rect" else -2.0, "task": task}))
    flag = f"--{key}={flag_value}"
    for extra in ([], [flag]):
        assert main([argv[0], "--problem", str(f), "--out", str(tmp_path / "o.json"), *argv[1:], *extra]) == 0
    task_value, flag_read = seen[0][key], seen[1][key]
    assert task_value == problem_from_data({"model": model, "task": task}).task[key]
    assert flag_read == request_value(key, flag_value, "--")
    assert flag_read != task_value


# Malformed request values through either channel: the command, the task
# block, the flags and the start of the one error line, which names its source.
_GRID = "-1:1:2,0.5:1:2"
_UNKNOWN_KEY = "unknown task key (allowed: ['grid', 'rect', 'window'])"
_BAD_REQUESTS = [
    # non-finite ends, which the propagator would meet as NaN
    ("spectrum", {}, ["--window=-inf:-0.1"], "--window[0]: must be finite"),
    ("spectrum", {"window": "-inf:-0.1"}, [], "$.task.window[0]: must be finite"),
    ("spectrum", {}, ["--window=-3:nan"], "--window[1]: must be finite"),
    ("spectrum", {"window": [-3.0, math.nan]}, [], "$.task.window[1]: must be finite"),
    ("spectrum", {}, ["--rect=-inf:1:0.1:1"], "--rect[0]: must be finite"),
    ("spectrum", {"rect": "0:inf:0.1:1"}, [], "$.task.rect[1]: must be finite"),
    ("spectrum", {}, ["--rect=0:1:0.1:1e400"], "--rect[3]: must be finite"),
    ("eval", {}, ["--grid=nan:1:2,0.5:1:2"], "--grid: real axis values must be finite"),
    ("eval", {"grid": "-1:1:2,0.5:inf:2"}, [], "$.task.grid: imaginary axis values must be finite"),
    ("eval", {"grid": "-1e308:1e308:3,0.5:1:2"}, [], "$.task.grid: real axis values must be finite"),
    # a key the reader does not know: grid_n, which once set the scan grid, or a misspelt one
    ("spectrum", {"window": "-3:-0.1", "grid_n": 128}, [], f"$.task.grid_n: {_UNKNOWN_KEY}"),
    ("spectrum", {"rect": "0:1:0.1:1", "grid_n": 64}, [], f"$.task.grid_n: {_UNKNOWN_KEY}"),
    ("spectrum", {"windows": "-3:-0.1"}, [], f"$.task.windows: {_UNKNOWN_KEY}"),
    # a wrong count
    ("spectrum", {}, ["--window=-3:-1:0"], "--window: window must be 'a:b'"),
    ("spectrum", {"window": "-3:-0.1"}, ["--window="], "--window: window must be 'a:b', got ''"),
    ("spectrum", {"window": "-3"}, [], "$.task.window: window must be 'a:b'"),
    ("spectrum", {"window": [1]}, [], "$.task.window: expected a string or an array of 2 numbers"),
    ("spectrum", {}, ["--rect=0:1:0.1"], "--rect: rect must be 're0:re1:im0:im1'"),
    ("spectrum", {"rect": [0, 1, 0.1, 1, 2]}, [], "$.task.rect: expected a string or an array of 4 numbers"),
    ("eval", {}, ["--grid=-1:1:2"], "--grid: grid must be 're0:re1:n,im0:im1:m'"),
    ("eval", {"grid": "-1:1,0.5:1:2"}, [], "$.task.grid: real axis must be 'start:stop:count'"),
    ("eval", {}, ["--grid=-1:1:0,0.5:1:2"], "--grid: real axis count must be >= 1"),
    # a non-number
    ("spectrum", {}, ["--window=a:-1"], "--window: bad window 'a:-1'"),
    ("spectrum", {"window": [-3.0, "x"]}, [], "$.task.window[1]: expected a number, got str"),
    ("spectrum", {"rect": "0:1:x:1"}, [], "$.task.rect: bad rect '0:1:x:1'"),
    ("eval", {}, ["--grid=-1:1:2,0.5:1:two"], "--grid: bad imaginary axis '0.5:1:two'"),
    ("eval", {"grid": [[-1, 1, 2], [0.5, 1, 2]]}, [], "$.task.grid: expected a string, got list"),
    ("spectrum", {}, ["--rect=0:1:x:1"], "--rect: bad rect '0:1:x:1'"),
    ("spectrum", {"window": "-3:x"}, [], "$.task.window: bad window '-3:x'"),
    # a bool or a string in an array
    ("spectrum", {"window": [-3.0, True]}, [], "$.task.window[1]: expected a number, got bool"),
    ("spectrum", {"rect": [0, 1, False, 1]}, [], "$.task.rect[2]: expected a number, got bool"),
    ("spectrum", {"rect": [0, 1, 0.1, "1"]}, [], "$.task.rect[3]: expected a number, got str"),
]


@pytest.mark.parametrize("cmd,task,flags,line", _BAD_REQUESTS)
def test_malformed_request_value_is_one_error_line_naming_its_source(tmp_path, capsys, cmd, task, flags, line):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": _ROBIN, "boundary": -0.5, "task": task}))
    argv = [cmd, "--problem", str(f), *flags]
    if cmd == "eval" and not task and not any(a.startswith("--grid") for a in flags):
        argv.append(f"--grid={_GRID}")
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {line}"), err


def test_retired_grid_n_flag_is_an_unrecognized_argument(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": _ROBIN, "boundary": -0.5, "task": {"window": "-3:-0.1"}}))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--problem", str(f), "--grid-n=128"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.strip().splitlines()[-1] == "weyl: error: unrecognized arguments: --grid-n=128"


def _ends_within(seconds: float, fn):
    """fn()'s result, or the exception it raised.  It runs in a daemon thread,
    so that a call that does not end fails the test rather than hanging the run."""
    box = []

    def run():
        try:
            box.append(fn())
        except Exception as e:  # the caller asserts which
            box.append(e)

    worker = threading.Thread(target=run, daemon=True)
    start = time.perf_counter()
    worker.start()
    worker.join(timeout=seconds)
    assert box, f"did not end within {seconds} s"
    assert time.perf_counter() - start < seconds
    return box[0]


_MINUS_EXP = {"kind": "finite_interval", "b": 2, "potential": {"kind": "expression", "source": "-exp(-x)"}}
_WELL_HALF_LINE = {"kind": "half_line", "potential": {"kind": "square_well", "depth": -2, "width": 1}}
_ZERO_INTERVAL = {"kind": "finite_interval", "b": 2}
_EXPR_HALF_LINE = {"kind": "half_line", "potential": {"kind": "expression", "source": "1/(1+x^2)"}}


@pytest.mark.parametrize("model,argv,line", [
    # a Magnus cell's cosh overflows once |z| passes about 2e6
    (_MINUS_EXP, ["spectrum", "--window=-2e7:-1"], "solution overflows double range on [0.0, 2.0]"),
    # 1.25e8 and 1.25e6 rescaled chunks; the second once answered after 10 s
    (_WELL_HALF_LINE, ["eval", "--grid=-1e20:-1e20:1,0:0:1"],
     "z=(-1e+20+0j) needs 1.25e+08 rescaled chunks on [0, 1.0], more than 1000"),
    (_WELL_HALF_LINE, ["eval", "--grid=-1e16:-1e16:1,1:1:1"], "z=(-1e+16+1j) needs 1.25e+06 rescaled chunks"),
    # exact steps before the overflow: 5e6 of them, and at -1e300 no end
    (_ZERO_INTERVAL, ["eval", "--grid=-1e16:-1e16:1,0:0:1"],
     "z=(-1e+16+0j) needs 5e+06 exact steps on [0.0, 2.0], more than 1000"),
    (_ZERO_INTERVAL, ["eval", "--grid=-1e300:-1e300:1,0:0:1"], "z=(-1e+300+0j) needs 5e+148 exact steps"),
    (_EXPR_HALF_LINE, ["eval", "--grid=-1e300:-1e300:1,0:0:1"],
     "z=(-1e+300+0j) needs 1.5e+149 rescaled chunks"),
])
def test_huge_z_on_an_ode_kind_is_a_bounded_error_line(tmp_path, capsys, model, argv, line):
    f = tmp_path / "p.json"
    boundary = 0.0 if model["kind"] == "half_line" else [[0, 0], [0, 0]]
    f.write_text(json.dumps({"model": model, "boundary": boundary}))
    rc = _ends_within(5.0, lambda: main([argv[0], "--problem", str(f), *argv[1:]]))
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {line}"), err


@pytest.mark.parametrize("model", [_WELL_HALF_LINE, _EXPR_HALF_LINE, _ZERO_INTERVAL, _MINUS_EXP,
                                   {**_WELL_HALF_LINE, "h": 1.5}])
@pytest.mark.parametrize("z", [complex("nan"), complex("nan+nanj"), complex(0.0, math.nan)])
def test_nan_z_on_an_ode_kind_is_a_range_error(model, z):
    m = problem_from_data({"model": model}).model
    e = _ends_within(5.0, lambda: models.evaluate(m, z))
    assert isinstance(e, RangeError), e


# Past the cap on a grid axis: the work a grid would do, and the list an axis
# count would build, is refused by the reader first.  A task's grid_n, which
# once set the size of the real scan, is refused whatever its size.
_OVER_CAP = [
    ("charfn", {}, ["--grid=-1:1:1001,0.5:1:2"], "--grid: real axis count must be at most 1000, got 1001"),
    ("charfn", {}, ["--grid=-1:1:2,0.5:1:10000000000"],
     "--grid: imaginary axis count must be at most 1000, got 10000000000"),
    ("spectrum", {"grid_n": 10001}, [], f"$.task.grid_n: {_UNKNOWN_KEY}"),
    ("spectrum", {"grid_n": 10**12}, [], f"$.task.grid_n: {_UNKNOWN_KEY}"),
    ("eval", {}, ["--grid=-1:1:1001,0.5:1:2"], "--grid: real axis count must be at most 1000, got 1001"),
    ("eval", {}, ["--grid=-1:1:2,0.5:1:10000000000"],
     "--grid: imaginary axis count must be at most 1000, got 10000000000"),
    ("eval", {"grid": "-1:1:1001,0.5:1:2"}, [], "$.task.grid: real axis count must be at most 1000, got 1001"),
    ("eval", {"grid": "-1:1:2,0.5:1:10000000000"}, [],
     "$.task.grid: imaginary axis count must be at most 1000, got 10000000000"),
]


@pytest.mark.parametrize("cmd,task,flags,line", _OVER_CAP)
def test_grid_past_its_cap_is_a_bounded_error_line(tmp_path, capsys, cmd, task, flags, line):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": _ROBIN, "boundary": -2, "task": {"window": "-5:-0.05", **task}}))
    argv = [cmd, "--problem", str(f), *flags]
    if cmd == "spectrum":
        argv.append("--no-oracle")
    rc = _ends_within(5.0, lambda: main(argv))
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    err = err.strip().splitlines()
    assert err == [f"error: {line}"], err


def test_caps_admit_every_size_in_use():
    # the largest in the workloads, verify, the tests and the README: 41 axis points
    re_axis, im_axis = request_value("grid", "-1:1:1000,0.5:1:41")
    assert (len(re_axis), len(im_axis)) == (1000, 41)


@pytest.mark.parametrize("argv", [["eval", "--grid=-1:1:2,0.5:1:2"], ["spectrum", "--window=-5:-0.1"],
                                  ["negcount"], ["krein"]])
def test_deeply_nested_problem_json_is_a_schema_error(tmp_path, capsys, argv):
    # the JSON decoder recurses once per level: 3000 levels were a RecursionError
    f = tmp_path / "p.json"
    f.write_text('{"model": {"kind": "half_line"}, "boundary": ' + "[" * 3000 + "1" + "]" * 3000 + "}")
    rc = main([*argv, "--problem", str(f)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", "error: $: JSON nested too deeply to read\n")


def _tiny_interval(tmp_path, b, boundary=((1, 0), (0, 1))):
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps({"model": {"kind": "finite_interval", "b": b}, "boundary": boundary}))
    return str(f)


@pytest.mark.parametrize("cmd", ["negcount", "krein"])
def test_tiny_interval_m_at_zero_with_an_overflowing_estimate_is_refused(tmp_path, capsys, cmd):
    # (1 + |M(0)|)^2 overflowed into an OverflowError at b = 1e-200
    rc = main([cmd, "--problem", _tiny_interval(tmp_path, 1e-200)])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == "error: the error estimate of M(0) of the finite_interval model is not finite\n"
    # at b = 1e-150 the estimate is finite but 1e139 times M(0): krein exited 0 with it
    out_file = tmp_path / "k.json"
    assert main(["krein", "--problem", _tiny_interval(tmp_path, 1e-150), "--out", str(out_file)]) == 1
    assert capsys.readouterr().err == (
        "error: M(0) of the finite_interval model has no correct digit: its error estimate "
        "9.999999999999998e+288 is not below its largest entry 1e+150 (estimated error 1.000e+289)\n")
    assert not out_file.exists()
    # that M(0) still decides a count far from it: the rule is krein's, not m_at_zero's
    problem = _tiny_interval(tmp_path, 1e-150, boundary=((-1e300, 0), (0, -1e300)))
    assert main(["negcount", "--problem", problem, "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["kappa_M"] == 2


@pytest.mark.parametrize("b", [1e-200, 1e-150])
def test_tiny_interval_grid_the_oracle_cannot_represent_gives_no_oracle_number(tmp_path, b):
    # 1e-200: dx * dx underflowed to 0, a ZeroDivisionError; 1e-150: the
    # squared couplings overflowed, and their Sturm counts gave oracle_delta []
    out_file = tmp_path / "s.json"
    assert main(["spectrum", "--problem", _tiny_interval(tmp_path, b), "--window=-5:-0.1",
                 "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data["eigenvalues"] == [] and "oracle_delta" not in data
    if b == 1e-150:  # past the undecided band of M(0), whose estimate is 1e289
        problem = _tiny_interval(tmp_path, b, boundary=((-1e300, 0), (0, -1e300)))
        assert main(["negcount", "--problem", problem, "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["kappa_oracle"] is None
