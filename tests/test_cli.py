import csv
import io
import json
import math

import pytest

from weyl import charfun, cli, models, verify
from weyl.cli import main, parse_grid, parse_rect, parse_window
from weyl.errors import ContractError, WeylError
from weyl.problems import problem_from_data
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
    pts = parse_grid("-5:5:41,0.1:5:20")
    assert len(pts) == 820
    assert pts[0] == complex(-5, 0.1)


def test_parse_grid_errors():
    with pytest.raises(WeylError):
        parse_grid("1:2:3")
    with pytest.raises(WeylError):
        parse_grid("a:b:c,0:1:2")
    assert parse_window("-1:2.5") == (-1.0, 2.5)
    assert parse_rect("0:1:2:3") == (0.0, 1.0, 2.0, 3.0)


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
        m = transform_weyl(p.transform, models.evaluate(p.model, z))
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


_ROBIN = {"kind": "half_line", "potential": {"kind": "zero"}}


@pytest.mark.parametrize("data,argv,path", [
    ({"model": _ROBIN, "boundary": -0.5, "task": {"window": [1]}}, ["spectrum"], "$.task.window"),
    ({"model": _ROBIN, "boundary": -0.5, "task": {"window": [-2.0, "x"]}}, ["spectrum"], "$.task.window[1]"),
    ({"model": _ROBIN, "boundary": -0.5, "task": {"rect": [-2.0, 2.0, 0.1]}}, ["spectrum"], "$.task.rect"),
    ({"model": _ROBIN, "task": {"grid": [[-1, 1, 2], [1, 2, 2]]}}, ["eval"], "$.task.grid"),
    ({"model": _ROBIN, "boundary": -0.5, "task": {"window": "-2:-0.1", "grid_n": True}}, ["spectrum"],
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
    assert len(err) == 1 and err[0].startswith(f"error: bad {flag[2:flag.index('=')]} ")


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
    assert len(err) == 1 and err[0] == f"error: {axis} values must be finite, got {grid.split(',')[axis == 'imaginary axis']!r}"
