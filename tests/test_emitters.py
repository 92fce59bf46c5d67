"""The fixed-shape grid emitters of `eval` and `charfn` write the same bytes as
building the report from dicts and lists and dumping it with `json` or
`csv.writer`, which is kept here as the reference."""

import csv
import io
import json
import math

import pytest

from weyl import charfun, cli, models, triplets, verify
from weyl.cli import main
from weyl.linalg import Matrix
from weyl.problems import parse_problem, problem_from_data


def _complexify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _reference_json(problem, points, mats, label):
    rows = [
        {"z": [z.real, z.imag], label: [[_complexify(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]}
        for z, m in zip(points, mats)
    ]
    return cli._json_dump({**cli._report_header(problem), "rows": rows})


def _reference_csv(points, mats, label):
    n = mats[0].rows
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["re_z", "im_z"]
    for i in range(n):
        for j in range(n):
            header += [f"{label}_{i}_{j}_re", f"{label}_{i}_{j}_im"]
    writer.writerow(header)
    for z, m in zip(points, mats):
        row = [repr(z.real), repr(z.imag)]
        for i in range(n):
            for j in range(n):
                v = m.at(i, j)
                row += [repr(v.real), repr(v.imag)]
        writer.writerow(row)
    return buf.getvalue()


def _reference(problem_path, cmd, grid, fmt):
    """The report `cmd` should write: the Matrix path's values, by the reference dumpers."""
    problem = parse_problem(problem_path)
    points = cli.parse_grid(grid)
    mats = [models.evaluate(problem.model, z) for z in points]
    if problem.transform is not None:
        mats = [triplets.transform_weyl(problem.transform, m) for m in mats]
    label = "M"
    if cmd == "charfn":
        b = problem.boundary
        if problem.transform is not None:
            b = triplets.transform_boundary_operator(problem.transform, b)
        col = charfun.factor_colligation(b)
        mats = [charfun.char_function_from_m(col, m) for m in mats]
        label = "W"
    if fmt == "csv":
        return _reference_csv(points, mats, label)
    return _reference_json(problem, points, mats, label)


ROTATION = {"U": [[0, 1], [1, 0]], "X11": [[1, 0], [0, 1]], "X12": [[1, 0.5], [0.5, -1]],
            "X21": [[0, 0], [0, 0]], "X22": [[1, 0], [0, 1]]}

STRIP3 = {"kind": "strip", "a_diag": [2, 3, 5], "width": 3.0}
ROTATION6 = {"U": [[float(i + j == 5) for j in range(6)] for i in range(6)],
             "X11": [[float(i == j) for j in range(6)] for i in range(6)],
             "X12": [[1.0 if i == j else 0.5 if abs(i - j) == 1 else 0.0 for j in range(6)] for i in range(6)],
             "X21": [[0.0] * 6 for _ in range(6)],
             "X22": [[float(i == j) for j in range(6)] for i in range(6)]}
# Im B = diag(0.8, 0, 0, -0.5, 0, 0): rank 2, the reduced route
BOUNDARY6_RANK2 = [[[0.3, 0.8] if i == j == 0 else [-0.2, -0.5] if i == j == 3
                    else 0.1 * (i == j) + 0.05 * (abs(i - j) == 1) for j in range(6)] for i in range(6)]

CASES = {
    "eval_n1": ("eval", {"model": {"kind": "sector", "beta": 0.75}}, "-2:2:5,0.5:2:3"),
    "eval_n2": ("eval", {"model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
                         "transform": ROTATION}, "-2:2:4,0.5:2:3"),
    "eval_n4": ("eval", {"model": {"kind": "strip", "a_diag": [2, 4], "width": 3.0}}, "-3:3:3,0.5:2:2"),
    "charfn_full": ("charfn", {"model": {"kind": "multi_corner", "betas": [0.6, 0.8]},
                               "boundary": [[[0.3, 0.5], 0.1], [0.1, [0.5, 0.8]]]}, "-1:1:3,0.5:1.5:2"),
    "charfn_reduced": ("charfn", {"model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
                                  "boundary": [[0.3, 0.1], [0.1, [0.5, 0.8]]],
                                  "transform": ROTATION}, "-1:1:3,0.5:1.5:2"),
    "one_point": ("eval", {"model": {"kind": "corner", "beta": 0.7}}, "0.5:0.5:1,1:1:1"),
    # n = 6, beyond kernels.MAX_N: the Matrix path writes these
    "eval_n6": ("eval", {"model": STRIP3, "transform": ROTATION6}, "-3:3:3,0.5:2:2"),
    "charfn_n6_reduced": ("charfn", {"model": STRIP3, "boundary": BOUNDARY6_RANK2}, "-3:3:3,0.5:2:2"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_report_bytes_match_the_reference(tmp_path, case, fmt):
    cmd, data, grid = CASES[case]
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(data))
    out = tmp_path / f"o.{fmt}"
    assert main([cmd, "--problem", str(problem), f"--grid={grid}", "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == _reference(str(problem), cmd, grid, fmt).encode()


@pytest.mark.parametrize("case, full_rank", [("charfn_full", True), ("charfn_reduced", False),
                                             ("charfn_n6_reduced", False)])
def test_charfn_cases_take_both_routes(case, full_rank):
    problem = problem_from_data(CASES[case][1])
    b = problem.boundary
    if problem.transform is not None:
        b = triplets.transform_boundary_operator(problem.transform, b)
    assert charfun.factor_colligation(b).full_rank is full_rank


SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e22)


@pytest.mark.parametrize("label", ["M", "W"])
def test_special_floats_match_the_reference(tmp_path, label):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"model": {"kind": "sector", "beta": 0.75}}))
    prob = parse_problem(str(problem))
    points = [complex(-0.0, 1e-300), complex(1e22, -math.inf), complex(math.nan, 0.5)]
    mats = [
        Matrix(2, 2, tuple(complex(SPECIAL[(k + i) % 6], SPECIAL[(k + 2 * i + 1) % 6]) for i in range(4)))
        for k in range(len(points))
    ]
    values = [m.data for m in mats]
    text = cli._matrix_grid_json(prob, points, (2, 2), values, label)
    assert text == _reference_json(prob, points, mats, label)
    assert "NaN" in text and "-Infinity" in text and "1e+22" in text and "-0.0" in text
    assert cli._matrix_grid_csv(points, (2, 2), values, label) == _reference_csv(points, mats, label)


def test_catalog_weyl_functions_have_complex_entries():
    # the emitter writes [re, im] for every entry, which is what the
    # reference's _complexify does only for complex values
    for model in verify.catalog().values():
        for z in (0.5 + 1j, -2 + 0.25j):
            assert all(type(v) is complex for v in models.evaluate(model, z).data), model.kind
