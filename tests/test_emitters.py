"""The fixed-shape grid emitters of `eval` and `charfn` write the same bytes as
building the report from dicts and lists and dumping it with `json` or
`csv.writer`, which is kept here as the reference."""

import csv
import io
import json
import math
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl import charfun, cli, models, triplets, verify
from weyl.cli import main
from weyl.errors import RangeError, WeylError
from weyl.linalg import Matrix
from weyl.problems import parse_problem, problem_from_data, request_value


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
    res, ims = request_value("grid", grid, "--grid")
    points = [complex(r, i) for r in res for i in ims]
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
    # the axis reprs go by position: a real -0.0 (below the floor of 1) next to an
    # imaginary 0.0, and axes that share their values
    "signed_zero_strip": ("eval", {"model": {"kind": "strip", "a_diag": [2, 4], "width": 3.0}},
                          "-0.0:-0.0:1,0:1:2"),
    "signed_zero_operator": ("charfn", {"model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]},
                                        "boundary": [[0.3, 0.1], [0.1, [0.5, 0.8]]]}, "-0.0:-0.0:1,0:1:2"),
    "shared_axes": ("eval", {"model": {"kind": "multi_corner", "betas": [0.6, 0.8]}}, "1:2:2,1:2:2"),
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


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", ["signed_zero_strip", "signed_zero_operator"])
def test_signed_zero_axes_keep_their_signs(tmp_path, case, fmt):
    cmd, data, grid = CASES[case]
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(data))
    out = tmp_path / f"o.{fmt}"
    assert main([cmd, "--problem", str(problem), f"--grid={grid}", "--format", fmt, "--out", str(out)]) == 0
    if fmt == "json":
        zs = [row["z"] for row in json.loads(out.read_text())["rows"]]
    else:
        zs = [[float(v) for v in row[:2]] for row in list(csv.reader(io.StringIO(out.read_text())))[1:]]
    assert [[math.copysign(1.0, v) for v in z] for z in zs] == [[-1.0, 1.0], [-1.0, 1.0]]
    assert zs == [[0.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("case, full_rank", [("charfn_full", True), ("charfn_reduced", False),
                                             ("charfn_n6_reduced", False)])
def test_charfn_cases_take_both_routes(case, full_rank):
    problem = problem_from_data(CASES[case][1])
    b = problem.boundary
    if problem.transform is not None:
        b = triplets.transform_boundary_operator(problem.transform, b)
    assert charfun.factor_colligation(b).full_rank is full_rank


# finite floats whose reprs take every form: a signed zero, exponents of both
# signs, and subnormals (5e-324 is the smallest)
SPECIAL = (-0.0, 1e-300, 1e22, 5e-324, -2.5e-320, 0.5)


def _sector_problem():
    return problem_from_data({"model": {"kind": "sector", "beta": 0.75}}, "0" * 64)


@pytest.mark.parametrize("label", ["M", "W"])
def test_special_floats_match_the_reference(label):
    prob = _sector_problem()
    axes = ([-0.0, 1e22, 5e-324], [1e-300, -2.5e-320, 0.5])
    points = [complex(r, i) for r in axes[0] for i in axes[1]]
    mats = [
        Matrix(2, 2, tuple(complex(SPECIAL[(k + i) % 6], SPECIAL[(k + 2 * i + 1) % 6]) for i in range(4)))
        for k in range(len(points))
    ]
    values = [m.data for m in mats]
    text = "".join(cli._matrix_grid_json(prob, axes, (2, 2), values, label))
    assert text == _reference_json(prob, points, mats, label)
    assert "1e+22" in text and "-0.0" in text and "5e-324" in text and "-2.5e-320" in text
    assert "".join(cli._matrix_grid_csv(axes, (2, 2), values, label)) == _reference_csv(points, mats, label)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_entry_is_a_range_error(fmt, bad, part):
    # the third of four points, (1+0.5j), has the entry that is not finite
    axes = ([-0.0, 1.0], [0.5, 2.0])
    values = [(complex(1.0, 2.0),)] * 4
    values[2] = (complex(bad, 2.0) if part == "re" else complex(1.0, bad),)
    if fmt == "json":
        pieces = cli._matrix_grid_json(_sector_problem(), axes, (1, 1), values, "M")
    else:
        pieces = cli._matrix_grid_csv(axes, (1, 1), values, "M")
    with pytest.raises(RangeError, match=r"^M\(z\) is not finite at z=\(1\+0\.5j\)$"):
        "".join(pieces)


@pytest.mark.parametrize("fmt, axes, z", [("csv", ([math.nan], [0.5]), "(nan+0.5j)"),
                                          ("json", ([0.5], [math.inf]), "(0.5+infj)")])
def test_non_finite_axis_value_is_a_range_error(fmt, axes, z):
    # the entry is finite: only the axis value spells the 'n' in the chunk
    if fmt == "json":
        pieces = cli._matrix_grid_json(_sector_problem(), axes, (1, 1), [(1j,)], "M")
    else:
        pieces = cli._matrix_grid_csv(axes, (1, 1), [(1j,)], "M")
    with pytest.raises(RangeError) as raised:
        "".join(pieces)
    assert str(raised.value) == f"M(z) is not finite at z={z}"


@pytest.mark.ci_property
@settings(deadline=None)
@given(st.sampled_from([1, 2, 4]), st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),
       st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=7),
       st.sampled_from(["M", "W"]))
def test_chunk_boundaries_match_the_reference(n, size, pattern, label):
    # grids of a C + b points, C a chunk's points: 1, C - 1, C, C + 1 and 2 C + 1,
    # filled with the pattern repeated; the pieces join to the reference
    a, b = size
    points_n = a * cli._chunk_points((n, n)) + b
    floats = (pattern[k % len(pattern)] for k in range(points_n * (2 * n * n + 1)))
    res = [next(floats) for _ in range(points_n)]
    axes = (res, [0.5])
    mats = [Matrix(n, n, tuple(complex(next(floats), next(floats)) for _ in range(n * n))) for _ in res]
    points = [complex(r, 0.5) for r in res]
    values = [m.data for m in mats]
    prob = _sector_problem()
    assert "".join(cli._matrix_grid_json(prob, axes, (n, n), values, label)) == \
        _reference_json(prob, points, mats, label)
    assert "".join(cli._matrix_grid_csv(axes, (n, n), values, label)) == _reference_csv(points, mats, label)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_in_the_second_chunk_is_an_error_and_no_file(tmp_path, monkeypatch, capsys, fmt):
    # every entry of the first chunk is finite; the one nan sits 3 points into the second
    chunk = cli._chunk_points((1, 1))
    bad = chunk + 3
    results = iter([(complex(k, 1.0),) for k in range(bad)] + [(complex(math.nan, 1.0),)]
                   + [(complex(k, 1.0),) for k in range(bad + 1, chunk + 10)])
    monkeypatch.setattr(cli.kernels, "grid_kernel", lambda n, transform, col: lambda data: next(results))
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"model": {"kind": "sector", "beta": 0.75}}))
    out = tmp_path / f"o.{fmt}"
    grid = f"--grid=-1:1:{chunk + 10},0.5:0.5:1"
    assert main(["eval", "--problem", str(problem), grid, "--format", fmt, "--out", str(out)]) == 1
    assert not out.exists()
    z = complex(request_value("grid", grid[len("--grid="):], "--grid")[0][bad], 0.5)
    assert capsys.readouterr() == ("", f"error: M(z) is not finite at z={z}\n")


def _scripted_grid(monkeypatch, tmp_path, script, points):
    """A 1x1 `eval` grid of points (a multiple of 4) whose kernel returns, per point
    k, complex(k, 1.0), or what script[k] gives: a value, or an error to raise.
    Returns the problem path, the --grid flag and the z of each point."""
    results = iter(range(points))

    def kernel(data):
        k = next(results)
        value = script.get(k, complex(k, 1.0))
        if isinstance(value, Exception):
            raise value
        return (value,)

    monkeypatch.setattr(cli.kernels, "grid_kernel", lambda n, transform, col: kernel)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"model": {"kind": "sector", "beta": 0.75}}))
    grid = f"--grid=-1:1:{points // 4},0.5:2:4"
    res, ims = request_value("grid", grid[len("--grid="):], "--grid")
    return str(problem), grid, [complex(r, i) for r in res for i in ims]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("later", [0, 1], ids=["same_chunk", "next_chunk"])
def test_first_failing_point_past_the_first_chunk_is_named(tmp_path, monkeypatch, capsys, fmt, later):
    # a nan 3 points into the second chunk, an evaluation error after it in the same
    # chunk or the next: the nan is met first
    chunk = cli._chunk_points((1, 1))
    bad = chunk + 3
    script = {bad: complex(math.nan, 1.0), (1 + later) * chunk + 5: WeylError("no M here")}
    problem, grid, zs = _scripted_grid(monkeypatch, tmp_path, script, 3 * chunk)
    out = tmp_path / f"o.{fmt}"
    assert main(["eval", "--problem", problem, grid, "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: M(z) is not finite at z={zs[bad]}\n")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_late_error_keeps_streamed_stdout_and_an_early_one_an_existing_file(tmp_path, monkeypatch, capsys, fmt):
    chunk = cli._chunk_points((1, 1))
    problem, grid, _ = _scripted_grid(monkeypatch, tmp_path, {chunk + 2: WeylError("no M here")}, 2 * chunk)
    assert main(["eval", "--problem", problem, grid, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err == "error: no M here\n"
    assert out.count("\n") > chunk  # the first chunk's lines went out before the error
    # an error in the first chunk opens no --out: the file there stays as it was
    existing = tmp_path / f"o.{fmt}"
    existing.write_text("kept\n")
    problem, grid, _ = _scripted_grid(monkeypatch, tmp_path, {3: WeylError("no M here")}, 2 * chunk)
    assert main(["eval", "--problem", problem, grid, "--format", fmt, "--out", str(existing)]) == 1
    assert existing.read_text() == "kept\n"


def test_late_error_leaves_a_symlinked_out_in_place(tmp_path, monkeypatch, capsys):
    # only a regular file is removed: the link stays, and so does its target
    chunk = cli._chunk_points((1, 1))
    problem, grid, _ = _scripted_grid(monkeypatch, tmp_path, {chunk + 2: WeylError("no M here")}, 2 * chunk)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("")
    link.symlink_to(target)
    assert main(["eval", "--problem", problem, grid, "--out", str(link)]) == 1
    assert capsys.readouterr().err == "error: no M here\n"
    assert link.is_symlink() and target.read_text().startswith("{")


def test_streamed_grid_peak_is_under_1_mb(tmp_path):
    # 10,000 points of a 4x4 strip M: about 9 MB of JSON, a chunk of 60 points at a time
    problem, out = tmp_path / "p.json", tmp_path / "o.json"
    problem.write_text(json.dumps({"model": {"kind": "strip", "a_diag": [2.0, 3.5], "width": 1.5}}))
    argv = ["eval", "--problem", str(problem), "--out", str(out)]
    assert main(argv + ["--grid=-1:1:2,0.5:1:2"]) == 0  # the parser and the kernel, built once per process
    tracemalloc.start()
    try:
        assert main(argv + ["--grid=-5:5:100,-3:3:100"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 8_000_000
    assert peak < 1_000_000, peak


def test_mirrored_one_sided_axis_holds_at_most_one_row_of_unpaired_m(tmp_path, monkeypatch):
    # no point's conjugate is on the grid, so every M is left unpaired
    live, most = weakref.WeakSet(), []
    evaluate = models.evaluate

    def tracked(model, z):
        m = evaluate(model, z)
        live.add(m)
        return m

    def kernel(data):
        most.append(len(live))
        return data

    monkeypatch.setattr(models, "evaluate", tracked)
    monkeypatch.setattr(cli.kernels, "grid_kernel", lambda n, transform, col: kernel)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"model": {"kind": "half_line", "potential": {"kind": "zero"}}}))
    assert problem_from_data(json.loads(problem.read_text())).model.mirrored
    assert main(["eval", "--problem", str(problem), "--grid=-2:2:12,0.5:2:5", "--out", str(tmp_path / "o.json")]) == 0
    assert len(most) == 60 and max(most) <= 5, most


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emitter_peak_is_at_most_twice_the_report(fmt):
    # 400 points of a 4x4 M: the report is about 0.5 MB of JSON, 0.25 MB of CSV
    rng = random.Random(5)
    axes = ([-6 + 12 * k / 19 for k in range(20)], [-3 + 6 * k / 19 for k in range(20)])
    values = [tuple(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(16)) for _ in range(400)]
    prob = _sector_problem()

    def emit():
        if fmt == "json":
            return cli._matrix_grid_json(prob, axes, (4, 4), values, "M")
        return cli._matrix_grid_csv(axes, (4, 4), values, "M")

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pieces = list(emit())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = len("".join(pieces))
    assert peak <= 2 * size, (peak, size)


def test_catalog_weyl_functions_have_complex_entries():
    # the emitter writes [re, im] for every entry, which is what the
    # reference's _complexify does only for complex values
    for model in verify.catalog().values():
        for z in (0.5 + 1j, -2 + 0.25j):
            assert all(type(v) is complex for v in models.evaluate(model, z).data), model.kind
