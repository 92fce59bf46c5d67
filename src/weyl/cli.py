"""Command-line surface.

Subcommands: eval | spectrum | negcount | krein | charfn | verify.  Problem
files are JSON (schema in docs/problem.schema.json); a grid, window or rect
comes from its flag, else from the problem's task block, both read by
problems.request_value.  Reports are deterministic for a fixed problem file
and seed: floats are emitted in shortest round-trip form and JSON keys are sorted.  The
argument parser is built once per process (`build_parser` is cached;
parsing leaves it unchanged), so repeated `main()` calls in one process
share it.  A grid point of `eval` or `charfn` evaluates M(z), once per
conjugate pair on a mirrored kind (_emit_grid), and then runs the request's
kernel (`kernels.grid_kernel`: generated straight-line code for n <= 4, the
Matrix path beyond) for the transformed M or for W, with the Matrix path's
bits.  The grid reports are written by a fixed-shape emitter:
one row template per request, filled with the repr of every float a chunk
of points at a time (about GRID_CHUNK_VALUES numbers per `%`), each grid
axis value formatted once per request by its position on the axis.  The
pieces join to what `json.dumps(sort_keys=True, indent=1)` of the report as
nested dicts and lists writes, or to `csv.writer` rows for CSV.  They are
streamed: each chunk's points are evaluated, formatted, checked and written
before the next chunk's are evaluated, so a grid request holds one chunk at
a time.  Every grid entry is checked finite, and the error of a failing grid
names its first failing point in grid order.  Every report goes through one
writer: `--out` is opened only once the first chunk is checked, and a later
error removes the partial file when it is a regular one (_emit_pieces).

The boundary operator in a problem file always refers to the base boundary
coordinates of the model.  When a transform block is present, `eval` and
`charfn` emit the transformed quantities; `spectrum`, `negcount` and `krein`
answer in base coordinates (the transform leaves the underlying operator, and
hence those answers, unchanged -- that invariance is itself verified by the
`transform_invariance` suite).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys

from . import __version__, charfun, extensions, kernels, models, triplets
from .errors import RangeError, WeylError
from .linalg import Matrix
from .problems import ProblemFile, matrix_to_json, parse_problem, request_value


def _report_header(problem: ProblemFile) -> dict:
    return {"tool_version": __version__, "problem_sha256": problem.sha256}


def _emit_pieces(pieces, out_path):
    """Write a report's pieces to out_path, else to stdout, each as it is formatted.

    out_path is opened only once the first two pieces (a grid's header and
    first chunk) are formatted and checked, so an error in them writes nothing
    and leaves an existing file alone.  Where a later piece raises, the partial
    out_path is removed if it is a regular file (never a device, a FIFO or a
    symlink, nor a symlink's target); stdout keeps what it was given."""
    pieces = iter(pieces)  # the head is taken from it, then the rest: never the same items twice
    head = list(itertools.islice(pieces, 2))
    if not out_path:
        sys.stdout.writelines(head)
        sys.stdout.writelines(pieces)
        return
    f = open(out_path, "w", newline="")
    try:
        with f:
            f.writelines(head)
            f.writelines(pieces)
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(out_path).st_mode):
                os.remove(out_path)
        raise


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _z_reprs(axes):
    """(repr re z, repr im z) of every grid point, row-major, each axis value
    formatted once and looked up by its position (0.0 == -0.0 as a key)."""
    res, ims = axes
    return itertools.product(map(repr, res), map(repr, ims))


def _non_finite(axes, chunk, offset: int, label: str):
    """The RangeError naming the first point of chunk, the results of the grid's
    points from offset on, whose z or an entry is not finite; None if there is none."""
    res, ims = axes
    for k, data in enumerate(chunk, offset):
        z = complex(res[k // len(ims)], ims[k % len(ims)])
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in (z, *data)):
            return RangeError(f"{label}(z) is not finite at z={z}")
    return None


GRID_CHUNK_VALUES = 2048  # floats and z reprs formatted by one %


def _chunk_points(shape) -> int:
    """Grid points per formatted piece of a (rows, cols) = shape grid report:
    as many as fill GRID_CHUNK_VALUES, so that a piece's size, and the cost
    of starting one, is about the same for every shape."""
    rows, cols = shape
    return max(1, GRID_CHUNK_VALUES // (2 * rows * cols + 2))


def _grid_chunks(axes, shape, results, row: str, sep: str, z_first: bool, label: str):
    """The points `_chunk_points(shape)` at a time, each chunk sep.join of row
    per point filled by one % with, per point, the z reprs of `_z_reprs` and
    re, im of every entry: z first, or (not z_first) last.  results is an
    iterator over the points' entries in grid order; a chunk is taken from it,
    formatted and checked before the next is taken.  The first point in grid
    order that fails is the error: a z or an entry that is not finite is a
    RangeError (_non_finite), and an error raised by results stands only if
    no point before it in its chunk has one."""
    zs = _z_reprs(axes)
    step = _chunk_points(shape)
    offset = 0
    while True:
        chunk = []
        try:
            for data in itertools.islice(results, step):
                chunk.append(data)
        except WeylError:
            error = _non_finite(axes, chunk, offset, label)
            if error:
                raise error from None
            raise
        if not chunk:
            return
        values = []
        # chunk first: zip stops before it takes a z past the chunk
        if z_first:
            for data, z in zip(chunk, zs):
                values += z
                for v in data:
                    values += (v.real, v.imag)
        else:
            for data, z in zip(chunk, zs):
                for v in data:
                    values += (v.real, v.imag)
                values += z
        text = sep.join([row] * len(chunk)) % tuple(values)
        if "n" in text:  # only nan and inf spell an 'n'
            raise _non_finite(axes, chunk, offset, label)
        yield text
        offset += len(chunk)


def _matrix_grid_csv(axes, shape, results, label: str):
    """re_z, im_z, then the entries row-major as re, im; one line per point.

    axes holds the real and the imaginary axis values, results, per point
    row-major over them, the entries of a (rows, cols) = shape matrix
    row-major.  No field holds a comma, a quote or a newline, so a plain join
    writes what `csv.writer` would.  The report is yielded in pieces: the
    header line, then the lines of the points a chunk at a time
    (_grid_chunks), where an entry that is not finite is a RangeError.
    """
    rows, cols = shape
    header = ["re_z", "im_z"]
    for i in range(rows):
        for j in range(cols):
            header += [f"{label}_{i}_{j}_re", f"{label}_{i}_{j}_im"]
    line = ",".join(["%s", "%s"] + ["%r"] * (len(header) - 2)) + "\n"
    yield ",".join(header) + "\n"
    yield from _grid_chunks(axes, shape, iter(results), line, "", True, label)


def _matrix_grid_json(problem: ProblemFile, axes, shape, results, label: str):
    """`_json_dump` of {header, "rows": [{label: [[[re, im], ..], ..], "z": [re, im]}, ..]}.

    The rows share one shape, so one row template filled with `%r` of each
    float (float.__repr__, as `json` writes it) gives the same bytes; z takes
    the axis reprs of `_z_reprs`.  The report is yielded in pieces: the keys
    before "rows", the rows a chunk at a time (_grid_chunks, where an entry
    that is not finite is a RangeError), then the keys after.
    """
    rows, cols = shape
    entry = "     [\n      %r,\n      %r\n     ]"
    matrix_row = "    [\n" + ",\n".join([entry] * cols) + "\n    ]"
    row = (
        f'  {{\n   "{label}": [\n' + ",\n".join([matrix_row] * rows)
        + '\n   ],\n   "z": [\n    %s,\n    %s\n   ]\n  }'
    )
    fields = {key: json.dumps(value) for key, value in _report_header(problem).items()}
    keys = sorted([*fields, "rows"])
    at = keys.index("rows")
    yield "{\n" + "".join(f" {json.dumps(key)}: {fields[key]},\n" for key in keys[:at]) + ' "rows": [\n'
    for k, text in enumerate(_grid_chunks(axes, shape, iter(results), row, ",\n", False, label)):
        if k:
            yield ",\n"
        yield text
    yield "\n ]" + "".join(f",\n {json.dumps(key)}: {fields[key]}" for key in keys[at + 1:]) + "\n}\n"


def _emit_grid(args, problem: ProblemFile, axes, col, label: str):
    """The grid report of M (col None) or of W: one kernel call per point on M(z),
    streamed a chunk at a time (_emit_pieces).  A mirrored model evaluates each
    conjugate pair of non-real points once; the second takes the first's M
    conjugated, which has its own M's bits."""
    model = problem.model
    n = model.n if col is None else col.reduced_dim
    kernel = kernels.grid_kernel(model.n, problem.transform, col)
    res, ims = axes

    def results():
        # M at each non-real z whose conjugate is still to come; never at a real
        # z, whose 0.0 imaginary part would come back as -0.0.  A pair shares its
        # real part, so a new real part drops the Ms the last one left unpaired.
        unpaired, last = {}, None
        for r in res:
            if r != last:
                unpaired.clear()
                last = r
            for i in ims:
                z = complex(r, i)
                if not (model.mirrored and i):
                    m = models.evaluate(model, z)
                elif (partner := unpaired.pop(z.conjugate(), None)) is not None:
                    m = partner.conjugate()
                else:
                    m = unpaired[z] = models.evaluate(model, z)
                yield kernel(m.data)

    if args.format == "csv":
        _emit_pieces(_matrix_grid_csv(axes, (n, n), results(), label), args.out)
    else:
        _emit_pieces(_matrix_grid_json(problem, axes, (n, n), results(), label), args.out)


def _boundary_or_fail(problem: ProblemFile) -> Matrix:
    if problem.boundary is None:
        raise WeylError("problem file has no 'boundary' operator, required for this subcommand")
    return problem.boundary


def _request(args, problem: ProblemFile, key: str):
    """key's flag where it was given, read as problems.request_value reads the
    task, else its task entry, else None."""
    text = getattr(args, key)
    if text is None:
        return problem.task.get(key)
    return request_value(key, text, "--" + key)


def _grid_or_fail(args, problem: ProblemFile):
    """The grid's (real axis, imaginary axis)."""
    axes = _request(args, problem, "grid")
    if axes is None:
        raise WeylError("no grid: pass --grid or put one under task.grid")
    return axes


def cmd_eval(args) -> int:
    problem = parse_problem(args.problem)
    _emit_grid(args, problem, _grid_or_fail(args, problem), None, "M")
    return 0


def cmd_spectrum(args) -> int:
    problem = parse_problem(args.problem)
    spec = extensions.ExtensionSpec(problem.model, _boundary_or_fail(problem))
    rect = _request(args, problem, "rect")
    if rect is not None:
        if args.format == "csv":
            raise WeylError("--rect reports are JSON only: drop --format csv")
        rep = extensions.count_complex_eigenvalues(spec, rect)
        payload = {
            **_report_header(problem),
            "rect": list(rect),
            "count": rep.count,
            "boundary_proximity": rep.boundary_proximity,
            "contour_samples": rep.samples,
        }
        _emit_pieces((_json_dump(payload),), args.out)
        return 0
    window = _request(args, problem, "window")
    if window is None:
        raise WeylError("no window/rect: pass --window or --rect, or set one under task")
    rep = extensions.point_spectrum_real(spec, window, compare_oracle=not args.no_oracle)
    payload = {
        **_report_header(problem),
        "window": list(rep.window),
        "method": rep.method,
        "eigenvalues": [{"location": x, "multiplicity": mult} for x, mult in rep.eigenvalues],
    }
    if rep.oracle_delta is not None:
        payload["oracle_delta"] = list(rep.oracle_delta)
    if args.format == "csv":
        rows = (f"{x!r},{mult}\n" for x, mult in rep.eigenvalues)
        _emit_pieces(("location,multiplicity\n", *rows), args.out)
    else:
        _emit_pieces((_json_dump(payload),), args.out)
    return 0


def cmd_negcount(args) -> int:
    problem = parse_problem(args.problem)
    spec = extensions.ExtensionSpec(problem.model, _boundary_or_fail(problem))
    kappa_m, kappa_oracle = extensions.negative_count(spec)
    payload = {**_report_header(problem), "kappa_M": kappa_m, "kappa_oracle": kappa_oracle}
    _emit_pieces((_json_dump(payload),), args.out)
    return 0


def cmd_krein(args) -> int:
    problem = parse_problem(args.problem)
    m0 = models.m_at_zero(problem.model)
    payload = {
        **_report_header(problem),
        "B": matrix_to_json(m0.value),
        "method": m0.method,
        "est_error": m0.est_error,
    }
    if problem.model.robin_matrix is not None:
        payload["robin_matrix"] = matrix_to_json(problem.model.robin_matrix(m0.value))
    _emit_pieces((_json_dump(payload),), args.out)
    return 0


def cmd_charfn(args) -> int:
    problem = parse_problem(args.problem)
    axes = _grid_or_fail(args, problem)
    b = _boundary_or_fail(problem)
    if problem.transform is not None:
        b = triplets.transform_boundary_operator(problem.transform, b)
    _emit_grid(args, problem, axes, charfun.factor_colligation(b), "W")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the suites load only when they run

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, seed=args.seed)
    n_pass = sum(1 for r in results if r.passed)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name} ({sum(a.ok for a in r.assertions)}/{len(r.assertions)} assertions)")
        if not r.passed:
            for a in r.assertions:
                if not a.ok:
                    print(f"    failed: {a.label}  {a.detail}")
    print(f"{n_pass}/{len(results)} suites passed (seed {args.seed})")
    if args.out:
        payload = {
            "tool_version": __version__,
            "seed": args.seed,
            "suites": [r.to_json() for r in results],
        }
        _emit_pieces((_json_dump(payload),), args.out)
    return 0 if n_pass == len(results) else 2


@functools.cache  # one parser per process: parse_args reads it and leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl",
        description="Weyl functions of symmetric operators: spectra, Krein extensions "
        "and characteristic functions of boundary-condition extensions, "
        "cross-checked against a finite-difference oracle.",
    )
    parser.add_argument("--version", action="version", version=f"weyl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--problem", required=True, help="JSON problem file")
        p.add_argument("--out", help="output file (default: stdout)")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser(
        "eval",
        help="evaluate M(z) on a grid",
        epilog="CSV columns: re_z, im_z, then M entries row-major, "
        "interleaved M_i_j_re, M_i_j_im.",
    )
    common(p)
    p.add_argument("--grid", help="re0:re1:n,im0:im1:m (use --grid=... for negative starts)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "spectrum",
        help="point spectrum of A_B: real scan below the essential spectrum, "
        "or a winding-number count inside an upper-half-plane rectangle",
    )
    common(p)
    p.add_argument("--window", help="a:b (real scan)")
    p.add_argument("--rect", help="re0:re1:im0:im1 (complex count via the argument principle)")
    p.add_argument("--no-oracle", action="store_true", help="skip the oracle comparison")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("negcount", help="negative-eigenvalue count of A_B, both routes")
    common(p, with_format=False)
    p.set_defaults(fn=cmd_negcount)

    p = sub.add_parser("krein", help="Krein-extension boundary operator B = M(0)")
    common(p, with_format=False)
    p.set_defaults(fn=cmd_krein)

    p = sub.add_parser(
        "charfn",
        help="characteristic function W(z) on a grid",
        epilog="CSV columns: re_z, im_z, then W entries row-major, "
        "interleaved W_i_j_re, W_i_j_im.",
    )
    common(p)
    p.add_argument("--grid", help="re0:re1:n,im0:im1:m (use --grid=... for negative starts)")
    p.set_defaults(fn=cmd_charfn)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the per-assertion JSON report here")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (WeylError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
