"""Command-line surface.

Subcommands: eval | spectrum | negcount | krein | charfn | verify.  Problem
files are JSON (schema in docs/problem.schema.json); grids/windows come from
flags.  Reports are deterministic for a fixed problem file and seed: floats
are emitted in shortest round-trip form and JSON keys are sorted.  A grid
point of `eval` or `charfn` evaluates M(z) and then runs the request's
kernel (`kernels.grid_kernel`: generated straight-line code for n <= 4, the
Matrix path beyond) for the transformed M or for W, with the Matrix path's
bits.  The grid reports are written by a fixed-shape emitter, one template
per request filled with the repr of every float; the result is
byte-identical to `json.dumps(sort_keys=True, indent=1)` of the report as
nested dicts and lists, or to `csv.writer` rows for CSV.

The boundary operator in a problem file always refers to the base boundary
coordinates of the model.  When a transform block is present, `eval` and
`charfn` emit the transformed quantities; `spectrum`, `negcount` and `krein`
answer in base coordinates (the transform leaves the underlying operator, and
hence those answers, unchanged -- that invariance is itself verified by the
`transform_invariance` suite).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, charfun, extensions, kernels, models, triplets, verify
from .errors import WeylError
from .linalg import Matrix
from .problems import ProblemFile, parse_problem


def _parse_axis(text: str, what: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise WeylError(f"{what} must be 'start:stop:count', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise WeylError(f"bad {what} {text!r}: {e}") from e
    if n < 1:
        raise WeylError(f"{what} count must be >= 1")
    if n == 1:
        return [a]
    return [a + (b - a) * k / (n - 1) for k in range(n)]


def parse_grid(text: str):
    """'re0:re1:n,im0:im1:m' -> row-major list of complex grid points."""
    parts = text.split(",")
    if len(parts) != 2:
        raise WeylError(f"grid must be 're0:re1:n,im0:im1:m', got {text!r}")
    res = _parse_axis(parts[0], "real axis")
    ims = _parse_axis(parts[1], "imaginary axis")
    return [complex(r, i) for r in res for i in ims]


def parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise WeylError(f"window must be 'a:b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as e:
        raise WeylError(f"bad window {text!r}: {e}") from e


def parse_rect(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise WeylError(f"rect must be 're0:re1:im0:im1', got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as e:
        raise WeylError(f"bad rect {text!r}: {e}") from e


def _report_header(problem: ProblemFile) -> dict:
    return {"tool_version": __version__, "problem_sha256": problem.sha256}


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _matrix_grid_csv(points, shape, results, label: str) -> str:
    """re_z, im_z, then the entries row-major as re, im; one line per point.

    results holds, per point, the entries of a (rows, cols) = shape matrix
    row-major.  No field holds a comma, a quote or a newline, so a plain join
    writes what `csv.writer` would.
    """
    rows, cols = shape
    header = ["re_z", "im_z"]
    for i in range(rows):
        for j in range(cols):
            header += [f"{label}_{i}_{j}_re", f"{label}_{i}_{j}_im"]
    values = []
    for z, data in zip(points, results):
        values += (z.real, z.imag)
        for v in data:
            values += (v.real, v.imag)
    line = ",".join(["%r"] * len(header)) + "\n"
    return ",".join(header) + "\n" + line * len(points) % tuple(values)


def _matrix_grid_json(problem: ProblemFile, points, shape, results, label: str) -> str:
    """`_json_dump` of {header, "rows": [{label: [[[re, im], ..], ..], "z": [re, im]}, ..]}.

    The rows share one shape, so one template filled with `%r` of each float
    (float.__repr__, as `json` writes it) gives the same bytes.
    """
    rows, cols = shape
    entry = "     [\n      %r,\n      %r\n     ]"
    matrix_row = "    [\n" + ",\n".join([entry] * cols) + "\n    ]"
    row = (
        f'  {{\n   "{label}": [\n' + ",\n".join([matrix_row] * rows)
        + '\n   ],\n   "z": [\n    %r,\n    %r\n   ]\n  }'
    )
    values = []
    for z, data in zip(points, results):
        for v in data:
            values += (v.real, v.imag)
        values += (z.real, z.imag)
    body = ",\n".join([row] * len(points)) % tuple(values)
    if "n" in body:  # only nan and inf spell an 'n'; json writes them as below
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    fields = {key: json.dumps(value) for key, value in _report_header(problem).items()}
    fields["rows"] = f"[\n{body}\n ]"
    return "{\n" + ",\n".join(f" {json.dumps(key)}: {fields[key]}" for key in sorted(fields)) + "\n}\n"


def _emit_grid(args, problem: ProblemFile, points, col, label: str):
    """The grid report of M (col None) or of W: one kernel call per point on M(z)."""
    n = problem.model.n if col is None else col.reduced_dim
    kernel = kernels.grid_kernel(problem.model.n, problem.transform, col)
    results = [kernel(models.evaluate(problem.model, z).data) for z in points]
    if args.format == "csv":
        _emit(_matrix_grid_csv(points, (n, n), results, label), args.out)
    else:
        _emit(_matrix_grid_json(problem, points, (n, n), results, label), args.out)


def _boundary_or_fail(problem: ProblemFile) -> Matrix:
    if problem.boundary is None:
        raise WeylError("problem file has no 'boundary' operator, required for this subcommand")
    return problem.boundary


def _grid_or_fail(args, problem: ProblemFile) -> list:
    grid_text = args.grid or problem.task.get("grid")
    if not grid_text:
        raise WeylError("no grid: pass --grid or put one under task.grid")
    return parse_grid(grid_text)


def cmd_eval(args) -> int:
    problem = parse_problem(args.problem)
    _emit_grid(args, problem, _grid_or_fail(args, problem), None, "M")
    return 0


def cmd_spectrum(args) -> int:
    problem = parse_problem(args.problem)
    spec = extensions.ExtensionSpec(problem.model, _boundary_or_fail(problem))
    rect_text = args.rect or problem.task.get("rect")
    if rect_text is not None:
        if args.format == "csv":
            raise WeylError("--rect reports are JSON only: drop --format csv")
        rect = parse_rect(rect_text) if isinstance(rect_text, str) else tuple(rect_text)
        rep = extensions.count_complex_eigenvalues(spec, rect)
        payload = {
            **_report_header(problem),
            "rect": list(rect),
            "count": rep.count,
            "boundary_proximity": rep.boundary_proximity,
            "contour_samples": rep.samples,
        }
        _emit(_json_dump(payload), args.out)
        return 0
    window_text = args.window or problem.task.get("window")
    if window_text is None:
        raise WeylError("no window/rect: pass --window or --rect, or set one under task")
    window = parse_window(window_text) if isinstance(window_text, str) else tuple(window_text)
    grid_n = args.grid_n or int(problem.task.get("grid_n", 128))
    rep = extensions.point_spectrum_real(spec, window, grid_n=grid_n, compare_oracle=not args.no_oracle)
    payload = {
        **_report_header(problem),
        "window": list(rep.window),
        "method": rep.method,
        "eigenvalues": [{"location": x, "multiplicity": mult} for x, mult in rep.eigenvalues],
    }
    if rep.oracle_delta is not None:
        payload["oracle_delta"] = list(rep.oracle_delta)
    if args.format == "csv":
        _emit("location,multiplicity\n" + "".join(f"{x!r},{mult}\n" for x, mult in rep.eigenvalues), args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return 0


def cmd_negcount(args) -> int:
    problem = parse_problem(args.problem)
    spec = extensions.ExtensionSpec(problem.model, _boundary_or_fail(problem))
    kappa_m, kappa_oracle = extensions.negative_count(spec)
    payload = {**_report_header(problem), "kappa_M": kappa_m, "kappa_oracle": kappa_oracle}
    _emit(_json_dump(payload), args.out)
    return 0


def cmd_krein(args) -> int:
    problem = parse_problem(args.problem)
    m0 = models.m_at_zero(problem.model)
    from .problems import matrix_to_json

    payload = {
        **_report_header(problem),
        "B": matrix_to_json(m0.value),
        "method": m0.method,
        "est_error": m0.est_error,
    }
    if problem.model.robin_matrix is not None:
        payload["robin_matrix"] = matrix_to_json(problem.model.robin_matrix(m0.value))
    _emit(_json_dump(payload), args.out)
    return 0


def cmd_charfn(args) -> int:
    problem = parse_problem(args.problem)
    points = _grid_or_fail(args, problem)
    b = _boundary_or_fail(problem)
    if problem.transform is not None:
        b = triplets.transform_boundary_operator(problem.transform, b)
    _emit_grid(args, problem, points, charfun.factor_colligation(b), "W")
    return 0


def cmd_verify(args) -> int:
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
        with open(args.out, "w", newline="") as f:
            f.write(_json_dump(payload))
    return 0 if n_pass == len(results) else 2


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
    p.add_argument("--grid-n", type=int, default=None, help="scan grid density (>= 64)")
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
    except WeylError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
