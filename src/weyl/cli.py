"""Command-line surface.

Subcommands: eval | spectrum | negcount | krein | charfn | verify.  Problem
files are JSON (schema in docs/problem.schema.json); grids/windows come from
flags.  Reports are deterministic for a fixed problem file and seed: floats
are emitted in shortest round-trip form and JSON keys are sorted.

The boundary operator in a problem file always refers to the base boundary
coordinates of the model.  When a transform block is present, `eval` and
`charfn` emit the transformed quantities; `spectrum`, `negcount` and `krein`
answer in base coordinates (the transform leaves the underlying operator, and
hence those answers, unchanged -- that invariance is itself verified by the
`transform_invariance` suite).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, charfun, extensions, models, triplets, verify
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
    return float(parts[0]), float(parts[1])


def parse_rect(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise WeylError(f"rect must be 're0:re1:im0:im1', got {text!r}")
    return tuple(float(p) for p in parts)


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


def _complexify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _matrix_grid_csv(points, mats, n: int, label: str = "M") -> str:
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


def _boundary_or_fail(problem: ProblemFile) -> Matrix:
    if problem.boundary is None:
        raise WeylError("problem file has no 'boundary' operator, required for this subcommand")
    return problem.boundary


def _grid_or_fail(args, problem: ProblemFile) -> list:
    grid_text = args.grid or problem.task.get("grid")
    if not grid_text:
        raise WeylError("no grid: pass --grid or put one under task.grid")
    return parse_grid(grid_text)


def _weyl(problem: ProblemFile, z: complex) -> Matrix:
    """M(z) in the problem's boundary coordinates (transformed if a transform is given)."""
    m = models.evaluate(problem.model, z)
    if problem.transform is not None:
        m = triplets.transform_weyl(problem.transform, m)
    return m


def cmd_eval(args) -> int:
    problem = parse_problem(args.problem)
    points = _grid_or_fail(args, problem)
    mats = [_weyl(problem, z) for z in points]
    if args.format == "csv":
        _emit(_matrix_grid_csv(points, mats, problem.model.n), args.out)
    else:
        rows = [
            {"z": [z.real, z.imag], "M": [[_complexify(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]}
            for z, m in zip(points, mats)
        ]
        _emit(_json_dump({**_report_header(problem), "rows": rows}), args.out)
    return 0


def cmd_spectrum(args) -> int:
    problem = parse_problem(args.problem)
    spec = extensions.ExtensionSpec(problem.model, _boundary_or_fail(problem))
    rect_text = args.rect or problem.task.get("rect")
    if rect_text is not None:
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
        "unresolved": [list(iv) for iv in rep.unresolved],
    }
    if rep.oracle_delta is not None:
        payload["oracle_delta"] = list(rep.oracle_delta)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["location", "multiplicity"])
        for x, mult in rep.eigenvalues:
            writer.writerow([repr(x), mult])
        _emit(buf.getvalue(), args.out)
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
    if problem.model.kind == "operator_potential_halfline":
        payload["robin_matrix"] = matrix_to_json(
            models.operator_potential_robin(problem.model, m0.value)
        )
    _emit(_json_dump(payload), args.out)
    return 0


def cmd_charfn(args) -> int:
    problem = parse_problem(args.problem)
    points = _grid_or_fail(args, problem)
    b = _boundary_or_fail(problem)
    if problem.transform is not None:
        b = triplets.transform_boundary_operator(problem.transform, b)
    col = charfun.factor_colligation(b)
    mats = [charfun.char_function_from_m(col, _weyl(problem, z)) for z in points]
    n = mats[0].rows
    if args.format == "csv":
        _emit(_matrix_grid_csv(points, mats, n, label="W"), args.out)
    else:
        rows = [
            {"z": [z.real, z.imag], "W": [[_complexify(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]}
            for z, m in zip(points, mats)
        ]
        _emit(_json_dump({**_report_header(problem), "rows": rows}), args.out)
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

    def common(p, needs_problem=True):
        if needs_problem:
            p.add_argument("--problem", required=True, help="JSON problem file")
        p.add_argument("--out", help="output file (default: stdout)")
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
    common(p)
    p.set_defaults(fn=cmd_negcount)

    p = sub.add_parser("krein", help="Krein-extension boundary operator B = M(0)")
    common(p)
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
