"""Output checks: every report against values computed in `reference`.

Each check takes a request and the parsed report and returns None when the
report is right, or a one-line reason when it is not.  Tolerances are the
ones the package's verify suites state for the same quantity:

* ODE-propagated M at the default solver tolerance: 1e-7 relative
  (finite_interval_closed_form);
* closed-form M, conjugate symmetry: 1e-9 relative (conjugate_symmetry);
* Herglotz: lambda_min(Im M) >= -1e-9 ||M|| (herglotz);
* extrapolated M(0): 1e-6 (the square-well M(0) test), closed forms 1e-9;
* eigenvalues on the M-route 1e-6, oracle deltas 1e-3
  (eigenvalue_correspondence);
* J-contractivity of W to -1e-8 (charfun_identities).
"""

from __future__ import annotations

import csv
import io
import json
import math

import reference as ref

TOL_ODE = 1e-7
TOL_CLOSED = 1e-9
TOL_HERGLOTZ = 1e-9
TOL_SYMMETRY = 1e-9
TOL_M0_EXTRAPOLATED = 1e-6
TOL_EIG = 1e-6
TOL_ORACLE = 1e-3
TOL_CONTRACTION = 1e-8

ODE_KINDS = ("half_line", "radial_schrodinger", "finite_interval")


def parse_report(req, text):
    """Parsed report: {'points': [z...], 'mats': [rows...]} for grid commands,
    the JSON object for the others."""
    if req.cmd in ("eval", "charfn"):
        label = "M" if req.cmd == "eval" else "W"
        if req.fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            header, body = rows[0], rows[1:]
            n = int(round(math.sqrt((len(header) - 2) / 2)))
            if header[:2] != ["re_z", "im_z"] or len(header) != 2 + 2 * n * n:
                raise ValueError(f"bad CSV header {header[:4]}")
            points, mats = [], []
            for r in body:
                vals = [float(v) for v in r]
                points.append(complex(vals[0], vals[1]))
                ent = [complex(vals[2 + 2 * k], vals[3 + 2 * k]) for k in range(n * n)]
                mats.append([ent[i * n:(i + 1) * n] for i in range(n)])
            return {"points": points, "mats": mats}
        data = json.loads(text)
        points = [complex(*r["z"]) for r in data["rows"]]
        mats = [[[_num(x) for x in row] for row in r[label]] for r in data["rows"]]
        return {"points": points, "mats": mats}
    return json.loads(text)


def _num(x):
    return complex(*x) if isinstance(x, list) else complex(x)


def _grid_points(flag):
    text = flag.split("=", 1)[1]
    axes = []
    for part in text.split(","):
        a, b, n = part.split(":")
        a, b, n = float(a), float(b), int(n)
        axes.append([a] if n == 1 else [a + (b - a) * k / (n - 1) for k in range(n)])
    return [complex(r, i) for r in axes[0] for i in axes[1]]


def _matrix(v):
    """Problem-file matrix (scalar, [re, im] or nested rows) as list of rows."""
    if isinstance(v, (int, float)) or (isinstance(v, list) and len(v) == 2
                                       and all(isinstance(t, (int, float)) for t in v)):
        return [[_num(v)]]
    return [[_num(x) for x in row] for row in v]


def _rel_dev(a, b):
    scale = max(1.0, ref.norm_max(b))
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)) / scale


def _m_tol(model):
    return TOL_ODE if model["kind"] in ODE_KINDS else TOL_CLOSED


def _reference_M(problem, z):
    """Closed-form M, transformed when the problem has a transform."""
    m = ref.model_M(problem["model"], z)
    if "transform" in problem:
        m = ref.mobius(_transform(problem), m)
    return m


def _transform(problem):
    return {k: _matrix(v) for k, v in problem["transform"].items()}


def _herglotz_ok(m, z):
    """lambda_min(Im M) sign-matched to Im z, to -1e-9 ||M||."""
    im = ref.imag_part(m)
    if z.imag < 0:
        im = ref.scale(im, -1.0)
    return ref.psd_margin_ok(im, TOL_HERGLOTZ * max(ref.norm_max(m), 1e-30) * len(m))


# -- per-command checks --------------------------------------------------------


def check(req, report):
    try:
        return CHECKS[req.cmd](req, report)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as e:
        return f"malformed report: {type(e).__name__}: {e}"


def _check_points(req, report):
    want = _grid_points(req.flags[0])
    got = report["points"]
    if len(got) != len(want) or any(abs(a - b) > 1e-12 * (1 + abs(b)) for a, b in zip(got, want)):
        return f"grid points differ from the requested grid ({len(got)} vs {len(want)})"
    return None


def check_eval(req, report):
    bad = _check_points(req, report)
    if bad:
        return bad
    problem = req.problem
    model = problem["model"]
    if not ref.has_closed_form(model):
        return _check_herglotz_pairs(model, {z: m[0][0] for z, m in
                                             zip(report["points"], report["mats"])})
    for z, m in zip(report["points"], report["mats"]):
        dev = _rel_dev(m, _reference_M(problem, z))
        if dev > _m_tol(model):
            return f"M({z}) off the closed form by {dev:.2e}"
    return None


def _check_herglotz_pairs(model, ms):
    """For a scalar model without a closed form (sampled_table, expression):
    ms maps each grid point z to M(z).  Checks the Herglotz sign of m_inf and
    M(conj z) = M(z)*, which needs the grid symmetric about the real axis."""
    for z, m in ms.items():
        mi = _m_inf(model, m)
        if not _herglotz_ok([[mi]], z):
            return f"m_inf({z}) = {mi} violates the Herglotz sign"
        mate = ms.get(z.conjugate())
        if mate is None:
            return f"grid not symmetric about the real axis at {z}"
        dev = abs(mate - m.conjugate()) / max(1.0, abs(m))
        if dev > TOL_SYMMETRY:
            return f"M(conj z) != M(z)* at {z} by {dev:.2e}"
    return None


def _m_inf(model, m):
    h = model.get("h")
    return m if h is None else ref.m_inf_from_h(m, h)


def check_charfn(req, report):
    bad = _check_points(req, report)
    if bad:
        return bad
    problem = req.problem
    b = _matrix(problem["boundary"])
    if "transform" in problem:
        b = ref.mobius(_transform(problem), b)
    n, rank = len(b), req.info["rank"]
    model = problem["model"]
    if any(len(w) != rank for w in report["mats"]):
        return f"W is not {rank}x{rank} (rank of Im B)"
    # Im B >= 0 in every workload, so in the upper half-plane the reduced W
    # is a contraction and the full W contracts the Im B metric:
    # Im B - W* Im B W >= 0 (the two are similar through K*).  m_h with
    # |h| < 1 maps the upper half-plane to the lower one, so the property is
    # checked only where M is Herglotz.
    h = model.get("h")
    metric = ref.imag_part(b) if rank == n else ref.eye(rank)
    tol = TOL_CONTRACTION * rank * max(1.0, ref.norm_max(metric))
    for z, w in zip(report["points"], report["mats"]):
        gap = ref.add(metric, ref.matmul(ref.matmul(ref.adjoint(w), metric), w), -1.0)
        if z.imag > 0 and (h is None or abs(h) > 1.0) and not ref.psd_margin_ok(gap, tol):
            return f"W({z}) is not a J-contraction"
    if not ref.has_closed_form(model):
        # no closed form: recover m from the scalar W = (b - m)/(conj b - m)
        bb = b[0][0]
        return _check_herglotz_pairs(model, {
            z: (bb - w[0][0] * bb.conjugate()) / (1.0 - w[0][0])
            for z, w in zip(report["points"], report["mats"])})
    for z, w in zip(report["points"], report["mats"]):
        m = _reference_M(problem, z)
        full = ref.char_full(b, m)
        # first-order bound: |dW| <= |(B* - M)^-1| |dM| (1 + |W|)
        resolvent = ref.solve(ref.add(ref.adjoint(b), m, -1.0), ref.eye(n))
        tol = max(TOL_CLOSED, _m_tol(model) * max(1.0, ref.norm_max(m))
                  * n * ref.norm_max(resolvent) * (1.0 + ref.norm_max(full)))
        if rank == n:
            dev = _rel_dev(w, full)
            if dev > tol:
                return f"W({z}) off (B*-M)^-1 (B-M) by {dev:.2e} (tol {tol:.1e})"
        else:
            # reduced form: same nonzero spectrum of W - I as the full form
            dt = abs(ref.trace(w) - rank - (ref.trace(full) - n))
            dd = abs(ref.det(w) - ref.det(full))
            scale = max(1.0, ref.norm_max(full)) ** n
            if dt > tol * n or dd > tol * n * scale:
                return f"reduced W({z}) trace/det off the full form by {dt:.2e}/{dd:.2e}"
    return None


def check_spectrum(req, report):
    if "rect" in req.info:
        return _check_rect(req, report)
    problem = req.problem
    model = problem["model"]
    lo, hi = req.info["window"]
    b = _matrix(problem["boundary"])
    kind = model["kind"]
    if kind == "half_line":
        want = ref.halfline_robin_eigs(model["potential"], b[0][0].real, lo, hi)
    elif kind == "finite_interval":
        want = ref.interval_robin_eigs(model["potential"], model["b"], b[0][0].real,
                                       b[1][1].real, lo, hi)
    else:
        want = ref.op_potential_eigs(model["a_diag"], [b[i][i].real for i in range(len(b))], lo, hi)
    got = sorted(e["location"] for e in report["eigenvalues"])
    if len(got) != len(want):
        return f"{len(got)} eigenvalues, closed form has {len(want)}: {got} vs {want}"
    for x, y in zip(got, want):
        if abs(x - y) > TOL_EIG:
            return f"eigenvalue {x} off the secular root {y} by {abs(x - y):.2e}"
    if any(e["multiplicity"] != 1 for e in report["eigenvalues"]):
        return "multiplicity != 1 for a simple eigenvalue"
    if report.get("unresolved"):
        return f"unresolved brackets {report['unresolved']}"
    deltas = report.get("oracle_delta", [])
    if any(d > TOL_ORACLE for d in deltas):
        return f"oracle deltas {deltas} exceed {TOL_ORACLE}"
    return None


def _check_rect(req, report):
    model = req.problem["model"]
    re0, re1, im0, im1 = req.info["rect"]
    b = _matrix(req.problem["boundary"])
    if model["kind"] == "sector":
        zeros = ref.sector_zeros(model["beta"], b[0][0])
    else:
        zeros = ref.op_potential_zeros(model["a_diag"], [b[i][i] for i in range(len(b))])
    want = sum(1 for z in zeros if re0 < z.real < re1 and im0 < z.imag < im1)
    if report["count"] != want:
        return f"count {report['count']} in the rectangle, closed form has {want}"
    if report["boundary_proximity"]:
        return "boundary_proximity flagged for zeros well inside"
    return None


def check_negcount(req, report):
    model = req.problem["model"]
    b = _matrix(req.problem["boundary"])
    kind = model["kind"]
    if kind == "half_line":
        want = ref.halfline_negative_count(model["potential"], b[0][0].real)
    elif kind == "finite_interval":
        want = ref.interval_negative_count(model["potential"], model["b"], b[0][0].real, b[1][1].real)
    else:
        eigs = ref.op_potential_eigs(model["a_diag"], [b[i][i].real for i in range(len(b))],
                                     -math.inf, 0.0)
        want = len(eigs)
    if report["kappa_M"] != want:
        return f"kappa_M = {report['kappa_M']}, oscillation count {want}"
    if report["kappa_oracle"] is not None and report["kappa_oracle"] != want:
        return f"kappa_oracle = {report['kappa_oracle']}, oscillation count {want}"
    return None


def check_krein(req, report):
    model = req.problem["model"]
    got = _matrix(report["B"])
    want = ref.model_M0(model)
    tol = TOL_CLOSED if report["method"] == "closed_form" else TOL_M0_EXTRAPOLATED
    dev = _rel_dev(got, want)
    if dev > tol:
        return f"M(0) off the closed form by {dev:.2e} ({report['method']})"
    if model["kind"] == "operator_potential_halfline":
        robin = _matrix(report["robin_matrix"])
        expect = ref.diag([-math.sqrt(a - 1.0) for a in model["a_diag"]])
        if _rel_dev(robin, expect) > TOL_CLOSED:
            return "Robin form differs from -(A - I)^(1/2)"
    return None


CHECKS = {
    "eval": check_eval,
    "charfn": check_charfn,
    "spectrum": check_spectrum,
    "negcount": check_negcount,
    "krein": check_krein,
}
