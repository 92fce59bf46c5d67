"""Named verification suites: every suite checks one family of claims about
the Weyl-function machinery against closed forms, algebraic identities, or the
finite-difference oracle.  The CLI `verify` subcommand and the acceptance
tests both run these.

Each suite yields its assertions; a suite passes when all of them hold.  A
bound on the largest of several deviations is stated through _within, which
takes a nan deviation for the largest: the bound then fails and its detail
prints nan (max alone keeps or drops a nan by its position).  Tolerances are
fixed here, not configurable: they are the acceptance contract.
"""

from __future__ import annotations

import cmath
import math
import random

from . import charfun, extensions, models, oracle, triplets
from .expr import evaluate as expr_eval
from .expr import parse_potential
from .errors import AccuracyError, ParseError, WeylError
from .linalg import Matrix, det, herm_part, imag_part, inverse, lambda_min
from .slsolve import PotentialSpec, fundamental_system, halfline_m
from .specfun import cpow, sqrt_upper, upper_power
from .values import Value


class Assertion(Value):
    _fields, _defaults = ("label", "ok", "detail"), {"detail": ""}


class SuiteResult(Value):
    """A suite's name and the tuple of its assertions."""

    _fields = ("name", "assertions")

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def to_json(self):
        return {
            "suite": self.name,
            "passed": self.passed,
            "assertions": [
                {"label": a.label, "ok": a.ok, "detail": a.detail} for a in self.assertions
            ],
        }


def _check(label, ok, detail=""):
    return Assertion(label, bool(ok), detail)


def _largest(values) -> float:
    """The largest of values, 0.0 when there is none, nan when any is nan."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values, default=0.0)


def _within(label, deviations, tol, detail):
    """The assertion that the largest of deviations is at most tol; detail is a
    format string for that largest deviation."""
    worst = _largest(deviations)
    return Assertion(label, worst <= tol, detail.format(worst))


def catalog() -> dict:
    """One representative model per kind (the acceptance catalog)."""
    q0 = PotentialSpec.zero()
    return {
        "half_line": models.half_line(q0),
        "finite_interval": models.finite_interval(q0, math.pi),
        "operator_potential_halfline": models.operator_potential_halfline([2.0, 5.0]),
        "strip": models.strip([2.0, 5.0]),
        "corner": models.corner(0.75),
        "sector": models.sector(0.75),
        "multi_corner": models.multi_corner([0.6, 0.85]),
        "radial_schrodinger": models.radial_schrodinger(PotentialSpec.square_well(-1.0, 1.2)),
    }


def _sample_z(rng: random.Random) -> complex:
    """Upper-half-plane sample, |Re z| <= 20 and 0.3 <= Im z <= 20."""
    return complex(rng.uniform(-20.0, 20.0), rng.uniform(0.3, 20.0))


# -- suite: herglotz ----------------------------------------------------------


def suite_herglotz(rng: random.Random):
    for kind, model in catalog().items():
        rel, bad = [], 0
        for _ in range(200):
            m = models.evaluate_matrix(model, _sample_z(rng))
            lam, scale = lambda_min(imag_part(m)), max(m.norm_fro(), 1e-30)
            rel.append(lam / scale)
            bad += not lam >= -1e-9 * scale  # a nan lambda_min fails too
        yield _check(f"herglotz[{kind}]: lambda_min(Im M) >= -1e-9*||M|| at 200 samples",
                     bad == 0, f"worst relative lambda_min {-_largest(-r for r in rel):.3e}")


# -- suite: nevanlinna_kernel --------------------------------------------------


def suite_nevanlinna_kernel(rng: random.Random):
    for kind, model in catalog().items():
        pool = [_sample_z(rng) for _ in range(24)]
        rel, bad = [], 0
        for _ in range(50):
            zs = rng.sample(pool, 5)
            hs = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(model.n)] for _ in zs]
            g = models.nevanlinna_gram(model, zs, hs)
            lam, scale = lambda_min(g), max(g.norm_fro(), 1e-30)
            rel.append(lam / scale)
            bad += not lam >= -1e-8 * scale  # a nan lambda_min fails too
        yield _check(f"nevanlinna[{kind}]: 5-point Gram PSD to -1e-8*||G||, 50 trials",
                     bad == 0, f"worst relative lambda_min {-_largest(-r for r in rel):.3e}")


# -- suite: conjugate_symmetry ---------------------------------------------------


def suite_conjugate_symmetry(rng: random.Random):
    for kind, model in catalog().items():
        devs = []
        for _ in range(6):
            z = _sample_z(rng)
            a = models.evaluate_matrix(model, z.conjugate())
            b = models.evaluate_matrix(model, z).adjoint()
            devs.append((a - b).norm_fro() / max(1.0, b.norm_fro()))
        yield _within(f"conjugate symmetry[{kind}]: M(conj z) = M(z)*", devs, 1e-9,
                      "worst relative deviation {:.3e}")


# -- suite: mh_relation ----------------------------------------------------------


def _closed_form_grid():
    return [complex(-3.0 + 3.2 * i / 9.0, 0.5 + 7.5 * j / 9.0)
            for i in range(10) for j in range(10)]


def suite_mh_relation(rng: random.Random):
    q0 = PotentialSpec.zero()
    grid = _closed_form_grid()
    for h in (-2.0, -0.5, 1.5, 3.0):
        member = models.half_line(q0, h)
        residuals = []
        for z in grid:
            mi = halfline_m(q0, z)
            residuals.append(abs(member.M(z).at(0, 0) * (mi - h) - (1.0 - h * mi)))
        yield _within(f"m_h relation at h={h} on 100-point grid", residuals, 1e-8,
                      "worst residual {:.3e}")


# -- suite: closed_form_halfline ---------------------------------------------------


def suite_closed_form_halfline(rng: random.Random):
    q0 = PotentialSpec.zero()
    yield _within("m_inf = i sqrt_upper(z) for q=0, L=40, 100 points",
                  (abs(halfline_m(q0, z, L=40.0, rtol=1e-12) - 1j * sqrt_upper(z))
                   for z in _closed_form_grid()), 1e-8, "worst |m - i sqrt z| = {:.3e}")
    # truncation convergence: doubling L changes nothing at these z
    yield _within("truncation convergence |m(L=40) - m(L=80)| <= 1e-9",
                  (abs(halfline_m(q0, z, L=40.0) - halfline_m(q0, z, L=80.0))
                   for z in (1j, 2j, -1 + 1j, -2 + 0.5j, 0.2 + 2j)), 1e-9, "worst {:.3e}")


# -- suite: finite_interval_closed_form ----------------------------------------------


def _interval_closed_form(z: complex) -> Matrix:
    s = sqrt_upper(z)
    sb = s * math.pi
    cot = cmath.cos(sb) / cmath.sin(sb)
    csc = 1.0 / cmath.sin(sb)
    return Matrix.from_rows([[-s * cot, s * csc], [s * csc, -s * cot]])


def suite_finite_interval_closed_form(rng: random.Random):
    q0 = PotentialSpec.zero()
    model = models.finite_interval(q0, math.pi)
    pts = [complex(rng.uniform(-6, 6), rng.uniform(0.4, 6)) for _ in range(40)]
    pts += [complex(rng.uniform(-6.0, -0.3), 0.0) for _ in range(10)]
    gaps = (models.evaluate_matrix(model, z) - _interval_closed_form(z) for z in pts)
    yield _within("interval M matches the cot/csc closed form at 50 points",
                  (abs(d) for gap in gaps for d in gap.data), 1e-7, "worst entry deviation {:.3e}")


# -- suite: eigenvalue_correspondence --------------------------------------------------


def suite_eigenvalue_correspondence(rng: random.Random):
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    spec = extensions.extension(hl, -1.0)
    rep = extensions.point_spectrum_real(spec, (-2.0, -0.1), compare_oracle=True)
    ok = len(rep.eigenvalues) == 1 and abs(rep.eigenvalues[0][0] + 1.0) <= 1e-6
    yield _check("Robin h=-1 bound state at -1 within 1e-6 (M-route)", ok,
                 f"found {rep.eigenvalues}")
    ok = rep.oracle_delta is not None and rep.oracle_delta[0] <= 1e-3
    yield _check("Robin h=-1 oracle eigenvalue within 1e-3", ok,
                 f"oracle delta {rep.oracle_delta}")
    spec = extensions.extension(hl, 1.0)
    rep2 = extensions.point_spectrum_real(spec, (-2.0, -0.1))
    yield _check("Robin h=+1 has no eigenvalue below 0", len(rep2.eigenvalues) == 0,
                 f"found {rep2.eigenvalues}")

    fi = models.finite_interval(q0, math.pi)
    spec = extensions.extension(fi, Matrix.zeros(2, 2))
    rep = extensions.point_spectrum_real(spec, (0.5, 9.5), compare_oracle=True)
    locs = [x for x, _ in rep.eigenvalues]
    ok = len(locs) == 3 and all(abs(x - k * k) <= 1e-6 for x, k in zip(locs, (1, 2, 3)))
    yield _check("Neumann-Neumann interval eigenvalues {1,4,9} (M-route)", ok, f"found {locs}")
    rel = [d / k**2 for d, k in zip(rep.oracle_delta, (1, 2, 3))] if rep.oracle_delta else []
    ok = bool(rel) and _largest(rel) <= 5e-6
    yield _check("interval eigenvalues match oracle within 5e-6 relative", ok,
                 f"relative gaps {['%.2e' % r for r in rel]}")

    # bidirectional matching on a well scenario
    well = models.half_line(PotentialSpec.square_well(-2.5, 1.0))
    spec = extensions.extension(well, -0.8)
    rep = extensions.point_spectrum_real(spec, (-3.5, -0.01), compare_oracle=True)
    (op,) = extensions._oracle_operators(spec)
    oracle_evs = [v for v in oracle.lowest_eigenvalues(op, 6) if v < -0.01]
    tol = max(1e-3, 5.0 * op.dx**2)
    ok = (
        len(rep.eigenvalues) == len(oracle_evs)
        and all(d <= tol for d in rep.oracle_delta)
    )
    yield _check("well scenario: M-route and oracle spectra match both ways", ok,
                 f"M-route {[x for x, _ in rep.eigenvalues]}, oracle {oracle_evs}")

    windows = ((extensions.extension(hl, -1.0), (-2.0, -0.1)),
               (extensions.ExtensionSpec(fi, Matrix.zeros(2, 2)), (0.5, 9.5)),
               (extensions.extension(well, -0.8), (-3.5, -0.01)))
    counts = [_count_routes(spec, lo, hi) for spec, (lo, hi) in windows]
    yield _check("N_B(hi) - N_B(lo) equals the oracle's Sturm-count difference",
                 all(a == b for a, b in counts), f"(M-route, oracle) {counts}")

    poles = extensions.model_pole_locations(fi, 0.5, 40.0)
    op = oracle.discretize(q0, math.pi, 2000, None, None)
    dirichlet = [v for v in oracle.lowest_eigenvalues(op, 10, upper=40.0) if v > 0.5]
    ok = len(poles) == len(dirichlet) and all(
        abs(x - v) <= 1e-4 * v for x, v in zip(poles, dirichlet))
    yield _check("interval poles of M on (0.5, 40) are the oracle's Dirichlet eigenvalues (1e-4)",
                 ok, f"M-route {poles}, oracle {dirichlet}")


def _count_routes(spec, lo: float, hi: float):
    """(N_B(hi) - N_B(lo) on the M-route, the oracle's Sturm-count difference)."""
    n_m = spec.model.eigen_count(spec.B, hi) - spec.model.eigen_count(spec.B, lo)
    n_o = sum(oracle.eigen_count_below(op, hi) - oracle.eigen_count_below(op, lo)
              for op in extensions._oracle_operators(spec))
    return n_m, n_o


# -- suite: negative_count ----------------------------------------------------------


def negative_count_scenarios():
    """(label, spec, min q) triples.  min q bounds the real scan of a half-line
    scenario; it is None where no scan runs."""
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    op = models.operator_potential_halfline([2.0, 5.0])
    well_1 = models.half_line(PotentialSpec.square_well(-1.0, 1.2))
    well_5 = models.half_line(PotentialSpec.square_well(-5.0, 0.5))
    exp_well = models.half_line(PotentialSpec.expression("-exp(-x)"))
    return [
        ("half-line q=0, h=-3", extensions.extension(hl, -3.0), 0.0),
        ("half-line q=0, h=-2", extensions.extension(hl, -2.0), 0.0),
        ("half-line q=0, h=-0.5", extensions.extension(hl, -0.5), 0.0),
        ("half-line q=0, h=+1", extensions.extension(hl, 1.0), 0.0),
        ("square well depth -1 width 1.2, Neumann", extensions.extension(well_1, 0.0), -1.0),
        ("square well depth -5 width 0.5, Neumann", extensions.extension(well_5, 0.0), -5.0),
        ("square well depth -5 width 0.5, h=-1.5", extensions.extension(well_5, -1.5), -5.0),
        # M(0) = J1(2)/J0(2) = 2.5759; with h = 2 the eigenvalue (about -1.3e-3)
        # lies above the scan window, too close to 0 for the truncation cap
        ("q = -exp(-x), Neumann", extensions.extension(exp_well, 0.0), -1.0),
        ("q = -exp(-x), h=2", extensions.extension(exp_well, 2.0), None),
        ("operator potential diag(2,5), B=diag(0,5)", extensions.ExtensionSpec(
            op, Matrix.diag([0.0, 5.0])), None),
        ("operator potential diag(2,5), B=diag(-1,0)", extensions.ExtensionSpec(
            op, Matrix.diag([-1.0, 0.0])), None),
    ]


def suite_negative_count(rng: random.Random):
    for label, spec, q_min in negative_count_scenarios():
        kappa_m, kappa_oracle = extensions.negative_count(spec)
        yield _check(f"negative count equality [{label}]",
                     kappa_oracle is not None and kappa_m == kappa_oracle,
                     f"M-route {kappa_m}, oracle {kappa_oracle}")
        if q_min is not None:
            # the form bound A_h >= min q - h^2 puts every eigenvalue above the window
            h = spec.B.at(0, 0).real
            window = (q_min - h * h - 1.0, -0.01)
            rep = extensions.point_spectrum_real(spec, window)
            scanned = sum(mult for _x, mult in rep.eigenvalues)
            yield _check(f"negative count equals the real scan [{label}]",
                         kappa_m == scanned, f"M-route {kappa_m}, scan {scanned}")
            n_m, n_o = _count_routes(spec, *window)
            yield _check(f"N_B difference on the scan window equals the oracle's [{label}]",
                         n_m == n_o, f"M-route {n_m}, oracle {n_o}")
    # monotonicity behind the count law: lambda_min(B - M(x)) non-increasing
    hl = models.half_line(PotentialSpec.zero())
    vals = []
    for x in [-4.0 + 0.35 * k for k in range(11)]:
        m = models.evaluate_matrix(hl, complex(x))
        vals.append(lambda_min(herm_part(Matrix.scalar(-2.0) - m)))
    mono = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    yield _check("lambda_min(B - M(x)) non-increasing on (-inf, 0)", mono, f"values {vals[:3]}...")


# -- suite: krein_extension -----------------------------------------------------------


def suite_krein_extension(rng: random.Random):
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    kr = extensions.krein_extension(hl)
    yield _check("half-line q=0 Krein boundary operator is 0 (Neumann)",
                 kr.B.norm_fro() <= 1e-9, f"B = {kr.B.at(0,0)}")
    (op_h,) = extensions._oracle_operators(kr)
    low = oracle.lowest_eigenvalues(op_h, 1)[0]
    yield _check("half-line Krein oracle spectrum >= -1e-5", low >= -1e-5, f"lowest {low:.3e}")

    m = models.operator_potential_halfline([2.0, 5.0])
    kr = extensions.krein_extension(m)
    robin = m.robin_matrix(kr.B)
    target = Matrix.diag([-1.0, -2.0])
    dev = (robin - target).norm_fro()
    yield _check("Krein condition y'(0) = -(A-I)^(1/2) y(0) for A=diag(2,5), exactly",
                 dev <= 1e-12, f"deviation {dev:.3e}")
    for op_d in extensions._oracle_operators(kr):
        low = oracle.lowest_eigenvalues(op_d, 1)[0]
        yield _check("operator-potential Krein mode oracle spectrum >= -1e-5",
                     low >= -1e-5, f"lowest {low:.3e}")
    kappa_m, kappa_oracle = extensions.negative_count(kr)
    yield _check("Krein extension negative count is 0 (both routes)",
                 kappa_m == 0 and kappa_oracle == 0, f"{kappa_m}, {kappa_oracle}")

    sec = models.sector(0.75)
    kr_s = extensions.krein_extension(sec)
    norm = kr_s.B.norm_fro()
    yield _check("sector Krein boundary operator is 0 (M(0)=0)", norm == 0.0, f"||B|| {norm:.3e}")


# -- suite: transform_invariance -------------------------------------------------------


def _rational_herglotz(rng: random.Random, n: int, poles):
    h0 = triplets._random_hermitian(rng, n)
    residues = []
    for _ in poles:
        g = triplets._random_hermitian(rng, n) + Matrix.identity(n).scale(0.6)
        residues.append(g @ g)

    def evaluate_at(z: complex) -> Matrix:
        acc = h0
        for lam, r in zip(poles, residues):
            acc = acc + r.scale(1.0 / (lam - z))
        return acc

    return evaluate_at


def suite_transform_invariance(rng: random.Random):
    poles = (-3.0, -1.2)
    window = (-6.0, -0.2)
    matched = 0
    total_roots = 0
    attempted = 0
    worst_shift = 0.0
    while attempted < 20:
        n = rng.choice((1, 2))
        m_fn = _rational_herglotz(rng, n, poles)
        b = triplets._random_hermitian(rng, n)

        def f(x):
            return det(m_fn(complex(x)) - b).real

        roots = []
        cuts = [window[0]] + list(poles) + [window[1]]
        for a, c in zip(cuts, cuts[1:]):
            roots.extend(extensions.scan_sign_changes(f, a + 1e-6, c - 1e-6, 200))
        # keep only well-isolated roots so the transformed bracket holds one zero
        roots = [
            x for x in roots
            if all(abs(x - y) > 2.5e-3 for y in roots if y is not x)
            and all(abs(x - p) > 2.5e-3 for p in poles)
        ]
        if not roots:
            continue
        t = triplets.sample_transform(rng, n)
        try:
            bt = triplets.transform_boundary_operator(t, b)
        except WeylError:
            continue  # B outside the transform's admissible set: fresh draw
        ok_all = True
        for x0 in roots:

            def ft(x):
                mt = triplets.transform_weyl(t, m_fn(complex(x)))
                return det(mt - bt).real

            # shrink the bracket until no transformed pole (singular Mobius
            # denominator) sits inside it; the root itself is unaffected
            root_matched = False
            for delta in (1e-3, 1e-4, 1e-5):
                lo, hi = x0 - delta, x0 + delta
                dvals = []
                for x in (lo, 0.5 * (lo + hi), hi):
                    dvals.append(abs(det(t.X21 @ m_fn(complex(x)) + t.X22)))
                if min(dvals) < 1e-5 * max(dvals):
                    continue
                try:
                    sub = extensions.scan_sign_changes(ft, lo, hi, 64)
                except WeylError:
                    continue
                if len(sub) == 1 and abs(sub[0] - x0) <= 1e-8:
                    root_matched = True
                    worst_shift = max(worst_shift, abs(sub[0] - x0))
                    break
            if not root_matched:
                ok_all = False
                break
        attempted += 1
        total_roots += len(roots)
        if ok_all:
            matched += 1
    yield _check("20 random transforms reproduce eigenvalue sets within 1e-8",
                 matched == attempted,
                 f"{matched}/{attempted} transforms, {total_roots} roots, "
                 f"worst shift {worst_shift:.2e}")

    # integration-backed anchor: rotated triplet on the Neumann interval problem
    q0 = PotentialSpec.zero()
    model = models.finite_interval(q0, math.pi)
    th = 0.4
    ident = Matrix.identity(2)
    t = triplets.make_transform(ident, ident.scale(math.cos(th)), ident.scale(math.sin(th)),
                                ident.scale(-math.sin(th)), ident.scale(math.cos(th)))
    bt = triplets.transform_boundary_operator(t, Matrix.zeros(2, 2))

    def traces(x):  # Y0 and Y1, the triplet's images of the solution basis
        u1b, u1pb, u2b, u2pb, _ = fundamental_system(q0, math.pi, complex(x))
        return Matrix.from_rows([[1.0, 0.0], [u1b, u2b]]), Matrix.from_rows([[0.0, 1.0], [-u1pb, -u2pb]])

    def mt_of(x):
        y0, y1 = traces(x)
        num = y1.scale(math.cos(th)) + y0.scale(math.sin(th))
        den = y1.scale(-math.sin(th)) + y0.scale(math.cos(th))
        return num @ inverse(den)

    def denominator_det(x):
        y0, y1 = traces(x)
        return det(y1.scale(-math.sin(th)) + y0.scale(math.cos(th))).real

    new_poles = extensions.scan_sign_changes(denominator_det, 0.5, 9.5, 256)

    def ft(x):
        return det(herm_part(mt_of(x) - bt)).real

    roots = []
    cuts = [0.5] + new_poles + [9.5]
    for a, c in zip(cuts, cuts[1:]):
        roots.extend(extensions.scan_sign_changes(ft, a + 1e-7, c - 1e-7, 128))
    ok = len(roots) == 3 and all(abs(r - k * k) <= 1e-8 for r, k in zip(sorted(roots), (1, 2, 3)))
    yield _check("rotated interval triplet reproduces {1,4,9}", ok, f"roots {sorted(roots)}")


# -- suite: charfun_identities -----------------------------------------------------------


def suite_charfun_identities(rng: random.Random):
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    fi = models.finite_interval(q0, math.pi)
    sec = models.sector(0.75)
    beta = 0.75
    cb = models.sector_constant(beta)
    h_sector = 0.8 + 1.3j

    cases = []
    for _ in range(36):
        cases.append((hl, Matrix.scalar(1j), _sample_z(rng)))
    bf = Matrix.from_rows([[1 + 1j, 0.3], [0.3, -0.5 - 0.7j]])
    for _ in range(32):
        cases.append((fi, bf, complex(rng.uniform(-3, 3), rng.uniform(0.4, 6))))
    for _ in range(32):
        cases.append((sec, Matrix.scalar(cb * h_sector), _sample_z(rng)))

    cayley, jc_rel = [], []
    for model, b, z in cases:
        col = charfun.factor_colligation(b)
        mz = models.evaluate_matrix(model, z)
        w = charfun.char_function_colligation(col, mz)
        v = charfun.v_function(col, mz)
        cayley.append(charfun.cayley_check(col, w, v))
        jc = col.J - w.adjoint() @ col.J @ w
        jc_rel.append(lambda_min(jc) / max(1.0, jc.norm_fro()))
    yield _within("Cayley identity residual <= 1e-10 at 100 matched points", cayley, 1e-10,
                  "worst residual {:.3e}")
    worst_jc = -_largest(-r for r in jc_rel)  # the smallest; nan when any is nan
    yield _check("J-contractivity lambda_min(J - W*JW) >= -1e-8 in C+",
                 worst_jc >= -1e-8, f"worst relative lambda_min {worst_jc:.3e}")

    # negative control: mismatched (W, V) pairs must fail loudly
    col = charfun.factor_colligation(Matrix.scalar(1j))
    w = charfun.char_function_colligation(col, models.evaluate_matrix(hl, 2j))
    v = charfun.v_function(col, models.evaluate_matrix(hl, 3j))
    residual = charfun.cayley_check(col, w, v)
    yield _check("mismatched Cayley pair rejected (residual >> 1e-6)", residual > 1e-6,
                 f"residual {residual:.3e}")

    # resolvent form vs colligation form, the former by the route `charfn` takes
    gaps = []
    for _ in range(20):
        mz = models.evaluate_matrix(hl, _sample_z(rng))
        w47 = charfun.char_function_from_m(col, mz)
        w49 = charfun.char_function_colligation(col, mz)
        gaps.append(abs(w47.at(0, 0) - w49.at(0, 0)))
    yield _within("scalar resolvent and colligation forms agree to 1e-10", gaps, 1e-10,
                  "worst {:.3e}")
    bd = Matrix.from_rows([[0.5 + 1j, 0.2 - 0.1j], [0.2 + 0.1j, -0.3 + 2j]])
    cold = charfun.factor_colligation(bd)
    gaps = []
    for _ in range(12):
        mz = models.evaluate_matrix(fi, complex(rng.uniform(-3, 3), rng.uniform(0.4, 6)))
        wf = charfun.char_function_from_m(cold, mz)
        wr = charfun.char_function_colligation(cold, mz)
        gaps.append((cold.K.adjoint() @ wf - wr @ cold.K.adjoint()).norm_fro())
    yield _within("matrix forms intertwined by K* to 1e-10 (definite Im B)", gaps, 1e-10,
                  "worst {:.3e}")

    # sector: closed linear-fractional form and its modulus display
    spec_s = extensions.extension(sec, cb * h_sector)
    closed_gaps, mod_gaps = [], []
    twist = cmath.exp(2j * beta * math.pi)
    g = cmath.exp(-1j * beta * math.pi) * h_sector
    for _ in range(25):
        z = _sample_z(rng)
        w = charfun.char_function(spec_s, z).at(0, 0)
        zb = upper_power(z, beta)
        closed_gaps.append(abs(w - (zb + h_sector) / (zb + twist * h_sector.conjugate())))
        zeta = cpow(-z, beta)
        mod_gaps.append(abs(abs(w) - abs((zeta + g) / (zeta + g.conjugate()))))
    yield _within("sector W(z) = (z^b + h)/(z^b + e^{2ib pi} conj h) to 1e-9", closed_gaps, 1e-9,
                  "worst {:.3e}")
    yield _within("sector |W| matches the phase-absorbed display form to 1e-9", mod_gaps, 1e-9,
                  "worst {:.3e}")

    spec_d = extensions.extension(hl, 1j)
    worst = _largest(abs(charfun.char_function(spec_d, _sample_z(rng)).at(0, 0)) for _ in range(15))
    yield _check("scalar dissipative |W| < 1 on the upper half-plane", worst < 1.0,
                 f"max |W| {worst:.6f}")


# -- suite: resolvent_rank_law -------------------------------------------------------------


def suite_resolvent_rank_law(rng: random.Random):
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    fi = models.finite_interval(q0, math.pi)
    op = models.operator_potential_halfline([2.0, 5.0])
    scenarios = [
        ("scalar equal boundary", extensions.extension(hl, -1.0),
         extensions.extension(hl, -1.0), 0),
        ("scalar h=-1 vs h=1", extensions.extension(hl, -1.0),
         extensions.extension(hl, 1.0), 1),
        ("scalar h=-2 vs h=3", extensions.extension(hl, -2.0),
         extensions.extension(hl, 3.0), 1),
        ("interval diag diff rank 1", extensions.ExtensionSpec(fi, Matrix.diag([1.0, 0.5])),
         extensions.ExtensionSpec(fi, Matrix.diag([0.0, 0.5])), 1),
        ("interval diag diff rank 2", extensions.ExtensionSpec(fi, Matrix.diag([1.0, 1.2])),
         extensions.ExtensionSpec(fi, Matrix.diag([0.0, 0.5])), 2),
        ("interval equal", extensions.ExtensionSpec(fi, Matrix.diag([0.7, -0.4])),
         extensions.ExtensionSpec(fi, Matrix.diag([0.7, -0.4])), 0),
        ("interval full Hermitian diff rank 2",
         extensions.ExtensionSpec(fi, Matrix.from_rows([[1.0, 0.4], [0.4, -0.2]])),
         extensions.ExtensionSpec(fi, Matrix.from_rows([[0.2, -0.1], [-0.1, 0.6]])), 2),
        ("operator potential diff rank 1", extensions.ExtensionSpec(op, Matrix.diag([0.0, 5.0])),
         extensions.ExtensionSpec(op, Matrix.diag([-1.0, 5.0])), 1),
        ("operator potential diff rank 2", extensions.ExtensionSpec(op, Matrix.diag([0.0, 4.0])),
         extensions.ExtensionSpec(op, Matrix.diag([-1.0, 5.0])), 2),
        ("scalar dissipative pair", extensions.extension(hl, 1j),
         extensions.extension(hl, 2j), 1),
    ]
    for label, s1, s2, expected in scenarios:
        rep = extensions.resolvent_rank_law(s1, s2, 0.7 + 1.3j, 0.4 + 2.2j)
        ok = rep.agree and rep.rank_difference == expected
        yield _check(f"rank law [{label}]: all routes = {expected}", ok,
                     f"weyl {rep.rank_weyl}, parameter {rep.rank_resolvent_parameter}, "
                     f"difference {rep.rank_difference}, oracle {rep.rank_oracle}")
    # desk form of the resolvent formula: oracle difference vs gamma (m - h)^-1 gamma*
    residual = _krein_resolvent_formula_check()
    yield _check("Krein resolvent formula vs oracle on a test vector", residual <= 5e-3,
                 f"relative residual {residual:.3e}")


def _krein_resolvent_formula_check() -> float:
    """(A_0-z)^-1 - (A_h-z)^-1 applied to a test vector vs gamma (m-h)^-1 <.,gamma>."""
    q0 = PotentialSpec.zero()
    h = 1.0
    z = -2.0
    n, L = 4000, 40.0
    op_d = oracle.discretize(q0, L, n, None, None)
    op_h = oracle.discretize(q0, L, n, h, None)
    dx = op_d.dx
    probe_full = [math.exp(-((i * dx - 7.0) ** 2)) for i in range(n + 1)]
    u_d = oracle.resolvent_apply_samples(op_d, z, probe_full[1:n])
    u_h = oracle.resolvent_apply_samples(op_h, z, probe_full[0:n])
    diff = []
    for i in range(n + 1):
        a = u_d[i - 1] if 1 <= i <= n - 1 else 0.0
        b = u_h[i] if i <= n - 1 else 0.0
        diff.append(a - b)
    kappa = math.sqrt(-z)
    m = -kappa
    gamma = [math.exp(-kappa * i * dx) for i in range(n + 1)]
    inner = sum(g * p for g, p in zip(gamma, probe_full)) * dx
    predicted = [g * inner / (m - h) for g in gamma]
    num = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(diff, predicted)))
    den = math.sqrt(sum(abs(b) ** 2 for b in predicted))
    return num / den


# -- suite: corner_sector_anchors ---------------------------------------------------------


def suite_corner_sector_anchors(rng: random.Random):
    co = models.corner(0.75)
    r = models.m_at_zero(co)
    yield _check("corner M(0) = -1 exactly (closed form)",
                 r.method == "closed_form" and r.value.at(0, 0) == -1.0,
                 f"M(0) = {r.value.at(0,0)}")
    mc = models.multi_corner([0.6, 0.85])
    r = models.m_at_zero(mc)
    yield _check("multi-corner M(0) = -I exactly (closed form)",
                 r.method == "closed_form" and r.value == Matrix.diag([-1.0, -1.0]),
                 f"M(0) = {r.value}")

    sec = models.sector(0.75)
    r = models.m_at_zero(sec)
    norm = r.value.norm_fro()
    yield _check("sector M(0) = 0 exactly (closed form)",
                 r.method == "closed_form" and norm == 0.0, f"method {r.method}, ||M(0)|| {norm:.3e}")

    # Stieltjes ray: phases cancel, M(x) is real with the |x|^beta power law
    cb_mod = abs(models.sector_constant(0.75))
    xs = [-4.0 + 0.12 * k for k in range(32)]
    vs = [models.evaluate(sec, complex(x))[0] for x in xs]
    yield _within("sector M(x) real on x<0 to 1e-10 (phase cancellation)",
                  (abs(v.imag) for v in vs), 1e-10, "worst imag {:.3e}")
    yield _within("sector M(x) = -|C_b| |x|^b on x<0 to 1e-10",
                  (abs(v.real - (-cb_mod * abs(x) ** 0.75)) for x, v in zip(xs, vs)), 1e-10,
                  "worst deviation {:.3e}")
    rep = models.classify_stieltjes(sec, xs)
    yield _check("sector Stieltjes scan: monotone and bounded below",
                 rep.verdict == "consistent with (S-hat)", rep.verdict)

    z = 1.2 + 0.9j
    m = models.evaluate_matrix(mc, z)
    devs = (
        abs(m.at(0, 0) - models.evaluate(models.corner(0.6), z)[0]),
        abs(m.at(1, 1) - models.evaluate(models.corner(0.85), z)[0]),
        abs(m.at(0, 1)),
        abs(m.at(1, 0)),
    )
    yield _within("multi-corner M is the diagonal of corner scalars", devs, 0.0, "dev {:.1e}")
    refused = 0
    for model in (co, mc):
        for z in (1500 + 3j, 400 + 5j):  # near the positive axis the Bessel series cancels
            try:
                models.evaluate(model, z)
            except AccuracyError:
                refused += 1
    yield _check("corner and multi-corner refuse M(1500+3i) and M(400+5i)", refused == 4,
                 f"{refused}/4 refused")
    anchors = ((100 + 10j, 6.510717408291045 + 59.099186267507235j, 1e-11),  # mpmath, 40 digits
               (150 + 1j, 92.3542942848276 + 4.615197915832667j, 1e-10),
               (-1500, -336.1703969507669, 1e-13))
    yield _within("corner M at 100+10i, 150+i, -1500 within 1e-11, 1e-10, 1e-13 of mpmath",
                  (abs(models.evaluate(co, z)[0] - v) / (rtol * abs(v))
                   for z, v, rtol in anchors), 1.0, "worst error / tolerance {:.2e}")

    evs = oracle.corner_friedrichs_eigenvalues(0.75, 2)
    ok = math.pi**2 < evs[0] < 3.8318**2 and evs[0] < evs[1]
    yield _check("corner reference spectrum interlaces the half-integer Bessel zeros",
                 ok, f"first two {evs}")

    rad = models.radial_schrodinger(PotentialSpec.square_well(-1.0, 1.2))
    gaps = []
    for _ in range(5):
        z = _sample_z(rng)
        ref = _square_well_closed_form(z, -1.0, 1.2)
        gaps.append(abs(models.evaluate(rad, z)[0] - ref) / abs(ref))
    yield _within("radial square well M is the matched-exponential closed form (relative 1e-12)",
                  gaps, 1e-12, "worst relative deviation {:.1e}")


def _square_well_closed_form(z: complex, depth: float, width: float) -> complex:
    """psi'(0)/psi(0) for the solution psi in L^2(0, inf) of -psi'' + q psi =
    z psi, q = depth on [0, width) and 0 beyond: psi is exp(i sqrt_upper(z) x)
    past width, so psi'/psi = -kappa there, and a combination of cosh kx and
    sinh kx before it, k^2 = depth - z.  Even in k: either root serves."""
    kappa = -1j * sqrt_upper(z)
    k = cmath.sqrt(depth - z)
    c, s = cmath.cosh(k * width), cmath.sinh(k * width)
    return -(k * s + kappa * c) / (c + kappa * s / k)


# -- suite: oracle_convergence ---------------------------------------------------------------


def suite_oracle_convergence(rng: random.Random):
    q0 = PotentialSpec.zero()

    def lowest_err(n):
        op = oracle.discretize(q0, math.pi, n, None, None)
        return abs(oracle.lowest_eigenvalues(op, 1)[0] - 1.0)

    factor = lowest_err(500) / lowest_err(1000)
    yield _check("second-order convergence factor in [3.5, 4.5]", 3.5 <= factor <= 4.5,
                 f"factor {factor:.3f}")

    op = oracle.discretize(q0, math.pi, 2000, None, None)
    evs = oracle.lowest_eigenvalues(op, 4)
    count = oracle.eigen_count_below(op, 10.0)
    ok = count == 3 and sum(1 for v in evs if v < 10.0) == 3
    yield _check("Sturm count at mu=10 equals bisection count (exact)", ok,
                 f"count {count}, eigenvalues {evs}")
    op = oracle.discretize(q0, 40.0, 4000, -2.0, None)
    count = oracle.eigen_count_below(op, 0.0)
    yield _check("Robin h=-2 Sturm count below 0 is 1", count == 1, f"count {count}")
    count = oracle.eigen_count_below(op, -30.0)
    yield _check("count below the spectrum floor is 0", count == 0, f"count {count}")

    low40 = oracle.lowest_eigenvalues(oracle.discretize(q0, 40.0, 4000, -2.0, None), 1)[0]
    low50 = oracle.lowest_eigenvalues(oracle.discretize(q0, 50.0, 5000, -2.0, None), 1)[0]
    yield _check("bound state insensitive to truncation (L -> L+10)",
                 abs(low40 - low50) < 1e-8, f"shift {abs(low40 - low50):.2e}")


# -- suite: expression_parser -------------------------------------------------------------------


def suite_expression_parser(rng: random.Random):
    val = expr_eval(parse_potential("-2*exp(-x)"), 0.0)
    yield _check("-2*exp(-x) at x=0 evaluates to -2", abs(val + 2.0) < 1e-15, f"value {val}")
    val = expr_eval(parse_potential("1/(1+x^2)"), 1.0)
    yield _check("1/(1+x^2) at x=1 evaluates to 0.5", abs(val - 0.5) < 1e-15, f"value {val}")
    try:
        parse_potential("2*-")
        yield _check("malformed '2*-' rejected with position", False, "no error raised")
    except ParseError as e:
        yield _check("malformed '2*-' rejected with position", e.column == 3,
                     f"column {e.column}")
    ast = parse_potential("2^-2*x^2^2")
    val = expr_eval(ast, 3.0)
    yield _check("precedence: 2^-2*x^2^2 = x^4/4", abs(val - 81.0 / 4.0) < 1e-12, f"value {val}")
    val = expr_eval(parse_potential("sqrt(abs(x)) + sin(x)*cos(x)"), 2.0)
    yield _check("function grammar evaluates",
                 abs(val - (math.sqrt(2) + math.sin(2) * math.cos(2))) < 1e-13, f"value {val}")


SUITES = {
    "herglotz": suite_herglotz,
    "nevanlinna_kernel": suite_nevanlinna_kernel,
    "conjugate_symmetry": suite_conjugate_symmetry,
    "mh_relation": suite_mh_relation,
    "closed_form_halfline": suite_closed_form_halfline,
    "finite_interval_closed_form": suite_finite_interval_closed_form,
    "eigenvalue_correspondence": suite_eigenvalue_correspondence,
    "negative_count": suite_negative_count,
    "krein_extension": suite_krein_extension,
    "transform_invariance": suite_transform_invariance,
    "charfun_identities": suite_charfun_identities,
    "resolvent_rank_law": suite_resolvent_rank_law,
    "corner_sector_anchors": suite_corner_sector_anchors,
    "oracle_convergence": suite_oracle_convergence,
    "expression_parser": suite_expression_parser,
}

ACCEPTANCE_MAP = (
    (1, "herglotz"),
    (2, "nevanlinna_kernel"),
    (3, "mh_relation"),
    (4, "closed_form_halfline"),
    (5, "finite_interval_closed_form"),
    (6, "eigenvalue_correspondence"),
    (7, "negative_count"),
    (8, "krein_extension"),
    (9, "transform_invariance"),
    (10, "charfun_identities"),
    (11, "resolvent_rank_law"),
    (12, "corner_sector_anchors"),
    (13, "oracle_convergence"),
)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Run one suite; a WeylError raised inside it becomes one failed assertion."""
    if name not in SUITES:
        raise WeylError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    rng = random.Random(f"{seed}:{name}")
    try:
        assertions = tuple(SUITES[name](rng))
    except WeylError as e:
        assertions = (Assertion(f"{name}: suite raised", False, f"{type(e).__name__}: {e}"),)
    return SuiteResult(name, assertions)


def run_suites(names, seed: int = 0):
    return [run_suite(name, seed) for name in names]
