"""Named verification suites: every suite checks one family of claims about
the Weyl-function machinery against closed forms, algebraic identities, or the
finite-difference oracle.  The CLI `verify` subcommand and the acceptance
tests both run these.

Each suite returns a list of assertions; a suite passes when all of them
hold.  Tolerances are fixed here, not configurable: they are the acceptance
contract.
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
    """A suite's name and its assertions, which run_suite assigns: unlike
    other Values it is mutable, and so unhashable."""

    _fields = ("name", "assertions")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, name: str, assertions: list | None = None):
        super().__init__(name, [] if assertions is None else assertions)

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


def _check(out, label, ok, detail=""):
    out.append(Assertion(label, bool(ok), detail))


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
    out = []
    for kind, model in catalog().items():
        worst = math.inf
        bad = 0
        for _ in range(200):
            z = _sample_z(rng)
            m = models.evaluate(model, z)
            lam = lambda_min(imag_part(m))
            scale = max(m.norm_fro(), 1e-30)
            worst = min(worst, lam / scale)
            if lam < -1e-9 * scale:
                bad += 1
        _check(
            out,
            f"herglotz[{kind}]: lambda_min(Im M) >= -1e-9*||M|| at 200 samples",
            bad == 0,
            f"worst relative lambda_min {worst:.3e}",
        )
    return out


# -- suite: nevanlinna_kernel --------------------------------------------------


def suite_nevanlinna_kernel(rng: random.Random):
    out = []
    for kind, model in catalog().items():
        pool = [_sample_z(rng) for _ in range(24)]
        worst = math.inf
        bad = 0
        for _ in range(50):
            zs = rng.sample(pool, 5)
            hs = [
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(model.n)]
                for _ in zs
            ]
            g = models.nevanlinna_gram(model, zs, hs)
            lam = lambda_min(g)
            scale = max(g.norm_fro(), 1e-30)
            worst = min(worst, lam / scale)
            if lam < -1e-8 * scale:
                bad += 1
        _check(
            out,
            f"nevanlinna[{kind}]: 5-point Gram PSD to -1e-8*||G||, 50 trials",
            bad == 0,
            f"worst relative lambda_min {worst:.3e}",
        )
    return out


# -- suite: conjugate_symmetry ---------------------------------------------------


def suite_conjugate_symmetry(rng: random.Random):
    out = []
    for kind, model in catalog().items():
        worst = 0.0
        for _ in range(6):
            z = _sample_z(rng)
            a = models.evaluate(model, z.conjugate())
            b = models.evaluate(model, z).adjoint()
            worst = max(worst, (a - b).norm_fro() / max(1.0, b.norm_fro()))
        _check(out, f"conjugate symmetry[{kind}]: M(conj z) = M(z)*", worst <= 1e-9,
               f"worst relative deviation {worst:.3e}")
    return out


# -- suite: mh_relation ----------------------------------------------------------


def _closed_form_grid():
    grid = []
    for i in range(10):
        for j in range(10):
            grid.append(complex(-3.0 + 3.2 * i / 9.0, 0.5 + 7.5 * j / 9.0))
    return grid


def suite_mh_relation(rng: random.Random):
    out = []
    q0 = PotentialSpec.zero()
    grid = _closed_form_grid()
    for h in (-2.0, -0.5, 1.5, 3.0):
        worst = 0.0
        member = models.half_line(q0, h)
        for z in grid:
            mi = halfline_m(q0, z)
            mh = member.M(z).at(0, 0)
            worst = max(worst, abs(mh * (mi - h) - (1.0 - h * mi)))
        _check(out, f"m_h relation at h={h} on 100-point grid", worst <= 1e-8,
               f"worst residual {worst:.3e}")
    return out


# -- suite: closed_form_halfline ---------------------------------------------------


def suite_closed_form_halfline(rng: random.Random):
    out = []
    q0 = PotentialSpec.zero()
    worst = 0.0
    for z in _closed_form_grid():
        m = halfline_m(q0, z, L=40.0, rtol=1e-12)
        worst = max(worst, abs(m - 1j * sqrt_upper(z)))
    _check(out, "m_inf = i sqrt_upper(z) for q=0, L=40, 100 points", worst <= 1e-8,
           f"worst |m - i sqrt z| = {worst:.3e}")
    # truncation convergence: doubling L changes nothing at these z
    worst = 0.0
    for z in (1j, 2j, -1 + 1j, -2 + 0.5j, 0.2 + 2j):
        worst = max(worst, abs(halfline_m(q0, z, L=40.0) - halfline_m(q0, z, L=80.0)))
    _check(out, "truncation convergence |m(L=40) - m(L=80)| <= 1e-9", worst <= 1e-9,
           f"worst {worst:.3e}")
    return out


# -- suite: finite_interval_closed_form ----------------------------------------------


def _interval_closed_form(z: complex) -> Matrix:
    s = sqrt_upper(z)
    sb = s * math.pi
    cot = cmath.cos(sb) / cmath.sin(sb)
    csc = 1.0 / cmath.sin(sb)
    return Matrix.from_rows([[-s * cot, s * csc], [s * csc, -s * cot]])


def suite_finite_interval_closed_form(rng: random.Random):
    out = []
    q0 = PotentialSpec.zero()
    model = models.finite_interval(q0, math.pi)
    pts = [complex(rng.uniform(-6, 6), rng.uniform(0.4, 6)) for _ in range(40)]
    pts += [complex(rng.uniform(-6.0, -0.3), 0.0) for _ in range(10)]
    worst = 0.0
    for z in pts:
        m = models.evaluate(model, z)
        ref = _interval_closed_form(z)
        worst = max(worst, max(abs(m.at(i, j) - ref.at(i, j)) for i in range(2) for j in range(2)))
    _check(out, "interval M matches the cot/csc closed form at 50 points", worst <= 1e-7,
           f"worst entry deviation {worst:.3e}")
    return out


# -- suite: eigenvalue_correspondence --------------------------------------------------


def suite_eigenvalue_correspondence(rng: random.Random):
    out = []
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    spec = extensions.extension(hl, -1.0)
    rep = extensions.point_spectrum_real(spec, (-2.0, -0.1), compare_oracle=True)
    ok = len(rep.eigenvalues) == 1 and abs(rep.eigenvalues[0][0] + 1.0) <= 1e-6
    _check(out, "Robin h=-1 bound state at -1 within 1e-6 (M-route)", ok,
           f"found {rep.eigenvalues}")
    ok = rep.oracle_delta is not None and rep.oracle_delta[0] <= 1e-3
    _check(out, "Robin h=-1 oracle eigenvalue within 1e-3", ok,
           f"oracle delta {rep.oracle_delta}")
    spec = extensions.extension(hl, 1.0)
    rep2 = extensions.point_spectrum_real(spec, (-2.0, -0.1))
    _check(out, "Robin h=+1 has no eigenvalue below 0", len(rep2.eigenvalues) == 0,
           f"found {rep2.eigenvalues}")

    fi = models.finite_interval(q0, math.pi)
    spec = extensions.extension(fi, Matrix.zeros(2, 2))
    rep = extensions.point_spectrum_real(spec, (0.5, 9.5), compare_oracle=True)
    locs = [x for x, _ in rep.eigenvalues]
    ok = len(locs) == 3 and all(abs(x - k * k) <= 1e-6 for x, k in zip(locs, (1, 2, 3)))
    _check(out, "Neumann-Neumann interval eigenvalues {1,4,9} (M-route)", ok, f"found {locs}")
    rel = [d / k**2 for d, k in zip(rep.oracle_delta, (1, 2, 3))] if rep.oracle_delta else []
    ok = bool(rel) and max(rel) <= 5e-6
    _check(out, "interval eigenvalues match oracle within 5e-6 relative", ok,
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
    _check(out, "well scenario: M-route and oracle spectra match both ways", ok,
           f"M-route {[x for x, _ in rep.eigenvalues]}, oracle {oracle_evs}")

    windows = ((extensions.extension(hl, -1.0), (-2.0, -0.1)),
               (extensions.ExtensionSpec(fi, Matrix.zeros(2, 2)), (0.5, 9.5)),
               (extensions.extension(well, -0.8), (-3.5, -0.01)))
    counts = [_count_routes(spec, lo, hi) for spec, (lo, hi) in windows]
    _check(out, "N_B(hi) - N_B(lo) equals the oracle's Sturm-count difference",
           all(a == b for a, b in counts), f"(M-route, oracle) {counts}")

    poles = extensions.model_pole_locations(fi, 0.5, 40.0)
    op = oracle.discretize(q0, math.pi, 2000, None, None)
    dirichlet = [v for v in oracle.lowest_eigenvalues(op, 10, upper=40.0) if v > 0.5]
    ok = len(poles) == len(dirichlet) and all(
        abs(x - v) <= 1e-4 * v for x, v in zip(poles, dirichlet))
    _check(out, "interval poles of M on (0.5, 40) are the oracle's Dirichlet eigenvalues (1e-4)",
           ok, f"M-route {poles}, oracle {dirichlet}")
    return out


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
    out = []
    for label, spec, q_min in negative_count_scenarios():
        kappa_m, kappa_oracle = extensions.negative_count(spec)
        _check(out, f"negative count equality [{label}]",
               kappa_oracle is not None and kappa_m == kappa_oracle,
               f"M-route {kappa_m}, oracle {kappa_oracle}")
        if q_min is not None:
            # the form bound A_h >= min q - h^2 puts every eigenvalue above the window
            h = spec.B.at(0, 0).real
            window = (q_min - h * h - 1.0, -0.01)
            rep = extensions.point_spectrum_real(spec, window)
            scanned = sum(mult for _x, mult in rep.eigenvalues)
            _check(out, f"negative count equals the real scan [{label}]",
                   kappa_m == scanned, f"M-route {kappa_m}, scan {scanned}")
            n_m, n_o = _count_routes(spec, *window)
            _check(out, f"N_B difference on the scan window equals the oracle's [{label}]",
                   n_m == n_o, f"M-route {n_m}, oracle {n_o}")
    # monotonicity behind the count law: lambda_min(B - M(x)) non-increasing
    hl = models.half_line(PotentialSpec.zero())
    vals = []
    for x in [-4.0 + 0.35 * k for k in range(11)]:
        m = models.evaluate(hl, complex(x))
        vals.append(lambda_min(herm_part(Matrix.scalar(-2.0) - m)))
    mono = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    _check(out, "lambda_min(B - M(x)) non-increasing on (-inf, 0)", mono, f"values {vals[:3]}...")
    return out


# -- suite: krein_extension -----------------------------------------------------------


def suite_krein_extension(rng: random.Random):
    out = []
    q0 = PotentialSpec.zero()
    hl = models.half_line(q0)
    kr = extensions.krein_extension(hl)
    _check(out, "half-line q=0 Krein boundary operator is 0 (Neumann)",
           kr.B.norm_fro() <= 1e-9, f"B = {kr.B.at(0,0)}")
    (op_h,) = extensions._oracle_operators(kr)
    low = oracle.lowest_eigenvalues(op_h, 1)[0]
    _check(out, "half-line Krein oracle spectrum >= -1e-5", low >= -1e-5, f"lowest {low:.3e}")

    m = models.operator_potential_halfline([2.0, 5.0])
    kr = extensions.krein_extension(m)
    robin = m.robin_matrix(kr.B)
    target = Matrix.diag([-1.0, -2.0])
    dev = (robin - target).norm_fro()
    _check(out, "Krein condition y'(0) = -(A-I)^(1/2) y(0) for A=diag(2,5), exactly",
           dev <= 1e-12, f"deviation {dev:.3e}")
    for op_d in extensions._oracle_operators(kr):
        low = oracle.lowest_eigenvalues(op_d, 1)[0]
        _check(out, "operator-potential Krein mode oracle spectrum >= -1e-5",
               low >= -1e-5, f"lowest {low:.3e}")
    kappa_m, kappa_oracle = extensions.negative_count(kr)
    _check(out, "Krein extension negative count is 0 (both routes)",
           kappa_m == 0 and kappa_oracle == 0, f"{kappa_m}, {kappa_oracle}")

    sec = models.sector(0.75)
    kr_s = extensions.krein_extension(sec)
    _check(out, "sector Krein boundary operator is 0 (M(0)=0)",
           kr_s.B.norm_fro() == 0.0, "")
    return out


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
    out = []
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
    _check(out, "20 random transforms reproduce eigenvalue sets within 1e-8",
           matched == attempted,
           f"{matched}/{attempted} transforms, {total_roots} roots, worst shift {worst_shift:.2e}")

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
    _check(out, "rotated interval triplet reproduces {1,4,9}", ok, f"roots {sorted(roots)}")
    return out


# -- suite: charfun_identities -----------------------------------------------------------


def suite_charfun_identities(rng: random.Random):
    out = []
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

    worst_cayley = 0.0
    worst_jc = math.inf
    for model, b, z in cases:
        col = charfun.factor_colligation(b)
        mz = models.evaluate(model, z)
        w = charfun.char_function_colligation(col, mz)
        v = charfun.v_function(col, mz)
        worst_cayley = max(worst_cayley, charfun.cayley_check(col, w, v))
        jc = col.J - w.adjoint() @ col.J @ w
        worst_jc = min(worst_jc, lambda_min(jc) / max(1.0, jc.norm_fro()))
    _check(out, "Cayley identity residual <= 1e-10 at 100 matched points",
           worst_cayley <= 1e-10, f"worst residual {worst_cayley:.3e}")
    _check(out, "J-contractivity lambda_min(J - W*JW) >= -1e-8 in C+",
           worst_jc >= -1e-8, f"worst relative lambda_min {worst_jc:.3e}")

    # negative control: mismatched (W, V) pairs must fail loudly
    col = charfun.factor_colligation(Matrix.scalar(1j))
    w = charfun.char_function_colligation(col, models.evaluate(hl, 2j))
    v = charfun.v_function(col, models.evaluate(hl, 3j))
    _check(out, "mismatched Cayley pair rejected (residual >> 1e-6)",
           charfun.cayley_check(col, w, v) > 1e-6, "")

    # resolvent form vs colligation form, the former by the route `charfn` takes
    worst_scalar = 0.0
    for _ in range(20):
        z = _sample_z(rng)
        mz = models.evaluate(hl, z)
        w47 = charfun.char_function_from_m(col, mz)
        w49 = charfun.char_function_colligation(col, mz)
        worst_scalar = max(worst_scalar, abs(w47.at(0, 0) - w49.at(0, 0)))
    _check(out, "scalar resolvent and colligation forms agree to 1e-10",
           worst_scalar <= 1e-10, f"worst {worst_scalar:.3e}")
    bd = Matrix.from_rows([[0.5 + 1j, 0.2 - 0.1j], [0.2 + 0.1j, -0.3 + 2j]])
    cold = charfun.factor_colligation(bd)
    worst_tw = 0.0
    for _ in range(12):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.4, 6))
        mz = models.evaluate(fi, z)
        wf = charfun.char_function_from_m(cold, mz)
        wr = charfun.char_function_colligation(cold, mz)
        worst_tw = max(worst_tw, (cold.K.adjoint() @ wf - wr @ cold.K.adjoint()).norm_fro())
    _check(out, "matrix forms intertwined by K* to 1e-10 (definite Im B)",
           worst_tw <= 1e-10, f"worst {worst_tw:.3e}")

    # sector: closed linear-fractional form and its modulus display
    spec_s = extensions.extension(sec, cb * h_sector)
    worst_closed = 0.0
    worst_mod = 0.0
    twist = cmath.exp(2j * beta * math.pi)
    for _ in range(25):
        z = _sample_z(rng)
        w = charfun.char_function(spec_s, z).at(0, 0)
        zb = upper_power(z, beta)
        closed = (zb + h_sector) / (zb + twist * h_sector.conjugate())
        worst_closed = max(worst_closed, abs(w - closed))
        zeta = cpow(-z, beta)
        g = cmath.exp(-1j * beta * math.pi) * h_sector
        worst_mod = max(worst_mod, abs(abs(w) - abs((zeta + g) / (zeta + g.conjugate()))))
    _check(out, "sector W(z) = (z^b + h)/(z^b + e^{2ib pi} conj h) to 1e-9",
           worst_closed <= 1e-9, f"worst {worst_closed:.3e}")
    _check(out, "sector |W| matches the phase-absorbed display form to 1e-9",
           worst_mod <= 1e-9, f"worst {worst_mod:.3e}")

    worst = 0.0
    for _ in range(15):
        z = _sample_z(rng)
        w = charfun.char_function(extensions.extension(hl, 1j), z).at(0, 0)
        worst = max(worst, abs(w))
    _check(out, "scalar dissipative |W| < 1 on the upper half-plane", worst < 1.0,
           f"max |W| {worst:.6f}")
    return out


# -- suite: resolvent_rank_law -------------------------------------------------------------


def suite_resolvent_rank_law(rng: random.Random):
    out = []
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
        _check(out, f"rank law [{label}]: all routes = {expected}", ok,
               f"weyl {rep.rank_weyl}, parameter {rep.rank_resolvent_parameter}, "
               f"difference {rep.rank_difference}, oracle {rep.rank_oracle}")
    # desk form of the resolvent formula: oracle difference vs gamma (m - h)^-1 gamma*
    _check(out, "Krein resolvent formula vs oracle on a test vector",
           _krein_resolvent_formula_check() <= 5e-3, "")
    return out


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
    out = []
    co = models.corner(0.75)
    r = models.m_at_zero(co)
    _check(out, "corner M(0) = -1 exactly (closed form)",
           r.method == "closed_form" and r.value.at(0, 0) == -1.0, f"M(0) = {r.value.at(0,0)}")
    mc = models.multi_corner([0.6, 0.85])
    r = models.m_at_zero(mc)
    _check(out, "multi-corner M(0) = -I exactly (closed form)",
           r.method == "closed_form" and r.value == Matrix.diag([-1.0, -1.0]), f"M(0) = {r.value}")

    sec = models.sector(0.75)
    r = models.m_at_zero(sec)
    _check(out, "sector M(0) = 0 exactly (closed form)",
           r.method == "closed_form" and r.value.norm_fro() == 0.0, "")

    # Stieltjes ray: phases cancel, M(x) is real with the |x|^beta power law
    cb_mod = abs(models.sector_constant(0.75))
    worst_imag = 0.0
    worst_law = 0.0
    xs = [-4.0 + 0.12 * k for k in range(32)]
    for x in xs:
        v = models.evaluate(sec, complex(x)).at(0, 0)
        worst_imag = max(worst_imag, abs(v.imag))
        worst_law = max(worst_law, abs(v.real - (-cb_mod * abs(x) ** 0.75)))
    _check(out, "sector M(x) real on x<0 to 1e-10 (phase cancellation)",
           worst_imag <= 1e-10, f"worst imag {worst_imag:.3e}")
    _check(out, "sector M(x) = -|C_b| |x|^b on x<0 to 1e-10",
           worst_law <= 1e-10, f"worst deviation {worst_law:.3e}")
    rep = models.classify_stieltjes(sec, xs)
    _check(out, "sector Stieltjes scan: monotone and bounded below",
           rep.verdict == "consistent with (S-hat)", rep.verdict)

    z = 1.2 + 0.9j
    m = models.evaluate(mc, z)
    dev = max(
        abs(m.at(0, 0) - models.evaluate(models.corner(0.6), z).at(0, 0)),
        abs(m.at(1, 1) - models.evaluate(models.corner(0.85), z).at(0, 0)),
        abs(m.at(0, 1)),
        abs(m.at(1, 0)),
    )
    _check(out, "multi-corner M is the diagonal of corner scalars", dev == 0.0, f"dev {dev:.1e}")
    refused = 0
    for model in (co, mc):
        for z in (1500 + 3j, 400 + 5j):  # near the positive axis the Bessel series cancels
            try:
                models.evaluate(model, z)
            except AccuracyError:
                refused += 1
    _check(out, "corner and multi-corner refuse M(1500+3i) and M(400+5i)", refused == 4,
           f"{refused}/4 refused")
    anchors = ((100 + 10j, 6.510717408291045 + 59.099186267507235j, 1e-11),  # mpmath, 40 digits
               (150 + 1j, 92.3542942848276 + 4.615197915832667j, 1e-10),
               (-1500, -336.1703969507669, 1e-13))
    worst = max(abs(models.evaluate(co, z).at(0, 0) - v) / (rtol * abs(v))
                for z, v, rtol in anchors)
    _check(out, "corner M at 100+10i, 150+i, -1500 within 1e-11, 1e-10, 1e-13 of mpmath",
           worst <= 1.0, f"worst error / tolerance {worst:.2e}")

    evs = oracle.corner_friedrichs_eigenvalues(0.75, 2)
    ok = math.pi**2 < evs[0] < 3.8318**2 and evs[0] < evs[1]
    _check(out, "corner reference spectrum interlaces the half-integer Bessel zeros",
           ok, f"first two {evs}")

    rad = models.radial_schrodinger(PotentialSpec.square_well(-1.0, 1.2))
    hlw = models.half_line(PotentialSpec.square_well(-1.0, 1.2))
    worst = 0.0
    for _ in range(5):
        z = _sample_z(rng)
        worst = max(worst, (models.evaluate(rad, z) - models.evaluate(hlw, z)).norm_fro())
    _check(out, "radial model delegates to the half-line model (<= 1e-12)",
           worst <= 1e-12, f"worst {worst:.1e}")
    return out


# -- suite: oracle_convergence ---------------------------------------------------------------


def suite_oracle_convergence(rng: random.Random):
    out = []
    q0 = PotentialSpec.zero()

    def lowest_err(n):
        op = oracle.discretize(q0, math.pi, n, None, None)
        return abs(oracle.lowest_eigenvalues(op, 1)[0] - 1.0)

    factor = lowest_err(500) / lowest_err(1000)
    _check(out, "second-order convergence factor in [3.5, 4.5]", 3.5 <= factor <= 4.5,
           f"factor {factor:.3f}")

    op = oracle.discretize(q0, math.pi, 2000, None, None)
    evs = oracle.lowest_eigenvalues(op, 4)
    count = oracle.eigen_count_below(op, 10.0)
    ok = count == 3 and sum(1 for v in evs if v < 10.0) == 3
    _check(out, "Sturm count at mu=10 equals bisection count (exact)", ok,
           f"count {count}, eigenvalues {evs}")
    op = oracle.discretize(q0, 40.0, 4000, -2.0, None)
    _check(out, "Robin h=-2 Sturm count below 0 is 1",
           oracle.eigen_count_below(op, 0.0) == 1, "")
    _check(out, "count below the spectrum floor is 0",
           oracle.eigen_count_below(op, -30.0) == 0, "")

    low40 = oracle.lowest_eigenvalues(oracle.discretize(q0, 40.0, 4000, -2.0, None), 1)[0]
    low50 = oracle.lowest_eigenvalues(oracle.discretize(q0, 50.0, 5000, -2.0, None), 1)[0]
    _check(out, "bound state insensitive to truncation (L -> L+10)",
           abs(low40 - low50) < 1e-8, f"shift {abs(low40 - low50):.2e}")
    return out


# -- suite: expression_parser -------------------------------------------------------------------


def suite_expression_parser(rng: random.Random):
    out = []
    ast = parse_potential("-2*exp(-x)")
    _check(out, "-2*exp(-x) at x=0 evaluates to -2", abs(expr_eval(ast, 0.0) + 2.0) < 1e-15, "")
    ast = parse_potential("1/(1+x^2)")
    _check(out, "1/(1+x^2) at x=1 evaluates to 0.5", abs(expr_eval(ast, 1.0) - 0.5) < 1e-15, "")
    try:
        parse_potential("2*-")
        _check(out, "malformed '2*-' rejected with position", False, "no error raised")
    except ParseError as e:
        _check(out, "malformed '2*-' rejected with position", e.column == 3,
               f"column {e.column}")
    ast = parse_potential("2^-2*x^2^2")
    val = expr_eval(ast, 3.0)
    _check(out, "precedence: 2^-2*x^2^2 = x^4/4", abs(val - 81.0 / 4.0) < 1e-12, f"value {val}")
    ast = parse_potential("sqrt(abs(x)) + sin(x)*cos(x)")
    _check(out, "function grammar evaluates", abs(expr_eval(ast, 2.0) - (math.sqrt(2) + math.sin(2) * math.cos(2))) < 1e-13, "")
    return out


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
    result = SuiteResult(name)
    try:
        result.assertions = SUITES[name](rng)
    except WeylError as e:
        result.assertions = [Assertion(f"{name}: suite raised", False, f"{type(e).__name__}: {e}")]
    return result


def run_suites(names, seed: int = 0):
    return [run_suite(name, seed) for name in names]
