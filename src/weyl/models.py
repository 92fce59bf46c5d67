"""The Weyl-function catalog: one immutable model per operator family.

Every model exposes the same surface: evaluate(model, z) -> Matrix for z off
the real axis or real below the essential-spectrum floor, m_at_zero for the
boundary value at 0, and the two classification reports.  All models satisfy
M(conj z) = M(z)* and the Herglotz property Im M >= 0 on the upper half-plane;
those two facts are the acceptance anchor for every branch choice below.

Branch conventions:
  * half-line / interval models go through the ODE solver, no branch needed;
  * the operator-potential square root (A - I - z)^(1/2) is taken with
    non-negative real part, written as -i*sqrt_upper(z - (a-1)); this is the
    unique choice under which the model is Herglotz;
  * strip entries depend only on the square of that root, so any branch works;
  * sector/corner powers use the cut along [0, inf):
    z^beta := cpow(sqrt_upper(z), 2 beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError, EvalError, PoleError, RangeError, TransversalityError
from .linalg import Matrix, herm_part, imag_part, lambda_min
from .slsolve import (
    PotentialSpec,
    _decaying_solution,
    finite_interval_M,
    halfline_m,
    tail_support,
    truncation_length,
)
from .specfun import BESSEL_RANGE, bessel_j, cpow, gamma, sqrt_upper, upper_power

KINDS = (
    "half_line",
    "finite_interval",
    "operator_potential_halfline",
    "strip",
    "corner",
    "sector",
    "multi_corner",
)


@dataclass(frozen=True)
class WeylModel:
    kind: str
    n: int
    ess_floor: float  # -inf allowed; +inf means purely discrete
    q: PotentialSpec | None = None
    h: float | None = None  # None = Neumann-style triplet (y(0), y'(0))
    b: float = 0.0
    a_diag: tuple = ()
    width: float = math.pi
    beta: float = 0.0
    betas: tuple = ()
    fn: object = field(default=None, compare=False)  # test-stub hook


def half_line(q: PotentialSpec, h: float | None = None) -> WeylModel:
    return WeylModel("half_line", 1, q.tail, q=q, h=h)


def radial_schrodinger(q: PotentialSpec) -> WeylModel:
    """3-D spherically symmetric problem; it is the half-line model with the
    same potential and the (y(0), y'(0)) triplet."""
    return half_line(q)


def finite_interval(q: PotentialSpec, b: float) -> WeylModel:
    return WeylModel("finite_interval", 2, math.inf, q=q, b=float(b))


def operator_potential_halfline(a_diag) -> WeylModel:
    a = tuple(float(v) for v in a_diag)
    if not a or any(v < 1.0 for v in a):
        raise EvalError("operator potential needs diagonal entries >= 1")
    return WeylModel("operator_potential_halfline", len(a), min(a) - 1.0, a_diag=a)


def strip(a_diag, width: float = math.pi) -> WeylModel:
    a = tuple(float(v) for v in a_diag)
    if not a or any(v < 1.0 for v in a):
        raise EvalError("strip model needs diagonal entries >= 1")
    if width <= 0:
        raise EvalError("strip width must be positive")
    return WeylModel("strip", 2 * len(a), min(a) - 1.0, a_diag=a, width=float(width))


def corner(beta: float) -> WeylModel:
    _check_beta(beta)
    return WeylModel("corner", 1, 0.0, beta=float(beta))


def sector(beta: float) -> WeylModel:
    _check_beta(beta)
    return WeylModel("sector", 1, 0.0, beta=float(beta))


def multi_corner(betas) -> WeylModel:
    bs = tuple(float(b) for b in betas)
    for b in bs:
        _check_beta(b)
    return WeylModel("multi_corner", len(bs), 0.0, betas=bs)


def callable_model(fn, n: int, ess_floor: float = 0.0) -> WeylModel:
    """Wrap an arbitrary z -> Matrix map; test support for the report machinery."""
    return WeylModel("_callable", n, ess_floor, fn=fn)


def _check_beta(beta: float):
    if not 0.5 < beta < 1.0:
        raise EvalError(f"beta must lie in (1/2, 1), got {beta}")


def sector_constant(beta: float) -> complex:
    """The sector coefficient exp(-i beta pi) 4^(-beta) Gamma(1-beta)/Gamma(1+beta)."""
    return cmath.exp(-1j * beta * math.pi) * 4.0 ** (-beta) * gamma(1.0 - beta) / gamma(1.0 + beta)


# -- evaluation -------------------------------------------------------------


def evaluate(model: WeylModel, z: complex, rtol: float = 1e-10) -> Matrix:
    """M(z) for z with Im z != 0, or real z below the essential-spectrum floor."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= model.ess_floor and model.kind != "finite_interval":
        raise DomainError(
            f"z={z.real} lies on/above the essential-spectrum floor {model.ess_floor}"
        )
    return _evaluate_any(model, z, rtol)


def _evaluate_any(model: WeylModel, z: complex, rtol: float = 1e-10) -> Matrix:
    kind = model.kind
    if kind == "half_line":
        return Matrix.scalar(halfline_m(model.q, model.h, z, rtol=rtol))
    if kind == "finite_interval":
        return finite_interval_M(model.q, model.b, z, rtol=rtol)
    if kind == "operator_potential_halfline":
        return Matrix.diag([_op_potential_entry(a, z) for a in model.a_diag])
    if kind == "strip":
        return _strip_matrix(model.a_diag, model.width, z)
    if kind == "corner":
        return Matrix.scalar(_corner_scalar(model.beta, z))
    if kind == "sector":
        return Matrix.scalar(_sector_scalar(model.beta, z))
    if kind == "multi_corner":
        return Matrix.diag([_corner_scalar(b, z) for b in model.betas])
    if kind == "_callable":
        return model.fn(z)
    raise EvalError(f"unknown model kind {kind!r}")


def _op_potential_entry(a: float, z: complex) -> complex:
    # sqrt(a-1-z) with Re >= 0 (decaying defect solution) = -i sqrt_upper(z-(a-1))
    root = -1j * sqrt_upper(z - (a - 1.0))
    return math.sqrt(a) * (math.sqrt(a) - root)


def _kappa_pair(a: float, w: float, z: complex):
    """(kappa coth(w kappa), kappa / sinh(w kappa)) for kappa^2 = a-1-z.

    Both are even in kappa, so the branch is irrelevant; computed from the
    root with Re >= 0 through decaying exponentials for stability.
    """
    kappa = -1j * sqrt_upper(z - (a - 1.0))
    u = w * kappa
    if abs(u) < 1e-5:
        # coth(u) ~ 1/u + u/3, 1/sinh(u) ~ 1/u - u/6
        return kappa * kappa * w / 3.0 + 1.0 / w, 1.0 / w - kappa * kappa * w / 6.0
    e = cmath.exp(-2.0 * u)
    denom = 1.0 - e
    if abs(denom) < 1e-300:
        raise DomainError(f"strip entry singular at z={z} (Dirichlet eigenvalue)")
    coth = kappa * (1.0 + e) / denom
    csch = 2.0 * kappa * cmath.exp(-u) / denom
    return coth, csch


def _strip_matrix(a_diag, w: float, z: complex) -> Matrix:
    m = len(a_diag)
    out = [[0j] * (2 * m) for _ in range(2 * m)]
    for i, a in enumerate(a_diag):
        coth, csch = _kappa_pair(a, w, z)
        ra = math.sqrt(a)
        out[i][i] = out[m + i][m + i] = a - ra * coth
        out[i][m + i] = out[m + i][i] = -ra * csch
    return Matrix.from_rows(out)


def _corner_scalar(beta: float, z: complex) -> complex:
    s = sqrt_upper(z)
    if abs(s) > BESSEL_RANGE:
        raise RangeError(f"corner model limited to |sqrt z| <= {BESSEL_RANGE}")
    num = gamma(1.0 - beta) * bessel_j(-beta, s) * cpow(0.5 * s, 2.0 * beta)
    den = gamma(1.0 + beta) * bessel_j(beta, s)
    if abs(den) < 1e-300:
        raise DomainError(f"corner model pole at z={z}")
    return -num / den


def _sector_scalar(beta: float, z: complex) -> complex:
    # The Green-identity-consistent sign: -C_beta z^beta is the Herglotz
    # member of the family; the coefficient modulus and the z^beta power law
    # are unchanged.
    return -sector_constant(beta) * upper_power(z, beta)


# -- M(0) -------------------------------------------------------------------


@dataclass(frozen=True)
class MZeroResult:
    value: Matrix  # Hermitian
    method: str  # "closed_form" | "tail_matched" | "extrapolated"
    est_error: float


def _neville_to_zero(ts, vals):
    """Polynomial extrapolation of (t_k, F(t_k)) to t = 0 (Neville tableau).

    For a dyadic ladder this is Richardson elimination to full order.  The
    error estimate is the last applied correction.
    """
    p = list(vals)
    n = len(p)
    heads = [p[0]]
    for level in range(1, n):
        for i in range(n - level):
            p[i] = (ts[i] * p[i + 1] - ts[i + level] * p[i]) / (ts[i] - ts[i + level])
        heads.append(p[0])
    est = abs(heads[-1] - heads[-2]) if n > 1 else math.inf
    return p[0], est


def _extrapolate_entrywise(ts, grids, n: int):
    data = []
    est_max = 0.0
    for i in range(n):
        for j in range(n):
            seq = [g.at(i, j) for g in grids]
            if abs(seq[-1]) > 4.0 * abs(seq[0]) + 1e3:
                raise TransversalityError(
                    "M(x) grows without bound as x -> 0-: Friedrichs and Krein "
                    "extensions are not transversal"
                )
            lim, est = _neville_to_zero(ts, seq)
            data.append(lim)
            est_max = max(est_max, est)
    return Matrix(n, n, tuple(data)), est_max


def _direct_m_at_zero(model: WeylModel, rtol: float) -> MZeroResult:
    """M(0) = y'(0)/y(0) of the decaying solution at z = 0 itself.

    The floor is >= 0 here.  With an exactly constant tail the solution is
    matched to it: the seed exp(-sqrt(tail) x) is (1, 0) for a zero tail, the
    bounded threshold solution, so there is no limit to take, and the
    estimate carries the rtol of the propagation through the division by
    y(0).  Otherwise the floor is above 0, M is analytic at 0 and halfline_m
    gives it, Dirichlet-truncated; its estimate adds twice the truncation
    estimate exp(-2 kappa L), the relative error of a truncated m.
    """
    q = model.q
    if tail_support(q) is not None:
        y, yp = _decaying_solution(q, 0j, None, rtol)
        scale = max(abs(y), abs(yp))
        if abs(y) < 1e-13 * scale:
            raise TransversalityError("y(0; 0) = 0: M(x) is unbounded as x -> 0-")
        m = (yp / y).real
        est = rtol * (1.0 + abs(m)) * scale / abs(y)
        method = "tail_matched"
    else:
        try:
            m = halfline_m(q, None, 0.0, rtol=rtol).real
        except PoleError as e:  # the same y(0; 0) = 0 test as above
            raise TransversalityError("y(0; 0) = 0: M(x) is unbounded as x -> 0-") from e
        est = (rtol + 2.0 * truncation_length(q, 0.0)[1]) * (1.0 + abs(m))
        method = "truncated"
    if model.h is not None:
        denom = m - model.h
        if abs(denom) < 1e-13 * (1.0 + abs(m)):
            raise TransversalityError(f"M(0) = h = {model.h}: pole of the h-triplet family")
        est *= abs(1.0 - model.h * model.h) / (denom * denom)
        m = (1.0 - model.h * m) / denom
    return MZeroResult(Matrix.scalar(m), method, est)


def m_at_zero(model: WeylModel, rtol: float = 1e-11) -> MZeroResult:
    """Boundary value M(0) = lim_{x -> 0-} M(x).

    Closed form where the catalog provides one; for half-line potentials with
    an exactly constant tail or a floor above 0, the decaying solution at
    z = 0 itself; otherwise Richardson extrapolation along x_k -> 0-.
    Models whose essential spectrum starts at 0 have a sqrt branch point
    there, so their ladder runs in t = sqrt(-x) (plain x-ladders converge
    too slowly against the truncation cap).  A half-line whose floor is below 0 has no M(0).
    """
    kind = model.kind
    if kind == "sector":
        return MZeroResult(Matrix.scalar(0.0), "closed_form", 0.0)
    if kind == "operator_potential_halfline":
        vals = [math.sqrt(a) * (math.sqrt(a) - math.sqrt(a - 1.0)) for a in model.a_diag]
        return MZeroResult(Matrix.diag(vals), "closed_form", 0.0)
    if kind == "strip":
        # the strip entries depend on kappa^2 only, hence are analytic at 0
        return MZeroResult(herm_part(_strip_matrix(model.a_diag, model.width, 0j)), "closed_form", 0.0)

    if kind == "half_line":
        if model.ess_floor < 0.0:
            raise DomainError(
                f"0 lies in the essential spectrum [{model.ess_floor}, inf): M(0) does not exist"
            )
        if model.ess_floor > 0.0 or tail_support(model.q) is not None:
            return _direct_m_at_zero(model, rtol)
        # sqrt branch point at the spectral floor: ladder in t = sqrt(floor - x),
        # limited in depth by the Dirichlet truncation cap (larger reported error)
        floor = model.ess_floor
        ts = [0.64 * 0.5**k for k in range(4)]
        samples = [_evaluate_any(model, complex(floor - t * t), rtol=rtol) for t in ts]
        if model.h is not None:
            samples = [
                Matrix.scalar((1.0 - model.h * s.at(0, 0)) / (s.at(0, 0) - model.h))
                for s in samples
            ]
        value, est = _extrapolate_entrywise(ts, samples, model.n)
        return MZeroResult(herm_part(value), "extrapolated", est)

    # analytic at 0 (corner, multi_corner, finite_interval, stubs): plain ladder
    ts = []
    grids = []
    for k in range(1, 21):
        ts.append(2.0**-k)
        grids.append(_evaluate_any(model, complex(-ts[-1]), rtol=rtol))
        if len(grids) >= 6:
            a, b = grids[-2].at(0, 0), grids[-1].at(0, 0)
            if abs(b - a) < 1e-13 * max(1.0, abs(b)):
                break
    value, est = _extrapolate_entrywise(ts, grids, model.n)
    return MZeroResult(herm_part(value), "extrapolated", est)


def operator_potential_robin(model: WeylModel, b: Matrix) -> Matrix:
    """Un-weight the operator-potential triplet: the Robin matrix S with
    y'(0) = S y(0) for the extension A_B, i.e. S = A^(-1/4) B A^(-1/4) - A^(1/2)."""
    if model.kind != "operator_potential_halfline":
        raise EvalError("robin un-weighting applies to the operator-potential model")
    a = model.a_diag
    n = len(a)
    rows = [
        [
            b.at(i, j) / (a[i] ** 0.25 * a[j] ** 0.25) - (math.sqrt(a[i]) if i == j else 0.0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Matrix.from_rows(rows)


# -- classification reports ---------------------------------------------------


@dataclass(frozen=True)
class RClassReport:
    herglotz_at_samples: bool
    norm_over_y_decreasing: bool
    y_im_growth_unbounded: bool
    details: dict


def classify_R_class(model: WeylModel, sample_z, ladder_max_exp: int = 12) -> RClassReport:
    """Consistency checks for the Weyl-function class at tested scale.

    (i) lambda_min(Im M) >= -1e-9 ||M|| at the supplied upper-half-plane
    samples; (ii) ||M(iy)||/y decreasing toward 0 along y = 2^j; (iii)
    y * lambda_min(Im M(iy)) increasing without observed bound.  All three are
    'consistent at tested scale' statements, never proofs.
    """
    herg = True
    worst = 0.0
    for z in sample_z:
        if complex(z).imag <= 0:
            raise DomainError(f"sample {z} not in the open upper half-plane")
        m = _evaluate_any(model, complex(z))
        lam = lambda_min(imag_part(m))
        scale = max(m.norm_fro(), 1e-30)
        worst = min(worst, lam / scale)
        if lam < -1e-9 * scale:
            herg = False
    norms = []
    gains = []
    for j in range(ladder_max_exp + 1):
        y = 2.0**j
        m = _evaluate_any(model, 1j * y)
        norms.append(m.norm_fro() / y)
        gains.append(y * lambda_min(imag_part(m)))
    decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(norms, norms[1:]))
    toward_zero = norms[-1] < 0.5 * norms[0] or norms[-1] < 1e-12
    increasing = all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(gains, gains[1:]))
    unbounded = increasing and gains[-1] > 4.0 * max(gains[0], 1e-12)
    return RClassReport(
        herg,
        decreasing and toward_zero,
        unbounded,
        {"worst_relative_lambda_min": worst, "norm_over_y": norms, "y_lambda_min": gains},
    )


@dataclass(frozen=True)
class StieltjesReport:
    monotone: bool
    bounded_below: bool
    verdict: str
    counterexample: tuple | None


def classify_stieltjes(model: WeylModel, x_grid) -> StieltjesReport:
    """Monotonicity / boundedness-below scan of M on a negative grid."""
    xs = [float(x) for x in x_grid]
    if any(x >= 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("x_grid must be ascending and strictly negative")
    mats = [herm_part(_evaluate_any(model, complex(x))) for x in xs]
    counterexample = None
    monotone = True
    for (xa, ma), (xb, mb) in zip(zip(xs, mats), zip(xs[1:], mats[1:])):
        diff = mb - ma
        lam = lambda_min(diff)
        if lam < -1e-9 * max(1.0, diff.norm_fro()):
            monotone = False
            counterexample = (xa, xb, lam)
            break
    base = mats[0]
    bounded = math.isfinite(base.norm_fro()) and all(
        lambda_min(m - base) >= -1e-9 * max(1.0, (m - base).norm_fro()) for m in mats[1:]
    )
    verdict = "consistent with (S-hat)" if monotone and bounded else "counterexample found"
    return StieltjesReport(monotone, bounded, verdict, counterexample)


# -- shared Nevanlinna kernel -------------------------------------------------


def nevanlinna_gram(model: WeylModel, zs, hs) -> Matrix:
    """Gram matrix G_ij = h_j* [M(z_i) - M(z_j)*] / (z_i - conj z_j) h_i."""
    mats = [_evaluate_any(model, complex(z)) for z in zs]
    k = len(zs)
    data = []
    for i in range(k):
        for j in range(k):
            kernel = (mats[i] - mats[j].adjoint()).scale(
                1.0 / (complex(zs[i]) - complex(zs[j]).conjugate())
            )
            acc = 0j
            hi, hj = hs[i], hs[j]
            for r in range(kernel.rows):
                for c in range(kernel.cols):
                    acc += hj[r].conjugate() * kernel.at(r, c) * hi[c]
            data.append(acc)
    return Matrix(k, k, tuple(data))
