"""Spectral analysis of the extension A_B from the Weyl function alone.

Eigenvalues below the essential spectrum are zeros of det(M(x) - B); between
poles M increases, so the number of positive eigenvalues of M(x) - B rises by
k where k eigenvalues are passed.  The scan brackets the jumps of that count
and bisects them apart, with multiplicities read off the inertia of
M(x*) - B.  Poles of M make the count fall without an eigenvalue, so windows
are split at pre-located poles.  For the finite-interval model the scan runs
on the entire determinant det(Y1(x) - B Y0(x)) instead, which stays finite
through pole-eigenvalue collisions (Dirichlet and, say, Neumann spectra
overlap there) and resolves them exactly; other kinds flag such collisions as
unresolved brackets.

The residual/continuous parts of the abstract correspondence have no finite
dimensional counterpart (M(z) - B is a matrix), so only the point spectrum is
computed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import oracle as oracle_mod
from .errors import (
    ArgumentPrincipleError,
    BoundaryZeroError,
    ContractError,
    DimensionError,
    SingularMatrixError,
    SpectralPointError,
)
from .linalg import (
    Matrix,
    det,
    herm_part,
    hermitian_eigen,
    imag_part,
    inertia,
    inverse,
    numeric_rank,
)
from .models import WeylModel, evaluate, m_at_zero
from .slsolve import _decaying_solution, fundamental_system, tail_support

ORACLE_ZERO_CUT = 1e-4  # oracle counts strictly below -cut: O(dx^2)-stable


@dataclass(frozen=True)
class ExtensionSpec:
    model: WeylModel
    B: Matrix

    def __post_init__(self):
        if self.B.rows != self.model.n or self.B.cols != self.model.n:
            raise DimensionError(
                f"B must be {self.model.n}x{self.model.n} for this model, got {self.B.rows}x{self.B.cols}"
            )

    @property
    def is_hermitian(self) -> bool:
        return (self.B - self.B.adjoint()).norm_fro() <= 1e-10 * max(1.0, self.B.norm_fro())

    @property
    def is_dissipative(self) -> bool:
        im = imag_part(self.B)
        return hermitian_eigen(im)[0] >= -1e-10 * max(1.0, im.norm_fro())


def extension(model: WeylModel, b) -> ExtensionSpec:
    if isinstance(b, Matrix):
        return ExtensionSpec(model, b)
    return ExtensionSpec(model, Matrix.scalar(b))


@dataclass(frozen=True)
class SpectrumReport:
    window: tuple
    eigenvalues: tuple  # ((location, multiplicity), ...)
    neg_count: int | None
    method: str
    oracle_delta: tuple | None
    unresolved: tuple = ()


# -- scanning utilities -------------------------------------------------------


def scan_count_jumps(count, lo: float, hi: float, grid_n: int):
    """Bracket the jumps of an integer-valued count on [lo, hi] and bisect them.

    A grid step where the count moves by k is bisected until each jump is
    isolated, so k roots closer than the grid step are all found.  Returns
    [(x, k), ...]; k > 1 only where a jump stays whole at the 1e-10 relative
    tolerance (a multiple root).
    """
    roots = []

    def bisect(a, na, b, nb):
        if na == nb:
            return
        mid = 0.5 * (a + b)
        if b - a <= 1e-10 * (1.0 + abs(mid)):
            roots.append((mid, abs(nb - na)))
            return
        nm = count(mid)
        bisect(a, na, mid, nm)
        bisect(mid, nm, b, nb)

    xs = [lo + (hi - lo) * k / grid_n for k in range(grid_n + 1)]
    ns = [count(x) for x in xs]
    for xa, na, xb, nb in zip(xs, ns, xs[1:], ns[1:]):
        bisect(xa, na, xb, nb)
    return roots


def scan_sign_changes(f, lo: float, hi: float, grid_n: int):
    """Bracket sign changes of f on [lo, hi] and bisect each to tolerance."""
    return [x for x, _k in scan_count_jumps(lambda x: f(x) < 0.0, lo, hi, grid_n)]


def _real_det_hermitian(m: Matrix) -> float:
    prod = 1.0
    for w in hermitian_eigen(m):
        prod *= w
    return prod


def model_pole_locations(model: WeylModel, lo: float, hi: float, grid_n: int = 128) -> list:
    """Poles of M on (lo, hi): Dirichlet eigenvalues of the reference extension."""
    kind = model.kind
    if kind == "finite_interval":
        def det_y0(x):
            fs = fundamental_system(model.q, model.b, complex(x))
            d = fs.Y0.at(0, 0) * fs.Y0.at(1, 1) - fs.Y0.at(0, 1) * fs.Y0.at(1, 0)
            return d.real
        return scan_sign_changes(det_y0, lo, hi, grid_n)
    if kind == "half_line":
        def y_at_zero(x):
            return _decaying_solution(model.q, complex(x))[0].real
        return scan_sign_changes(y_at_zero, lo, hi, grid_n)
    # operator-potential / strip / corner / sector are analytic below the floor
    return []


# -- point spectrum on the real axis -----------------------------------------


def point_spectrum_real(spec: ExtensionSpec, window, grid_n: int = 128,
                        compare_oracle: bool = False) -> SpectrumReport:
    """Eigenvalues of A_B in a real window below the essential spectrum."""
    if not spec.is_hermitian:
        raise ContractError("point_spectrum_real requires Hermitian B")
    if grid_n < 64:
        raise ContractError("grid_n must be at least 64")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ContractError("window must be a nonempty interval")
    model = spec.model
    if hi >= model.ess_floor and model.kind != "finite_interval":
        raise ContractError(
            f"window top {hi} reaches the essential-spectrum floor {model.ess_floor}"
        )

    if model.kind == "finite_interval":
        eigs, unresolved = _interval_scan(spec, lo, hi, grid_n)
        method = "real_scan_entire_det"
    else:
        eigs, unresolved = _generic_scan(spec, lo, hi, grid_n)
        method = "real_scan"

    delta = _oracle_deltas(spec, eigs, hi) if compare_oracle else None
    return SpectrumReport((lo, hi), tuple(eigs), None, method, delta, tuple(unresolved))


def _interval_scan(spec: ExtensionSpec, lo: float, hi: float, grid_n: int):
    model, b = spec.model, spec.B

    def entire_det(x):
        fs = fundamental_system(model.q, model.b, complex(x))
        return det(fs.Y1 - b @ fs.Y0).real

    roots = scan_sign_changes(entire_det, lo, hi, grid_n)
    eigs = []
    for x in roots:
        fs = fundamental_system(model.q, model.b, complex(x))
        pencil = fs.Y1 - b @ fs.Y0
        mult = max(1, pencil.rows - numeric_rank(pencil, 1e-7))
        eigs.append((x, mult))
    return eigs, []


def _generic_scan(spec: ExtensionSpec, lo: float, hi: float, grid_n: int):
    model, b = spec.model, spec.B
    poles = model_pole_locations(model, lo, hi)
    cuts = [lo] + [p for p in poles if lo < p < hi] + [hi]
    eigs = []
    unresolved = []
    for a, c in zip(cuts, cuts[1:]):
        gap = 1e-9 * (1.0 + abs(a) + abs(c))
        sub_lo = a + (gap if a in poles else 0.0)
        sub_hi = c - (gap if c in poles else 0.0)
        if sub_hi <= sub_lo:
            continue
        sub_grid = max(64, int(grid_n * (sub_hi - sub_lo) / (hi - lo)) + 8)

        def count(x):
            # positive eigenvalues of M(x) - B: M increases between poles, so
            # this count rises by k where k eigenvalues of A_B are passed
            return sum(1 for w in hermitian_eigen(evaluate(model, complex(x)) - b) if w > 0.0)

        for x, jump in scan_count_jumps(count, sub_lo, sub_hi, sub_grid):
            near_pole = any(abs(x - p) < 1e-6 * (1.0 + abs(x)) for p in poles)
            if near_pole:
                unresolved.append((x - 1e-6 * (1 + abs(x)), x + 1e-6 * (1 + abs(x))))
                continue
            pencil = evaluate(model, complex(x)) - b
            scale = max(1.0, pencil.norm_fro())
            mult = max(jump, inertia(herm_part(pencil), 1e-6 * scale).n_zero)
            eigs.append((x, mult))
    return eigs, unresolved


def _oracle_deltas(spec: ExtensionSpec, eigs, window_top: float):
    ops = _oracle_operators(spec)
    if ops is None:
        return None
    found = []
    for op in ops:
        k = min(12, op.size)
        lows = oracle_mod.lowest_eigenvalues(op, k, upper=window_top)
        found.extend(v for v in lows if v <= window_top)
    deltas = []
    for x, _mult in eigs:
        deltas.append(min((abs(x - v) for v in found), default=math.inf))
    return tuple(deltas)


def _oracle_operators(spec: ExtensionSpec):
    """Discretizations matching A_B, or None when the kind/B is unsupported.

    The tridiagonal oracle represents separated real Robin data only, so
    non-Hermitian or coupling boundary operators yield None.
    """
    model, b = spec.model, spec.B
    kind = model.kind
    if not spec.is_hermitian:
        return None
    if kind == "half_line" and model.h is None:
        return [oracle_mod.halfline_operator(model.q, b.at(0, 0).real)]
    if kind == "finite_interval" and _is_diagonal(b):
        return [
            oracle_mod.interval_operator(
                model.q, model.b, b.at(0, 0).real, b.at(1, 1).real, n=2000
            )
        ]
    if kind == "operator_potential_halfline" and _is_diagonal(b):
        ops = []
        for i, a in enumerate(model.a_diag):
            s = b.at(i, i).real / math.sqrt(a) - math.sqrt(a)
            kappa2 = a - 1.0
            L = 40.0 if kappa2 < 0.25 else max(16.0, 30.0 / math.sqrt(kappa2))
            n = max(3000, int(L / 2.4e-3))
            ops.append(
                oracle_mod.discretize(
                    oracle_mod.constant_potential(kappa2, L),
                    L,
                    n,
                    oracle_mod.Boundary.robin(s),
                    oracle_mod.Boundary.dirichlet(),
                )
            )
        return ops
    return None


def _is_diagonal(b: Matrix) -> bool:
    return all(
        abs(b.at(i, j)) <= 1e-12 * max(1.0, b.norm_max())
        for i in range(b.rows)
        for j in range(b.cols)
        if i != j
    )


# -- complex eigenvalue counting ----------------------------------------------


@dataclass(frozen=True)
class ComplexCountReport:
    count: int
    boundary_proximity: bool
    samples: int
    min_boundary_abs: float


def count_complex_eigenvalues(spec: ExtensionSpec, rect, max_samples: int = 20000) -> ComplexCountReport:
    """Zeros of det(M(z) - B) inside a rectangle in the open upper half-plane.

    Winding number of the determinant along the boundary, with the phase step
    kept below pi/4 by adaptive bisection of the contour segments.
    """
    re0, re1, im0, im1 = (float(v) for v in rect)
    if not (re0 < re1 and 0.0 < im0 < im1):
        raise ContractError("rectangle must satisfy re0 < re1 and 0 < im0 < im1")
    model, b = spec.model, spec.B

    def f(z):
        return det(evaluate(model, z) - b)

    corners = [
        complex(re0, im0),
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
        complex(re0, im0),
    ]
    pts = []
    vals = []
    budget = [max_samples]

    def fval(z):
        if budget[0] <= 0:
            raise ArgumentPrincipleError(
                "contour sample budget exhausted before the phase step stabilized"
            )
        budget[0] -= 1
        return f(z)

    for a, c in zip(corners, corners[1:]):
        seg = 16
        for k in range(seg):
            pts.append(a + (c - a) * (k / seg))
    pts.append(corners[-1])
    vals = [fval(z) for z in pts]
    scale = max(abs(v) for v in vals)
    if scale == 0.0:
        raise BoundaryZeroError("det(M(z)-B) vanished on the contour; perturb the rectangle")

    total = 0.0
    min_abs = min(abs(v) for v in vals)
    i = 0
    while i < len(pts) - 1:
        va, vb = vals[i], vals[i + 1]
        if abs(va) < 1e-12 * scale or abs(vb) < 1e-12 * scale:
            raise BoundaryZeroError(
                f"det(M(z)-B) ~ 0 at contour point {pts[i]}; perturb the rectangle"
            )
        dphi = cmath.phase(vb / va)
        if abs(dphi) >= math.pi / 4.0 and abs(pts[i + 1] - pts[i]) > 1e-12:
            mid = 0.5 * (pts[i] + pts[i + 1])
            vm = fval(mid)
            pts.insert(i + 1, mid)
            vals.insert(i + 1, vm)
            min_abs = min(min_abs, abs(vm))
            continue
        total += dphi
        i += 1
    winding = total / (2.0 * math.pi)
    count = round(winding)
    if abs(winding - count) > 0.05:
        raise ArgumentPrincipleError(
            f"winding number {winding:.4f} did not settle near an integer"
        )
    return ComplexCountReport(count, min_abs < 1e-3 * scale, len(pts), min_abs)


# -- negative spectrum ---------------------------------------------------------


def _check_reference_nonnegative(model: WeylModel):
    kind = model.kind
    if kind == "half_line":
        if model.h is not None:
            raise ContractError("negative_count needs the (y(0), y'(0)) triplet")
        op = oracle_mod.halfline_dirichlet_operator(model.q)
        if _dirichlet_sign_changes(model.q) or oracle_mod.eigen_count_below(op, -ORACLE_ZERO_CUT) > 0:
            raise ContractError("reference (Dirichlet) extension has negative spectrum")
    elif kind == "finite_interval":
        op = oracle_mod.discretize(
            model.q, model.b, 2000, oracle_mod.Boundary.dirichlet(), oracle_mod.Boundary.dirichlet()
        )
        if oracle_mod.eigen_count_below(op, -ORACLE_ZERO_CUT) > 0:
            raise ContractError("reference (Dirichlet) extension has negative spectrum")
    elif model.ess_floor < -1e-12:
        raise ContractError("model floor below zero: reference extension not nonnegative")


def _dirichlet_sign_changes(q) -> list:
    """Sign changes of y(0; lambda) on [min q - 1, 0], lambda = 0 included.

    y is the tail-matched solution, so each sign change is a Dirichlet
    eigenvalue below 0, also one whose decay length exceeds the oracle's box
    (a threshold resonance).  Empty unless q has a constant tail >= 0.
    """
    support = tail_support(q)
    if support is None or q.tail < 0.0:
        return []
    # past the support so that the tail piece counts; a table's nodes bound its linear segments
    lowest = min([c for _lo, _hi, c in q.pieces(0.0, support + 1.0) if c is not None] + list(q.values))

    def y_at_zero(lam):
        return _decaying_solution(q, complex(lam))[0].real

    return scan_sign_changes(y_at_zero, lowest - 1.0, 0.0, 128)


def negative_count(spec: ExtensionSpec):
    """(count from inertia of B - M(0), oracle count or None).

    The headline law: dim E_{A_B}(-inf, 0) equals the number of negative
    eigenvalues of B - M(0).
    """
    if not spec.is_hermitian:
        raise ContractError("negative_count requires Hermitian B")
    model = spec.model
    _check_reference_nonnegative(model)
    m0 = m_at_zero(model)
    zero_tol = max(1e-9, 3.0 * m0.est_error)
    kappa_m = inertia(herm_part(spec.B - m0.value), zero_tol).n_neg
    ops = _oracle_operators(spec)
    kappa_oracle = None
    if ops is not None:
        kappa_oracle = sum(oracle_mod.eigen_count_below(op, -ORACLE_ZERO_CUT) for op in ops)
    return kappa_m, kappa_oracle


def krein_extension(model: WeylModel) -> ExtensionSpec:
    """The soft extension B = M(0): dom = ker(Gamma_1 - M(0) Gamma_0), A_B >= 0."""
    m0 = m_at_zero(model)
    return ExtensionSpec(model, m0.value)


# -- resolvent rank law ---------------------------------------------------------


@dataclass(frozen=True)
class RankLawReport:
    rank_weyl: int
    rank_resolvent_parameter: int
    rank_difference: int
    rank_oracle: int | None
    agree: bool


def resolvent_rank_law(spec1: ExtensionSpec, spec2: ExtensionSpec, z: complex,
                       zeta: complex, tau: float = 1e-8) -> RankLawReport:
    """Rank of (B1-M(z))^-1 - (B2-M(z))^-1 vs (B1-zeta)^-1 - (B2-zeta)^-1 vs B1-B2.

    At matrix scale the operator-ideal equivalences collapse to one integer;
    the optional oracle rank samples the discretized resolvent difference.
    """
    if spec1.model != spec2.model:
        raise ContractError("rank law needs a shared model")
    model = spec1.model
    b1, b2 = spec1.B, spec2.B
    m = evaluate(model, complex(z))
    ident = Matrix.identity(b1.rows)

    def inv_or_error(mat: Matrix, which: str) -> Matrix:
        try:
            return inverse(mat)
        except SingularMatrixError as e:
            raise SpectralPointError(f"{which} is singular: point in a spectrum") from e

    r_weyl = numeric_rank(
        inv_or_error(b1 - m, f"B1 - M({z})") - inv_or_error(b2 - m, f"B2 - M({z})"), tau
    )
    zi = ident.scale(complex(zeta))
    r_param = numeric_rank(
        inv_or_error(b1 - zi, f"B1 - {zeta}") - inv_or_error(b2 - zi, f"B2 - {zeta}"), tau
    )
    r_diff = numeric_rank(b1 - b2, tau)

    rank_oracle = None
    ops1 = _oracle_operators(spec1)
    ops2 = _oracle_operators(spec2)
    if ops1 is not None and ops2 is not None:
        rank_oracle = sum(
            oracle_mod.resolvent_difference_rank(o1, o2, complex(z))
            for o1, o2 in zip(ops1, ops2)
        )
    agree = r_weyl == r_param == r_diff and (rank_oracle is None or rank_oracle == r_diff)
    return RankLawReport(r_weyl, r_param, r_diff, rank_oracle, agree)
