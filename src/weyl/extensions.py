"""Spectral analysis of the extension A_B from the Weyl function alone.

Below the essential spectrum one integer carries the real point spectrum:
N_B(x) = N_0(x) + ind_+(M(x) - B), the number of eigenvalues of A_B below x,
with N_0 counting the poles of M, the eigenvalues of the reference extension
ker Gamma_0 (WeylModel.eigen_count, Derkach & Malamud 1991).  It is monotone
and jumps by the multiplicity at each eigenvalue, so a bracket with equal
counts at both ends holds no eigenvalue, whatever its width: the scan starts
from the window's two ends and bisects every bracket whose counts differ.
The negative count is the same identity at 0 with the boundary value M(0).

The residual/continuous parts of the abstract correspondence have no finite
dimensional counterpart (M(z) - B is a matrix), so only the point spectrum is
computed.
"""

from __future__ import annotations

import cmath
import math
import sys

from . import kernels
from . import oracle as oracle_mod
from .errors import (
    AccuracyError,
    ArgumentPrincipleError,
    BoundaryZeroError,
    ContractError,
    DimensionError,
    RangeError,
    SingularMatrixError,
    SpectralPointError,
)
from .linalg import Matrix, herm_part, inertia, inverse, numeric_rank
from .models import ZERO_EIGENVALUE, WeylModel, evaluate, m_at_zero
from .values import Value

ORACLE_ZERO_CUT = 1e-4  # oracle counts strictly below -cut: O(dx^2)-stable
RANK_TAU = 1e-8  # the rank law counts singular values above RANK_TAU * the largest


class ExtensionSpec(Value):
    _fields = ("model", "B")  # a WeylModel, an n x n Matrix

    def __post_init__(self):
        if self.B.rows != self.model.n or self.B.cols != self.model.n:
            raise DimensionError(
                f"B must be {self.model.n}x{self.model.n} for this model, got {self.B.rows}x{self.B.cols}"
            )

    @property
    def is_hermitian(self) -> bool:
        return (self.B - self.B.adjoint()).norm_fro() <= 1e-10 * max(1.0, self.B.norm_fro())


def extension(model: WeylModel, b) -> ExtensionSpec:
    if isinstance(b, Matrix):
        return ExtensionSpec(model, b)
    return ExtensionSpec(model, Matrix.scalar(b))


class SpectrumReport(Value):
    # eigenvalues: ((location, multiplicity), ...); oracle_delta: a tuple or None
    _fields = ("window", "eigenvalues", "method", "oracle_delta")


# -- scanning utilities -------------------------------------------------------


def scan_count_jumps(count, lo: float, hi: float, steps: int):
    """Bracket the jumps of an integer-valued count on [lo, hi] and bisect them.

    [lo, hi] is cut into `steps` equal steps, and a step where the count
    moves by k is bisected until each jump is isolated, so k roots closer
    than a step are all found.  For a monotone count one step finds every
    jump; an indicator such as f(x) < 0 can rise and fall again inside a
    step, so it needs a grid.  A bracket stops at a width of 1e-10 (1 + |x|):
    relative far from 0, but about 1e-10 absolute near it.  Returns
    [(x, k), ...]; k > 1 only where a jump stays whole at that width (a
    multiple root).
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

    # the last point is hi itself: lo + (hi - lo) * steps / steps can round past it
    xs = [lo + (hi - lo) * k / steps for k in range(steps)] + [hi]
    ns = [count(x) for x in xs]
    for xa, na, xb, nb in zip(xs, ns, xs[1:], ns[1:]):
        bisect(xa, na, xb, nb)
    return roots


def scan_sign_changes(f, lo: float, hi: float, steps: int):
    """Bracket sign changes of f on [lo, hi] and bisect each to tolerance."""
    return [x for x, _k in scan_count_jumps(lambda x: f(x) < 0.0, lo, hi, steps)]


def model_pole_locations(model: WeylModel, lo: float, hi: float) -> list:
    """Poles of M on (lo, hi): the jumps of N_0, eigenvalues of the reference extension."""
    return [x for x, _k in scan_count_jumps(model.reference_count, lo, hi, 1)]


# -- point spectrum on the real axis -----------------------------------------


def point_spectrum_real(spec: ExtensionSpec, window, compare_oracle: bool = False) -> SpectrumReport:
    """Eigenvalues of A_B in a real window below the essential spectrum: the
    jumps of N_B, each with its size as the multiplicity."""
    if not spec.is_hermitian:
        raise ContractError("point_spectrum_real requires Hermitian B")
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ContractError(f"window ({lo}, {hi}) must have finite ends")
    if not lo < hi:
        raise ContractError("window must be a nonempty interval")
    model, b = spec.model, spec.B
    if hi >= model.ess_floor:
        raise ContractError(
            f"window top {hi} reaches the essential-spectrum floor {model.ess_floor}"
        )
    eigs = scan_count_jumps(lambda x: model.eigen_count(b, x), lo, hi, 1)
    delta = _oracle_deltas(spec, eigs, hi) if compare_oracle else None
    return SpectrumReport((lo, hi), tuple(eigs), "count_scan", delta)


def _oracle_deltas(spec: ExtensionSpec, eigs, window_top: float):
    ops = _oracle_operators(spec)
    if ops is None:
        return None
    cap = oracle_mod.MAX_EIGENVALUES
    found = []
    for op in ops:
        lows = oracle_mod.lowest_eigenvalues(op, cap, upper=window_top)
        if len(lows) == cap and oracle_mod.eigen_count_below(op, window_top) > cap:
            return None  # the oracle cannot cover the window: no delta beats a spurious one
        found.extend(lows)
    deltas = []
    for x, _mult in eigs:
        deltas.append(min((abs(x - v) for v in found), default=math.inf))
    return tuple(deltas)


def _oracle_operators(spec: ExtensionSpec):
    """Discretizations matching A_B, or None when the kind/B is unsupported.

    The tridiagonal oracle represents separated real Robin data only, so
    non-Hermitian or coupling boundary operators yield None, and so does a
    grid oracle.discretize refuses (a step too small for its couplings).
    """
    if not spec.is_hermitian or spec.model.oracle_operators is None:
        return None
    try:
        return spec.model.oracle_operators(spec.B)
    except ContractError:
        return None


# -- complex eigenvalue counting ----------------------------------------------


class ComplexCountReport(Value):
    _fields = ("count", "boundary_proximity", "samples", "min_boundary_abs")


def count_complex_eigenvalues(spec: ExtensionSpec, rect) -> ComplexCountReport:
    """Zeros of det(M(z) - B) inside a rectangle in the open upper half-plane.

    The winding number of the determinant along the boundary, in one ordered
    walk: 16 samples a side, each segment whose phase step is pi/4 or more
    halved, left half first, until its step is smaller or it is at most 1e-12
    long, and each accepted step added to the phase sum in contour order.  A
    sample or a phase sum that is not finite raises RangeError, a sample below
    1e-12 of the largest of the first ones BoundaryZeroError naming that
    sample, and a 20001st sample ArgumentPrincipleError.
    """
    re0, re1, im0, im1 = (float(v) for v in rect)
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise ContractError(f"rectangle ({re0}, {re1}, {im0}, {im1}) must have finite sides")
    if not (re0 < re1 and 0.0 < im0 < im1):
        raise ContractError("rectangle must satisfy re0 < re1 and 0 < im0 < im1")
    model, det_b = spec.model, kernels.det_kernel(spec.B)
    samples = 0

    def sample(z):
        nonlocal samples
        if samples == 20000:
            raise ArgumentPrincipleError("contour sample budget exhausted before the phase step stabilized")
        samples += 1
        v = det_b(evaluate(model, z).data)
        if not cmath.isfinite(v):
            raise RangeError(f"det(M(z)-B) is not finite at contour point {z}")
        return z, v

    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    todo = [sample(a + (c - a) * (k / 16)) for a, c in zip(corners, corners[1:] + corners[:1])
            for k in range(16)]
    todo.append(sample(corners[0]))
    scale = max(abs(v) for _, v in todo)
    if scale == 0.0:
        raise BoundaryZeroError("det(M(z)-B) vanished on the contour; perturb the rectangle")
    min_abs = min(abs(v) for _, v in todo)
    todo.reverse()  # the samples still ahead of the walk, the next one last
    a, va = todo.pop()
    total = 0.0
    while todo:
        b, vb = todo[-1]
        for z, v in ((a, va), (b, vb)):
            if abs(v) < 1e-12 * scale:
                raise BoundaryZeroError(f"det(M(z)-B) ~ 0 at contour point {z}; perturb the rectangle")
        dphi = cmath.phase(vb / va)
        if abs(dphi) >= math.pi / 4.0 and abs(b - a) > 1e-12:
            todo.append(sample(0.5 * (a + b)))
            min_abs = min(min_abs, abs(todo[-1][1]))
            continue
        total += dphi
        a, va = todo.pop()
    winding = total / (2.0 * math.pi)
    if not math.isfinite(winding):  # finite samples near the float limit overflow a quotient vb / va
        raise RangeError("det(M(z)-B) lies too near the float limit for the phase steps of this contour")
    count = round(winding)
    if abs(winding - count) > 0.05:
        raise ArgumentPrincipleError(f"winding number {winding:.4f} did not settle near an integer")
    return ComplexCountReport(count, min_abs < 1e-3 * scale, samples, min_abs)


# -- negative spectrum ---------------------------------------------------------


def negative_count(spec: ExtensionSpec):
    """(count through M(0), oracle count or None).

    The oracle count is None where the kind or B has no oracle operator, and
    where rounding could decide it: 8 eps ||T||_inf (T.norm bounds the norm)
    not below half of ORACLE_ZERO_CUT, as on a very short interval.

    The headline law: dim E_{A_B}(-inf, 0) is N_0(0) plus the number of
    negative eigenvalues of B - M(0) (WeylModel.count_below_zero).  An
    eigenvalue w of B - M(0) with |w| <= ZERO_EIGENVALUE counts as zero
    (B = M(0) is the Krein extension, which has none); one with
    ZERO_EIGENVALUE < |w| <= 3 est_error of M(0) has a sign M(0) cannot
    decide, and raises AccuracyError.
    """
    if not spec.is_hermitian:
        raise ContractError("negative_count requires Hermitian B")
    model = spec.model
    m0 = m_at_zero(model)
    band = 3.0 * m0.est_error
    if band > ZERO_EIGENVALUE:
        w = herm_part(spec.B - m0.value)

        def below(shift):  # (eigenvalues of w below shift, at or below it)
            neg, zero, _ = inertia(w - Matrix.identity(model.n).scale(shift))
            return neg, neg + zero

        undecided = (below(band)[1] - below(ZERO_EIGENVALUE)[1], below(-ZERO_EIGENVALUE)[0] - below(-band)[0])
        if max(undecided) > 0:
            raise AccuracyError(
                f"{sum(undecided)} eigenvalue(s) of B - M(0) within 3 est_error of M(0) "
                f"({band:.3g}) of zero, so the sign is undecided",
                estimate=m0.est_error,
            )
    kappa_m = model.count_below_zero(spec.B, m0.value)
    ops = _oracle_operators(spec)
    kappa_oracle = None
    # a floating-point Sturm count is the exact count of a matrix within a few
    # ulps of T entry by entry (Demmel, Dhillon & Ren, ETNA 3, 1995), so the
    # count at -cut is T's own only where 8 eps ||T||_inf is well inside the cut
    if ops is not None and all(8.0 * sys.float_info.epsilon * op.norm < ORACLE_ZERO_CUT / 2.0
                                for op in ops):
        kappa_oracle = sum(oracle_mod.eigen_count_below(op, -ORACLE_ZERO_CUT) for op in ops)
    return kappa_m, kappa_oracle


def krein_extension(model: WeylModel) -> ExtensionSpec:
    """The soft extension B = M(0): dom = ker(Gamma_1 - M(0) Gamma_0), A_B >= 0."""
    m0 = m_at_zero(model)
    return ExtensionSpec(model, m0.value)


# -- resolvent rank law ---------------------------------------------------------


class RankLawReport(Value):
    _fields = ("rank_weyl", "rank_resolvent_parameter", "rank_difference", "rank_oracle", "agree")


def resolvent_rank_law(spec1: ExtensionSpec, spec2: ExtensionSpec, z: complex,
                       zeta: complex) -> RankLawReport:
    """Rank of (B1-M(z))^-1 - (B2-M(z))^-1 vs (B1-zeta)^-1 - (B2-zeta)^-1 vs B1-B2.

    At matrix scale the operator-ideal equivalences collapse to one integer;
    the optional oracle rank samples the discretized resolvent difference.
    """
    if spec1.model != spec2.model:
        raise ContractError("rank law needs a shared model")
    b1, b2 = spec1.B, spec2.B
    m = evaluate(spec1.model, complex(z))

    def inv_or_error(mat: Matrix, which: str) -> Matrix:
        try:
            return inverse(mat)
        except SingularMatrixError as e:
            raise SpectralPointError(f"{which} is singular: point in a spectrum") from e

    r_weyl = numeric_rank(
        inv_or_error(b1 - m, f"B1 - M({z})") - inv_or_error(b2 - m, f"B2 - M({z})"), RANK_TAU
    )
    zi = Matrix.identity(b1.rows).scale(complex(zeta))
    r_param = numeric_rank(
        inv_or_error(b1 - zi, f"B1 - {zeta}") - inv_or_error(b2 - zi, f"B2 - {zeta}"), RANK_TAU
    )
    r_diff = numeric_rank(b1 - b2, RANK_TAU)

    rank_oracle = None
    ops1 = _oracle_operators(spec1)
    ops2 = _oracle_operators(spec2)
    # a Dirichlet side (an h family member at B = -h) drops its end node: no shared grid
    if ops1 is not None and ops2 is not None and [o.size for o in ops1] == [o.size for o in ops2]:
        rank_oracle = sum(
            oracle_mod.resolvent_difference_rank(o1, o2, complex(z))
            for o1, o2 in zip(ops1, ops2)
        )
    agree = r_weyl == r_param == r_diff and (rank_oracle is None or rank_oracle == r_diff)
    return RankLawReport(r_weyl, r_param, r_diff, rank_oracle, agree)
