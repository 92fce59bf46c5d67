"""Boundary-coordinate changes: J-unitary block transforms acting on (M, B).

A transform consists of a unitary U and a 2x2 block matrix X acting on the
trace pair (top row maps the first trace, bottom row the second).  Validity
means the six block relations

    X11* X21 = X21* X11      X12* X22 = X22* X12      X11* X22 - X21* X12 = I
    X11 X12* = X12 X11*      X21 X22* = X22 X21*      X11 X22* - X12 X21* = I

hold to tolerance; they are checked eagerly at construction because a
violating transform produces subtly non-Herglotz outputs rather than loud
failures.  A block with an inf or nan entry, or a residual that is not a
finite number within tolerance, fails validation too.  The same Mobius
action applies to the Weyl function and to the boundary operator, which is
exactly what keeps extension spectra invariant.
"""

from __future__ import annotations

import cmath
import math
import random

from .errors import DimensionError, SingularMatrixError, TransformValidationError, TransversalityError
from .linalg import Matrix, inverse, solve
from .values import Value

VALIDATION_TOL = 1e-8


class TripletTransform(Value):
    _fields = ("U", "X11", "X12", "X21", "X22")  # n x n Matrix each

    def __post_init__(self):
        # derived once per transform, outside ==, hash and repr: U*, the
        # adjoints of P, Q = U X11, U X12 (U folded on the left only, where no
        # unitarity is assumed), X21*, X22*, and ||X22||_F
        self._derive(U_star=self.U.adjoint(), P_star=(self.U @ self.X11).adjoint(),
                     Q_star=(self.U @ self.X12).adjoint(), X21_star=self.X21.adjoint(),
                     X22_star=self.X22.adjoint(), X22_fro=self.X22.norm_fro())

    @property
    def n(self) -> int:
        return self.U.rows


def j_unitarity_residuals(x11: Matrix, x12: Matrix, x21: Matrix, x22: Matrix):
    ident = Matrix.identity(x11.rows)
    pairs = {
        "X11*X21 = X21*X11": x11.adjoint() @ x21 - x21.adjoint() @ x11,
        "X12*X22 = X22*X12": x12.adjoint() @ x22 - x22.adjoint() @ x12,
        "X11*X22 - X21*X12 = I": x11.adjoint() @ x22 - x21.adjoint() @ x12 - ident,
        "X11 X12* = X12 X11*": x11 @ x12.adjoint() - x12 @ x11.adjoint(),
        "X21 X22* = X22 X21*": x21 @ x22.adjoint() - x22 @ x21.adjoint(),
        "X11 X22* - X12 X21* = I": x11 @ x22.adjoint() - x12 @ x21.adjoint() - ident,
    }
    return {name: m.norm_fro() for name, m in pairs.items()}


def make_transform(U: Matrix, X11: Matrix, X12: Matrix, X21: Matrix, X22: Matrix) -> TripletTransform:
    n = U.rows
    failures = []
    for name, m in (("U", U), ("X11", X11), ("X12", X12), ("X21", X21), ("X22", X22)):
        if m.rows != n or m.cols != n:
            raise DimensionError(f"{name} must be {n}x{n}, got {m.rows}x{m.cols}")
        if not all(map(cmath.isfinite, m.data)):
            failures.append((f"{name} entries finite", math.inf))
    if failures:
        raise TransformValidationError(failures)
    residuals = {"U*U = I": (U.adjoint() @ U - Matrix.identity(n)).norm_fro()}
    residuals.update(j_unitarity_residuals(X11, X12, X21, X22))
    # `not res <= tol` also refuses a nan residual
    failures = [(name, res) for name, res in residuals.items() if not res <= VALIDATION_TOL]
    if failures:
        raise TransformValidationError(failures)
    return TripletTransform(U, X11, X12, X21, X22)


def identity_transform(n: int) -> TripletTransform:
    i = Matrix.identity(n)
    z = Matrix.zeros(n, n)
    return TripletTransform(i, i, z, z, i)


def _mobius(t: TripletTransform, m: Matrix) -> Matrix:
    """(P M + Q)(X21 M + X22)^-1 U*, the core taken as the adjoint of the
    solution of (X21 M + X22)* X = (P M + Q)*: one right solve, no inverse.

    U enters on the left through P, Q and on the right through U* itself, so the
    result is the congruence U A U* for any U that passed validation, not a
    similarity that holds only when U* = U^-1 exactly.
    """
    m_star = m.adjoint()
    x21m_star = m_star @ t.X21_star
    denom_star = x21m_star + t.X22_star
    # singularity must be judged against the input scale, not the (possibly
    # fully cancelled) denominator itself
    scale = max(x21m_star.norm_fro(), t.X22_fro, 1e-30)
    if denom_star.norm_fro() < 1e-12 * scale:
        raise TransversalityError("Mobius denominator X21*M + X22 vanishes")
    try:
        core_star = solve(denom_star, m_star @ t.P_star + t.Q_star)
    except SingularMatrixError as e:
        raise TransversalityError(
            f"Mobius denominator X21*M + X22 singular (pivot {e.smallest_pivot:.3e})"
        ) from e
    return core_star.adjoint() @ t.U_star


def transform_weyl(t: TripletTransform, m: Matrix) -> Matrix:
    """M -> U (X11 M + X12)(X21 M + X22)^-1 U* = (P M + Q)(X21 M + X22)^-1 U*."""
    return _mobius(t, m)


def transform_boundary_operator(t: TripletTransform, b: Matrix) -> Matrix:
    """Same Mobius action on B, so that A_B is unchanged as an operator."""
    return _mobius(t, b)


def compose(t2: TripletTransform, t1: TripletTransform) -> TripletTransform:
    """Transform equal to applying t1 first, then t2."""
    u1 = t1.U
    u1a = u1.adjoint()

    def conj(m: Matrix) -> Matrix:
        return u1a @ m @ u1

    x11 = conj(t2.X11) @ t1.X11 + conj(t2.X12) @ t1.X21
    x12 = conj(t2.X11) @ t1.X12 + conj(t2.X12) @ t1.X22
    x21 = conj(t2.X21) @ t1.X11 + conj(t2.X22) @ t1.X21
    x22 = conj(t2.X21) @ t1.X12 + conj(t2.X22) @ t1.X22
    return make_transform(t2.U @ t1.U, x11, x12, x21, x22)


# -- generators (used by the verification suites) ---------------------------


def random_unitary(rng: random.Random, n: int) -> Matrix:
    """Gram-Schmidt of a random complex matrix."""
    cols = []
    for _ in range(n):
        while True:
            v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
            for c in cols:
                ip = sum(x.conjugate() * y for x, y in zip(c, v))
                v = [y - ip * x for x, y in zip(c, v)]
            nrm = math.sqrt(sum(abs(x) ** 2 for x in v))
            if nrm > 1e-6:
                cols.append([x / nrm for x in v])
                break
    return Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def _random_hermitian(rng: random.Random, n: int) -> Matrix:
    a = Matrix.from_rows(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    )
    return (a + a.adjoint()).scale(0.5)


def sample_transform(rng: random.Random, n: int) -> TripletTransform:
    """Random valid transform: a product of shift / congruence / rotation generators,
    drawn again from the same rng where a nearly singular congruence fails validation."""
    while True:
        try:
            return _draw_transform(rng, n)
        except TransformValidationError:
            pass


def _draw_transform(rng: random.Random, n: int) -> TripletTransform:
    ident = Matrix.identity(n)
    zero = Matrix.zeros(n, n)
    t = identity_transform(n)
    for _ in range(3):
        pick = rng.randrange(4)
        if pick == 0:  # Gamma1 shift by Hermitian K
            k = _random_hermitian(rng, n)
            g = make_transform(ident, ident, k, zero, ident)
        elif pick == 1:  # Gamma0 shift: changes M^-1 by a Hermitian constant
            k = _random_hermitian(rng, n)
            g = make_transform(ident, ident, zero, k, ident)
        elif pick == 2:  # congruence by invertible C plus Hermitian offset D
            c = _random_hermitian(rng, n) + Matrix.identity(n).scale(2.5)
            cinv_adj = inverse(c).adjoint()
            d = _random_hermitian(rng, n)
            g = make_transform(ident, c, d @ cinv_adj, zero, cinv_adj)
        else:  # rotation mixing the two traces
            th = rng.uniform(-1.2, 1.2)
            g = make_transform(
                ident,
                ident.scale(math.cos(th)),
                ident.scale(math.sin(th)),
                ident.scale(-math.sin(th)),
                ident.scale(math.cos(th)),
            )
        t = compose(g, t)
    u = random_unitary(rng, n)
    return compose(make_transform(u, ident, zero, zero, ident), t)
