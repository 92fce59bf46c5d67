"""The Weyl-function catalog: one frozen class per operator family.

Each class holds its own parameters plus kind, n and ess_floor (-inf allowed;
+inf means purely discrete), its z-independent constants, computed once at
construction, and every rule of its kind: M(z) (evaluate(model, z) checks the
domain and calls it), m_at_zero (a direct route to M(0), with no limit
x -> 0- to extrapolate), the pole indicator (a real function of x whose sign
changes are the poles of M below the floor), the interval's entire pencil
Y1 - B Y0, the oracle discretizations of A_B and of the Dirichlet reference,
and the operator potential's Robin matrix.  A rule a kind lacks is None.

All models satisfy M(conj z) = M(z)* and the Herglotz property Im M >= 0 on the
upper half-plane; those two facts are the acceptance anchor for every branch
choice below.

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

from . import oracle
from .errors import (AccuracyError, ContractError, DomainError, EvalError, PoleError, RangeError,
                     TransversalityError)
from .linalg import Matrix, herm_part, lambda_min
from .slsolve import (
    PotentialSpec,
    boundary_ratio,
    decaying_solution,
    finite_interval_M,
    fundamental_system,
    h_map,
    halfline_m,
    tail_support,
    threshold_solution,
)
from .specfun import BESSEL_RANGE, bessel_j, cpow, gamma, sqrt_upper, upper_power

# the propagation tolerance of every M(0) route that integrates
M0_RTOL = 1e-11


@dataclass(frozen=True)
class MZeroResult:
    value: Matrix  # Hermitian
    method: str  # "closed_form" | "tail_matched" | "threshold" | "truncated" | "propagated"
    est_error: float


@dataclass(frozen=True)
class WeylModel:
    """Base of the catalog.  A subclass is a frozen dataclass of its own
    parameters; it sets kind, and n and ess_floor where they differ from 1 and 0."""

    kind = ""
    n = 1
    ess_floor = 0.0
    pole_indicator = entire_pencil = robin_matrix = None
    oracle_operators = dirichlet_reference = reference_scan_window = None

    def _derive(self, **values):
        """Set attributes on the frozen instance once, at construction."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def M(self, z: complex) -> Matrix:
        raise NotImplementedError

    def m_at_zero(self) -> MZeroResult:
        raise NotImplementedError


@dataclass(frozen=True)
class HalfLine(WeylModel):
    """-y'' + q y on [0, inf) with the triplet (y(0), y'(0)); a finite h selects
    the member m_h = (1 - h m) / (m - h) of the one-parameter family."""

    q: PotentialSpec
    h: float | None = None
    kind = "half_line"

    def __post_init__(self):
        self._derive(ess_floor=self.q.tail)

    def M(self, z: complex) -> Matrix:
        return Matrix.scalar(halfline_m(self.q, self.h, z))

    def pole_indicator(self, x: float) -> float:
        """y(0; x) of the decaying solution."""
        return decaying_solution(self.q, complex(x))[0].real

    def m_at_zero(self) -> MZeroResult:
        """M_inf(0) = y'(0)/y(0) of the solution bounded at infinity at z = 0
        itself, mapped once through the h family.  A floor below 0 has no M(0).

        A floor of exactly 0 without a constant tail takes threshold_solution
        and adds its settling error to the estimate.  Otherwise it is the
        decaying solution at z = 0: tail-matched, or truncated where M is
        analytic at 0, adding twice the truncation error, the relative error
        of a truncated m (labelled by the tail, as an error may underflow to
        0).  y(0) = 0 has no M(0).
        """
        if self.ess_floor < 0.0:
            raise DomainError(
                f"0 lies in the essential spectrum [{self.ess_floor}, inf): M(0) does not exist"
            )
        matched = tail_support(self.q) is not None
        threshold = self.ess_floor == 0.0 and not matched
        try:
            if threshold:
                y, yp, error = threshold_solution(self.q, M0_RTOL)
            else:
                y, yp, error = decaying_solution(self.q, 0j, rtol=M0_RTOL)
            m = boundary_ratio(y, yp, 0j).real
        except PoleError as e:
            raise TransversalityError("y(0; 0) = 0: M(x) is unbounded as x -> 0-") from e
        est = M0_RTOL * (1.0 + abs(m)) * max(abs(y), abs(yp)) / abs(y)
        if threshold:
            method, est = "threshold", est + error
        elif matched:
            method = "tail_matched"
        else:
            method, est = "truncated", est + 2.0 * error * (1.0 + abs(m))
        if self.h is not None:
            denom = m - self.h
            try:
                m = h_map(m, self.h)
            except PoleError as e:
                raise TransversalityError(f"M(0) = h = {self.h}: pole of the h-triplet family") from e
            est *= abs(1.0 - self.h * self.h) / (denom * denom)
        return MZeroResult(Matrix.scalar(m), method, est)

    def oracle_operators(self, b: Matrix):
        if self.h is not None:
            return None
        return [oracle.halfline_operator(self.q, b.at(0, 0).real)]

    def dirichlet_reference(self):
        if self.h is not None:
            raise ContractError("negative_count needs the (y(0), y'(0)) triplet")
        return oracle.halfline_dirichlet_operator(self.q)

    def reference_scan_window(self):
        """[min q - 1, 0] when q has a constant tail >= 0, or None.  y is then
        tail-matched, so the pole indicator also changes sign at a Dirichlet
        eigenvalue below 0 whose decay length exceeds the oracle's box (a
        threshold resonance)."""
        support = tail_support(self.q)
        if support is None or self.q.tail < 0.0:
            return None
        # past the support so that the tail piece counts; a table's nodes bound its linear segments
        pieces = self.q.pieces(0.0, support + 1.0)
        return min([c for _lo, _hi, c in pieces if c is not None] + list(self.q.values)) - 1.0, 0.0


@dataclass(frozen=True)
class FiniteInterval(WeylModel):
    """-y'' + q y on [0, b] with the triplet (y(0), y(b)) / (y'(0), -y'(b))."""

    q: PotentialSpec
    b: float
    kind = "finite_interval"
    n = 2
    ess_floor = math.inf

    def M(self, z: complex) -> Matrix:
        return finite_interval_M(self.q, self.b, z)

    def m_at_zero(self) -> MZeroResult:
        """M(0) itself: M is analytic at 0 unless 0 is a Dirichlet eigenvalue.
        The entries of M are u1(b), 1 and u2'(b) over u2(b), so the relative
        error M0_RTOL of the solutions grows by at most about (1 + |M|)^2."""
        try:
            value = finite_interval_M(self.q, self.b, 0j, rtol=M0_RTOL)
        except PoleError as e:
            raise TransversalityError("0 is a Dirichlet eigenvalue: M(x) is unbounded as x -> 0-") from e
        return MZeroResult(herm_part(value), "propagated", M0_RTOL * (1.0 + value.norm_max()) ** 2)

    def entire_pencil(self, b: Matrix, x: float) -> Matrix:
        """Y1(x) - B Y0(x): entire in x and singular exactly at the eigenvalues of
        A_B, so it stays finite through pole-eigenvalue collisions."""
        fs = fundamental_system(self.q, self.b, complex(x))
        return fs.Y1 - b @ fs.Y0

    def oracle_operators(self, b: Matrix):
        if not _is_diagonal(b):
            return None
        return [oracle.interval_operator(self.q, self.b, b.at(0, 0).real, b.at(1, 1).real, n=2000)]

    def dirichlet_reference(self):
        return oracle.discretize(self.q, self.b, 2000, None, None)


def _checked_diagonal(a_diag, what: str) -> tuple:
    a = tuple(float(v) for v in a_diag)
    if not a or any(v < 1.0 for v in a):
        raise EvalError(f"{what} needs diagonal entries >= 1")
    return a


@dataclass(frozen=True)
class OperatorPotentialHalfline(WeylModel):
    """-y'' + A y on [0, inf) with a diagonal A >= I, one channel per entry."""

    a_diag: tuple
    kind = "operator_potential_halfline"

    def __post_init__(self):
        a = _checked_diagonal(self.a_diag, "operator potential")
        self._derive(a_diag=a, n=len(a), ess_floor=min(a) - 1.0)

    def M(self, z: complex) -> Matrix:
        # sqrt(a-1-z) with Re >= 0 (decaying defect solution) = -i sqrt_upper(z-(a-1))
        roots = [-1j * sqrt_upper(z - (a - 1.0)) for a in self.a_diag]
        return Matrix.diag([math.sqrt(a) * (math.sqrt(a) - r) for a, r in zip(self.a_diag, roots)])

    def m_at_zero(self) -> MZeroResult:
        vals = [math.sqrt(a) * (math.sqrt(a) - math.sqrt(a - 1.0)) for a in self.a_diag]
        return MZeroResult(Matrix.diag(vals), "closed_form", 0.0)

    def robin_matrix(self, b: Matrix) -> Matrix:
        """Un-weight the triplet: the Robin matrix S with y'(0) = S y(0) for the
        extension A_B, i.e. S = A^(-1/4) B A^(-1/4) - A^(1/2)."""
        a = self.a_diag
        return Matrix.from_rows([
            [
                b.at(i, j) / (a[i] ** 0.25 * a[j] ** 0.25) - (math.sqrt(a[i]) if i == j else 0.0)
                for j in range(self.n)
            ]
            for i in range(self.n)
        ])

    def oracle_operators(self, b: Matrix):
        if not _is_diagonal(b):
            return None
        ops = []
        for i, a in enumerate(self.a_diag):
            s = b.at(i, i).real / math.sqrt(a) - math.sqrt(a)
            kappa2 = a - 1.0
            L = 40.0 if kappa2 < 0.25 else max(16.0, 30.0 / math.sqrt(kappa2))
            n = max(3000, int(L / 2.4e-3))
            ops.append(oracle.discretize(oracle.constant_potential(kappa2, L), L, n, s, None))
        return ops


@dataclass(frozen=True)
class Strip(WeylModel):
    """The strip of width w with a diagonal A >= I: a channel pair per entry."""

    a_diag: tuple
    width: float = math.pi
    kind = "strip"

    def __post_init__(self):
        a = _checked_diagonal(self.a_diag, "strip model")
        if self.width <= 0:
            raise EvalError("strip width must be positive")
        self._derive(a_diag=a, width=float(self.width), n=2 * len(a), ess_floor=min(a) - 1.0)

    def M(self, z: complex) -> Matrix:
        m = len(self.a_diag)
        out = [[0j] * (2 * m) for _ in range(2 * m)]
        for i, a in enumerate(self.a_diag):
            coth, csch = _kappa_pair(a, self.width, z)
            ra = math.sqrt(a)
            out[i][i] = out[m + i][m + i] = a - ra * coth
            out[i][m + i] = out[m + i][i] = -ra * csch
        return Matrix.from_rows(out)

    def m_at_zero(self) -> MZeroResult:
        # the strip entries depend on kappa^2 only, hence are analytic at 0
        return MZeroResult(herm_part(self.M(0j)), "closed_form", 0.0)


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


def _checked_beta(beta) -> float:
    if not 0.5 < beta < 1.0:
        raise EvalError(f"beta must lie in (1/2, 1), got {beta}")
    return float(beta)


@dataclass(frozen=True)
class Corner(WeylModel):
    """The corner of opening beta: a Bessel-function quotient in sqrt z."""

    beta: float
    kind = "corner"

    def __post_init__(self):
        beta = _checked_beta(self.beta)
        self._derive(beta=beta, _gamma_minus=gamma(1.0 - beta), _gamma_plus=gamma(1.0 + beta))

    def M(self, z: complex) -> Matrix:
        return Matrix.scalar(self.scalar(z))

    def scalar(self, z: complex) -> complex:
        s = sqrt_upper(z)
        if abs(s) > BESSEL_RANGE:
            raise RangeError(f"corner model limited to |sqrt z| <= {BESSEL_RANGE}")
        # terms of about e^(|s| - |Im s|) |J| cancel: refuse past the 1e-10 the ODE kinds meet
        estimate = 1e-16 * math.exp(abs(s) - abs(s.imag))
        if estimate > 1e-10:
            raise AccuracyError(f"corner series cancels at z={z}", estimate)
        num = self._gamma_minus * bessel_j(-self.beta, s) * cpow(0.5 * s, 2.0 * self.beta)
        den = self._gamma_plus * bessel_j(self.beta, s)
        if abs(den) < 1e-300:
            raise DomainError(f"corner model pole at z={z}")
        return -num / den

    def m_at_zero(self) -> MZeroResult:
        # J_{+-beta}(s) ~ (s/2)^(+-beta) / Gamma(1 +- beta) as s -> 0: the
        # Gamma factors and the powers of s/2 cancel in the quotient
        return MZeroResult(Matrix.scalar(-1.0), "closed_form", 0.0)


@dataclass(frozen=True)
class MultiCorner(WeylModel):
    """Independent corners side by side: diag of the corner functions."""

    betas: tuple
    kind = "multi_corner"

    def __post_init__(self):
        corners = tuple(Corner(b) for b in self.betas)
        self._derive(betas=tuple(c.beta for c in corners), n=len(corners), _corners=corners)

    def M(self, z: complex) -> Matrix:
        return Matrix.diag([c.scalar(z) for c in self._corners])

    def m_at_zero(self) -> MZeroResult:
        return MZeroResult(Matrix.diag([-1.0] * self.n), "closed_form", 0.0)


def sector_constant(beta: float) -> complex:
    """The sector coefficient exp(-i beta pi) 4^(-beta) Gamma(1-beta)/Gamma(1+beta)."""
    return cmath.exp(-1j * beta * math.pi) * 4.0 ** (-beta) * gamma(1.0 - beta) / gamma(1.0 + beta)


@dataclass(frozen=True)
class Sector(WeylModel):
    """The sector model: a pure power, M(z) = -C_beta z^beta."""

    beta: float
    kind = "sector"

    def __post_init__(self):
        beta = _checked_beta(self.beta)
        # The Green-identity-consistent sign: -C_beta z^beta is the Herglotz
        # member of the family; the coefficient modulus and the z^beta power
        # law are unchanged.
        self._derive(beta=beta, _coefficient=-sector_constant(beta))

    def M(self, z: complex) -> Matrix:
        return Matrix.scalar(self._coefficient * upper_power(z, self.beta))

    def m_at_zero(self) -> MZeroResult:
        return MZeroResult(Matrix.scalar(0.0), "closed_form", 0.0)


@dataclass(frozen=True)
class CallableModel(WeylModel):
    """Wrap an arbitrary z -> Matrix map; test support for the report machinery."""

    fn: object = field(compare=False)
    n: int
    ess_floor: float = 0.0
    kind = "_callable"

    def M(self, z: complex) -> Matrix:
        return self.fn(z)


# The constructors under the names the problem files, verify and the tests use.
half_line = HalfLine
# the 3-D spherically symmetric problem is the half-line model with the same
# potential and the (y(0), y'(0)) triplet
radial_schrodinger = HalfLine
finite_interval = FiniteInterval
operator_potential_halfline = OperatorPotentialHalfline
strip = Strip
corner = Corner
sector = Sector
multi_corner = MultiCorner
callable_model = CallableModel


def _is_diagonal(b: Matrix) -> bool:
    return all(
        abs(b.at(i, j)) <= 1e-12 * max(1.0, b.norm_max())
        for i in range(b.rows)
        for j in range(b.cols)
        if i != j
    )


# -- evaluation -------------------------------------------------------------


def evaluate(model: WeylModel, z: complex) -> Matrix:
    """M(z) for z with Im z != 0, or real z below the essential-spectrum floor."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= model.ess_floor:
        raise DomainError(
            f"z={z.real} lies on/above the essential-spectrum floor {model.ess_floor}"
        )
    return model.M(z)


# -- M(0) -------------------------------------------------------------------


def m_at_zero(model: WeylModel) -> MZeroResult:
    """Boundary value M(0) = lim_{x -> 0-} M(x), by the model's own direct
    route: a closed form, the bounded solution at z = 0 (tail-matched, seeded
    at the threshold or Dirichlet-truncated), or the propagated M(0) itself."""
    return model.m_at_zero()


# -- classification report ----------------------------------------------------


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
    mats = [herm_part(model.M(complex(x))) for x in xs]
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
    mats = [model.M(complex(z)) for z in zs]
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
