"""The Weyl-function catalog: one frozen class per operator family.

Each class holds its own parameters plus kind, n and ess_floor (-inf allowed;
+inf means purely discrete), its z-independent constants, computed once at
construction, and every rule of its kind: M(z) (evaluate(model, z) checks the
domain and calls it), m_at_zero (a direct route to M(0), with no limit
x -> 0- to extrapolate), the eigenvalue counts below a real x, the oracle
discretizations of A_B and the operator potential's Robin matrix.  A rule a
kind lacks is None.

Below the floor N_B(x) = N_0(x) + ind_+(M(x) - B) counts the eigenvalues of
A_B below x (Derkach & Malamud 1991), N_0 those of the reference extension
ker Gamma_0, the poles of M: 0 for the closed-form kinds, a Sturm
oscillation count for the ODE kinds.  The interval takes the inertia of the
congruent Y0* (Y1 - B Y0), finite where poles and eigenvalues collide; an h
family member counts through the (y(0), y'(0)) triplet.

All models satisfy M(conj z) = M(z)* and the Herglotz property Im M >= 0 on the
upper half-plane; those two facts are the acceptance anchor for every branch
choice below.

Branch conventions:
  * half-line / interval models go through the ODE solver, no branch needed;
  * the operator-potential square root (A - I - z)^(1/2) is taken with
    non-negative real part, written as -i*sqrt_upper(z - (a-1)); this is the
    unique choice under which the model is Herglotz;
  * strip entries depend only on the square of that root, so any branch works;
  * sector powers use the cut along [0, inf):
    z^beta := cpow(sqrt_upper(z), 2 beta);
  * the corner quotient is a function of z itself (a ratio of two entire
    series in z), so it needs no branch; sqrt_upper(z) only sizes its guards.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

from . import oracle
from .errors import (AccuracyError, DomainError, EvalError, PoleError, RangeError,
                     TransversalityError)
from .linalg import Matrix, herm_part, hermitian_eigen, lambda_min, unchecked
from .slsolve import (
    PotentialSpec,
    boundary_ratio,
    decaying_solution,
    finite_interval_M,
    fundamental_system,
    h_map,
    halfline_m,
    halfline_oscillation,
    tail_support,
    threshold_solution,
)
from .specfun import BESSEL_RANGE, gamma, sqrt_upper, upper_power

# the propagation tolerance of every M(0) route that integrates
M0_RTOL = 1e-11
# an eigenvalue of B - M(0) this close to 0 is zero: B = M(0), the Krein
# extension, has no negative eigenvalue
ZERO_EIGENVALUE = 1e-9


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
    robin_matrix = oracle_operators = None

    def _derive(self, **values):
        """Set attributes on the frozen instance once, at construction."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def M(self, z: complex) -> Matrix:
        raise NotImplementedError

    def m_at_zero(self) -> MZeroResult:
        raise NotImplementedError

    def reference_count(self, x: float) -> int:
        """N_0(x): eigenvalues below x of ker Gamma_0, the poles of M; M is
        analytic below the floor unless a kind says otherwise."""
        return 0

    def eigen_count(self, b: Matrix, x: float) -> int:
        """N_B(x): eigenvalues of A_b below a real x under the floor."""
        return self.reference_count(x) + _positive_index(self.M(complex(x)) - b)

    def count_below_zero(self, b: Matrix, m0: Matrix) -> int:
        """N_B(0) from M(0) = m0: N_0(0) plus the eigenvalues of b - m0 below
        -ZERO_EIGENVALUE."""
        negative = sum(1 for w in hermitian_eigen(herm_part(b - m0)) if w < -ZERO_EIGENVALUE)
        return self.reference_count(0.0) + negative


def _positive_index(m: Matrix) -> int:
    return sum(1 for w in hermitian_eigen(m) if w > 0.0)


def _diag(entries: list) -> Matrix:
    """The diagonal matrix of a list of complex entries, assembled row-major."""
    n = len(entries)
    data = [0j] * (n * n)
    data[:: n + 1] = entries
    return unchecked(n, n, tuple(data))


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

    def _robin(self, b: Matrix) -> float | None:
        """The r of y'(0) = r y(0) that A_b is in the (y(0), y'(0)) triplet, or
        None for y(0) = 0: m_h = b means m = (1 + h b)/(b + h), Dirichlet at b = -h."""
        b = b.at(0, 0).real
        if self.h is None:
            return b
        return None if b == -self.h else (1.0 + self.h * b) / (b + self.h)

    def _robin_count(self, r: float | None, x: float) -> int:
        """Eigenvalues below x of y'(0) = r y(0) (r = None: y(0) = 0) in the
        (y(0), y'(0)) triplet, where m -> -inf below the spectrum: the
        Dirichlet ones plus ind_+(m(x) - r)."""
        zeros, y, yp = halfline_oscillation(self.q, x)
        # m - r = (y' - r y)/y has the sign of (y' - r y) y
        return zeros if r is None else zeros + ((yp - r * y) * y > 0.0)

    def reference_count(self, x: float) -> int:
        """Dirichlet eigenvalues below x; for a finite h those of y'(0) = h y(0),
        the poles of m_h."""
        return self._robin_count(self.h, x)

    def eigen_count(self, b: Matrix, x: float) -> int:
        return self._robin_count(self._robin(b), x)

    def count_below_zero(self, b: Matrix, m0: Matrix) -> int:
        """For a finite h, through the (y(0), y'(0)) triplet: with r = _robin(b),
        b - m_h = (b + h)(m - r)/(m - h) and m_h + h = (1 - h^2)/(m - h), so
        m(0) - r has the sign of w (b + h)(1 - h^2)(M(0) + h), w = b - M(0),
        and w = 0 (the Krein extension) adds none."""
        if self.h is None:
            return super().count_below_zero(b, m0)
        h, bb, mh = self.h, b.at(0, 0).real, m0.at(0, 0).real
        zeros = self._robin_count(None, 0.0)
        w = bb - mh
        if bb == -h or abs(w) <= ZERO_EIGENVALUE:
            return zeros
        return zeros + (w * (bb + h) * (1.0 - h * h) * (mh + h) > 0.0)

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
        r = self._robin(b)
        if r is None:
            return [oracle.halfline_dirichlet_operator(self.q)]
        return [oracle.halfline_operator(self.q, r)]


@dataclass(frozen=True)
class FiniteInterval(WeylModel):
    """-y'' + q y on [0, b] with the triplet (y(0), y(b)) / (y'(0), -y'(b))."""

    q: PotentialSpec
    b: float
    kind = "finite_interval"
    n = 2
    ess_floor = math.inf

    def __post_init__(self):
        if self.b <= 0:
            raise EvalError("must be positive", field="b")

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

    def reference_count(self, x: float) -> int:
        """Dirichlet eigenvalues below x: the zeros of u2 in (0, b)."""
        return fundamental_system(self.q, self.b, x).dirichlet_count

    def eigen_count(self, b: Matrix, x: float) -> int:
        """N_0(x) plus the inertia of Y0* (Y1 - B Y0), congruent to M - B where
        Y0 is invertible (Sylvester) and finite where it is not."""
        fs = fundamental_system(self.q, self.b, x)
        congruent = herm_part(fs.Y0.adjoint() @ (fs.Y1 - b @ fs.Y0))
        return fs.dirichlet_count + _positive_index(congruent)

    def oracle_operators(self, b: Matrix):
        if not _is_diagonal(b):
            return None
        return [oracle.interval_operator(self.q, self.b, b.at(0, 0).real, b.at(1, 1).real, n=2000)]


def _checked_diagonal(a_diag) -> tuple:
    a = tuple(float(v) for v in a_diag)
    if not a:
        raise EvalError("must not be empty", field="a_diag")
    for i, v in enumerate(a):
        if v < 1.0:
            raise EvalError("must be >= 1", field=f"a_diag[{i}]")
    return a


@dataclass(frozen=True)
class OperatorPotentialHalfline(WeylModel):
    """-y'' + A y on [0, inf) with a diagonal A >= I, one channel per entry."""

    a_diag: tuple
    kind = "operator_potential_halfline"

    def __post_init__(self):
        a = _checked_diagonal(self.a_diag)
        self._derive(a_diag=a, n=len(a), ess_floor=min(a) - 1.0,
                     _channels=tuple((math.sqrt(v), v - 1.0) for v in a))

    def M(self, z: complex) -> Matrix:
        # sqrt(a-1-z) with Re >= 0 (decaying defect solution) = -i sqrt_upper(z-(a-1))
        return _diag([ra * (ra - (-1j * sqrt_upper(z - shift))) for ra, shift in self._channels])

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
        a = _checked_diagonal(self.a_diag)
        if self.width <= 0:
            raise EvalError("must be positive", field="width")
        self._derive(a_diag=a, width=float(self.width), n=2 * len(a), ess_floor=min(a) - 1.0,
                     _channels=tuple((v, math.sqrt(v), v - 1.0) for v in a))

    def M(self, z: complex) -> Matrix:
        m, n = len(self.a_diag), self.n
        data = [0j] * (n * n)
        for i, (a, ra, shift) in enumerate(self._channels):
            coth, csch = _kappa_pair(shift, self.width, z)
            data[i * (n + 1)] = data[(m + i) * (n + 1)] = a - ra * coth
            data[i * n + m + i] = data[(m + i) * n + i] = -ra * csch
        return unchecked(n, n, tuple(data))

    def m_at_zero(self) -> MZeroResult:
        # the strip entries depend on kappa^2 only, hence are analytic at 0
        return MZeroResult(herm_part(self.M(0j)), "closed_form", 0.0)


def _kappa_pair(shift: float, w: float, z: complex):
    """(kappa coth(w kappa), kappa / sinh(w kappa)) for kappa^2 = shift - z, shift = a-1.

    Both are even in kappa, so the branch is irrelevant; computed from the
    root with Re >= 0 through decaying exponentials for stability.
    """
    kappa = -1j * sqrt_upper(z - shift)
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


@functools.lru_cache(maxsize=16)
def _series_denominators(beta: float) -> tuple:
    """The corner series' term-ratio denominators (k (k + beta), k (k - beta)),
    k = 1..400, built once per beta."""
    return tuple((k * (k + beta), k * (k - beta)) for k in range(1, 401))


def _checked_beta(beta, field: str = "beta") -> float:
    if not 0.5 < beta < 1.0:
        raise EvalError("must lie in the open interval (0.5, 1)", field=field)
    return float(beta)


@dataclass(frozen=True)
class Corner(WeylModel):
    """The corner of opening beta: a Bessel-function quotient in sqrt z,

        M(z) = -Gamma(1-beta) J_{-beta}(s) (s/2)^(2 beta) / (Gamma(1+beta) J_beta(s)),  s = sqrt z,

    summed as -S_{-beta}(z) / S_beta(z).  J_nu(s) = (s/2)^nu S_nu(z) / Gamma(1+nu)
    with the entire S_nu(z) = sum_k (-z/4)^k / (k! (1+nu)_k) (DLMF 10.2.2), so the
    Gamma factors and the powers of s/2 cancel in the quotient."""

    beta: float
    kind = "corner"

    def __post_init__(self):
        beta = _checked_beta(self.beta)
        self._derive(beta=beta, _denominators=_series_denominators(beta))

    def M(self, z: complex) -> Matrix:
        return unchecked(1, 1, (self.scalar(z),))

    def scalar(self, z: complex) -> complex:
        s = sqrt_upper(z)
        if abs(s) > BESSEL_RANGE:
            raise RangeError(f"corner model limited to |sqrt z| <= {BESSEL_RANGE}")
        # terms of about e^(|s| - |Im s|) |J| cancel: refuse past the 1e-10 the ODE kinds meet
        estimate = 1e-16 * math.exp(abs(s) - abs(s.imag))
        if estimate > 1e-10:
            raise AccuracyError(f"corner series cancels at z={z}", estimate)
        w = -0.25 * z
        term_p = term_m = sum_p = sum_m = 1.0 + 0j
        # both series stop once a term is below 1e-17 of its sum (absolute near a zero);
        # at |z| = BESSEL_RANGE^2 that takes about 60 terms
        for den_p, den_m in self._denominators:
            term_p *= w / den_p
            term_m *= w / den_m
            sum_p += term_p
            sum_m += term_m
            if abs(term_p) < 1e-17 * abs(sum_p) + 1e-300 and abs(term_m) < 1e-17 * abs(sum_m) + 1e-300:
                break
        else:
            raise RangeError(f"corner series failed to terminate at z={z}")
        if abs(sum_p) < 1e-300:
            raise DomainError(f"corner model pole at z={z}")
        return -sum_m / sum_p

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
        if not self.betas:
            raise EvalError("must not be empty", field="betas")
        corners = tuple(Corner(_checked_beta(b, f"betas[{i}]")) for i, b in enumerate(self.betas))
        self._derive(betas=tuple(c.beta for c in corners), n=len(corners), _corners=corners)

    def M(self, z: complex) -> Matrix:
        return _diag([c.scalar(z) for c in self._corners])

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
        return unchecked(1, 1, (self._coefficient * upper_power(z, self.beta),))

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
