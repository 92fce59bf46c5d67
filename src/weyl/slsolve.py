"""Complex-parameter ODE machinery for Sturm-Liouville problems.

Fundamental systems on a finite interval (for the 2x2 interval Weyl matrix)
and truncated-domain m-functions on the half-line.  The half-line m-function
uses Dirichlet truncation at x = L plus backward integration rather than a
Riccati equation: no blow-through at solution zeros, and the truncation error
is exponentially small and estimable (~ exp(-2 Im sqrt(z - q_inf) L)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import expr
from .errors import AccuracyError, EvalError, PoleError, StiffnessError
from .linalg import Matrix, inverse
from .specfun import sqrt_upper

TRUNCATION_CAP = 200.0
_TRUNC_TARGET = 1e-13
_TRUNC_RAISE = 1e-11
_RESCALE_NORM = 1e100
# An expression potential's tail is q(1e6); it counts as settled only when q
# at these smaller x agrees with it to _TAIL_SETTLE_TOL * max(1, |q(1e6)|).
_TAIL_X = 1e6
_TAIL_PROBES = (1e4, 1e5)
_TAIL_SETTLE_TOL = 1e-6


@dataclass(frozen=True)
class PotentialSpec:
    """Immutable potential q(x): zero, square well, sampled table or expression."""

    kind: str  # "zero" | "square_well" | "sampled_table" | "expression"
    depth: float = 0.0
    width: float = 0.0
    nodes: tuple = ()
    values: tuple = ()
    source: str = ""
    domain_end: float = math.inf

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec("zero")

    @staticmethod
    def square_well(depth: float, width: float) -> "PotentialSpec":
        if width <= 0:
            raise EvalError("square_well width must be positive")
        return PotentialSpec("square_well", depth=float(depth), width=float(width))

    @staticmethod
    def table(nodes, values) -> "PotentialSpec":
        nodes = tuple(float(x) for x in nodes)
        values = tuple(float(v) for v in values)
        if len(nodes) != len(values) or len(nodes) < 2:
            raise EvalError("sampled_table needs matching nodes/values, at least two")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise EvalError("sampled_table nodes must be strictly increasing")
        return PotentialSpec("sampled_table", nodes=nodes, values=values)

    @staticmethod
    def expression(source: str) -> "PotentialSpec":
        expr.parse_potential(source)  # validate now; AST is rebuilt lazily
        return PotentialSpec("expression", source=source)

    @property
    def _ast(self):
        cached = self.__dict__.get("_ast_cache")
        if cached is None:
            cached = expr.parse_potential(self.source)
            self.__dict__["_ast_cache"] = cached
        return cached

    def value(self, x: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "square_well":
            return self.depth if 0.0 <= x < self.width else 0.0
        if self.kind == "sampled_table":
            nodes, vals = self.nodes, self.values
            if x <= nodes[0]:
                return vals[0]
            if x >= nodes[-1]:
                return vals[-1]
            lo, hi = 0, len(nodes) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if nodes[mid] <= x:
                    lo = mid
                else:
                    hi = mid
            t = (x - nodes[lo]) / (nodes[hi] - nodes[lo])
            return vals[lo] * (1.0 - t) + vals[hi] * t
        if self.kind == "expression":
            v = expr.evaluate(self._ast, x)
            if not math.isfinite(v):
                raise EvalError(f"potential not finite at x={x}")
            return v
        raise EvalError(f"unknown potential kind {self.kind!r}")

    def cell_average(self, a: float, b: float) -> float:
        """Mean of q over [a, b]; exact for the piecewise kinds.

        Discretizations sample through this so that potential jumps keep the
        stencil second-order accurate.
        """
        if b <= a:
            return self.value(a)
        if self.kind == "zero":
            return 0.0
        if self.kind == "square_well":
            overlap = max(0.0, min(b, self.width) - max(a, 0.0))
            return self.depth * overlap / (b - a)
        if self.kind == "sampled_table":
            knots = [a] + [x for x in self.nodes if a < x < b] + [b]
            acc = 0.0
            for lo, hi in zip(knots, knots[1:]):
                acc += 0.5 * (self.value(lo) + self.value(hi)) * (hi - lo)
            return acc / (b - a)
        mid = 0.5 * (a + b)
        return (self.value(a) + 4.0 * self.value(mid) + self.value(b)) / 6.0

    @property
    def tail(self) -> float:
        """Limit value of q used for truncation estimates."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "square_well":
            return 0.0
        if self.kind == "sampled_table":
            return self.values[-1]
        cached = self.__dict__.get("_tail_cache")
        if cached is None:
            cached = self.value(_TAIL_X)
            spread = max(abs(self.value(x) - cached) for x in _TAIL_PROBES)
            if spread > _TAIL_SETTLE_TOL * max(1.0, abs(cached)):
                raise EvalError(
                    f"potential {self.source!r} has no settled limit at large x: "
                    f"q varies by {spread:.3g} between x = {_TAIL_PROBES[0]:g} and {_TAIL_X:g}"
                )
            self.__dict__["_tail_cache"] = cached
        return cached


@dataclass(frozen=True)
class FundamentalSystem:
    """Boundary images of the solution basis u1 (u1(0)=1, u1'(0)=0), u2 (0,1)."""

    z: complex
    b: float
    Y0: Matrix  # trace map (y(0), y(b)) applied to the basis
    Y1: Matrix  # trace map (y'(0), -y'(b)) applied to the basis


# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_E = (  # b5 - b4
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def integrate_ivp(q: PotentialSpec, z: complex, y0, span, rtol: float = 1e-10,
                  atol: float = 1e-10, record: bool = False):
    """Integrate (y, y')' = (y', (q - z) y) over span = (a, b) with adaptive RK5(4).

    Returns (y(b), y'(b)) or, with record=True, ((y(b), y'(b)), samples) where
    samples is the list of accepted (x, y, y').  The span may be decreasing.
    """
    a, b = float(span[0]), float(span[1])
    y, yp = complex(y0[0]), complex(y0[1])
    z = complex(z)
    direction = 1.0 if b >= a else -1.0
    length = abs(b - a)
    if length == 0.0:
        return ((y, yp), [(a, y, yp)]) if record else (y, yp)

    qv = q.value

    def f(x, u, up):
        return up, (qv(x) - z) * u

    samples = [(a, y, yp)] if record else None
    x = a
    h = direction * min(length / 50.0, 0.2)
    hmin = 1e-14 * max(length, 1.0)
    k = [None] * 7
    while (b - x) * direction > 0:
        if abs(h) > abs(b - x):
            h = b - x
        k[0] = f(x, y, yp)
        rejected_nan = False
        for i in range(1, 7):
            ai = _DP_A[i]
            su = 0j
            sp = 0j
            for j in range(i):
                su += ai[j] * k[j][0]
                sp += ai[j] * k[j][1]
            k[i] = f(x + _DP_C[i] * h, y + h * su, yp + h * sp)
        # 5th-order solution: the b-weights equal the last tableau row (FSAL)
        su = 0j
        sp = 0j
        for j in range(6):
            su += _DP_A[6][j] * k[j][0]
            sp += _DP_A[6][j] * k[j][1]
        y_new = y + h * su
        yp_new = yp + h * sp
        eu = 0j
        ep = 0j
        for j in range(7):
            eu += _DP_E[j] * k[j][0]
            ep += _DP_E[j] * k[j][1]
        eu *= h
        ep *= h
        bad = not (
            math.isfinite(y_new.real) and math.isfinite(y_new.imag)
            and math.isfinite(yp_new.real) and math.isfinite(yp_new.imag)
        )
        if bad:
            err = math.inf
            rejected_nan = True
        else:
            sc_u = atol + rtol * max(abs(y), abs(y_new))
            sc_p = atol + rtol * max(abs(yp), abs(yp_new))
            err = math.sqrt(0.5 * ((abs(eu) / sc_u) ** 2 + (abs(ep) / sc_p) ** 2))
        if err <= 1.0:
            x += h
            y, yp = y_new, yp_new
            if record:
                samples.append((x, y, yp))
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h *= max(0.2, grow)
        else:
            h *= 0.5 if rejected_nan else max(0.2, 0.9 * err ** -0.2)
        if abs(h) < hmin:
            raise StiffnessError("step size underflow", location=x)
    return ((y, yp), samples) if record else (y, yp)


@lru_cache(maxsize=100_000)
def fundamental_system(q: PotentialSpec, b: float, z: complex,
                       rtol: float = 1e-10) -> FundamentalSystem:
    """Solution basis of l[y] = z y on [0, b] mapped through the interval triplet."""
    if b <= 0:
        raise EvalError("interval length must be positive")
    z = complex(z)
    b = float(b)
    u1b, u1pb = integrate_ivp(q, z, (1.0, 0.0), (0.0, b), rtol=rtol, atol=rtol)
    u2b, u2pb = integrate_ivp(q, z, (0.0, 1.0), (0.0, b), rtol=rtol, atol=rtol)
    y0 = Matrix.from_rows([[1.0, 0.0], [u1b, u2b]])
    y1 = Matrix.from_rows([[0.0, 1.0], [-u1pb, -u2pb]])
    return FundamentalSystem(z, b, y0, y1)


def finite_interval_M(q: PotentialSpec, b: float, z: complex,
                      rtol: float = 1e-10) -> Matrix:
    """2x2 Weyl matrix Y1 (Y0)^-1 of the interval triplet (y(0), y(b)) / (y'(0), -y'(b))."""
    fs = fundamental_system(q, b, z, rtol=rtol)
    scale = max(fs.Y0.norm_max(), 1.0)
    d = fs.Y0.at(0, 0) * fs.Y0.at(1, 1) - fs.Y0.at(0, 1) * fs.Y0.at(1, 0)
    # the integrator cannot resolve the determinant below ~30x its tolerance
    if abs(d) < 30.0 * rtol * scale * scale:
        raise PoleError(f"z={z} is a Dirichlet eigenvalue of the interval problem", location=z)
    return fs.Y1 @ inverse(fs.Y0)


def truncation_length(q: PotentialSpec, z: complex):
    """(auto L, truncation error estimate) for the half-line Dirichlet cutoff."""
    kappa = sqrt_upper(complex(z) - q.tail).imag
    if kappa <= 0.0:
        raise AccuracyError(f"z={z} sits on the essential spectrum tail", estimate=1.0)
    needed = -0.5 * math.log(_TRUNC_TARGET) / kappa
    L = min(TRUNCATION_CAP, max(12.0, needed))
    return L, math.exp(-2.0 * kappa * L)


@lru_cache(maxsize=200_000)
def _halfline_endpoint(q: PotentialSpec, z: complex, L: float, rtol: float):
    """Backward Dirichlet-truncated integration, rescaled in chunks.

    Only the ray through (y(0), y'(0)) matters, so per-chunk rescaling is
    harmless and keeps magnitudes inside double range for large Im sqrt(z) L.
    """
    growth = sqrt_upper(z - q.tail).imag
    nchunks = max(1, int(growth * L / 80.0) + 1)
    xs = [L - i * (L / nchunks) for i in range(nchunks + 1)]
    y, yp = 0.0 + 0j, 1.0 + 0j
    for a, b in zip(xs, xs[1:]):
        y, yp = integrate_ivp(q, z, (y, yp), (a, b), rtol=rtol, atol=rtol)
        m = max(abs(y), abs(yp))
        if m > _RESCALE_NORM or (0.0 < m < 1.0 / _RESCALE_NORM):
            y, yp = y / m, yp / m
    return y, yp


def tail_support(q: PotentialSpec) -> float | None:
    """Point beyond which q is exactly constant, or None when it never is."""
    if q.kind == "zero":
        return 0.0
    if q.kind == "square_well":
        return q.width
    if q.kind == "sampled_table":
        return q.nodes[-1]
    return None


@lru_cache(maxsize=50_000)
def _tail_matched_endpoint(q: PotentialSpec, z: complex, L: float, rtol: float):
    """Backward integration seeded with the exact decaying tail solution.

    Valid only when q is exactly constant beyond tail_support(q): the decaying
    solution there is exp(-kappa x) with kappa the Re >= 0 root of (tail - z),
    so there is no truncation error at all.  Used by the M(0) extrapolation,
    where the Dirichlet cutoff would cap the ladder depth.
    """
    kappa = -1j * sqrt_upper(z - q.tail)
    y, yp = 1.0 + 0j, -kappa
    nchunks = max(1, int(abs(kappa) * L / 80.0) + 1)
    xs = [L - i * (L / nchunks) for i in range(nchunks + 1)]
    for a, b in zip(xs, xs[1:]):
        y, yp = integrate_ivp(q, z, (y, yp), (a, b), rtol=rtol, atol=rtol)
        m = max(abs(y), abs(yp))
        if m > _RESCALE_NORM or (0.0 < m < 1.0 / _RESCALE_NORM):
            y, yp = y / m, yp / m
    return y, yp


def halfline_m_exact_tail(q: PotentialSpec, z: complex, rtol: float = 1e-11) -> complex:
    """m_inf(z) through the tail-matched route; requires a constant tail."""
    support = tail_support(q)
    if support is None:
        raise AccuracyError("potential has no exactly-constant tail", estimate=1.0)
    if (-1j * sqrt_upper(complex(z) - q.tail)).real <= 0:
        raise AccuracyError(f"no decaying tail solution at z={z}", estimate=1.0)
    L = max(8.0, 1.5 * support + 4.0)
    y, yp = _tail_matched_endpoint(q, complex(z), L, float(rtol))
    if abs(y) < 1e-13 * max(abs(y), abs(yp)):
        raise PoleError(f"z={z} is numerically a Dirichlet eigenvalue", location=z)
    return yp / y


def halfline_m(q: PotentialSpec, h, z: complex, L: float | None = None,
               rtol: float = 1e-10) -> complex:
    """Half-line m-function for the triplet (y(0), y'(0)), truncated at L.

    h = None selects m_inf = y'(0)/y(0) itself; a finite real h applies the
    one-parameter family m_h(z) = (1 - h m_inf(z)) / (m_inf(z) - h).  That
    relation is the convention anchor for the whole family; note it maps the
    upper half-plane to itself only for |h| > 1 (the |h| < 1 members arise
    from an orientation-reversing coordinate change).
    """
    z = complex(z)
    if L is None:
        L, estimate = truncation_length(q, z)
    else:
        kappa = sqrt_upper(z - q.tail).imag
        estimate = math.exp(-2.0 * kappa * L) if kappa > 0 else 1.0
    if estimate > _TRUNC_RAISE:
        raise AccuracyError(
            f"truncation at L={L:.1f} insufficient for z={z}", estimate=estimate
        )
    y, yp = _halfline_endpoint(q, z, float(L), float(rtol))
    scale = max(abs(y), abs(yp))
    if abs(y) < 1e-13 * scale:
        raise PoleError(
            f"z={z} is numerically an eigenvalue of the truncated Dirichlet problem",
            location=z,
        )
    m_inf = yp / y
    if h is None:
        return m_inf
    h = float(h)
    denom = m_inf - h
    if abs(denom) < 1e-13 * (1.0 + abs(m_inf)):
        raise PoleError(f"m_inf(z) = h = {h}: pole of the h-triplet family", location=z)
    return (1.0 - h * m_inf) / denom
