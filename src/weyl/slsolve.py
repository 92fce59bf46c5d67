"""Complex-parameter ODE machinery for Sturm-Liouville problems.

Fundamental systems on a finite interval (for the 2x2 interval Weyl matrix)
and m-functions on the half-line.  integrate_ivp splits its span at the pieces
of q (PotentialSpec.pieces): where q is exactly constant it steps with the
exact transfer matrix [[cosh kh, sinh kh / k], [k sinh kh, cosh kh]],
k^2 = q - z; adaptive RK5(4) runs only where q varies (the interior of a
sampled table, an expression).  The half-line m-function integrates backward
to 0 rather than solving a Riccati equation (no blow-through at solution
zeros).  When q is exactly constant beyond some point the integration is
seeded there with the decaying tail solution exp(-kappa x), with no
truncation error; otherwise it starts from a Dirichlet truncation at x = L,
whose error is exponentially small and estimable (~ exp(-2 Im sqrt(z - q_inf) L)).

An expression potential is compiled once per PotentialSpec
(expr.compile_potential, cached with the parsed tree) and value() runs the
compiled function; when it raises or returns anything but a float, value()
re-runs the tree walker expr.evaluate, the reference, which raises the
EvalError with its message.  Parsing caps an expression's nesting at
expr.MAX_NESTING and its depth at expr.MAX_DEPTH levels.
The RK5(4) stages are unrolled and call value() once each.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import expr
from .errors import AccuracyError, EvalError, PoleError, RangeError, StiffnessError
from .linalg import Matrix
from .specfun import sqrt_upper

TRUNCATION_CAP = 200.0
_TRUNC_TARGET = 1e-13
_TRUNC_RAISE = 1e-11
_RESCALE_NORM = 1e100
# exact steps on a constant piece are cut so that |Re k h| stays below this,
# which keeps cosh(kh) far inside double range
_EXACT_GROWTH = 40.0
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

    @cached_property
    def _ast(self):
        return expr.parse_potential(self.source)

    @cached_property
    def _compiled(self):
        return expr.compile_potential(self._ast)

    def value(self, x: float) -> float:
        # expression first: RK5(4) asks for it at every stage
        if self.kind == "expression":
            try:
                v = self._compiled(x)
            except (ZeroDivisionError, OverflowError, ValueError, TypeError):
                v = None
            if type(v) is not float:
                v = expr.evaluate(self._ast, x)  # the reference raises the EvalError
            if not math.isfinite(v):
                raise EvalError(f"potential not finite at x={x}")
            return v
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

    def pieces(self, a: float, b: float) -> list:
        """Split [a, b] (a < b) where q changes form.

        Returns [(lo, hi, c), ...] in increasing order, with c the value of q
        on [lo, hi] where q is exactly constant there and None where it
        varies.  Neighbouring constant pieces with the same value are merged;
        the linear segments of a table stay apart, so that no RK step of the
        propagator straddles a kink of q.
        """
        if self.kind == "zero":
            return [(a, b, 0.0)]
        if self.kind == "square_well":
            breaks, consts = (0.0, self.width), (0.0, self.depth, 0.0)
        elif self.kind == "sampled_table":
            v = self.values
            breaks = self.nodes
            consts = (v[0], *(lo if lo == hi else None for lo, hi in zip(v, v[1:])), v[-1])
        else:
            return [(a, b, None)]
        edges = (-math.inf, *breaks, math.inf)
        out = []
        for lo, hi, c in zip(edges, edges[1:], consts):
            lo, hi = max(lo, a), min(hi, b)
            if lo >= hi:
                continue
            if out and c is not None and out[-1][2] == c:
                out[-1] = (out[-1][0], hi, c)
            else:
                out.append((lo, hi, c))
        return out

    @property
    def tail(self) -> float:
        """Limit value of q at infinity."""
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
                  record: bool = False):
    """Integrate (y, y')' = (y', (q - z) y) over span = (a, b).

    Exact transfer matrices on the pieces where q is constant, adaptive
    RK5(4) on the others.  Returns (y(b), y'(b)) or, with record=True,
    ((y(b), y'(b)), samples) where samples is the list of accepted (x, y, y')
    steps.  The span may be decreasing.
    """
    a, b = float(span[0]), float(span[1])
    y, yp = complex(y0[0]), complex(y0[1])
    z = complex(z)
    samples = [(a, y, yp)] if record else None
    if a != b:
        pieces = q.pieces(min(a, b), max(a, b))
        if b < a:
            pieces = [(hi, lo, c) for lo, hi, c in reversed(pieces)]
        for start, end, c in pieces:
            if c is None:
                y, yp = _rk45(q, z, y, yp, start, end, rtol, samples)
            else:
                y, yp = _transfer(c - z, y, yp, start, end, samples)
    return ((y, yp), samples) if record else (y, yp)


def _transfer(k2: complex, y: complex, yp: complex, a: float, b: float, samples):
    """Exact steps of y'' = k2 y from a to b, cut so that |Re k h| <= _EXACT_GROWTH."""
    k = cmath.sqrt(k2)
    n = max(1, math.ceil(abs(k.real * (b - a)) / _EXACT_GROWTH))
    h = (b - a) / n
    u = k2 * h * h
    if abs(u) < 1e-8:
        # series of cosh(kh) and sinh(kh)/k; the next terms are O(u^3)
        ch = 1.0 + u / 2.0 + u * u / 24.0
        sk = h * (1.0 + u / 6.0 + u * u / 120.0)
        ks = k2 * sk
    else:
        ch = cmath.cosh(k * h)
        sh = cmath.sinh(k * h)
        sk = sh / k
        ks = k * sh
    for i in range(1, n + 1):
        y, yp = ch * y + sk * yp, ks * y + ch * yp
        if samples is not None:
            samples.append((a + i * h, y, yp))
    if not (cmath.isfinite(y) and cmath.isfinite(yp)):
        raise RangeError(f"solution overflows double range on [{a}, {b}]")
    return y, yp


def _rk45(q: PotentialSpec, z: complex, y: complex, yp: complex, a: float, b: float,
          rtol: float, samples):
    """Adaptive Dormand-Prince RK5(4) from a to b; appends accepted steps to samples.

    The seven stages are written out with the tableau entries as locals.
    Stage i evaluates q once, at x + c_i h; its slope is (p_i, k_i) with
    k_i = (q - z) y_i at the stage values (y_i, p_i).  Each stage sum starts
    at 0j, keeps its zero coefficients and is scaled by h last, as the loop
    over the tableau rows that this replaces did, so the arithmetic is that
    loop's, operation for operation.
    """
    direction = 1.0 if b >= a else -1.0
    length = abs(b - a)
    qv = q.value
    _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65) = _DP_A
    _, c1, c2, c3, c4, c5, c6 = _DP_C
    e0, e1, e2, e3, e4, e5, e6 = _DP_E

    x = a
    h = direction * min(length / 50.0, 0.2)
    hmin = 1e-14 * max(length, 1.0)
    while (b - x) * direction > 0:
        if abs(h) > abs(b - x):
            h = b - x
        k0 = (qv(x) - z) * y
        y1 = y + h * (0j + a10 * yp)
        p1 = yp + h * (0j + a10 * k0)
        k1 = (qv(x + c1 * h) - z) * y1
        y2 = y + h * (0j + a20 * yp + a21 * p1)
        p2 = yp + h * (0j + a20 * k0 + a21 * k1)
        k2 = (qv(x + c2 * h) - z) * y2
        y3 = y + h * (0j + a30 * yp + a31 * p1 + a32 * p2)
        p3 = yp + h * (0j + a30 * k0 + a31 * k1 + a32 * k2)
        k3 = (qv(x + c3 * h) - z) * y3
        y4 = y + h * (0j + a40 * yp + a41 * p1 + a42 * p2 + a43 * p3)
        p4 = yp + h * (0j + a40 * k0 + a41 * k1 + a42 * k2 + a43 * k3)
        k4 = (qv(x + c4 * h) - z) * y4
        y5 = y + h * (0j + a50 * yp + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
        p5 = yp + h * (0j + a50 * k0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
        k5 = (qv(x + c5 * h) - z) * y5
        # 5th-order solution: the b-weights equal the last tableau row (FSAL)
        y_new = y + h * (0j + a60 * yp + a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
        yp_new = yp + h * (0j + a60 * k0 + a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
        k6 = (qv(x + c6 * h) - z) * y_new
        eu = (0j + e0 * yp + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * yp_new) * h
        ep = (0j + e0 * k0 + e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6) * h
        rejected_nan = not (
            math.isfinite(y_new.real) and math.isfinite(y_new.imag)
            and math.isfinite(yp_new.real) and math.isfinite(yp_new.imag)
        )
        if rejected_nan:
            err = math.inf
        else:
            # rtol is the absolute tolerance as well
            sc_u = rtol + rtol * max(abs(y), abs(y_new))
            sc_p = rtol + rtol * max(abs(yp), abs(yp_new))
            err = math.sqrt(0.5 * ((abs(eu) / sc_u) ** 2 + (abs(ep) / sc_p) ** 2))
        if err <= 1.0:
            x += h
            y, yp = y_new, yp_new
            if samples is not None:
                samples.append((x, y, yp))
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h *= max(0.2, grow)
        else:
            h *= 0.5 if rejected_nan else max(0.2, 0.9 * err ** -0.2)
        if abs(h) < hmin:
            raise StiffnessError("step size underflow", location=x)
    return y, yp


@lru_cache(maxsize=100_000)
def fundamental_system(q: PotentialSpec, b: float, z: complex,
                       rtol: float = 1e-10) -> FundamentalSystem:
    """Solution basis of l[y] = z y on [0, b] mapped through the interval triplet."""
    if b <= 0:
        raise EvalError("interval length must be positive")
    z = complex(z)
    b = float(b)
    u1b, u1pb = integrate_ivp(q, z, (1.0, 0.0), (0.0, b), rtol=rtol)
    u2b, u2pb = integrate_ivp(q, z, (0.0, 1.0), (0.0, b), rtol=rtol)
    y0 = Matrix.from_rows([[1.0, 0.0], [u1b, u2b]])
    y1 = Matrix.from_rows([[0.0, 1.0], [-u1pb, -u2pb]])
    return FundamentalSystem(z, b, y0, y1)


def finite_interval_M(q: PotentialSpec, b: float, z: complex,
                      rtol: float = 1e-10) -> Matrix:
    """2x2 Weyl matrix Y1 (Y0)^-1 of the interval triplet (y(0), y(b)) / (y'(0), -y'(b)).

    Y0 = [[1, 0], [u1(b), u2(b)]], so with the Wronskian u1 u2' - u1' u2 = 1
    this is [[-u1(b), 1], [1, -u2'(b)]] / u2(b): no inversion, and no
    cancellation in the off-diagonal entry when the solutions grow large.
    """
    fs = fundamental_system(q, b, z, rtol=rtol)
    u1b, u2b, u2pb = fs.Y0.at(1, 0), fs.Y0.at(1, 1), -fs.Y1.at(1, 1)
    # the integrator cannot resolve u2(b) = det Y0 below ~30x its tolerance
    # relative to the size of the solutions
    if abs(u2b) < 30.0 * rtol * max(fs.Y0.norm_max(), 1.0):
        raise PoleError(f"z={z} is a Dirichlet eigenvalue of the interval problem", location=z)
    return Matrix.from_rows([[-u1b / u2b, 1.0 / u2b], [1.0 / u2b, -u2pb / u2b]])


def truncation_length(q: PotentialSpec, z: complex):
    """(auto L, truncation error estimate) for the half-line Dirichlet cutoff."""
    kappa = sqrt_upper(complex(z) - q.tail).imag
    if kappa <= 0.0:
        raise AccuracyError(f"z={z} sits on the essential spectrum tail", estimate=1.0)
    needed = -0.5 * math.log(_TRUNC_TARGET) / kappa
    L = min(TRUNCATION_CAP, max(12.0, needed))
    return L, math.exp(-2.0 * kappa * L)


@lru_cache(maxsize=200_000)
def _endpoint(q: PotentialSpec, z: complex, start: float, seed: tuple, rtol: float):
    """(y(0), y'(0)) from seed = (y, y') at x = start, integrated back in rescaled chunks.

    Only the ray through (y(0), y'(0)) matters, so per-chunk rescaling is
    harmless and keeps magnitudes inside double range for large Im sqrt(z) L.
    """
    growth = sqrt_upper(z - q.tail).imag
    nchunks = max(1, int(growth * start / 80.0) + 1)
    xs = [start - i * (start / nchunks) for i in range(nchunks + 1)]
    y, yp = seed
    for a, b in zip(xs, xs[1:]):
        y, yp = integrate_ivp(q, z, (y, yp), (a, b), rtol=rtol)
        m = max(abs(y), abs(yp))
        if m > _RESCALE_NORM or (0.0 < m < 1.0 / _RESCALE_NORM):
            y, yp = y / m, yp / m
    return y, yp


def tail_support(q: PotentialSpec) -> float | None:
    """Point x >= 0 beyond which q is exactly constant, or None when it never is."""
    lo, _hi, c = q.pieces(0.0, math.inf)[-1]
    return None if c is None else lo


def _decaying_solution(q: PotentialSpec, z: complex, L: float | None = None,
                       rtol: float = 1e-10):
    """(y(0), y'(0)) of the solution of l[y] = z y that decays at infinity.

    With L = None and q exactly constant beyond tail_support(q), it is seeded
    there with the tail solution exp(-kappa x), kappa the Re >= 0 root of
    (tail - z): no truncation error.  At z = tail that seed is the bounded
    solution (1, 0).  Otherwise the seed is y(L) = 0, y'(L) = 1, a Dirichlet
    truncation (L from truncation_length when None) whose error halfline_m
    checks.
    """
    support = tail_support(q) if L is None else None
    if support is not None:
        kappa = -1j * sqrt_upper(z - q.tail)
        return _endpoint(q, z, support, (1.0 + 0j, -kappa), float(rtol))
    if L is None:
        L, _estimate = truncation_length(q, z)
    return _endpoint(q, z, float(L), (0.0 + 0j, 1.0 + 0j), float(rtol))


def halfline_m_exact_tail(q: PotentialSpec, z: complex, rtol: float = 1e-11) -> complex:
    """m_inf(z) through the tail-matched route; requires a constant tail."""
    if tail_support(q) is None:
        raise AccuracyError("potential has no exactly-constant tail", estimate=1.0)
    return halfline_m(q, None, z, rtol=rtol)


def halfline_m(q: PotentialSpec, h, z: complex, L: float | None = None,
               rtol: float = 1e-10) -> complex:
    """Half-line m-function for the triplet (y(0), y'(0)).

    m_inf = y'(0)/y(0) of the decaying solution: tail-matched when q has an
    exactly constant tail and L is None, else Dirichlet-truncated at L.
    h = None selects m_inf itself; a finite real h applies the
    one-parameter family m_h(z) = (1 - h m_inf(z)) / (m_inf(z) - h).  That
    relation is the convention anchor for the whole family; note it maps the
    upper half-plane to itself only for |h| > 1 (the |h| < 1 members arise
    from an orientation-reversing coordinate change).
    """
    z = complex(z)
    if L is None and tail_support(q) is not None:
        if sqrt_upper(z - q.tail).imag <= 0.0:
            raise AccuracyError(f"z={z} sits on the essential spectrum tail", estimate=1.0)
    else:
        if L is None:
            L, estimate = truncation_length(q, z)
        else:
            kappa = sqrt_upper(z - q.tail).imag
            estimate = math.exp(-2.0 * kappa * L) if kappa > 0 else 1.0
        if estimate > _TRUNC_RAISE:
            raise AccuracyError(
                f"truncation at L={L:.1f} insufficient for z={z}", estimate=estimate
            )
    y, yp = _decaying_solution(q, z, L, rtol)
    scale = max(abs(y), abs(yp))
    if abs(y) < 1e-13 * scale:
        raise PoleError(
            f"z={z} is numerically an eigenvalue of the reference Dirichlet problem",
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
