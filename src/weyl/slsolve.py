"""Complex-parameter ODE machinery for Sturm-Liouville problems.

A potential q is one frozen PotentialSpec subclass per kind: Zero,
SquareWell, Table or Expression, each checking its own parameters and
holding its own value, cell average, break points and tail.

Fundamental systems on a finite interval (for the 2x2 interval Weyl matrix)
and m-functions on the half-line.  integrate_ivp splits its span at the pieces
of q (PotentialSpec.pieces): where q is exactly constant it steps with the
exact transfer matrix [[cosh kh, sinh kh / k], [k sinh kh, cosh kh]],
k^2 = q - z.  Where q varies (a table segment, an expression) it steps the
exact exponential of the 4th-order Magnus generator on a mesh built once per
(potential, piece) and shared by every z, extrapolating nested halvings of it
to rtol.  At a real z the same steps count the zeros of y, which gives the
Dirichlet eigenvalue counts (Sturm oscillation) of a FundamentalSystem and of
halfline_oscillation.  Only this module seeds, truncates or thresholds the
half-line solution (decaying_solution, threshold_solution), integrating it
backward to 0 rather than through a Riccati equation (no blow-through at
solution zeros); boundary_ratio is the one y(0) = 0 test and h_map the one
h-family map.

An Expression is parsed when it is built and compiled once
(expr.compile_potential, cached with the parsed tree); value() runs the
compiled function; when it raises or returns anything but a float, value()
re-runs the tree walker expr.evaluate, the reference, which raises the
EvalError with its message.  Parsing caps an expression's nesting at
expr.MAX_NESTING and its depth at expr.MAX_DEPTH levels.
"""

from __future__ import annotations

import cmath
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import expr
from .errors import AccuracyError, EvalError, PoleError, RangeError
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
    """Base of the potentials q(x).  A subclass sets kind and defines _at (q at x),
    _mean (its mean over a cell), _form (its break points and its values between
    them, None where q varies) and tail; every evaluation of q goes through value."""

    kind = ""

    def value(self, x: float) -> float:
        return self._at(x)

    def cell_average(self, a: float, b: float) -> float:
        """Mean of q over [a, b]; exact for the piecewise kinds.

        Discretizations sample through this so that potential jumps keep the
        stencil second-order accurate.
        """
        return self.value(a) if b <= a else self._mean(a, b)

    def pieces(self, a: float, b: float) -> list:
        """Split [a, b] (a < b) where q changes form.

        Returns [(lo, hi, c), ...] in increasing order, with c the value of q
        on [lo, hi] where q is exactly constant there and None where it
        varies.  Neighbouring constant pieces with the same value are merged;
        the linear segments of a table stay apart, so that no mesh cell of the
        propagator straddles a kink of q, and an expression splits at 0, where
        its meshes start.
        """
        breaks, consts = self._form
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


@dataclass(frozen=True)
class Zero(PotentialSpec):
    """q = 0."""

    kind = "zero"
    _form = ((), (0.0,))
    tail = 0.0

    def _at(self, x: float) -> float:
        return 0.0

    def _mean(self, a: float, b: float) -> float:
        return 0.0


@dataclass(frozen=True)
class SquareWell(PotentialSpec):
    """q = depth on [0, width), 0 elsewhere."""

    depth: float
    width: float
    kind = "square_well"
    tail = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise EvalError("must be positive", field="width")
        object.__setattr__(self, "depth", float(self.depth))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "_form", ((0.0, self.width), (0.0, self.depth, 0.0)))

    def _at(self, x: float) -> float:
        return self.depth if 0.0 <= x < self.width else 0.0

    def _mean(self, a: float, b: float) -> float:
        return self.depth * max(0.0, min(b, self.width) - max(a, 0.0)) / (b - a)


@dataclass(frozen=True)
class Table(PotentialSpec):
    """q linear between strictly increasing nodes, constant beyond the end ones."""

    nodes: tuple
    values: tuple
    kind = "sampled_table"

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        values = tuple(float(v) for v in self.values)
        if len(nodes) < 2:
            raise EvalError("needs at least two nodes", field="nodes")
        if len(values) != len(nodes):
            raise EvalError("length mismatch with nodes", field="values")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise EvalError("must be strictly increasing", field="nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        segments = (lo if lo == hi else None for lo, hi in zip(values, values[1:]))
        object.__setattr__(self, "_form", (nodes, (values[0], *segments, values[-1])))
        object.__setattr__(self, "tail", values[-1])

    def _at(self, x: float) -> float:
        nodes, vals = self.nodes, self.values
        if x <= nodes[0]:
            return vals[0]
        if x >= nodes[-1]:
            return vals[-1]
        lo = bisect_right(nodes, x) - 1
        t = (x - nodes[lo]) / (nodes[lo + 1] - nodes[lo])
        return vals[lo] * (1.0 - t) + vals[lo + 1] * t

    def _mean(self, a: float, b: float) -> float:
        knots = [a] + [x for x in self.nodes if a < x < b] + [b]
        acc = 0.0
        for lo, hi in zip(knots, knots[1:]):
            acc += 0.5 * (self.value(lo) + self.value(hi)) * (hi - lo)
        return acc / (b - a)


@dataclass(frozen=True)
class Expression(PotentialSpec):
    """q given by an expression in x (expr.parse_potential)."""

    source: str
    kind = "expression"
    _form = ((0.0,), (None, None))

    def __post_init__(self):
        object.__setattr__(self, "_ast", expr.parse_potential(self.source))

    @cached_property
    def _compiled(self):
        return expr.compile_potential(self._ast)

    def _at(self, x: float) -> float:
        try:
            v = self._compiled(x)
        except (ZeroDivisionError, OverflowError, ValueError, TypeError):
            v = None
        if type(v) is not float:
            v = expr.evaluate(self._ast, x)  # the reference raises the EvalError
        if not math.isfinite(v):
            raise EvalError(f"potential not finite at x={x}")
        return v

    def _mean(self, a: float, b: float) -> float:
        mid = 0.5 * (a + b)
        return (self.value(a) + 4.0 * self.value(mid) + self.value(b)) / 6.0

    @cached_property
    def tail(self) -> float:
        limit = self.value(_TAIL_X)
        spread = max(abs(self.value(x) - limit) for x in _TAIL_PROBES)
        if spread > _TAIL_SETTLE_TOL * max(1.0, abs(limit)):
            raise EvalError(
                f"potential {self.source!r} has no settled limit at large x: "
                f"q varies by {spread:.3g} between x = {_TAIL_PROBES[0]:g} and {_TAIL_X:g}"
            )
        return limit


# the constructors under the names the callers use
PotentialSpec.zero = staticmethod(Zero)
PotentialSpec.square_well = staticmethod(SquareWell)
PotentialSpec.table = staticmethod(Table)
PotentialSpec.expression = staticmethod(Expression)


@dataclass(frozen=True)
class FundamentalSystem:
    """Boundary images of the solution basis u1 (u1(0)=1, u1'(0)=0), u2 (0,1)."""

    z: complex
    b: float
    Y0: Matrix  # trace map (y(0), y(b)) applied to the basis
    Y1: Matrix  # trace map (y'(0), -y'(b)) applied to the basis
    # at a real z, the zeros of u2 in (0, b): the Dirichlet eigenvalues below z
    # (Sturm); 0 at a complex z
    dirichlet_count: int


# A base cell of a Magnus mesh is at most _CELL_MAX wide and q changes by at
# most _CELL_DQ across it, unless it is _CELL_MIN wide (q may jump); a mesh of
# more than _MAX_CELLS base cells is refused (q may have a pole).
_CELL_MAX = 0.5
_CELL_DQ = 0.05
_CELL_MIN = _CELL_MAX * 2.0 ** -30
_MAX_CELLS = 2**15
_MAX_LEVEL = 6
_GAUSS = math.sqrt(3.0) / 6.0  # the Gauss points sit at the middle -/+ this times h
_MAGNUS_C = math.sqrt(3.0) / 12.0


def integrate_ivp(q: PotentialSpec, z: complex, y0, span, rtol: float = 1e-10):
    """Integrate (y, y')' = (y', (q - z) y) over span = (a, b); returns
    (y(b), y'(b), zeros).

    Exact transfer matrices on the pieces where q is constant, Magnus steps
    on a z-independent mesh on the others.  The span may be decreasing.

    At a real z, zeros counts the times y passes from y <= 0 to y > 0 or back
    after a (at a complex z it is 0).  An exact step, or a Magnus cell with
    s^2 = -sigma^2 < 0, turns (y, y') uniformly by sigma in the coordinates
    of its rotation, so y vanishes once per half-turn and once more where the
    rest ends across 0; otherwise (a whole exact piece included) y vanishes
    at most once.
    """
    a, b = float(span[0]), float(span[1])
    y, yp = complex(y0[0]), complex(y0[1])
    z = complex(z)
    zeros = 0
    if a != b:
        pieces = q.pieces(min(a, b), max(a, b))
        if b < a:
            pieces = [(hi, lo, c) for lo, hi, c in reversed(pieces)]
        for start, end, c in pieces:
            if c is None:
                y, yp, n = _magnus(q, z, y, yp, start, end, rtol)
            else:
                y, yp, n = _transfer(c - z, y, yp, start, end)
            zeros += n
    return y, yp, zeros


def _check_finite(y: complex, yp: complex, a: float, b: float):
    if not (cmath.isfinite(y) and cmath.isfinite(yp)):
        raise RangeError(f"solution overflows double range on [{a}, {b}]")


def _transfer(k2: complex, y: complex, yp: complex, a: float, b: float):
    """Exact steps of y'' = k2 y from a to b, cut so that |Re k h| <= _EXACT_GROWTH:
    (y(b), y'(b), zeros), the zeros counted at a real k2 (see integrate_ivp)."""
    y_a = y
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
    for _ in range(n):
        y, yp = ch * y + sk * yp, ks * y + ch * yp
    _check_finite(y, yp, a, b)
    if k2.imag:
        return y, yp, 0
    turns = int(math.sqrt(max(-k2.real, 0.0)) * abs(b - a) / math.pi)
    return y, yp, turns + (((y_a.real > 0.0) != (y.real > 0.0)) ^ (turns & 1))


def _magnus(q: PotentialSpec, z: complex, y: complex, yp: complex, a: float, b: float,
            rtol: float):
    """(y(b), y'(b), zeros) from a to b inside one varying piece of q, to rtol.

    Sweeps the piece's mesh (from its finite end) at levels 0, 1, 2, ... from
    the same (y, y'), so all share one scaling, and extrapolates their error
    terms h^4 and h^6 away: r4_k = y_k + (y_k - y_{k-1})/15,
    r6_k = r4_k + (r4_k - r4_{k-1})/63.  The error of r6_k is taken as
    |r6_k - r4_k|, and also as |y_k - y_{k-1}| unless that difference fell at
    least 8-fold from the last (far from h^4, as next to a branch point of q,
    the extrapolation cannot be trusted).  Returns r6_k at the first k >= 2
    whose error is <= rtol max(|y|, |y'|); past level _MAX_LEVEL raises
    AccuracyError.  The zeros are those of level k, moved by one where r6_k
    lies across 0 from y_k: a zero at a piece end then counts once.
    """
    lo, hi, _ = next(p for p in q.pieces(-math.inf, math.inf) if p[0] <= min(a, b) < p[1])
    mesh = _mesh(q, hi, lo) if lo == -math.inf else _mesh(q, lo, hi)
    r4 = y_prev = None
    d = 0.0
    for level in range(_MAX_LEVEL + 1):
        yk, ypk, zeros = mesh.sweep(z, y, yp, a, b, level)
        _check_finite(yk, ypk, a, b)
        if level >= 1:
            r4, r4_prev = _richardson((yk, ypk), y_prev, 15.0), r4
            d_prev, d = d, max(abs(yk - y_prev[0]), abs(ypk - y_prev[1]))
        if level >= 2:
            u, p = _richardson(r4, r4_prev, 63.0)
            err, scale = max(abs(u - r4[0]), abs(p - r4[1])), max(abs(u), abs(p))
            if d_prev < 8.0 * d:
                err = max(err, d)
            if err <= rtol * scale:
                if not z.imag and (u.real > 0.0) != (yk.real > 0.0):
                    # past a zero, y has the sign of y' times the direction of travel
                    zeros += -1 if (yk.real > 0.0) == ((ypk.real > 0.0) == (b > a)) else 1
                return u, p, zeros
        y_prev = yk, ypk
    raise AccuracyError(f"Magnus mesh on [{a}, {b}] not resolved at z={z} after level {_MAX_LEVEL}",
                        estimate=err / scale)


def _richardson(fine, coarse, factor: float):
    return fine[0] + (fine[0] - coarse[0]) / factor, fine[1] + (fine[1] - coarse[1]) / factor


@lru_cache(maxsize=64)
def _mesh(q: PotentialSpec, origin: float, end: float) -> _Mesh:
    """The one mesh of a piece, shared by every z and span: it grows on demand,
    but what it holds depends on (q, origin, end) alone."""
    return _Mesh(q, origin, end)


class _Mesh:
    """The z-independent mesh of one varying piece of q, with q sampled on its levels.

    Base nodes are distances t from origin toward end (end may be infinite),
    graded from origin and added on demand: a base cell is twice as wide as
    the last (at most _CELL_MAX), halved while q changes by more than
    _CELL_DQ across it or is not defined at its end.  Every span in the piece
    steps the same base cells; only the cells it cuts are sampled afresh.
    Level k holds, for each of the 2^k equal subcells of each base cell,
    qbar = (q1 + q2)/2, c = (sqrt 3/12) w^2 (q1 - q2) and w: its Gauss values
    (q1 nearer origin) and its width, in one array('d').
    """

    def __init__(self, q: PotentialSpec, origin: float, end: float):
        self.q, self.origin, self.end = q, origin, end
        self.dir = 1.0 if end > origin else -1.0
        self.t = array("d", [0.0])
        self.q_last, self.w_last = q.value(origin), _CELL_MAX
        self.levels = {}

    def _grade_to(self, t_stop: float):
        qv, t, d, x0 = self.q.value, self.t, self.dir, self.origin
        t_max = abs(self.end - x0)
        while t[-1] < min(t_stop, t_max):
            if len(t) > _MAX_CELLS:
                raise AccuracyError(f"q varies too fast to mesh near x={x0 + d * t[-1]!r}",
                                    estimate=math.inf)
            w = min(_CELL_MAX, 2.0 * self.w_last)
            while True:
                tb = min(t[-1] + w, t_max)
                try:
                    qb = qv(x0 + d * tb)
                except EvalError:
                    if w <= _CELL_MIN:
                        raise
                    qb = math.inf
                if abs(qb - self.q_last) <= _CELL_DQ or w <= _CELL_MIN:
                    break
                w *= 0.5
            t.append(tb)
            self.q_last, self.w_last = qb, w

    def _cells(self, t0: float, t1: float, n: int) -> array:
        """The (qbar, c, w) of the n equal subcells of [t0, t1], in order of t."""
        qv, d, x0 = self.q.value, self.dir, self.origin
        w = (t1 - t0) / n
        out = array("d")
        for j in range(n):
            mid = t0 + (j + 0.5) * w
            q1, q2 = qv(x0 + d * (mid - _GAUSS * w)), qv(x0 + d * (mid + _GAUSS * w))
            out.extend((0.5 * (q1 + q2), _MAGNUS_C * w * w * (q1 - q2), w))
        return out

    def sweep(self, z: complex, y: complex, yp: complex, a: float, b: float, level: int):
        """(y(b), y'(b), zeros) by the Magnus steps of one level from x = a, the
        zeros counted at a real z (see integrate_ivp).

        A subcell stepped toward larger t has Omega = [[c, h], [h (qbar - z), -c]],
        h = dir w, and toward smaller t the same with h and c negated;
        exp(Omega) = cosh(s) I + sinh(s)/s Omega with s^2 = c^2 + w^2 (qbar - z).
        """
        x0, d, t, n = self.origin, self.dir, self.t, 1 << level
        ta, tb = (a - x0) * d, (b - x0) * d
        lo, hi = min(ta, tb), max(ta, tb)
        self._grade_to(hi)
        i0, i1 = bisect_right(t, lo), bisect_left(t, hi)
        done = self.levels.setdefault(level, array("d"))
        # sample the base cells up to hi, but none that crosses it
        for i in range(len(done) // (3 * n), i1 if t[i1] == hi else i1 - 1):
            done.extend(self._cells(t[i], t[i + 1], n))
        edges = [lo, *t[i0:i1], hi]
        cells = array("d")
        for k, (e0, e1) in enumerate(zip(edges, edges[1:]), i0 - 1):
            full = e0 == t[k] and e1 == t[k + 1]
            cells += done[3 * n * k: 3 * n * (k + 1)] if full else self._cells(e0, e1, n)
        if tb > ta:
            subcells, sign = zip(cells[0::3], cells[1::3], cells[2::3]), 1.0
        else:
            subcells, sign = zip(cells[-3::-3], cells[-2::-3], cells[-1::-3]), -1.0
        sqrt, cosh, sinh = cmath.sqrt, cmath.cosh, cmath.sinh
        real, zeros, pos = not z.imag, 0, y.real > 0.0
        for qbar, c, w in subcells:
            c *= sign
            h = sign * d * w
            p = qbar - z
            s = sqrt(c * c + w * w * p)
            ch, sh = (cosh(s), sinh(s) / s) if s else (1.0, 1.0)
            shc, shh = sh * c, sh * h
            y, yp = (ch + shc) * y + shh * yp, shh * p * y + (ch - shc) * yp
            if real:
                new, turns = y.real > 0.0, int(abs(s.imag) / math.pi)
                zeros += turns + ((pos != new) ^ (turns & 1))
                pos = new
        return y, yp, zeros


@lru_cache(maxsize=100_000)
def fundamental_system(q: PotentialSpec, b: float, z: complex,
                       rtol: float = 1e-10) -> FundamentalSystem:
    """Solution basis of l[y] = z y on [0, b], b > 0, mapped through the interval triplet."""
    z = complex(z)
    b = float(b)
    u1b, u1pb, _ = integrate_ivp(q, z, (1.0, 0.0), (0.0, b), rtol=rtol)
    u2b, u2pb, zeros = integrate_ivp(q, z, (0.0, 1.0), (0.0, b), rtol=rtol)
    y0 = Matrix.from_rows([[1.0, 0.0], [u1b, u2b]])
    y1 = Matrix.from_rows([[0.0, 1.0], [-u1pb, -u2pb]])
    # at a real z, u2 leaves its zero at 0 into y > 0, which counts once
    return FundamentalSystem(z, b, y0, y1, 0 if z.imag else zeros - 1)


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


@lru_cache(maxsize=200_000)
def _endpoint(q: PotentialSpec, z: complex, start: float, seed: tuple, rtol: float):
    """(y(0), y'(0), zeros) from seed = (y, y') at x = start, integrated back in
    rescaled chunks over which the solution grows by at most about e^80; the
    zeros in (0, start) are counted at a real z (see integrate_ivp).

    Only the ray through (y(0), y'(0)) matters, so per-chunk rescaling is
    harmless (it keeps the signs) and keeps magnitudes inside double range for
    large Im sqrt(z) L.
    """
    nchunks = max(1, int(sqrt_upper(z - q.tail).imag * start / 80.0) + 1)
    xs = [start - i * (start / nchunks) for i in range(nchunks + 1)]
    y, yp = seed
    zeros = 0
    for a, b in zip(xs, xs[1:]):
        y, yp, n = integrate_ivp(q, z, (y, yp), (a, b), rtol=rtol)
        zeros += n
        m = max(abs(y), abs(yp))
        if m > _RESCALE_NORM or (0.0 < m < 1.0 / _RESCALE_NORM):
            y, yp = y / m, yp / m
    return y, yp, zeros


def tail_support(q: PotentialSpec) -> float | None:
    """Point x >= 0 beyond which q is exactly constant, or None when it never is."""
    lo, _hi, c = q.pieces(0.0, math.inf)[-1]
    return None if c is None else lo


def decaying_solution(q: PotentialSpec, z: complex, L: float | None = None,
                      rtol: float = 1e-10):
    """(y(0), y'(0), truncation error) of the solution of l[y] = z y that decays at infinity.

    With L = None and q exactly constant beyond tail_support(q), it is seeded
    there with the tail solution exp(-kappa x), kappa the Re >= 0 root of
    (tail - z), and the error is 0.0.  At z = tail that seed is the bounded
    solution (1, 0).  Otherwise the seed is y(L) = 0, y'(L) = 1, a Dirichlet
    truncation with relative error exp(-2 Im sqrt(z - tail) L); L = None
    takes the L that makes it _TRUNC_TARGET, at least 12 and at most
    TRUNCATION_CAP.  A truncation with z on the essential spectrum, or with
    an error above _TRUNC_RAISE, raises AccuracyError.
    """
    z = complex(z)
    start, seed, error = _decaying_seed(q, z, L)
    y, yp, _ = _endpoint(q, z, start, seed, float(rtol))
    return y, yp, error


def _decaying_seed(q: PotentialSpec, z: complex, L: float | None):
    """(x, (y(x), y'(x)), truncation error) that decaying_solution starts from."""
    support = tail_support(q) if L is None else None
    if support is not None:
        kappa = -1j * sqrt_upper(z - q.tail)
        return support, (1.0 + 0j, -kappa), 0.0
    kappa = sqrt_upper(z - q.tail).imag
    if kappa <= 0.0:
        raise AccuracyError(f"z={z} sits on the essential spectrum tail", estimate=1.0)
    if L is None:
        L = min(TRUNCATION_CAP, max(12.0, -0.5 * math.log(_TRUNC_TARGET) / kappa))
    error = math.exp(-2.0 * kappa * L)
    if error > _TRUNC_RAISE:
        raise AccuracyError(f"truncation at L={L:.1f} insufficient for z={z}", estimate=error)
    return float(L), (0.0 + 0j, 1.0 + 0j), error


def halfline_oscillation(q: PotentialSpec, x: float):
    """(zeros, y(0), y'(0)) of the solution bounded at infinity at a real x at
    most the floor, seeded as decaying_solution seeds it, or at the floor of a
    q that is never constant as (1, 0) at TRUNCATION_CAP.  Its zeros in
    (0, inf) are the Dirichlet eigenvalues below x (Sturm): none lies past a
    tail-matched seed, and a truncated seed leaves its zero at L into y < 0."""
    x = float(x)
    if x == q.tail and tail_support(q) is None:
        start, seed = TRUNCATION_CAP, (1.0, 0.0)
    else:
        start, seed, _error = _decaying_seed(q, complex(x), None)
    y, yp, zeros = _endpoint(q, complex(x), start, seed, 1e-10)
    return zeros, y.real, yp.real


def threshold_solution(q: PotentialSpec, rtol: float = 1e-10):
    """(y(0), y'(0), settling error) of the solution bounded at infinity at z = 0,
    for a q that tends to 0 without being exactly constant.

    Seeds that threshold solution (1, 0) at L = 20, 40, 80, 160 and
    TRUNCATION_CAP until two successive m = Re y'(0)/y(0) agree to
    rtol (1 + |m|); their difference is the settling error.  No agreement by
    the cap raises AccuracyError, and y(0) = 0 raises PoleError.
    """
    previous, length = None, 20.0
    while True:
        y, yp, _ = _endpoint(q, 0j, length, (1.0 + 0j, 0j), float(rtol))
        m = boundary_ratio(y, yp, 0j).real
        if previous is not None and abs(m - previous) <= rtol * (1.0 + abs(m)):
            return y, yp, abs(m - previous)
        if length >= TRUNCATION_CAP:
            raise AccuracyError(f"M(0) did not settle by L = {length:g}", estimate=abs(m - previous))
        previous, length = m, min(2.0 * length, TRUNCATION_CAP)


def boundary_ratio(y: complex, yp: complex, z: complex) -> complex:
    """y'(0)/y(0); PoleError where y(0) vanishes to 1e-13 of max(|y(0)|, |y'(0)|)."""
    if abs(y) < 1e-13 * max(abs(y), abs(yp)):
        raise PoleError(f"z={z} is numerically an eigenvalue of the reference Dirichlet problem")
    return yp / y


def h_map(m: complex, h: float) -> complex:
    """The member (1 - h m) / (m - h) of the h family; PoleError where m = h."""
    denom = m - h
    if abs(denom) < 1e-13 * (1.0 + abs(m)):
        raise PoleError(f"m_inf(z) = h = {h}: pole of the h-triplet family")
    return (1.0 - h * m) / denom


def halfline_m_exact_tail(q: PotentialSpec, z: complex) -> complex:
    """m_inf(z) through the tail-matched route; requires a constant tail."""
    if tail_support(q) is None:
        raise AccuracyError("potential has no exactly-constant tail", estimate=1.0)
    return halfline_m(q, None, z, rtol=1e-11)


def halfline_m(q: PotentialSpec, h, z: complex, L: float | None = None,
               rtol: float = 1e-10) -> complex:
    """Half-line m-function for the triplet (y(0), y'(0)).

    m_inf = y'(0)/y(0) of decaying_solution: tail-matched when q has an
    exactly constant tail and L is None, else Dirichlet-truncated at L.
    z on the essential spectrum is refused on either route.  h = None
    selects m_inf itself; a finite real h applies h_map, the one-parameter
    family m_h(z) = (1 - h m_inf(z)) / (m_inf(z) - h).  That relation is the
    convention anchor for the whole family; note it maps the upper
    half-plane to itself only for |h| > 1 (the |h| < 1 members arise from an
    orientation-reversing coordinate change).
    """
    z = complex(z)
    if sqrt_upper(z - q.tail).imag <= 0.0:
        raise AccuracyError(f"z={z} sits on the essential spectrum tail", estimate=1.0)
    y, yp, _error = decaying_solution(q, z, L, rtol)
    m_inf = boundary_ratio(y, yp, z)
    return m_inf if h is None else h_map(m_inf, float(h))
