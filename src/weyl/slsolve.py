"""Complex-parameter ODE machinery for Sturm-Liouville problems.

A potential q is one frozen PotentialSpec subclass per kind: Zero,
SquareWell, Table or Expression, each checking its own parameters and
holding its own value, cell average and break points (_form), from which
its table of pieces (_line) and its tail are derived once; an Expression
probes its tail at large x instead.

Fundamental systems on a finite interval (for the 2x2 interval Weyl matrix)
and m-functions on the half-line.  integrate_ivp splits its span at the pieces
of q (PotentialSpec._line): where q is exactly constant it steps with the
exact transfer matrix [[cosh kh, sinh kh / k], [k sinh kh, cosh kh]],
k^2 = q - z.  Where q varies (a table segment, an expression) it steps the
exact exponential of the 6th-order Magnus generator on three Gauss-Legendre
nodes per cell (Blanes, Casas & Ros, BIT 40, 2000), on a mesh built once per
(potential, piece) and shared by every z; it halves the mesh until the
extrapolant of two successive levels is within rtol (_magnus).  The mesh is
graded for that 6th-order step: a cell of width w is accepted where
w^4 |dq| <= 3e-5, dq the change of q across it, so it is narrow where q is
steep and wide where q is flat; a change of more than 0.05 that one half of
the cell carries more than 3/4 of is a jump, and its cell is halved down to
about 5e-10 (_Mesh).  At a real z the same steps count the zeros of y, which
gives the Dirichlet eigenvalue counts (Sturm oscillation) of
fundamental_system and of halfline_oscillation.
Only this module seeds, truncates or thresholds the half-line solution
(decaying_solution, threshold_solution), integrating it backward to 0 rather
than through a Riccati equation (no blow-through at solution zeros);
boundary_ratio is the one y(0) = 0 test.

Every route propagates exactly the z and seed it is given, and keeps no
z-dependent state between calls; the propagation at conj z has the
conjugate bits of the one at z, which is what lets a grid request
(cli._emit_grid) answer a conjugate pair with one propagation.

An Expression is parsed once, when it is built; value() walks the parsed
tree (expr.evaluate), which raises an EvalError for a failed operation, and
refuses a result that is not finite.  Parsing caps an expression's nesting at
expr.MAX_NESTING and its depth at expr.MAX_DEPTH levels.
"""

from __future__ import annotations

import cmath
import math
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache

from . import expr
from .errors import AccuracyError, EvalError, PoleError, RangeError
from .linalg import Matrix
from .specfun import sqrt_upper
from .values import Value

TRUNCATION_CAP = 200.0
_TRUNC_TARGET = 1e-13
_TRUNC_RAISE = 1e-11
_RESCALE_NORM = 1e100
# exact steps on a constant piece are cut so that |Re k h| stays below this,
# which keeps cosh(kh) far inside double range
_EXACT_GROWTH = 40.0
# A z that takes more than _MAX_STEPS rescaled chunks (_endpoint) or exact
# steps on one piece (_transfer) is a RangeError before the first: a span
# overflows after about 18 exact steps, and no test's z takes over 13 chunks.
_MAX_STEPS = 1000
# An expression potential's tail is q(1e6); it counts as settled only when q
# at these smaller x agrees with it to _TAIL_SETTLE_TOL * max(1, |q(1e6)|).
_TAIL_X = 1e6
_TAIL_PROBES = (1e4, 1e5)
_TAIL_SETTLE_TOL = 1e-6


def checked_finite(value, field: str) -> float:
    """A constructor parameter as a float, or an EvalError naming field where it
    is not finite (nan or +-inf)."""
    v = float(value)
    if not math.isfinite(v):
        raise EvalError("must be finite", field=field)
    return v


class PotentialSpec(Value):
    """Base of the potentials q(x).  A subclass is a frozen value (values.Value)
    whose fields are its parameters, the keys of its problem-file kind; it sets
    kind and defines _at (q at x), _mean (its mean over a cell) and _form (its
    break points and its values between them, None where q varies), from
    which _line and tail derive; every evaluation of q goes through value."""

    kind = ""

    def value(self, x: float) -> float:
        return self._at(x)

    def cell_average(self, a: float, b: float) -> float:
        """Mean of q over [a, b]; exact for the piecewise kinds, and on a cell
        inside a constant piece of q (pieces) that constant itself.

        Discretizations sample through this so that potential jumps keep the
        stencil second-order accurate.
        """
        return self.value(a) if b <= a else self._mean(a, b)

    @cached_property
    def _line(self) -> tuple:
        """The pieces of q over the whole line, ((lo, hi, c), ...) in increasing
        order, with c the value of q on [lo, hi] where q is exactly constant
        there and None where it varies.  Neighbouring constant pieces with the
        same value are merged; the linear segments of a table stay apart, so
        that no mesh cell of the propagator straddles a kink of q, and an
        expression splits at 0, where its meshes start."""
        breaks, consts = self._form
        edges = (-math.inf, *breaks, math.inf)
        out = []
        for lo, hi, c in zip(edges, edges[1:], consts):
            if out and c is not None and out[-1][2] == c:
                out[-1] = (out[-1][0], hi, c)
            else:
                out.append((lo, hi, c))
        return tuple(out)

    @cached_property
    def tail(self) -> float:
        """q beyond its last break: _form's last constant, whose sign of zero _line may merge away."""
        return self._form[1][-1]

    def pieces(self, a: float, b: float) -> list:
        """[a, b] (a < b) split where q changes form: the pieces of _line that meet it, clipped."""
        return [(lo, hi, c) for p_lo, p_hi, c in self._line if (lo := max(p_lo, a)) < (hi := min(p_hi, b))]


class Zero(PotentialSpec):
    """q = 0."""

    kind = "zero"
    _form = ((), (0.0,))

    def _at(self, x: float) -> float:
        return 0.0

    def _mean(self, a: float, b: float) -> float:
        return 0.0


class SquareWell(PotentialSpec):
    """q = depth on [0, width), 0 elsewhere."""

    _fields = ("depth", "width")
    kind = "square_well"

    def __post_init__(self):
        width = checked_finite(self.width, "width")
        if width <= 0:
            raise EvalError("must be positive", field="width")
        depth = checked_finite(self.depth, "depth")
        self._derive(depth=depth, width=width, _form=((0.0, width), (0.0, depth, 0.0)))

    def _at(self, x: float) -> float:
        return self.depth if 0.0 <= x < self.width else 0.0

    def _mean(self, a: float, b: float) -> float:
        if 0.0 <= a and b <= self.width:
            return self.depth
        return self.depth * max(0.0, min(b, self.width) - max(a, 0.0)) / (b - a)


class Table(PotentialSpec):
    """q linear between strictly increasing nodes, constant beyond the end ones."""

    _fields = ("nodes", "values")
    kind = "sampled_table"

    def __post_init__(self):
        nodes = tuple(checked_finite(x, f"nodes[{i}]") for i, x in enumerate(self.nodes))
        values = tuple(checked_finite(v, f"values[{i}]") for i, v in enumerate(self.values))
        if len(nodes) < 2:
            raise EvalError("needs at least two nodes", field="nodes")
        if len(values) != len(nodes):
            raise EvalError("length mismatch with nodes", field="values")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise EvalError("must be strictly increasing", field="nodes")
        segments = (lo if lo == hi else None for lo, hi in zip(values, values[1:]))
        self._derive(nodes=nodes, values=values, _form=(nodes, (values[0], *segments, values[-1])))

    def _at(self, x: float) -> float:
        nodes, vals = self.nodes, self.values
        if x <= nodes[0]:
            return vals[0]
        if x >= nodes[-1]:
            return vals[-1]
        lo = bisect_right(nodes, x) - 1
        if vals[lo] == vals[lo + 1]:
            return vals[lo]
        t = (x - nodes[lo]) / (nodes[lo + 1] - nodes[lo])
        return vals[lo] * (1.0 - t) + vals[lo + 1] * t

    def _mean(self, a: float, b: float) -> float:
        first, stop = bisect_right(self.nodes, a), bisect_left(self.nodes, b)
        span = self.values[max(first - 1, 0):stop + 1]  # q at the nodes that bound [a, b]
        if min(span) == max(span):
            return span[0]
        knots = [a, *self.nodes[first:stop], b]
        acc = 0.0
        for lo, hi in zip(knots, knots[1:]):
            acc += 0.5 * (self.value(lo) + self.value(hi)) * (hi - lo)
        return acc / (b - a)


class Expression(PotentialSpec):
    """q given by an expression in x (expr.parse_potential)."""

    _fields = ("source",)
    kind = "expression"
    _form = ((0.0,), (None, None))

    def __post_init__(self):
        self._derive(_ast=expr.parse_potential(self.source))

    def _at(self, x: float) -> float:
        v = expr.evaluate(self._ast, x)
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


# A base cell of a Magnus mesh is at most _CELL_MAX wide, and its width w and
# the change dq of q across it keep w^4 |dq| <= _CELL_W4DQ, which spreads the
# 6th-order step's error over the mesh.  A change of more than _CELL_DQ that
# one half of the cell carries more than 3/4 of is a jump: its cell is halved
# down to _CELL_MIN.  A mesh of more than _MAX_CELLS base cells is refused (q
# may have a pole).
_CELL_MAX = 0.5
_CELL_DQ = 0.05
_CELL_W4DQ = 3e-5
_CELL_MIN = _CELL_MAX * 2.0 ** -30
_MAX_CELLS = 2**15
_MAX_LEVEL = 6
_NODE = math.sqrt(15.0) / 10.0  # the outer Gauss nodes sit at the middle -/+ this times w
_NODE_A2 = math.sqrt(15.0) / 3.0


def integrate_ivp(q: PotentialSpec, z: complex, y0, span, rtol: float = 1e-10):
    """Integrate (y, y')' = (y', (q - z) y) over span = (a, b); returns
    (y(b), y'(b), zeros).

    Exact transfer matrices on the pieces where q is constant, Magnus steps
    on a z-independent mesh on the others.  The span may be decreasing.

    At a real z, zeros counts the times y passes from y <= 0 to y > 0 or back
    after a (at a complex z it is 0).  Each step, exact or Magnus, is
    exp(Omega) with Omega real and traceless at a real z: the exact step's
    Omega is h [[0, 1], [q - z, 0]], and the Magnus generator's entries are
    real polynomials in q at its nodes, h and z.  So along the step,
    exp(tau Omega) = cosh(tau s) I + sinh(tau s)/s Omega with s^2 = -det Omega
    real.  With s^2 = -sigma^2 < 0 it turns (y, y') uniformly by sigma in the
    coordinates of its rotation, and y = A cos(sigma tau - phi) vanishes once
    per half-turn and once more where the rest ends across 0; otherwise
    (a whole exact piece included) y is a sum of two real exponentials
    e^(+-s tau) times constants and vanishes at most once.
    """
    a, b = float(span[0]), float(span[1])
    y, yp = complex(y0[0]), complex(y0[1])
    z = complex(z)
    zeros = 0
    if a != b:
        lo, hi = min(a, b), max(a, b)
        pieces = [(start, end, p) for p in q._line if (start := max(p[0], lo)) < (end := min(p[1], hi))]
        if b < a:
            pieces = [(end, start, p) for start, end, p in reversed(pieces)]
        for start, end, piece in pieces:
            if piece[2] is None:
                y, yp, n = _magnus(q, z, y, yp, start, end, piece, rtol)
            else:
                y, yp, n = _transfer(piece[2], z, y, yp, start, end)
            zeros += n
    return y, yp, zeros


def _check_finite(y: complex, yp: complex, a: float, b: float):
    if not (cmath.isfinite(y) and cmath.isfinite(yp)):
        raise RangeError(f"solution overflows double range on [{a}, {b}]")


def _transfer(c: float, z: complex, y: complex, yp: complex, a: float, b: float):
    """Exact steps of y'' = (c - z) y from a to b, cut so that |Re k h| <= _EXACT_GROWTH:
    (y(b), y'(b), zeros), the zeros counted at a real z (see integrate_ivp)."""
    y_a, k2 = y, c - z
    k = cmath.sqrt(k2)
    n = abs(k.real * (b - a)) / _EXACT_GROWTH
    if not n <= _MAX_STEPS:
        raise RangeError(f"z={z} needs {n:.3g} exact steps on [{a}, {b}], more than {_MAX_STEPS}")
    n = max(1, math.ceil(n))
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
            piece: tuple, rtol: float):
    """(y(b), y'(b), zeros) from a to b inside piece, a varying piece of q, to rtol.

    Sweeps the piece's mesh (from its finite end) at levels 0, 1, 2, ... from
    the same (y, y'), so all share one scaling.  The step is of order 6, so at
    level k >= 1 it extrapolates the h^6 term away, u_k = y_k + (y_k - y_{k-1})/63,
    and takes the error of u_k as |y_k - y_{k-1}|/63, or from k = 2 on as
    |y_k - y_{k-1}| itself unless that difference fell at least 8-fold from the
    last (far from h^6, as next to a branch point of q, the extrapolation
    cannot be trusted); each is the larger over y and y'.  Returns u_k at the
    first k whose error is <= rtol max(|u|, |u'|); past level _MAX_LEVEL
    raises AccuracyError.  The zeros are those of level k, moved by one where
    u_k lies across 0 from y_k: a zero at a piece end then counts once.
    """
    lo, hi, _ = piece
    mesh = _mesh(q, hi, lo) if lo == -math.inf else _mesh(q, lo, hi)
    d = 0.0
    for level in range(_MAX_LEVEL + 1):
        try:
            yk, ypk, zeros = mesh.sweep(z, y, yp, a, b, level)
        except (OverflowError, ValueError):  # a cell's cosh or sinh overflowed, or z is nan
            yk = ypk = math.inf
        _check_finite(yk, ypk, a, b)
        if level >= 1:
            u, p = yk + (yk - y_prev) / 63.0, ypk + (ypk - yp_prev) / 63.0
            d_prev, d = d, max(abs(yk - y_prev), abs(ypk - yp_prev))
            err, scale = d / 63.0, max(abs(u), abs(p))
            if level >= 2 and d_prev < 8.0 * d:
                err = max(err, d)
            if err <= rtol * scale:
                if not z.imag and (u.real > 0.0) != (yk.real > 0.0):
                    # past a zero, y has the sign of y' times the direction of travel
                    zeros += -1 if (yk.real > 0.0) == ((ypk.real > 0.0) == (b > a)) else 1
                return u, p, zeros
        y_prev, yp_prev = yk, ypk
    raise AccuracyError(f"Magnus mesh on [{a}, {b}] not resolved at z={z} after level {_MAX_LEVEL}",
                        estimate=err / scale)


@lru_cache(maxsize=64)
def _mesh(q: PotentialSpec, origin: float, end: float) -> _Mesh:
    """The one mesh of a piece, shared by every z and span: it grows on demand,
    but what it holds depends on (q, origin, end) alone."""
    return _Mesh(q, origin, end)


class _Mesh:
    """The z-independent mesh of one varying piece of q, with q sampled on its levels.

    Base nodes are distances t from origin toward end (end may be infinite),
    graded from origin and added on demand: a base cell is twice as wide as
    the last (at most _CELL_MAX), halved down to _CELL_MIN while its width w
    and the change dq of q across it have w^4 |dq| > _CELL_W4DQ, while dq is
    a jump (more than _CELL_DQ, and more than 3/4 of it in one half of the
    cell; _jumps), or while q is not defined at its end.  Every span in the
    piece steps the same base cells; only the cells it cuts are sampled afresh.
    Level k holds the 6th-order Magnus generator of each of the 2^k equal
    subcells of each base cell, stepped toward larger t, as six doubles in
    one array('d') (see _cells).
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
                dq = abs(qb - self.q_last)
                if w <= _CELL_MIN or (w ** 4 * dq <= _CELL_W4DQ
                                      and not (dq > _CELL_DQ and self._jumps(t[-1], tb, qb, dq))):
                    break
                w *= 0.5
            t.append(tb)
            self.q_last, self.w_last = qb, w

    def _jumps(self, ta: float, tb: float, qb: float, dq: float) -> bool:
        """Whether one half of the cell [ta, tb] carries more than 3/4 of the
        change dq of q across it (or q is not defined at its middle)."""
        try:
            qm = self.q.value(self.origin + self.dir * 0.5 * (ta + tb))
        except EvalError:
            return True
        return max(abs(qm - self.q_last), abs(qb - qm)) > 0.75 * dq

    def _cells(self, t0: float, t1: float, n: int) -> array:
        """The (q2, c0, d0, o1, c2, d2) of the n equal subcells of [t0, t1], in order of t.

        A subcell of width w stepped toward larger t, h = dir w, with q1, q2,
        q3 at its Gauss nodes mid - _NODE w, mid, mid + _NODE w, has the
        generator of Blanes, Casas & Ros (BIT 40, 2000) for
        A = [[0, 1], [q - z, 0]]: with a2 = (sqrt 15/3) h (q3 - q1),
        a3 = (10/3) h (q3 - 2 q2 + q1) and p = q2 - z it is
        Omega = [[o0, o1], [o2, -o0]], o0 = c0 + d0 p and o2 = c2 + d2 p, where
          c0 = (-20 h a2 + h^2 a2 a3/30) / 240,   d0 = h^3 a2 / 180,
          o1 = h + (h^3 a2^2/30 - (2/3) h^2 a3) / 120,
          c2 = a3/12 + (h a3^2/30 - h a2^2) / 120,
          d2 = h + ((2/3) h^2 a3 + h^3 a2^2/30) / 120,
        all real and independent of z.
        """
        qv, d, x0 = self.q.value, self.dir, self.origin
        w = (t1 - t0) / n
        h, g = d * w, _NODE * w
        hh = h * h
        out = array("d")
        for j in range(n):
            mid = t0 + (j + 0.5) * w
            q1, q2, q3 = qv(x0 + d * (mid - g)), qv(x0 + d * mid), qv(x0 + d * (mid + g))
            a2 = _NODE_A2 * h * (q3 - q1)
            a3 = (10.0 / 3.0) * h * (q3 - 2.0 * q2 + q1)
            e = hh * h * a2 * a2 / 30.0
            out.extend((q2, (-20.0 * h * a2 + hh * a2 * a3 / 30.0) / 240.0, hh * h * a2 / 180.0,
                        h + (e - (2.0 / 3.0) * hh * a3) / 120.0,
                        a3 / 12.0 + (h * a3 * a3 / 30.0 - h * a2 * a2) / 120.0,
                        h + ((2.0 / 3.0) * hh * a3 + e) / 120.0))
        return out

    def sweep(self, z: complex, y: complex, yp: complex, a: float, b: float, level: int):
        """(y(b), y'(b), zeros) by the Magnus steps of one level from x = a, the
        zeros counted at a real z (see integrate_ivp).

        A subcell steps by exp(Omega) = cosh(s) I + sinh(s)/s Omega, with
        s^2 = o0^2 + o1 o2.  The step is time-symmetric, Omega(-h) = -Omega(h),
        so stepped toward smaller t it is the same with sinh(s)/s negated.
        """
        x0, d, t, n = self.origin, self.dir, self.t, 1 << level
        ta, tb = (a - x0) * d, (b - x0) * d
        lo, hi = min(ta, tb), max(ta, tb)
        self._grade_to(hi)
        i0, i1 = bisect_right(t, lo), bisect_left(t, hi)
        head, tail = t[i0 - 1] != lo, t[i1] != hi  # a base cell cut by the span at either end
        m = 6 * n  # doubles per base cell
        done = self.levels.setdefault(level, array("d"))
        # sample the base cells up to hi, but none that crosses it
        for i in range(len(done) // m, i1 - tail):
            done.extend(self._cells(t[i], t[i + 1], n))
        if head and tail and i0 == i1:
            cells = self._cells(lo, hi, n)
        else:
            cells = done[m * (i0 - 1 + head): m * (i1 - tail)]
            if head:
                cells = self._cells(lo, t[i0], n) + cells
            if tail:
                cells += self._cells(t[i1 - 1], hi, n)
        if tb > ta:
            subcells, sign = zip(*(cells[j::6] for j in range(6))), 1.0
        else:
            subcells, sign = zip(*(cells[j - 6::-6] for j in range(6))), -1.0
        sqrt, cosh, sinh = cmath.sqrt, cmath.cosh, cmath.sinh
        real, zeros, pos = not z.imag, 0, y.real > 0.0
        for q2, c0, d0, o1, c2, d2 in subcells:
            p = q2 - z
            o0, o2 = c0 + d0 * p, c2 + d2 * p
            s = sqrt(o0 * o0 + o1 * o2)
            ch, sh = (cosh(s), sign * sinh(s) / s) if s else (1.0, sign)
            sh0 = sh * o0
            y, yp = (ch + sh0) * y + sh * o1 * yp, sh * o2 * y + (ch - sh0) * yp
            if real:
                new, turns = y.real > 0.0, int(abs(s.imag) / math.pi)
                zeros += turns + ((pos != new) ^ (turns & 1))
                pos = new
        return y, yp, zeros


def fundamental_system(q: PotentialSpec, b: float, z: complex, rtol: float = 1e-10):
    """(u1(b), u1'(b), u2(b), u2'(b), dirichlet_count) of the solution basis u1
    (u1(0)=1, u1'(0)=0), u2 (0, 1) of l[y] = z y on [0, b], b > 0.  The
    interval triplet (y(0), y(b)), (y'(0), -y'(b)) maps it to
    Y0 = [[1, 0], [u1(b), u2(b)]] and Y1 = [[0, 1], [-u1'(b), -u2'(b)]].
    dirichlet_count is, at a real z, the zeros of u2 in (0, b), the Dirichlet
    eigenvalues below z (Sturm); 0 at a complex z."""
    z = complex(z)
    u1b, u1pb, _ = integrate_ivp(q, z, (1.0, 0.0), (0.0, b), rtol=rtol)
    u2b, u2pb, zeros = integrate_ivp(q, z, (0.0, 1.0), (0.0, b), rtol=rtol)
    # at a real z, u2 leaves its zero at 0 into y > 0, which counts once
    return u1b, u1pb, u2b, u2pb, 0 if z.imag else zeros - 1


def finite_interval_M(q: PotentialSpec, b: float, z: complex,
                      rtol: float = 1e-10) -> Matrix:
    """2x2 Weyl matrix Y1 (Y0)^-1 of the interval triplet (y(0), y(b)) / (y'(0), -y'(b)).

    Y0 = [[1, 0], [u1(b), u2(b)]], so with the Wronskian u1 u2' - u1' u2 = 1
    this is [[-u1(b), 1], [1, -u2'(b)]] / u2(b): no inversion, and no
    cancellation in the off-diagonal entry when the solutions grow large.
    """
    u1b, _, u2b, u2pb, _ = fundamental_system(q, b, z, rtol=rtol)
    # the integrator cannot resolve u2(b) = det Y0 below ~30x its tolerance
    # relative to the size of the solutions; u2(b) is about b on a short
    # interval, so below b = 1 the bound shrinks with b
    if abs(u2b) < 30.0 * rtol * min(b, 1.0) * max(1.0, abs(u1b), abs(u2b)):
        raise PoleError(f"z={z} is a Dirichlet eigenvalue of the interval problem", location=z)
    return Matrix.from_rows([[-u1b / u2b, 1.0 / u2b], [1.0 / u2b, -u2pb / u2b]])


def _endpoint(q: PotentialSpec, z: complex, start: float, seed: tuple, rtol: float):
    """(y(0), y'(0), zeros) from seed = (y, y') at x = start, integrated back in
    rescaled chunks over which the solution grows by at most about e^80; the
    zeros in (0, start) are counted at a real z (see integrate_ivp).

    Only the ray through (y(0), y'(0)) matters, so per-chunk rescaling is
    harmless (it keeps the signs) and keeps magnitudes inside double range for
    large Im sqrt(z) L.
    """
    nchunks = sqrt_upper(z - q.tail).imag * start / 80.0
    if not nchunks <= _MAX_STEPS:
        raise RangeError(f"z={z} needs {nchunks:.3g} rescaled chunks on [0, {start}], more than {_MAX_STEPS}")
    nchunks = int(nchunks) + 1
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
    lo, _hi, c = q._line[-1]
    return None if c is None else max(lo, 0.0)


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
    y, yp, _ = _endpoint(q, z, start, seed, rtol)
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
        y, yp, _ = _endpoint(q, 0j, length, (1.0 + 0j, 0j), rtol)
        m = boundary_ratio(y, yp, 0j).real
        if previous is not None and abs(m - previous) <= rtol * (1.0 + abs(m)):
            return y, yp, abs(m - previous)
        if length >= TRUNCATION_CAP:
            raise AccuracyError(f"M(0) did not settle by L = {length:g}", estimate=abs(m - previous))
        previous, length = m, min(2.0 * length, TRUNCATION_CAP)


def boundary_ratio(y: complex, yp: complex, z: complex) -> complex:
    """y'(0)/y(0); at a real z, PoleError where y(0) vanishes to 1e-13 of max(|y(0)|,
    |y'(0)|).  A non-real z is no eigenvalue of the self-adjoint reference, however large m."""
    if not z.imag and abs(y) < 1e-13 * max(abs(y), abs(yp)):
        raise PoleError(f"z={z} is numerically an eigenvalue of the reference Dirichlet problem")
    return yp / y


def halfline_m_exact_tail(q: PotentialSpec, z: complex) -> complex:
    """m_inf(z) through the tail-matched route; requires a constant tail."""
    if tail_support(q) is None:
        raise AccuracyError("potential has no exactly-constant tail", estimate=1.0)
    return halfline_m(q, z, rtol=1e-11)


def halfline_m(q: PotentialSpec, z: complex, L: float | None = None,
               rtol: float = 1e-10) -> complex:
    """Half-line m-function m_inf for the triplet (y(0), y'(0)).

    m_inf = y'(0)/y(0) of decaying_solution: tail-matched when q has an
    exactly constant tail and L is None, else Dirichlet-truncated at L.
    z on the essential spectrum is refused on either route.
    """
    z = complex(z)
    if sqrt_upper(z - q.tail).imag <= 0.0:
        raise AccuracyError(f"z={z} sits on the essential spectrum tail", estimate=1.0)
    y, yp, _error = decaying_solution(q, z, L, rtol)
    return boundary_ratio(y, yp, z)
