"""Independent finite-difference oracle for the concrete operators.

Everything here deliberately avoids the Weyl-function machinery: second-order
lumped-form discretization to a symmetric tridiagonal matrix, Sturm-sequence
eigenvalue counts (exact integers), bisection eigenvalues, and a pivoted
tridiagonal solver for resolvents.  The M-route results are validated against
this module, never the other way around.

Error model: err ~ C dx^2 + exp(-2 kappa L).  The module has no default
grid: each kind picks its L and n in models, and tests pick theirs from it.

A boundary side is None (Dirichlet) or a Robin value h (Neumann is 0.0).

Work is spent only on what callers read, and nothing is computed twice.
The interior rows of a grid depend on (q, L, n) alone and are built once per
grid from the pieces of q: each constant piece is one run of equal rows,
and only the cells across a break or in a varying piece are averaged, each
by q.cell_average, so a build costs O(pieces + varying cells) (_grid); the
couplings and their squares depend on (L, n) and on which sides are Robin
and are built once too.  An operator is that interior plus a boundary row
on each side that is not Dirichlet, so the Dirichlet reference and every
A_B of one request share both, and its norm bound max |diag| + 2 max |off|
comes from the runs and the boundary rows in O(1).  A grid's flat stretch,
its trailing run of equal interior rows (the q = 0 tail of a half line,
say), is its last run; its rows share one diagonal entry and one coupling.  A
Sturm count is one pass over the rows with one early exit: when the stretch
is the last rows of the matrix (the Dirichlet end of a half line) and mu
lies below its band, the count stops once a pivot there exceeds the
coupling, since no later pivot can then be negative.  The Gershgorin bounds
read the stretch's rows as one row.  Both give the bits of the full loop.
The bisection for the j-th eigenvalue starts from the same bracket as the
one for j - 1, so all of them share one sorted table of Sturm counts, and
it stops at width tol or once the midpoint is no longer strictly inside the
bracket.  The floating-point
Sturm count is monotone in mu (Demmel, Dhillon & Ren, ETNA 3, 1995), so a
midpoint between two counted points of equal count has that count and takes
no pass.  With `upper` given, one Sturm count at `upper` says how many
eigenvalues lie below it, and only those are bisected, from [Gershgorin
lower bound, upper] rather than from the full Gershgorin bracket (Barth,
Martin & Wilkinson, Numer. Math. 9, 1967): no value above `upper` is
computed, and each returned value lies within `tol` of the unbounded run's
value of the same index.  Counts at points stepped down from `upper` find
one below the lowest eigenvalue, so the descent from the Gershgorin bound,
far below on every grid, costs no count.  Once a bracket holds one
eigenvalue alone, a safeguarded secant (Illinois) on the last pivot of a
bottom-up elimination estimates it, and two Sturm counts planted just
either side of the estimate let the bisection take every later midpoint
outside them from the table.  The table holds true counts only, so every
returned value is the one plain bisection gives.  A resolvent factors T - z
once; every right-hand side is then one substitution through the stored
swaps and multipliers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain

from .errors import ContractError, DimensionError, SpectralPointError
from .slsolve import PotentialSpec
from .values import Value

MAX_EIGENVALUES = 50  # most eigenvalues one lowest_eigenvalues call bisects
SECANT_STEPS, PLANT_TRIES = 40, 6  # most g passes per estimate; most plants, each 4x wider
RANK_PROBES, RANK_SEED, RANK_TAU = 6, 0, 1e-8  # resolvent_difference_rank's probes, seed, cut


class DiscretizedOperator(Value):
    """Symmetric tridiagonal reduction of -y'' + q y on [0, L].

    A side is None (Dirichlet: its end node is dropped) or the Robin value h
    (Neumann is 0.0).  Left Robin means y'(0) = h y(0); right Robin means
    -y'(L) = h y(L), the sign convention of the interval boundary triplet.
    The boundary condition is folded in through the lumped quadratic form,
    which keeps the matrix exactly symmetric and the eigenvalues
    second-order accurate.

    flat = (start, stop) names the rows start..stop-1 (start >= 1) that
    share diag[start] and the coupling off[start - 1] to the row before;
    (0, 0), the default, names none.  discretize names the grid's trailing
    run of equal interior rows.  off2 holds the squares e * e of the
    couplings, which the Sturm count reads, and norm = max |diag| + 2 max |off|
    bounds ||T||_inf; left out, each is derived here.
    """

    _fields = ("diag", "off", "dx", "L", "left", "right", "flat", "off2", "norm")
    _defaults = {"flat": (0, 0), "off2": None, "norm": None}
    _compared = _shown = _fields[:7]  # off2 and norm are derived

    def __post_init__(self):
        if self.off2 is None:
            self._derive(off2=tuple(e * e for e in self.off))
        if self.norm is None:
            self._derive(norm=max(map(abs, self.diag)) + 2.0 * max(map(abs, self.off), default=0.0))

    @property
    def size(self) -> int:
        return len(self.diag)


@lru_cache(maxsize=32)
def _grid(q: PotentialSpec, L: float, n: int):
    """(q at node 0, interior diagonal of nodes 1..n-1, q at node n, flat run,
    top), top the largest |row|, which bounds the grid's share of ||T||_inf.

    q is averaged over each node's cell clipped to [0, L], which keeps
    potential jumps second-order accurate.  The interior is built from the
    pieces of q (q.pieces): the cells wholly inside a constant piece, found
    by bisection on the cells' edges, average to its constant c and are one
    run, whose rows are the one float (2/dx + c dx)/dx; each other cell (one
    across a break, or one of a varying piece), like the two end cells, is
    q.cell_average's.  So a build costs O(pieces + varying cells), and every
    row is q.cell_average's.  The interior rows do not depend on
    the boundary.  Neighbouring runs of equal rows merge, and the flat run
    (i, n - 1) is the last of them, the trailing run interior[i:] of equal
    entries, or (0, 0) when it is one row.  The cached interior is a tuple
    whose runs are each one float object, so a cached grid costs 8 bytes a
    node of a run and 32 bytes (a reference and its float) any other.  Its
    top is read off the runs.
    """
    dx = L / n

    def edge(k):  # node k's cell is [edge(k), edge(k + 1)], k = 0..n
        return min(L, (k - 0.5) * dx) if k else 0.0

    runs = []  # [row, count] over the interior cells in order, equal neighbours merged

    def run(c, m):
        v = (2.0 / dx + c * dx) / dx
        if runs and runs[-1][0] == v:
            runs[-1][1] += m
        else:
            runs.append([v, m])

    def averaged(stop):  # the interior cells done..stop-1, each its own cell average
        for k in range(done, stop):
            run(q.cell_average(edge(k), edge(k + 1)), 1)

    edges, done = range(n + 1), 1
    for lo, hi, c in q.pieces(0.0, L):
        if c is not None:
            first = bisect_left(edges, lo, done, key=edge)
            stop = bisect_right(edges, hi, first, key=edge) - 1
            if first < stop:
                averaged(first)
                run(c, stop - first)
                done = stop
    averaged(n)
    rows = []
    for v, m in runs:
        rows += [v] * m
    m = runs[-1][1]
    return (q.cell_average(0.0, edge(1)), tuple(rows), q.cell_average(edge(n), L),
            (n - 1 - m, n - 1) if m > 1 else (0, 0), max(abs(v) for v, _ in runs))


@lru_cache(maxsize=32)
def _couplings(L: float, n: int, left: bool, right: bool):
    """(couplings, their squares) of the grid (L, n) with a Robin row on the
    sides that are True; neither depends on q or on the Robin values.  Each
    tuple repeats one float object, so a cached pair costs 16 bytes a row."""
    dx = L / n
    half = dx / 2.0
    inner = (-1.0 / dx) / math.sqrt(dx * dx)
    edge = (-1.0 / dx) / math.sqrt(half * dx)
    off = (inner,) * (n - 2)
    off2 = (inner * inner,) * (n - 2)
    if left:
        off, off2 = (edge,) + off, (edge * edge,) + off2
    if right:
        off, off2 = off + (edge,), off2 + (edge * edge,)
    return off, off2


def discretize(q: PotentialSpec, L: float, n: int, left: float | None,
               right: float | None) -> DiscretizedOperator:
    if n < 100:
        raise ContractError("need at least 100 grid intervals")
    if L <= 0:
        raise ContractError("L must be positive")
    dx = L / n
    half = dx / 2.0
    # the couplings are about -1/dx^2 and a Sturm count reads their squares,
    # the largest of which are the end ones: a step whose square underflows to
    # 0 (a division by 0 in _couplings), or whose squares overflow, is refused
    sides = (left is not None, right is not None)
    off, off2 = _couplings(L, n, *sides) if half * dx > 0.0 else ((), (math.inf,))
    if not math.isfinite(max(off2[0], off2[-1])):
        raise ContractError(f"grid step L/n = {dx!r} too small: the squared couplings overflow")
    # quadratic form: sum (y_{i+1}-y_i)^2/dx + sum w_i q_i y_i^2 + h_l y_0^2 + h_r y_n^2,
    # lumped weights w_i = dx inside and dx/2 at a retained end node
    q0, diag, qn, (i, j), top = _grid(q, L, n)
    if left is not None:
        diag = ((1.0 / dx + q0 * half + left) / half,) + diag
        top = max(top, abs(diag[0]))
        i, j = i + 1, j + 1
    if right is not None:
        diag += ((1.0 / dx + qn * half + right) / half,)
        top = max(top, abs(diag[-1]))
    # the flat rows couple to the row before through an interior coupling:
    # no earlier than row 1, or row 2 behind a retained left node
    i = max(i, 1 if left is None else 2)
    # the largest coupling is an end one: an edge coupling where a side is Robin
    norm = top + 2.0 * max(abs(off[0]), abs(off[-1]))
    return DiscretizedOperator(diag, off, dx, float(L), left, right,
                               (i, j) if i < j else (0, 0), off2, norm)


def eigen_count_below(opd: DiscretizedOperator, mu: float) -> int:
    """Number of eigenvalues below mu, by Sturm sign agreements of the LDL pivots."""
    if not math.isfinite(mu):
        raise ContractError("mu must be finite")
    return _sturm_count(opd.diag, opd.off2, mu, opd.flat)


def _sturm_count(diag, off2, mu: float, flat=(0, 0)) -> int:
    """The number of negative LDL pivots of T - mu, the same integer as the
    full loop over every row; off2 are the squared couplings e * e.

    When the flat stretch (start, stop) ends the matrix (stop == len(diag))
    and mu lies below its band, the count is final once a pivot p there
    exceeds |e|.  Its rows share a = diag[start] - mu and e2 =
    off2[start - 1], so each pivot there is p' = fl(a - fl(e2 / p)), the
    full loop's bits.  With r = sqrt(e2), a > 2r and p > r give
    p' = a - e2/p > a - r > r in exact arithmetic, so no later pivot is
    negative, and no row follows the stretch.  In floating point, with
    u = 2^-53:
    - a > fl(2 (1 + 1e-12) fl(sqrt(e2))) gives a > 2r (1 + 9.9e-13), since
      the constant, the square root and the product each round by at most
      u relative (a square root of a positive float is normal);
    - fl(p * p) > e2 gives p > r exactly, since rounding is monotonic and
      e2 is a float;
    - then fl(e2 / p) < r (1 + 2u), and p' >= (a - fl(e2 / p)) (1 - u) >
      r (1 + 1.9e-12) > r, so p' is again above r, and positive.
    With e2 = 0 every later pivot is a > 0 itself.  Any other stretch, and
    mu at or above the band, is stepped row by row.
    """
    tiny = 1e-300
    p = diag[0] - mu
    if p == 0.0:
        p = -tiny
    count = 1 if p < 0 else 0
    start, stop = flat
    if start < stop == len(diag):
        a = diag[start] - mu
        e2 = off2[start - 1]
        if not a > 2.0 * (1 + 1e-12) * math.sqrt(e2):
            start = stop
    else:
        start = stop = len(diag)
    for d, sq in zip(diag[1:start], off2):
        p = (d - mu) - sq / p
        if p == 0.0:
            p = -tiny
        if p < 0:
            count += 1
    for _ in range(start, stop):
        p = a - e2 / p
        if p == 0.0:
            p = -tiny
        if p < 0:
            count += 1
        elif p * p > e2:
            break
    return count


def gershgorin_bounds(opd: DiscretizedOperator):
    """(min, max) over the rows of diag -/+ the row's absolute couplings; the
    flat rows but the last share one such row, which is read once."""
    d, e = opd.diag, opd.off
    start, stop = opd.flat
    lo = math.inf
    hi = -math.inf
    for i in chain(range(start + 1), range(max(start + 1, stop - 1), len(d))):
        r = (abs(e[i - 1]) if i > 0 else 0.0) + (abs(e[i]) if i < len(e) else 0.0)
        lo = min(lo, d[i] - r)
        hi = max(hi, d[i] + r)
    return lo, hi


def lowest_eigenvalues(opd: DiscretizedOperator, k: int, tol: float = 1e-10,
                       upper: float | None = None) -> list:
    """k smallest eigenvalues by bisection on the Sturm count function.

    With upper given, returns the min(k, eigen_count_below(opd, upper))
    eigenvalues below upper, each bisected from [Gershgorin lower bound,
    upper]; each lies within tol of the value of the same index without
    upper.

    The counts taken are kept sorted by mu.  Since the count is monotone in
    mu, a midpoint between two counted points with equal counts (or below
    the lowest counted point with count 0, or above the highest with count
    size) takes that count without a pass.  With upper given and an
    eigenvalue below it, counts at upper - s, s = max(1, |upper|) doubling,
    go on until one is 0 or the point would leave the bracket.

    Once the bisection for the j-th eigenvalue holds a bracket [a, b] with
    counts j - 1 at a and j at b, a secant estimate x of the eigenvalue
    (_secant_estimate on _last_pivot) is made, and two counts are planted at
    x - d and x + d, d = max(tol / 4, 4 ulp(x)), at most PLANT_TRIES times,
    each 4-fold wider, until they hold the jump.  Every later midpoint
    outside (x - d, x + d) then takes its count from the table.

    Invariant: only true Sturm counts enter the table, and the bisection's
    midpoints depend on nothing but the counts, so the values are plain
    bisection's bit for bit.  A poor estimate, a pole of g in the bracket,
    a jump larger than 1 or tol = 0 cost counts, never a changed value.
    """
    if k > MAX_EIGENVALUES:
        raise ContractError(f"k <= {MAX_EIGENVALUES}")
    lo0, hi0 = gershgorin_bounds(opd)
    xs, cs = [], []  # the counted points, ascending, and their counts

    def count_at(mu):
        i = bisect_left(xs, mu)
        if i < len(xs) and xs[i] == mu:
            return cs[i]
        below = cs[i - 1] if i else 0
        if below == (cs[i] if i < len(xs) else opd.size):
            return below
        c = eigen_count_below(opd, mu)
        xs.insert(i, mu)
        cs.insert(i, c)
        return c

    if upper is None:
        k = min(k, opd.size)
        top = opd.size
    else:
        top = count_at(upper)
        k = min(k, top)
        hi0 = upper
        # probe down from upper until a count is 0: the bisections' descent
        # from lo0 to there then needs no count
        step = max(1.0, abs(upper))
        while k and upper - step > lo0 and count_at(upper - step):
            step *= 2.0
    g = lru_cache(maxsize=None)(lambda mu: _last_pivot(opd, mu))

    def plant(j, lo, hi):
        x = _secant_estimate(g, lo, hi, tol)
        if x is None:
            return False
        if lo < x < hi:
            d = max(tol / 4.0, 4.0 * math.ulp(x))
            for _ in range(PLANT_TRIES):
                left, right = max(x - d, lo), min(x + d, hi)
                if (left == lo or count_at(left) < j) and (right == hi or count_at(right) >= j):
                    break
                d *= 4.0
        return True

    return [_bisect(count_at, j, lo0, hi0, tol, plant, top) for j in range(1, k + 1)]


def _bisect(count_at, j: int, lo: float, hi: float, tol: float, isolated=None,
            hi_count=None) -> float:
    """Midpoint of the bracket [lo, hi] around the point where count_at first
    reaches j, halved until it is at most tol wide or its midpoint is no
    longer strictly inside it.

    With isolated given, isolated(j, lo, hi) is called before each halving
    of a bracket known to hold that jump alone (count j - 1 at lo, taken as
    0 at the start, and j at hi, hi_count at the start) until it returns
    True.  It may count points in between but does not move the bracket, so
    the midpoints and the result are the ones without it."""
    lo_count = 0
    while hi - lo > tol:
        if isolated is not None and lo_count == j - 1 and hi_count == j and isolated(j, lo, hi):
            isolated = None
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        c = count_at(mid)
        if c >= j:
            hi, hi_count = mid, c
        else:
            lo, lo_count = mid, c
    return 0.5 * (lo + hi)


def _last_pivot(opd: DiscretizedOperator, mu: float) -> float:
    """g(mu), the last pivot of T - mu eliminated from its last row up:
    q_{n-1} = d_{n-1} - mu, q_i = (d_i - mu) - e_i^2 / q_{i+1}, g = q_0.

    g = det(T - mu) / det(T' - mu), T' being T without row 0, so it has a
    simple zero at each simple eigenvalue of T and its poles are the
    eigenvalues of T', which interlace them; between two poles it falls from
    +inf to -inf.  It serves only as the estimate lowest_eigenvalues plants
    its counts around, and reads the flat stretch in O(1): with mu below the
    stretch's band, x -> a - e^2 / x has the fixed points q+ > q- > 0, and
    w = (q - q+) / (q - q-) is multiplied by q- / q+ each row, so after m
    rows w is (q- / q+)^m times its entry value.  This is used only while
    |w| <= 1/2, where its q = (q+ - q- w) / (1 - w) is well conditioned
    (the bottom of a half line: the decaying solution's fixed point q+ to
    rounding).  Otherwise the stretch is stepped row by row.
    """
    diag, off2 = opd.diag, opd.off2
    start, stop = opd.flat
    i = len(diag) - 1
    q = (diag[i] - mu) or 1e-300  # a zero pivot is replaced, as below
    if start < stop - 1:
        q = _pivots_up(diag, off2, mu, q, stop - 1, i)
        i = stop - 1
        a = diag[start] - mu
        e2 = off2[start - 1]
        if a > 0.0 and a * a > 4.0 * e2:
            qp = 0.5 * a + math.sqrt(0.25 * a * a - e2)
            qm = e2 / qp
            num = (q - qp) * (qm / qp) ** (stop - 1 - start)
            den = q - qm
            if abs(num) <= 0.5 * abs(den):
                w = num / den
                q = (qp - qm * w) / (1.0 - w)
                i = start
    return _pivots_up(diag, off2, mu, q, 0, i)


def _pivots_up(diag, off2, mu: float, q: float, lo: int, hi: int) -> float:
    """The pivot of row lo, eliminating up from q, the pivot of row hi."""
    for d, e2 in zip(reversed(diag[lo:hi]), reversed(off2[lo:hi])):
        q = (d - mu) - e2 / q
        if q == 0.0:
            q = 1e-300
    return q


def _secant_estimate(g, a: float, b: float, tol: float):
    """The zero of g in (a, b) by the Illinois variant of regula falsi
    (Dowell & Jarratt, BIT 11, 1971), stopped once a step is under tol / 2
    (or 2^-40 relative), after SECANT_STEPS steps, or at a nan.  None when
    g(a) > 0 > g(b) fails, since a pole of g then lies in (a, b) and a
    narrower bracket may exclude it."""
    ga, gb = g(a), g(b)
    if not ga > 0.0 > gb:
        return None
    x = a
    side = 0
    for _ in range(SECANT_STEPS):
        x, last = b - gb * (b - a) / (gb - ga), x
        if not a < x < b or abs(x - last) <= max(0.5 * tol, 2.0 ** -40 * abs(x)):
            break
        gx = g(x)
        if not (gx > 0.0 or gx < 0.0):  # a zero, or nan
            break
        if gx > 0.0:
            a, ga = x, gx
            if side == 1:
                gb *= 0.5
            side = 1
        else:
            b, gb = x, gx
            if side == -1:
                ga *= 0.5
            side = -1
    return x


def _factor(opd: DiscretizedOperator, z: complex):
    """Pivoted elimination of T - z: (row swaps, multipliers, upper rows b, c, d).

    Nothing here depends on a right-hand side, so one factorization serves
    every vector that _substitute is given.
    """
    n = opd.size
    a = [0j] * n  # sub
    b = [complex(opd.diag[i]) - z for i in range(n)]
    c = [complex(opd.off[i]) for i in range(n - 1)] + [0j]
    d = [0j] * n  # second super (fill from row swaps)
    for i in range(n - 1):
        a[i + 1] = complex(opd.off[i])
    swaps = [False] * (n - 1)
    mults = [0j] * (n - 1)
    scale = max(max(abs(t) for t in b), 1.0)
    for i in range(n - 1):
        if abs(a[i + 1]) > abs(b[i]):  # swap rows i, i+1
            b[i], a[i + 1] = a[i + 1], b[i]
            c[i], b[i + 1] = b[i + 1], c[i]
            d[i], c[i + 1] = c[i + 1], d[i]
            swaps[i] = True
        if abs(b[i]) < 1e-10 * scale:
            raise SpectralPointError(f"z={z} numerically in the discrete spectrum")
        f = mults[i] = a[i + 1] / b[i]
        b[i + 1] -= f * c[i]
        c[i + 1] -= f * d[i]
    if abs(b[n - 1]) < 1e-10 * scale:
        raise SpectralPointError(f"z={z} numerically in the discrete spectrum")
    return swaps, mults, b, c, d


def _substitute(factor, v) -> list:
    """(T - z)^-1 v from _factor's output: the same row operations on v, then back substitution."""
    swaps, mults, b, c, d = factor
    n = len(b)
    x = [complex(t) for t in v]
    for i in range(n - 1):
        if swaps[i]:
            x[i], x[i + 1] = x[i + 1], x[i]
        x[i + 1] -= mults[i] * x[i]
    x[n - 1] /= b[n - 1]
    if n >= 2:
        x[n - 2] = (x[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1] - d[i] * x[i + 2]) / b[i]
    return x


def resolvent_apply(opd: DiscretizedOperator, z: complex, v) -> list:
    """(T - z)^-1 v by pivoted tridiagonal elimination; residual <= 1e-11 ||v||."""
    if len(v) != opd.size:
        raise DimensionError(f"vector length {len(v)} != operator size {opd.size}")
    return _substitute(_factor(opd, complex(z)), v)


def node_grid(opd: DiscretizedOperator):
    """(positions, lumped weights) of the retained nodes, in matrix order."""
    n = round(opd.L / opd.dx)
    i0 = 1 if opd.left is None else 0
    i1 = n - 1 if opd.right is None else n
    xs = []
    ws = []
    for i in range(i0, i1 + 1):
        xs.append(i * opd.dx)
        ws.append(opd.dx if 0 < i < n else opd.dx / 2.0)
    return xs, ws


def resolvent_apply_samples(opd: DiscretizedOperator, z: complex, fsamples) -> list:
    """Resolvent acting on function samples at the retained nodes.

    The symmetrized matrix acts on u = M^(1/2) y; this converts samples in
    and out so the result approximates the continuum resolvent pointwise
    (boundary nodes carry the half-cell weight).
    """
    _, ws = node_grid(opd)
    scaled = [f * math.sqrt(w / opd.dx) for f, w in zip(fsamples, ws)]
    u = resolvent_apply(opd, z, scaled)
    return [ui * math.sqrt(opd.dx / w) for ui, w in zip(u, ws)]


def resolvent_difference_rank(op1: DiscretizedOperator, op2: DiscretizedOperator,
                              z: complex) -> int:
    """Numeric rank of (T1-z)^-1 - (T2-z)^-1 sampled on random probe vectors."""
    from .linalg import Matrix, numeric_rank

    if op1.size != op2.size:
        raise DimensionError("operators must share a grid")
    z = complex(z)
    f1 = _factor(op1, z)
    f2 = _factor(op2, z)
    rng = random.Random(RANK_SEED)
    cols = []
    for _ in range(RANK_PROBES):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(op1.size)]
        u1 = _substitute(f1, v)
        u2 = _substitute(f2, v)
        cols.append([a - b for a, b in zip(u1, u2)])
    mat = Matrix.from_rows([[cols[j][i] for j in range(RANK_PROBES)] for i in range(op1.size)])
    return numeric_rank(mat, RANK_TAU)


def corner_friedrichs_eigenvalues(beta: float, count: int) -> list:
    """Squares of the first zeros of J_beta: the sector Friedrichs spectrum.

    The zeros are j_k = 1/mu_k for the largest eigenvalues mu_k of Ikebe's
    symmetric tridiagonal matrix, zero diagonal and off-diagonal
    1/(2 sqrt((beta + k)(beta + k + 1))), k = 1, 2, ... (Ikebe, Math. Comp.
    29, 1975).  Its spectrum is symmetric about 0, so -mu_k are its lowest
    eigenvalues, bisected on the Sturm count to the last bit.  Truncated at
    5 count + 30 rows, the first count zeros are exact to rounding (at
    order 0.75, 12 zeros need 60 rows).
    """
    n = 5 * count + 30
    diag = (0.0,) * n
    off = (0.5 / math.sqrt((beta + k) * (beta + k + 1.0)) for k in range(1, n))
    off2 = tuple(e * e for e in off)
    # Gershgorin: every row sums to below 1; tol 0 bisects to the last bit
    return [_bisect(lambda mid: _sturm_count(diag, off2, mid), j, -1.0, 0.0, 0.0) ** -2
            for j in range(1, count + 1)]
