"""Independent finite-difference oracle for the concrete operators.

Everything here deliberately avoids the Weyl-function machinery: second-order
lumped-form discretization to a symmetric tridiagonal matrix, Sturm-sequence
eigenvalue counts (exact integers), bisection eigenvalues, and a pivoted
tridiagonal solver for resolvents.  The M-route results are validated against
this module, never the other way around.

Error model for the defaults (n=4000, L=40): err ~ C dx^2 + exp(-2 kappa L);
tests pick n, L from it.

A boundary side is None (Dirichlet) or a Robin value h (Neumann is 0.0).

Work is spent only on what callers read.  The interior rows of a grid
depend on (q, L, n) alone and are built once per grid; an operator is that
interior plus a boundary row and edge coupling on each side that is not
Dirichlet, so the Dirichlet reference and every A_B of one request share
it.  The bisection for the j-th eigenvalue starts from the same bracket as
the one for j - 1, so all of them share one table of Sturm counts.  With
`upper` given, one Sturm count at `upper` says how many eigenvalues lie
below it, and only those are bisected, from [Gershgorin lower bound, upper]
rather than from the full Gershgorin bracket: no value above `upper` is
computed, and each returned value lies within `tol` of the unbounded run's
value of the same index.  A resolvent factors T - z once; every right-hand
side is then one substitution through the stored swaps and multipliers.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import ContractError, DimensionError, SpectralPointError
from .slsolve import PotentialSpec

MAX_EIGENVALUES = 50  # most eigenvalues one lowest_eigenvalues call bisects


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric tridiagonal reduction of -y'' + q y on [0, L].

    A side is None (Dirichlet: its end node is dropped) or the Robin value h
    (Neumann is 0.0).  Left Robin means y'(0) = h y(0); right Robin means
    -y'(L) = h y(L), the sign convention of the interval boundary triplet.
    The boundary condition is folded in through the lumped quadratic form,
    which keeps the matrix exactly symmetric and the eigenvalues
    second-order accurate.
    """

    diag: tuple
    off: tuple
    dx: float
    L: float
    left: float | None
    right: float | None

    @property
    def size(self) -> int:
        return len(self.diag)


@lru_cache(maxsize=32)
def _grid(q: PotentialSpec, L: float, n: int):
    """(q at node 0, interior diagonal of nodes 1..n-1, q at node n).

    q is averaged over each node's cell clipped to [0, L], which keeps
    potential jumps second-order accurate.  The interior rows do not depend
    on the boundary; they are an array('d'), so a cached grid costs 8 bytes
    a node.
    """
    dx = L / n

    def average(i):
        return q.cell_average(max(0.0, (i - 0.5) * dx), min(L, (i + 0.5) * dx))

    return average(0), array("d", ((2.0 / dx + average(i) * dx) / dx for i in range(1, n))), average(n)


def discretize(q: PotentialSpec, L: float, n: int, left: float | None,
               right: float | None) -> DiscretizedOperator:
    if n < 100:
        raise ContractError("need at least 100 grid intervals")
    if L <= 0:
        raise ContractError("L must be positive")
    dx = L / n
    # quadratic form: sum (y_{i+1}-y_i)^2/dx + sum w_i q_i y_i^2 + h_l y_0^2 + h_r y_n^2,
    # lumped weights w_i = dx inside and dx/2 at a retained end node
    q0, interior, qn = _grid(q, L, n)
    diag = tuple(interior)
    off = ((-1.0 / dx) / math.sqrt(dx * dx),) * (n - 2)
    half = dx / 2.0
    edge = (-1.0 / dx) / math.sqrt(half * dx)
    if left is not None:
        diag = ((1.0 / dx + q0 * half + left) / half,) + diag
        off = (edge,) + off
    if right is not None:
        diag += ((1.0 / dx + qn * half + right) / half,)
        off += (edge,)
    return DiscretizedOperator(diag, off, dx, float(L), left, right)


def eigen_count_below(opd: DiscretizedOperator, mu: float) -> int:
    """Number of eigenvalues below mu, by Sturm sign agreements of the LDL pivots."""
    if not math.isfinite(mu):
        raise ContractError("mu must be finite")
    return _sturm_count(opd.diag, opd.off, mu)


def _sturm_count(diag, off, mu: float) -> int:
    tiny = 1e-300
    prev = diag[0] - mu
    if prev == 0.0:
        prev = -tiny
    count = 1 if prev < 0 else 0
    for d, e in zip(diag[1:], off):
        prev = (d - mu) - e * e / prev
        if prev == 0.0:
            prev = -tiny
        if prev < 0:
            count += 1
    return count


def gershgorin_bounds(opd: DiscretizedOperator):
    d, e = opd.diag, opd.off
    lo = math.inf
    hi = -math.inf
    for i in range(len(d)):
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
    """
    if k > MAX_EIGENVALUES:
        raise ContractError(f"k <= {MAX_EIGENVALUES}")
    lo0, hi0 = gershgorin_bounds(opd)
    if upper is None:
        k = min(k, opd.size)
    else:
        k = min(k, eigen_count_below(opd, upper))
        hi0 = upper
    counts = {}
    out = []
    for j in range(1, k + 1):
        lo, hi = lo0, hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            c = counts.get(mid)
            if c is None:
                c = counts[mid] = eigen_count_below(opd, mid)
            if c >= j:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


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


def apply_operator(opd: DiscretizedOperator, v) -> list:
    n = opd.size
    out = []
    for i in range(n):
        acc = opd.diag[i] * v[i]
        if i > 0:
            acc += opd.off[i - 1] * v[i - 1]
        if i < n - 1:
            acc += opd.off[i] * v[i + 1]
        out.append(acc)
    return out


def resolvent_difference_rank(op1: DiscretizedOperator, op2: DiscretizedOperator,
                              z: complex, probes: int = 6, tau: float = 1e-8,
                              seed: int = 0) -> int:
    """Numeric rank of (T1-z)^-1 - (T2-z)^-1 sampled on random probe vectors."""
    from .linalg import Matrix, numeric_rank

    if op1.size != op2.size:
        raise DimensionError("operators must share a grid")
    z = complex(z)
    f1 = _factor(op1, z)
    f2 = _factor(op2, z)
    rng = random.Random(seed)
    cols = []
    for _ in range(probes):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(op1.size)]
        u1 = _substitute(f1, v)
        u2 = _substitute(f2, v)
        cols.append([a - b for a, b in zip(u1, u2)])
    mat = Matrix.from_rows([[cols[j][i] for j in range(probes)] for i in range(op1.size)])
    return numeric_rank(mat, tau)


# -- model-specific oracle builders -----------------------------------------


def halfline_operator(q: PotentialSpec, h: float, L: float = 40.0,
                      n: int = 4000) -> DiscretizedOperator:
    """y'(0) = h y(0), h the boundary-operator value of the (y(0), y'(0)) triplet."""
    return discretize(q, L, n, h, None)


def halfline_dirichlet_operator(q: PotentialSpec, L: float = 40.0, n: int = 4000) -> DiscretizedOperator:
    return discretize(q, L, n, None, None)


def interval_operator(q: PotentialSpec, b: float, h0: float, hb: float,
                      n: int = 2000) -> DiscretizedOperator:
    """Separated conditions of the interval triplet: y'(0)=h0 y(0), -y'(b)=hb y(b)."""
    return discretize(q, b, n, h0, hb)


def constant_potential(c: float, span: float = 1.0) -> PotentialSpec:
    if c == 0.0:
        return PotentialSpec.zero()
    return PotentialSpec.table([0.0, span], [c, c])


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
    off = tuple(0.5 / math.sqrt((beta + k) * (beta + k + 1.0)) for k in range(1, n))
    out = []
    for j in range(1, count + 1):
        lo, hi = -1.0, 0.0  # Gershgorin: every row sums to below 1
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if _sturm_count(diag, off, mid) >= j:
                hi = mid
            else:
                lo = mid
        out.append((0.5 * (lo + hi)) ** -2)
    return out
