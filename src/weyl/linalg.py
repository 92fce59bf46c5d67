"""Dense complex matrix arithmetic and Hermitian spectral primitives.

Matrices are immutable value types (row-major tuples); nothing here mutates
shared state, so values are freely shareable between threads.  Dimensions in
this package stay at desk scale (<= ~64), which is why the eigensolver is a
cyclic Jacobi iteration and the SVD a one-sided Jacobi, both by one complex
rotation: simple, dependency free, quadratically convergent.  The eigensolver,
hermitian_eigh, always accumulates the eigenvectors and serves where
eigenvalues themselves are wanted; a count of eigenvalues by sign is the
inertia, read from the pivots of one Bunch-Kaufman LDL* factorization.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import ContractError, DimensionError, RangeError, SingularMatrixError
from .values import Value, _set

# Solve/inverse declare a pivot singular below this multiple of the largest
# entry; root finders on det(M(z)-B) rely on a crisp singularity signal.
SINGULAR_PIVOT_REL = 1e-13

# both Jacobi iterations stop at off-diagonal mass JACOBI_TOL * norm, or after the sweep cap
JACOBI_TOL, JACOBI_MAX_SWEEPS = 1e-14, 60

# Bunch-Kaufman's pivot threshold, which bounds the growth of the LDL* factors
BK_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


class Matrix(Value):
    """Dense complex matrix, row-major, immutable: Matrix(rows, cols, data)
    with data the rows*cols complex entries."""

    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):  # sets its own fields: a hot path
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)
        if rows <= 0 or cols <= 0:
            raise DimensionError("matrix dimensions must be positive")
        if len(data) != rows * cols:
            raise DimensionError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Matrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return Matrix(r, c, tuple(complex(v) for row in rows for v in row))

    @staticmethod
    @functools.cache  # one shared instance per n: a Matrix is immutable
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(1.0 + 0j if i == j else 0j for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix(r, c, (0j,) * (r * c))

    @staticmethod
    def diag(values) -> "Matrix":
        vals = [complex(v) for v in values]
        n = len(vals)
        if not n:
            raise DimensionError("matrix dimensions must be positive")
        data = [0j] * (n * n)
        data[:: n + 1] = vals
        return Matrix(n, n, tuple(data))

    @staticmethod
    def scalar(v) -> "Matrix":
        return Matrix(1, 1, (complex(v),))

    # -- access --------------------------------------------------------

    def at(self, i: int, j: int) -> complex:
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols : (i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.data, other.data)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.data))

    def scale(self, s) -> "Matrix":
        s = complex(s)
        return Matrix(self.rows, self.cols, tuple(s * a for a in self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.data, other.data
        out = [0j] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * m
            for t in range(k):
                av = arow[t]
                if av == 0:
                    continue
                brow = b[t * m : (t + 1) * m]
                for j in range(m):
                    out[base + j] += av * brow[j]
        return Matrix(n, m, tuple(out))

    def adjoint(self) -> "Matrix":
        data, cols = self.data, self.cols
        return Matrix(cols, self.rows, tuple(a.conjugate() for i in range(cols) for a in data[i::cols]))

    def conjugate(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(a.conjugate() for a in self.data))

    # -- norms ----------------------------------------------------------

    def norm_fro(self) -> float:
        return math.sqrt(sum((a.real * a.real + a.imag * a.imag) for a in self.data))

    def norm_max(self) -> float:
        return max(map(abs, self.data))

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def herm_part(m: Matrix) -> Matrix:
    """(M + M*)/2."""
    _require_square(m, "herm_part")
    return (m + m.adjoint()).scale(0.5)


def imag_part(m: Matrix) -> Matrix:
    """(M - M*)/2i, the Hermitian 'imaginary component' of an operator."""
    _require_square(m, "imag_part")
    return (m - m.adjoint()).scale(-0.5j)


def _require_square(m: Matrix, op: str):
    if not m.is_square:
        raise DimensionError(f"{op} requires a square matrix, got {m.rows}x{m.cols}")


# -- partial-pivot elimination: solve / det / inverse --------------------


def _eliminate(rows: list):
    """Row-reduce the rows' square leading block in place by partial pivoting on
    the first row of largest |entry|; returns (the sign of the row swaps, min |pivot|)."""
    n = len(rows)
    sign = 1
    min_pivot = math.inf
    for k in range(n):
        piv_row, best = k, abs(rows[k][k])
        for r in range(k + 1, n):
            v = abs(rows[r][k])
            if v > best:
                piv_row, best = r, v
        if piv_row != k:
            rows[k], rows[piv_row] = rows[piv_row], rows[k]
            sign = -sign
        if best < min_pivot:
            min_pivot = best
        if best == 0:
            continue
        piv = rows[k][k]
        tail = rows[k][k + 1 :]
        for r in range(k + 1, n):
            row = rows[r]
            f = row[k] / piv
            if f != 0:
                row[k + 1 :] = [v - f * w for v, w in zip(row[k + 1 :], tail)]
    return sign, min_pivot


def det(a: Matrix) -> complex:
    """Determinant: the sign of the row swaps times the pivots of the elimination."""
    _require_square(a, "det")
    n = a.rows
    rows = [list(a.row(i)) for i in range(n)]
    sign, _ = _eliminate(rows)
    return math.prod((rows[k][k] for k in range(n)), start=complex(sign))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B; raises SingularMatrixError when A is singular to tolerance."""
    _require_square(a, "solve")
    if a.rows != b.rows:
        raise DimensionError(f"solve: A is {a.rows}x{a.cols} but B has {b.rows} rows")
    n, m = a.rows, b.cols
    rows = []
    scale = 1e-300  # the largest |entry| of A, taken while copying [A | B]
    for i in range(n):
        arow = a.row(i)
        scale = max(scale, *map(abs, arow))
        rows.append(list(arow + b.row(i)))
    _, min_pivot = _eliminate(rows)
    if min_pivot < SINGULAR_PIVOT_REL * scale:
        raise SingularMatrixError("matrix singular to working tolerance", min_pivot)
    for k in range(n - 1, -1, -1):  # back substitution, X overwriting the B columns
        rowk = rows[k]
        piv = rowk[k]
        for c in range(n, n + m):
            s = rowk[c]
            for t in range(k + 1, n):
                s -= rowk[t] * rows[t][c]
            rowk[c] = s / piv
    # complex(): A and B may hold real entries, and the result is complex as from_rows made it
    return Matrix(n, m, tuple([complex(v) for row in rows for v in row[n:]]))


def inverse(a: Matrix) -> Matrix:
    return solve(a, Matrix.identity(a.rows))


# -- Hermitian eigenproblem (cyclic Jacobi) and inertia (Bunch-Kaufman) ----


def _hermitian_rows(m: Matrix, op: str, e: int = 0):
    """(rows, e): the rows of herm_part(m), with its bits, and 0; or where the
    squares of m's entries overflow, those of m scaled by the power of two 2**e
    that brings its largest entry below 1, and e.  A non-finite entry raises
    RangeError, and m must be Hermitian to tolerance (ContractError)."""
    _require_square(m, op)
    n = m.rows
    rows = [list(m.data[i * n:(i + 1) * n]) for i in range(n)]
    sq = dev = 0.0  # ||M||_F^2 and ||M - M*||_F^2
    half = complex(0.5)  # herm_part's scale(0.5)
    for i, ri in enumerate(rows):
        x = ri[i]
        sq += x.real * x.real + x.imag * x.imag
        dev += 4.0 * x.imag * x.imag
        ri[i] = complex(x.real)
        for j in range(i):
            x, y = ri[j], rows[j][i]
            d = x - y.conjugate()
            sq += x.real * x.real + x.imag * x.imag + y.real * y.real + y.imag * y.imag
            dev += 2.0 * (d.real * d.real + d.imag * d.imag)
            ri[j], rows[j][i] = half * (x + y.conjugate()), half * (y + x.conjugate())
    if not sq < math.inf:
        if not all(map(cmath.isfinite, m.data)):
            raise RangeError(f"{op}: the matrix has a non-finite entry")
        e = -math.frexp(m.norm_max())[1]
        return _hermitian_rows(m.scale(math.ldexp(1.0, e)), op, e)
    dev, scale = math.sqrt(dev), max(math.sqrt(sq), 1e-300)
    if dev > 2e-10 * scale and dev > math.ldexp(1e-12, e):
        raise ContractError(
            f"input not Hermitian to tolerance: ||M-M*|| = {math.ldexp(dev, -e):.3e} "
            f"vs scale {math.ldexp(scale, -e):.3e}"
        )
    return rows, e


def _swap(a: list, p: int, q: int):
    """The symmetric permutation of indices p and q, in place."""
    a[p], a[q] = a[q], a[p]
    for row in a:
        row[p], row[q] = row[q], row[p]


def inertia(m: Matrix) -> tuple:
    """(negative, zero, positive): the eigenvalues of a Hermitian m by sign.

    Sylvester's law reads them from D in the Bunch-Kaufman factorization
    P m P* = L D L* (Math. Comp. 31, 1977), here with LAPACK's pivot tests:
    a 1x1 pivot is real, and zero only where its whole column is; a 2x2
    pivot has a negative determinant, one eigenvalue of each sign, and is
    applied through its scaled inverse, which squares no entry.  m is held
    to hermitian_eigh's tolerance, with its errors (_hermitian_rows).
    """
    a, _ = _hermitian_rows(m, "inertia")
    n = len(a)
    neg = zero = k = 0
    while k < n:
        col, r = 0.0, k  # the largest |entry| below the diagonal of column k, and its row
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > col:
                col, r = v, i
        d = abs(a[k][k].real)
        if d < BK_ALPHA * col:
            row = max(map(abs, a[r][k:r] + a[r][r + 1:]))
            if d < BK_ALPHA * col * (col / row):
                if abs(a[r][r].real) >= BK_ALPHA * row:
                    _swap(a, k, r)
                else:  # the 2x2 pivot of rows k and r, moved to k + 1
                    _swap(a, k + 1, r)
                    b = a[k + 1][k]
                    size = abs(b)
                    d11, d22, u = a[k + 1][k + 1].real / size, a[k][k].real / size, b / size
                    s = 1.0 / (d11 * d22 - 1.0) / size
                    # row j of L times the pivot: (a_jk, a_j,k+1) E^-1
                    w = [(s * (d11 * a[j][k] - u * a[j][k + 1]),
                          s * (d22 * a[j][k + 1] - u.conjugate() * a[j][k])) for j in range(k + 2, n)]
                    for i in range(k + 2, n):
                        row_i, x, y = a[i], a[i][k], a[i][k + 1]
                        for j, (wk, wk1) in enumerate(w, k + 2):
                            row_i[j] -= x * wk.conjugate() + y * wk1.conjugate()
                    neg += 1
                    k += 2
                    continue
        d = a[k][k].real
        if d < 0.0:
            neg += 1
        elif d == 0.0:  # only where col == 0
            zero += 1
            k += 1
            continue
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                row_i = a[i]
                for j in range(k + 1, n):
                    row_i[j] -= f * a[j][k].conjugate()
        k += 1
    return neg, zero, n - neg - zero


def _rotation(app: float, aqq: float, g: complex, ag: float):
    """(c, s u, s conj(u)) of the complex Jacobi rotation that zeroes the
    coupling g = |g| u of two diagonal entries app and aqq: a column p
    becomes c col_p + s conj(u) col_q, a column q -s u col_p + c col_q."""
    u = g / ag  # unit phase of the coupling
    theta = (app - aqq) / (2.0 * ag)
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    return c, s * u, s * u.conjugate()


def _jacobi(m: Matrix, v: list):
    """The matrix left by the cyclic Jacobi rotations of m, as rows, each
    rotation also applied to the columns of v.  Where _hermitian_rows scaled
    m by 2**e, the diagonal is scaled back."""
    a, e = _hermitian_rows(m, "hermitian_eigh")
    n = m.rows
    norm = max(math.sqrt(sum([x.real * x.real + x.imag * x.imag for row in a for x in row])), 1e-300)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= JACOBI_TOL * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p][q]
                ag = abs(g)
                if ag <= 0.25 * JACOBI_TOL * norm / max(n, 1):
                    continue
                c, su, suc = _rotation(a[p][p].real, a[q][q].real, g, ag)
                for i in range(n):
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = c * aip + suc * aiq
                    a[i][q] = -su * aip + c * aiq
                for j in range(n):
                    apj, aqj = a[p][j], a[q][j]
                    a[p][j] = c * apj + su * aqj
                    a[q][j] = -suc * apj + c * aqj
                a[p][q] = 0j
                a[q][p] = 0j
                a[p][p] = complex(a[p][p].real)
                a[q][q] = complex(a[q][q].real)
                for i in range(n):
                    vip, viq = v[i][p], v[i][q]
                    v[i][p] = c * vip + suc * viq
                    v[i][q] = -su * vip + c * viq
    if e:
        for i in range(n):
            a[i][i] = complex(math.ldexp(a[i][i].real, -e))
    return a


def hermitian_eigh(m: Matrix):
    """Eigen-decomposition of a Hermitian matrix by cyclic complex Jacobi.

    Returns (eigenvalues ascending, V) with columns of V the corresponding
    orthonormal eigenvectors: M = V diag(w) V*.
    """
    n = m.rows
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    a = _jacobi(m, v)
    order = sorted(range(n), key=lambda i: a[i][i].real)
    evals = [a[i][i].real for i in order]
    vec = Matrix.from_rows([[v[i][order[k]] for k in range(n)] for i in range(n)])
    return evals, vec


def lambda_min(m: Matrix) -> float:
    return hermitian_eigh(m)[0][0]


# -- singular values (one-sided Jacobi) ------------------------------------


def singular_values(m: Matrix) -> list:
    """Singular values (descending) by one-sided Jacobi on the columns."""
    a = m if m.rows >= m.cols else m.adjoint()
    rows, cols = a.rows, a.cols
    col = [[a.at(i, j) for i in range(rows)] for j in range(cols)]
    limit = max(a.norm_fro() ** 2, 1e-300)
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                cp, cq = col[p], col[q]
                app = sum(x.real * x.real + x.imag * x.imag for x in cp)
                aqq = sum(x.real * x.real + x.imag * x.imag for x in cq)
                apq = sum(x.conjugate() * y for x, y in zip(cp, cq))
                ag = abs(apq)
                if ag <= JACOBI_TOL * limit / max(cols, 1):
                    continue
                rotated = True
                c, su, suc = _rotation(app, aqq, apq, ag)
                for i in range(rows):
                    xp, xq = cp[i], cq[i]
                    cp[i] = c * xp + suc * xq
                    cq[i] = -su * xp + c * xq
        if not rotated:
            break
    return sorted((math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in cj)) for cj in col),
                  reverse=True)


def numeric_rank(m: Matrix, tau: float) -> int:
    """Number of singular values above tau * (largest singular value)."""
    if tau <= 0:
        raise ContractError("tau must be positive")
    sig = singular_values(m)
    if not sig or sig[0] == 0.0:
        return 0
    return sum(1 for s in sig if s > tau * sig[0])
