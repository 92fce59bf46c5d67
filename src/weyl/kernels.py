"""Straight-line kernels for the per-point paths of the grids and the contour.

After M(z), a grid point takes the Mobius map of the problem's transform and,
for `charfn`, W by the full route (B* - M)^-1 (B - M) or the reduced route
I + 2i K* (B* - M)^-1 K J.  For n <= MAX_N, `grid_kernel` generates each of
the two stages as one Python function on local complex variables and chains
them, w_stage(mobius_stage(data)), with the Matrix path's float operations in
its order: Matrix.__matmul__'s sums from 0j (skipping the terms whose left
factor is a constant zero, as it does; a runtime zero adds a signed zero,
which leaves the sum's bits alone), _eliminate's first-maximum pivoting with
its two zero tests, solve's singular-pivot test and _mobius's vanishing test.
So every entry has the Matrix path's bits; where that path raises, a stage
re-runs its own part of it (transform_weyl, or char_function_from_m on the
Mobius stage's output) on the same input for its error.  Each stage's shape
(n for the Mobius map; n, W route and zeros of K* for W) is compiled once per
process, so `eval` and `charfn` with one transform share its Mobius stage,
and a request binds its constants as the compiled factory's arguments.
Beyond MAX_N the kernel is the Matrix path itself; so is the Mobius stage
with non-finite transform blocks (0 * inf is nan, a term that
Matrix.__matmul__ skips).

`det_kernel` does the same for a sample of the complex eigenvalue count:
det(M(z) - B) by _eliminate's pivots and swap sign, multiplied in det's
order, so it has linalg.det's bits; it raises nothing det does not.  One
emitted elimination serves solve and det alike: like _eliminate it tracks
both the sign of its swaps, which det reads, and its smallest pivot, which
solve reads.
"""

from __future__ import annotations

import cmath
import functools
import math

from .linalg import SINGULAR_PIVOT_REL, Matrix, det

MAX_N = 4


def _matrix_path(n: int, transform, col, data: tuple) -> tuple:
    # imported here: charfun imports extensions, which imports this module
    from . import charfun, triplets

    m = Matrix(n, n, data)
    if transform is not None:
        m = triplets.transform_weyl(transform, m)
    return (m if col is None else charfun.char_function_from_m(col, m)).data


def grid_kernel(n: int, transform=None, col=None):
    """data of M(z) -> data of the M (col None) or W that the grid report prints at z."""
    if n > MAX_N:
        return functools.partial(_matrix_path, n, transform, col)
    mobius_stage = w_stage = None
    t = transform
    if t is not None:
        mobius_stage = functools.partial(_matrix_path, n, t, None)
        if all(map(cmath.isfinite, t.X21_star.data + t.P_star.data + t.U_star.data)):
            blocks = t.X21_star.data + t.X22_star.data + t.P_star.data + t.Q_star.data + t.U_star.data
            mobius_stage = _factory(n, None, ())(mobius_stage, t.X22_fro, *blocks)
    if col is not None:
        blocks, k_zero = col.B.data + col.B_star.data, ()
        if not col.full_rank:
            blocks += col.K.data + col.K_star.data + col.J.data
            k_zero = tuple(v == 0 for v in col.K_star.data)
        w_stage = _factory(n, col.reduced_dim, k_zero)(functools.partial(_matrix_path, n, None, col), *blocks)
    if mobius_stage and w_stage:
        return lambda data: w_stage(mobius_stage(data))
    return mobius_stage or w_stage or _same


def _same(data: tuple) -> tuple:
    """`eval` without a transform prints M itself."""
    return data


def _det_path(b: Matrix, data: tuple) -> complex:
    return det(Matrix(b.rows, b.cols, data) - b)


def det_kernel(b: Matrix):
    """data of M(z) -> det(M(z) - b), with linalg.det's bits."""
    if b.rows > MAX_N:
        return functools.partial(_det_path, b)
    return _det_factory(b.rows)(*b.data)


def _matmul(a: list, b: list, n: int, k: int, m: int, zero=()) -> list:
    """The entries of the n x k by k x m product, each summed from 0j as Matrix.__matmul__ does."""
    return [" + ".join(["0j"] + [f"{a[i * k + t]} * {b[t * m + j]}" for t in range(k) if a[i * k + t] not in zero])
            for i in range(n) for j in range(m)]


def _norm(v: list) -> str:
    """Matrix.norm_fro: sum() of the same squares, however this Python's sum() adds floats."""
    return f"sqrt(sum(({''.join(f'{x}.real * {x}.real + {x}.imag * {x}.imag, ' for x in v)})))"


class _Source:
    def __init__(self):
        self.lines, self.params = [], []

    def line(self, text: str, depth: int = 0):
        self.lines.append("    " * (depth + 2) + text)

    def let(self, expr: str) -> str:
        name = f"t{len(self.lines)}"
        self.line(f"{name} = {expr}")
        return name

    def block(self, name: str, size: int) -> list:
        self.params += [f"{name}{i}" for i in range(size)]
        return self.params[-size:]

    def eliminate(self, rows: list, n: int):
        """_eliminate on the names in rows, the first n of them: `sign` tracks
        the sign of its swaps and min_pivot its smallest pivot."""
        self.line("sign, min_pivot = 1, inf")
        for k in range(n):
            self.line(f"best, piv_row = abs({rows[k][k]}), {k}")
            for r in range(k + 1, n):
                self.line(f"v = abs({rows[r][k]})")
                self.line(f"if v > best: piv_row, best = {r}, v")
            for r in range(k + 1, n):
                pair, swapped = rows[k][k:] + rows[r][k:] + ["sign"], rows[r][k:] + rows[k][k:] + ["-sign"]
                self.line(f"{'el' * (r > k + 1)}if piv_row == {r}: {', '.join(pair)} = {', '.join(swapped)}")
            self.line("if best < min_pivot: min_pivot = best")
            if k + 1 < n:
                self.line("if best != 0:")
            for r in range(k + 1, n):
                self.line(f"f = {rows[r][k]} / {rows[k][k]}", 1)
                self.line("if f != 0:", 1)
                self.line(f"{', '.join(rows[r][k + 1:])} = "
                          + ", ".join(f"{v} - f * {w}" for v, w in zip(rows[r][k + 1:], rows[k][k + 1:])), 2)

    def solve(self, a: list, b: list, n: int, m: int) -> list:
        """The names of X in A X = B as linalg.solve computes it; the reference where it raises."""
        w, tag = n + m, len(self.lines)
        rows = [[f"r{tag}_{i}_{j}" for j in range(w)] for i in range(n)]
        self.line(f"{', '.join(sum(rows, []))} = "
                  + ", ".join(x for i in range(n) for x in a[i * n:(i + 1) * n] + b[i * m:(i + 1) * m]))
        self.line(f"scale = max(1e-300, {', '.join(f'abs({x})' for row in rows for x in row[:n])})")
        self.eliminate(rows, n)
        self.line("if min_pivot < SINGULAR_PIVOT_REL * scale: return reference(data)")
        for k in range(n - 1, -1, -1):
            for c in range(n, w):
                s = rows[k][c] + "".join(f" - {rows[k][t]} * {rows[t][c]}" for t in range(k + 1, n))
                self.line(f"{rows[k][c]} = ({s}) / {rows[k][k]}")
        return [row[j] for row in rows for j in range(n, w)]

    def compile(self, params: list, returns: str):
        """The factory (params, the block constants) -> kernel(data), whose body returns `returns`."""
        body = "\n".join(self.lines + [f"        return {returns}"])
        scope = {"__builtins__": {}, "abs": abs, "max": max, "sum": sum, "sqrt": math.sqrt, "inf": math.inf,
                 "complex": complex, "SINGULAR_PIVOT_REL": SINGULAR_PIVOT_REL}
        exec(f"def factory({', '.join(params + self.params)}):\n"
             f"    def kernel(data):\n{body}\n    return kernel\n", scope)
        return scope["factory"]


@functools.lru_cache(maxsize=64)  # a grid session meets a handful of shapes; K*'s zeros could make more
def _factory(n: int, rank, k_zero: tuple):
    """The compiled factory of one stage: (reference, constants) -> kernel.  rank is None
    for the Mobius stage, whose factory also takes ||X22||_F after reference; else the
    stage is W's, rank the size of W: n on the full route, below n on the reduced."""
    src = _Source()
    m = [f"m{i}" for i in range(n * n)]
    src.line(f"{', '.join(m)}, = data")
    if rank is None:  # triplets._mobius: (P M + Q)(X21 M + X22)^-1 U*, by one right solve
        x21s, x22s, ps, qs, us = (src.block(name, n * n) for name in ("x21s", "x22s", "ps", "qs", "us"))
        ms = [src.let(f"{m[j * n + i]}.conjugate()") for i in range(n) for j in range(n)]
        x21ms = [src.let(e) for e in _matmul(ms, x21s, n, n, n)]
        denom = [src.let(f"{x} + {c}") for x, c in zip(x21ms, x22s)]
        src.line(f"scale = max({_norm(x21ms)}, x22_fro, 1e-30)")
        src.line(f"if {_norm(denom)} < 1e-12 * scale: return reference(data)")
        core_star = src.solve(denom, [f"{e} + {q}" for e, q in zip(_matmul(ms, ps, n, n, n), qs)], n, n)
        core = [src.let(f"{core_star[j * n + i]}.conjugate()") for i in range(n) for j in range(n)]
        m = [src.let(e) for e in _matmul(core, us, n, n, n)]
        return src.compile(["reference", "x22_fro"], f"({', '.join(m)},)")
    # charfun.char_function_from_m
    b, b_star = src.block("b", n * n), src.block("bs", n * n)
    a = [f"{x} - {y}" for x, y in zip(b_star, m)]
    if rank == n:
        m = src.solve(a, [f"{x} - {y}" for x, y in zip(b, m)], n, n)
    else:
        k, k_star, j = src.block("k", n * rank), src.block("ks", rank * n), src.block("j", rank * rank)
        core = src.solve(a, k, n, rank)
        zero = {x for x, z in zip(k_star, k_zero) if z}
        p = [src.let(e) for e in _matmul(k_star, core, rank, n, rank, zero)]
        # Matrix.identity(r) + (K* core J).scale(2j)
        m = [f"{'(1+0j)' if at % (rank + 1) == 0 else '0j'} + 2j * ({e})"
             for at, e in enumerate(_matmul(p, j, rank, rank, rank))]
    return src.compile(["reference"], f"({', '.join(m)},)")


@functools.cache  # one shape per n <= MAX_N
def _det_factory(n: int):
    """The compiled factory of det(M - B) for one n: (entries of B) -> kernel."""
    src = _Source()
    b = src.block("b", n * n)
    rows = [[f"r{i}_{j}" for j in range(n)] for i in range(n)]
    src.line(f"{', '.join(f'm{i}' for i in range(n * n))}, = data")
    src.line(f"{', '.join(sum(rows, []))} = {', '.join(f'm{i} - {x}' for i, x in enumerate(b))}")
    src.eliminate(rows, n)
    return src.compile([], " * ".join(["complex(sign)"] + [rows[k][k] for k in range(n)]))
