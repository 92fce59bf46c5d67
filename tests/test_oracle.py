import math
import random

import pytest

from weyl import oracle
from weyl.errors import ContractError, SpectralPointError
from weyl.slsolve import PotentialSpec

Q0 = PotentialSpec.zero()


def test_dirichlet_interval_eigenvalues():
    op = oracle.discretize(Q0, math.pi, 2000, None, None)
    lows = oracle.lowest_eigenvalues(op, 3)
    for v, k in zip(lows, (1, 2, 3)):
        assert abs(v / (k * k) - 1.0) < 5e-6


def test_neumann_dirichlet_quarter_series():
    op = oracle.discretize(Q0, math.pi, 2000, 0.0, None)
    lows = oracle.lowest_eigenvalues(op, 2)
    assert abs(lows[0] - 0.25) < 1e-5
    assert abs(lows[1] - 2.25) < 1e-4


def test_robin_bound_state():
    op = oracle.halfline_operator(Q0, -1.0)
    low = oracle.lowest_eigenvalues(op, 1)[0]
    assert abs(low + 1.0) < 1e-4


def test_sturm_counts():
    op = oracle.discretize(Q0, math.pi, 2000, None, None)
    assert oracle.eigen_count_below(op, 10.0) == 3
    op = oracle.halfline_operator(Q0, -2.0)
    assert oracle.eigen_count_below(op, 0.0) == 1
    assert oracle.eigen_count_below(op, -30.0) == 0


def test_sturm_count_matches_bisection():
    op = oracle.discretize(Q0, math.pi, 800, -0.7, 0.3)
    mu = 7.3
    count = oracle.eigen_count_below(op, mu)
    lows = oracle.lowest_eigenvalues(op, count + 2)
    assert sum(1 for v in lows if v < mu) == count


def test_discretize_validation():
    with pytest.raises(ContractError):
        oracle.discretize(Q0, 1.0, 50, None, None)
    with pytest.raises(ContractError):
        oracle.discretize(Q0, -1.0, 500, None, None)


def test_resolvent_identity_and_residual():
    rng = random.Random(0)
    op = oracle.discretize(Q0, math.pi, 500, None, None)
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(op.size)]
    z = -1.0 + 0.5j
    u = oracle.resolvent_apply(op, z, v)
    tu = oracle.apply_operator(op, u)
    resid = max(abs(tu[i] - z * u[i] - v[i]) for i in range(op.size))
    assert resid <= 1e-11 * max(abs(x) for x in v)


def test_resolvent_on_discrete_eigenvector():
    # sin(k x) is an exact eigenvector of the interior stencil
    op = oracle.discretize(Q0, math.pi, 1000, None, None)
    lam1 = oracle.lowest_eigenvalues(op, 1)[0]
    xs, _ = oracle.node_grid(op)
    v = [math.sin(x) for x in xs]
    u = oracle.resolvent_apply(op, -1.0, v)
    scale = 1.0 / (lam1 + 1.0)
    worst = max(abs(ui - vi * scale) for ui, vi in zip(u, v))
    assert worst < 1e-9


def test_resolvent_spectral_proximity_error():
    op = oracle.discretize(Q0, math.pi, 500, None, None)
    lam1 = oracle.lowest_eigenvalues(op, 1, tol=1e-13)[0]
    with pytest.raises(SpectralPointError):
        oracle.resolvent_apply(op, lam1, [1.0] * op.size)


def test_resolvent_difference_rank_one():
    op1 = oracle.halfline_operator(Q0, -1.0, n=800)
    op2 = oracle.halfline_operator(Q0, 1.0, n=800)
    assert oracle.resolvent_difference_rank(op1, op2, -2.0 + 0.3j) == 1
    assert oracle.resolvent_difference_rank(op1, op1, -2.0 + 0.3j) == 0


def test_second_order_convergence():
    def err(n):
        op = oracle.discretize(Q0, math.pi, n, None, None)
        return abs(oracle.lowest_eigenvalues(op, 1)[0] - 1.0)

    assert 3.5 <= err(400) / err(800) <= 4.5


def test_truncation_insensitivity():
    a = oracle.lowest_eigenvalues(oracle.halfline_operator(Q0, -2.0, L=40.0, n=4000), 1)[0]
    b = oracle.lowest_eigenvalues(oracle.halfline_operator(Q0, -2.0, L=50.0, n=5000), 1)[0]
    assert abs(a - b) < 1e-8


def test_corner_friedrichs_eigenvalues_interlace():
    evs = oracle.corner_friedrichs_eigenvalues(0.75, 2)
    assert math.pi**2 < evs[0] < 3.8318**2 < evs[1]


def test_corner_friedrichs_zeros_pinned():
    # mpmath.besseljzero(0.75, k), 20 digits; a power-series bracketing gave 37.98 for k = 12
    zeros = [math.sqrt(v) for v in oracle.corner_friedrichs_eigenvalues(0.75, 12)]
    for k, want in ((1, 3.4910083741084221302), (7, 22.376871574815684749),
                    (12, 38.087709889404884205)):
        assert zeros[k - 1] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_square_well_cell_average_discretization():
    # jump-aligned grids keep second-order accuracy via cell averaging
    q = PotentialSpec.square_well(-2.5, 1.0)
    op = oracle.discretize(q, 30.0, 3000, -0.8, None)
    low = oracle.lowest_eigenvalues(op, 1)[0]
    op2 = oracle.discretize(q, 30.0, 6000, -0.8, None)
    low2 = oracle.lowest_eigenvalues(op2, 1)[0]
    assert abs(low - low2) < 5e-5


# -- the rewritten bisection returns the same bits ------------------------------


def _reference_count(opd, mu):
    """The indexed Sturm loop the zip form replaced, kept as the reference."""
    count = 0
    d, e = opd.diag, opd.off
    tiny = 1e-300
    prev = d[0] - mu
    if prev == 0.0:
        prev = -tiny
    if prev < 0:
        count += 1
    for i in range(1, len(d)):
        prev = (d[i] - mu) - e[i - 1] * e[i - 1] / prev
        if prev == 0.0:
            prev = -tiny
        if prev < 0:
            count += 1
    return count


def _random_tridiagonal(rng, n):
    # small integer entries and some zero couplings make exact zero pivots
    # reachable when mu equals a diagonal entry
    diag = tuple(float(rng.randint(-4, 4)) for _ in range(n))
    off = tuple(0.0 if rng.random() < 0.3 else rng.choice([-2.0, -1.0, -0.5, 1.0, rng.gauss(0, 1)])
                for _ in range(n - 1))
    return oracle.DiscretizedOperator(diag, off, 1.0, float(n), None, None)


@pytest.mark.parametrize("seed", range(8))
def test_sturm_count_matches_indexed_loop(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 7, 40):
        op = _random_tridiagonal(rng, n)
        for mu in {*op.diag, 0.0, -5.5, 5.5, rng.uniform(-6.0, 6.0)}:
            assert oracle.eigen_count_below(op, mu) == _reference_count(op, mu)


def test_lowest_eigenvalues_below_upper():
    q = PotentialSpec.square_well(-3.0, 2.0)
    op = oracle.halfline_operator(q, -0.5, L=20.0, n=1000)
    tol = 1e-10
    full = oracle.lowest_eigenvalues(op, 8, tol=tol)
    for u in (full[0] - 1.0, full[0], 0.5 * (full[1] + full[2]), full[4], full[-1] + 1.0):
        cut = oracle.lowest_eigenvalues(op, 8, tol=tol, upper=u)
        assert len(cut) == min(8, oracle.eigen_count_below(op, u))
        assert all(v <= u for v in cut)
        assert all(abs(v - w) <= tol for v, w in zip(cut, full))


@pytest.mark.parametrize("op, want", [
    (oracle.halfline_operator(PotentialSpec.square_well(-3.0, 2.0), -0.5, L=20.0, n=1000),
     [-3.137495727603322, -0.4097982489278772, 0.03334648647655939, 0.13180571572182875,
      0.29223499589401847]),
    (oracle.interval_operator(PotentialSpec.table([0.0, 0.7, 1.5, 3.0], [-1.0, 0.4, 0.4, 0.25]),
                              3.0, -0.3, 0.45, n=400),
     [-0.08110179158201716, 1.3235150117080212, 4.655213162887122, 10.167311246969529,
      17.85240517372442]),
])
def test_lowest_eigenvalues_without_upper_are_pinned(op, want):
    # bisection from the full Gershgorin bracket, bit for bit as before `upper` changed
    assert oracle.lowest_eigenvalues(op, 5) == want


def _reference_resolvent(opd, z, v):
    """The elimination that carried the right-hand side along, one vector at a
    time, before the factorization was split off; kept as the reference."""
    n = opd.size
    a = [0j] * n
    b = [complex(opd.diag[i]) - z for i in range(n)]
    c = [complex(opd.off[i]) for i in range(n - 1)] + [0j]
    d = [0j] * n
    for i in range(n - 1):
        a[i + 1] = complex(opd.off[i])
    x = [complex(t) for t in v]
    for i in range(n - 1):
        if abs(a[i + 1]) > abs(b[i]):
            b[i], a[i + 1] = a[i + 1], b[i]
            c[i], b[i + 1] = b[i + 1], c[i]
            d[i], c[i + 1] = c[i + 1], d[i]
            x[i], x[i + 1] = x[i + 1], x[i]
        f = a[i + 1] / b[i]
        b[i + 1] -= f * c[i]
        c[i + 1] -= f * d[i]
        x[i + 1] -= f * x[i]
    x[n - 1] /= b[n - 1]
    if n >= 2:
        x[n - 2] = (x[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1] - d[i] * x[i + 2]) / b[i]
    return x


@pytest.mark.parametrize("seed", range(4))
def test_factored_resolvent_is_per_vector_elimination_to_the_bit(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 40):
        # couplings larger than the diagonal force row swaps
        diag = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        off = tuple(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0) for _ in range(n - 1))
        op = oracle.DiscretizedOperator(diag, off, 1.0, float(n), None, None)
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.0))
        factor = oracle._factor(op, z)
        assert n < 3 or any(factor[0])
        for _ in range(6):
            v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
            want = _reference_resolvent(op, z, v)
            assert oracle._substitute(factor, v) == want
            assert oracle.resolvent_apply(op, z, v) == want


def _packed(diag, off):
    from array import array

    return array("d", diag).tobytes(), array("d", off).tobytes()


def _node_loop(q, L, n, left, right):
    """The per-node assembly _grid replaced, kept as the reference: every cell
    average taken afresh, every row and coupling built in its own loop pass."""
    dx = L / n
    qs = [q.cell_average(max(0.0, (i - 0.5) * dx), min(L, (i + 0.5) * dx)) for i in range(n + 1)]
    idx = list(range(0 if left is not None else 1, n + 1 if right is not None else n))
    weights = []
    kdiag = []
    for i in idx:
        w = dx if 0 < i < n else dx / 2.0
        kd = (2.0 / dx if 0 < i < n else 1.0 / dx) + qs[i] * w
        if i == 0:
            kd += left
        if i == n:
            kd += right
        weights.append(w)
        kdiag.append(kd)
    diag = [kdiag[k] / weights[k] for k in range(len(idx))]
    off = [(-1.0 / dx) / math.sqrt(weights[k] * weights[k + 1]) for k in range(len(idx) - 1)]
    return diag, off


@pytest.mark.parametrize("q", [
    PotentialSpec.square_well(-2.5, 1.0),
    PotentialSpec.table([0.0, 0.7, 1.5, 3.0], [-1.0, 0.4, 0.4, 0.25]),
    PotentialSpec.expression("-exp(-x)"),
])
def test_discretize_cache_hit_is_bit_identical(q):
    L, n = 12.0, 600
    oracle._grid.cache_clear()
    for left, right in ((None, None), (-0.3, None), (0.0, None), (-0.7, 0.45)):
        misses, hits = oracle._grid.cache_info().misses, oracle._grid.cache_info().hits
        first = oracle.discretize(q, L, n, left, right)
        second = oracle.discretize(q, L, n, left, right)
        info = oracle._grid.cache_info()
        assert info.misses == misses + (left is None)  # the first pair misses, the rest hit
        assert info.hits == hits + 1 + (left is not None)
        assert info.currsize == 1
        reference = _packed(*_node_loop(q, L, n, left, right))
        assert _packed(first.diag, first.off) == reference
        assert _packed(second.diag, second.off) == reference
        assert (first.left, first.right) == (left, right)
        xs, ws = oracle.node_grid(first)
        assert len(xs) == len(ws) == first.size == len(first.off) + 1
