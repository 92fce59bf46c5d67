import math
import random

import pytest

from weyl import oracle
from weyl.errors import ContractError, SpectralPointError
from weyl.oracle import Boundary
from weyl.slsolve import PotentialSpec

Q0 = PotentialSpec.zero()


def test_dirichlet_interval_eigenvalues():
    op = oracle.discretize(Q0, math.pi, 2000, Boundary.dirichlet(), Boundary.dirichlet())
    lows = oracle.lowest_eigenvalues(op, 3)
    for v, k in zip(lows, (1, 2, 3)):
        assert abs(v / (k * k) - 1.0) < 5e-6


def test_neumann_dirichlet_quarter_series():
    op = oracle.discretize(Q0, math.pi, 2000, Boundary.neumann(), Boundary.dirichlet())
    lows = oracle.lowest_eigenvalues(op, 2)
    assert abs(lows[0] - 0.25) < 1e-5
    assert abs(lows[1] - 2.25) < 1e-4


def test_robin_bound_state():
    op = oracle.halfline_operator(Q0, -1.0)
    low = oracle.lowest_eigenvalues(op, 1)[0]
    assert abs(low + 1.0) < 1e-4


def test_sturm_counts():
    op = oracle.discretize(Q0, math.pi, 2000, Boundary.dirichlet(), Boundary.dirichlet())
    assert oracle.eigen_count_below(op, 10.0) == 3
    op = oracle.halfline_operator(Q0, -2.0)
    assert oracle.eigen_count_below(op, 0.0) == 1
    assert oracle.eigen_count_below(op, -30.0) == 0


def test_sturm_count_matches_bisection():
    op = oracle.discretize(Q0, math.pi, 800, Boundary.robin(-0.7), Boundary.robin(0.3))
    mu = 7.3
    count = oracle.eigen_count_below(op, mu)
    lows = oracle.lowest_eigenvalues(op, count + 2)
    assert sum(1 for v in lows if v < mu) == count


def test_discretize_validation():
    with pytest.raises(ContractError):
        oracle.discretize(Q0, 1.0, 50, Boundary.dirichlet(), Boundary.dirichlet())
    with pytest.raises(ContractError):
        oracle.discretize(Q0, -1.0, 500, Boundary.dirichlet(), Boundary.dirichlet())


def test_resolvent_identity_and_residual():
    rng = random.Random(0)
    op = oracle.discretize(Q0, math.pi, 500, Boundary.dirichlet(), Boundary.dirichlet())
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(op.size)]
    z = -1.0 + 0.5j
    u = oracle.resolvent_apply(op, z, v)
    tu = oracle.apply_operator(op, u)
    resid = max(abs(tu[i] - z * u[i] - v[i]) for i in range(op.size))
    assert resid <= 1e-11 * max(abs(x) for x in v)


def test_resolvent_on_discrete_eigenvector():
    # sin(k x) is an exact eigenvector of the interior stencil
    op = oracle.discretize(Q0, math.pi, 1000, Boundary.dirichlet(), Boundary.dirichlet())
    lam1 = oracle.lowest_eigenvalues(op, 1)[0]
    xs, _ = oracle.node_grid(op)
    v = [math.sin(x) for x in xs]
    u = oracle.resolvent_apply(op, -1.0, v)
    scale = 1.0 / (lam1 + 1.0)
    worst = max(abs(ui - vi * scale) for ui, vi in zip(u, v))
    assert worst < 1e-9


def test_resolvent_spectral_proximity_error():
    op = oracle.discretize(Q0, math.pi, 500, Boundary.dirichlet(), Boundary.dirichlet())
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
        op = oracle.discretize(Q0, math.pi, n, Boundary.dirichlet(), Boundary.dirichlet())
        return abs(oracle.lowest_eigenvalues(op, 1)[0] - 1.0)

    assert 3.5 <= err(400) / err(800) <= 4.5


def test_truncation_insensitivity():
    a = oracle.lowest_eigenvalues(oracle.halfline_operator(Q0, -2.0, L=40.0, n=4000), 1)[0]
    b = oracle.lowest_eigenvalues(oracle.halfline_operator(Q0, -2.0, L=50.0, n=5000), 1)[0]
    assert abs(a - b) < 1e-8


def test_corner_friedrichs_eigenvalues_interlace():
    evs = oracle.corner_friedrichs_eigenvalues(0.75, 2)
    assert math.pi**2 < evs[0] < 3.8318**2 < evs[1]


def test_square_well_cell_average_discretization():
    # jump-aligned grids keep second-order accuracy via cell averaging
    q = PotentialSpec.square_well(-2.5, 1.0)
    op = oracle.discretize(q, 30.0, 3000, Boundary.robin(-0.8), Boundary.dirichlet())
    low = oracle.lowest_eigenvalues(op, 1)[0]
    op2 = oracle.discretize(q, 30.0, 6000, Boundary.robin(-0.8), Boundary.dirichlet())
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
    return oracle.DiscretizedOperator(diag, off, 1.0, float(n), Boundary.dirichlet(),
                                      Boundary.dirichlet())


@pytest.mark.parametrize("seed", range(8))
def test_sturm_count_matches_indexed_loop(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 7, 40):
        op = _random_tridiagonal(rng, n)
        for mu in {*op.diag, 0.0, -5.5, 5.5, rng.uniform(-6.0, 6.0)}:
            assert oracle.eigen_count_below(op, mu) == _reference_count(op, mu)


def test_lowest_eigenvalues_upper_is_a_prefix():
    q = PotentialSpec.square_well(-3.0, 2.0)
    op = oracle.halfline_operator(q, -0.5, L=20.0, n=1000)
    full = oracle.lowest_eigenvalues(op, 8)
    for u in (full[0] - 1.0, full[0], 0.5 * (full[1] + full[2]), full[4], full[-1] + 1.0):
        cut = oracle.lowest_eigenvalues(op, 8, upper=u)
        stop = next((j + 1 for j, v in enumerate(full) if v > u), len(full))
        assert cut == full[:stop]


def _packed(op):
    from array import array

    return array("d", op.diag).tobytes(), array("d", op.off).tobytes()


@pytest.mark.parametrize("q", [
    PotentialSpec.square_well(-2.5, 1.0),
    PotentialSpec.table([0.0, 0.7, 1.5, 3.0], [-1.0, 0.4, 0.4, 0.25]),
    PotentialSpec.expression("-exp(-x)"),
])
def test_discretize_cache_hit_is_bit_identical(q):
    L, n = 12.0, 600
    oracle._cell_averages.cache_clear()
    miss = oracle.discretize(q, L, n, Boundary.robin(-0.3), Boundary.dirichlet())
    hits = oracle._cell_averages.cache_info().hits
    hit = oracle.discretize(q, L, n, Boundary.robin(-0.3), Boundary.dirichlet())
    assert oracle._cell_averages.cache_info().hits == hits + 1
    assert _packed(hit) == _packed(miss)
    # the uncached grid: every cell average taken afresh, as discretize once did
    dx = L / n
    qs = [q.cell_average(max(0.0, (i - 0.5) * dx), min(L, (i + 0.5) * dx)) for i in range(n + 1)]
    assert list(oracle._cell_averages(q, L, n)) == qs
