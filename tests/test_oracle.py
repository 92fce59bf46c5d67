import math
import random
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    op = oracle.discretize(Q0, 40.0, 4000, -1.0, None)
    low = oracle.lowest_eigenvalues(op, 1)[0]
    assert abs(low + 1.0) < 1e-4


def test_sturm_counts():
    op = oracle.discretize(Q0, math.pi, 2000, None, None)
    assert oracle.eigen_count_below(op, 10.0) == 3
    op = oracle.discretize(Q0, 40.0, 4000, -2.0, None)
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
    # the tridiagonal product T u
    n = op.size
    tu = [op.diag[i] * u[i] + (op.off[i - 1] * u[i - 1] if i > 0 else 0.0)
          + (op.off[i] * u[i + 1] if i < n - 1 else 0.0) for i in range(n)]
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
    op1 = oracle.discretize(Q0, 40.0, 800, -1.0, None)
    op2 = oracle.discretize(Q0, 40.0, 800, 1.0, None)
    assert oracle.resolvent_difference_rank(op1, op2, -2.0 + 0.3j) == 1
    assert oracle.resolvent_difference_rank(op1, op1, -2.0 + 0.3j) == 0


def test_second_order_convergence():
    def err(n):
        op = oracle.discretize(Q0, math.pi, n, None, None)
        return abs(oracle.lowest_eigenvalues(op, 1)[0] - 1.0)

    assert 3.5 <= err(400) / err(800) <= 4.5


def test_truncation_insensitivity():
    a = oracle.lowest_eigenvalues(oracle.discretize(Q0, 40.0, 4000, -2.0, None), 1)[0]
    b = oracle.lowest_eigenvalues(oracle.discretize(Q0, 50.0, 5000, -2.0, None), 1)[0]
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


def _pivots(opd, mu):
    """The reference loop's LDL pivots, after the zero-pivot rule."""
    d, e = opd.diag, opd.off
    out = []
    for i in range(len(d)):
        p = d[i] - mu if i == 0 else (d[i] - mu) - e[i - 1] * e[i - 1] / out[-1]
        out.append(-1e-300 if p == 0.0 else p)
    return out


_STRETCH_QS = [
    PotentialSpec.zero(),
    PotentialSpec.square_well(-2.5, 1.0),
    PotentialSpec.table([0.0, 3.0], [0.75, 0.75]),
    PotentialSpec.expression("x"),  # every interior row differs: no stretch
]


@pytest.mark.parametrize("q", _STRETCH_QS)
@pytest.mark.parametrize("left, right", [(None, None), (-0.7, None), (None, 0.45), (0.0, -1.2)])
def test_flat_stretch_count_is_the_full_loop(q, left, right):
    L, n = 12.0, 600
    op = oracle.discretize(q, L, n, left, right)
    start, stop = op.flat
    if q.kind == "expression":
        assert op.flat == (0, 0)
    else:
        # behind a retained left node the first interior row couples through the edge
        first = 1 if left is None else 2
        assert start == first or (q.kind == "square_well" and op.diag[start - 1] != op.diag[start])
        assert stop > start + 100 and (stop == op.size or op.diag[stop] != op.diag[start])
        # the trailing run of equal interior rows: it ends the matrix at a
        # Dirichlet right end and one row before the last at a Robin one
        assert stop == (op.size if right is None else op.size - 1)
        assert start == first or op.diag[start - 1] != op.diag[start]
        assert len({op.diag[i] for i in range(start, stop)}) == 1
        assert len({op.off[i - 1] for i in range(start, stop)}) == 1
    rng = random.Random(f"{q.kind} {left} {right}")
    # the bottom d - 2|e| of the stretch's band; no stretch: any level
    level = op.diag[start] + 2.0 * op.off[start - 1] if start else op.diag[0]
    mus = [rng.uniform(-30.0, 60.0) for _ in range(6)]
    mus += [op.diag[start], level - 100.0, level - 30.0, level - 1e-3, level + 1.0, level + 5.0]
    for lam in oracle.lowest_eigenvalues(op, 3, tol=0.0):
        mus += [lam, math.nextafter(lam, -math.inf), math.nextafter(lam, math.inf)]
    repeats = 0
    for mu in mus:
        assert oracle.eigen_count_below(op, mu) == _reference_count(op, mu), mu
        piv = _pivots(op, mu)
        repeats += any(piv[i] == piv[i - 1] for i in range(start, stop))
    if start:
        # below the stretch's level its pivots settle; above it they never repeat
        assert repeats >= 2
        assert not any(_pivots(op, level + 1.0)[i] == _pivots(op, level + 1.0)[i - 1]
                       for i in range(start, stop))
    plain = oracle.DiscretizedOperator(op.diag, op.off, op.dx, op.L, left, right)
    assert oracle.gershgorin_bounds(op) == oracle.gershgorin_bounds(plain)


@pytest.mark.parametrize("seed", range(6))
def test_built_flat_stretch_is_the_full_loop(seed):
    rng = random.Random(seed)
    for n in (3, 7, 40):
        base = _random_tridiagonal(rng, n)
        start = rng.randint(1, n - 2)
        drawn = rng.randint(start + 1, n)
        d = float(rng.randint(-4, 4))
        for e in (0.0, -0.0, 1.0, -0.5):
            extra = rng.uniform(-6.0, 6.0)
            # the drawn stretch, and one that ends the matrix, where a count
            # below the band stops once a pivot exceeds |e|
            for stop in {drawn, n}:
                diag = base.diag[:start] + (d,) * (stop - start) + base.diag[stop:]
                off = base.off[:start - 1] + (e,) * (stop - start) + base.off[stop - 1:]
                op = oracle.DiscretizedOperator(diag, off, 1.0, float(n), None, None, (start, stop))
                plain = oracle.DiscretizedOperator(diag, off, 1.0, float(n), None, None)
                for mu in {*diag, 0.0, -5.5, 5.5, extra, d - 2.0 * abs(e) - 0.25}:
                    assert oracle.eigen_count_below(op, mu) == _reference_count(op, mu)
                if e == 0.0:  # mu = d makes every pivot of the stretch zero
                    assert _pivots(op, d)[start:stop] == [-1e-300] * (stop - start)
                assert oracle.gershgorin_bounds(op) == oracle.gershgorin_bounds(plain)


def _tail_operator(first, d, e, length, after=None):
    """The row `first`, then `length` rows of diagonal d and coupling e as the
    flat stretch, then the row `after` when it is given."""
    diag = (first,) + (d,) * length
    off = (e,) * length
    if after is not None:
        diag += (after,)
        off += (-1.0,)
    return oracle.DiscretizedOperator(diag, off, 1.0, float(len(diag)), None, None,
                                      (1, 1 + length))


def _around_the_band(d, e):
    """mu far below the band of (d, e), at its bottom d - 2|e|, one float to
    either side of it, just inside it (where pivots above |e| still turn
    negative within 100 rows), at its middle and above it."""
    bottom = d - 2.0 * abs(e)
    return [bottom - 100.0, bottom - 1.0, bottom - 1e-9, bottom, math.nextafter(bottom, -math.inf),
            math.nextafter(bottom, math.inf), bottom + 1.8e-3 * abs(e), d, d + 2.0 * abs(e) + 1.0]


@pytest.mark.parametrize("length", [1, 2, 3, 100])
@pytest.mark.parametrize("after", [None, -50.0, 0.5])
@pytest.mark.parametrize("e", [-1.0, 0.75, 0.3, 1e-3, 0.0, -0.0])
def test_settled_tail_stop_is_the_full_loop(length, after, e):
    # a stretch that ends the matrix stops once a pivot exceeds |e|; one row
    # after it (at mu - 50, a negative pivot) keeps the full loop
    d, r = 4.0, abs(e)
    for mu in _around_the_band(d, e):
        a = d - mu
        # pivots entering the stretch: negative, zero (read as -1e-300), small
        # and large; below the band also ones that put the stretch's first
        # pivot between |e|/2 and |e|, or below e^2/a, from where later
        # pivots still turn negative
        entering = [-3.0, 0.0, 1e-9, 7.0]
        if a > 2.0 * r:
            entering += [e * e / (a - 0.7 * r), e * e / (a - r * r / (2.0 * a))]
        for first in [mu + p for p in entering] + [math.nextafter(mu, math.inf)]:
            op = _tail_operator(first, d, e, length, None if after is None else mu + after)
            assert oracle.eigen_count_below(op, mu) == _reference_count(op, mu), (mu, first)
    if after == -50.0:  # below the band the stretch settles, and the last row counts
        mu = d - 2.0 * r - 1.0
        assert _pivots(_tail_operator(mu + 7.0, d, e, length, mu + after), mu)[-1] < 0


def test_bisection_stops_below_the_float_spacing():
    # tol 1e-17 is below the spacing at the eigenvalue (about 1): the bracket
    # shrinks to two neighbouring floats and the bisection returns.  It runs
    # in a daemon thread so that a bisection that never stops fails the test
    # rather than hanging the run.
    op = oracle.discretize(Q0, math.pi, 200, None, None)
    result = []
    worker = threading.Thread(target=lambda: result.append(oracle.lowest_eigenvalues(op, 1, tol=1e-17)),
                              daemon=True)
    worker.start()
    worker.join(timeout=30.0)
    assert result, "bisection did not stop"
    (v,) = result[0]
    assert oracle.eigen_count_below(op, math.nextafter(v, -math.inf)) == 0
    assert oracle.eigen_count_below(op, math.nextafter(v, math.inf)) == 1
    assert oracle.lowest_eigenvalues(op, 1, tol=0.0) == [v]


def test_lowest_eigenvalues_below_upper():
    q = PotentialSpec.square_well(-3.0, 2.0)
    op = oracle.discretize(q, 20.0, 1000, -0.5, None)
    tol = 1e-10
    full = oracle.lowest_eigenvalues(op, 8, tol=tol)
    for u in (full[0] - 1.0, full[0], 0.5 * (full[1] + full[2]), full[4], full[-1] + 1.0):
        cut = oracle.lowest_eigenvalues(op, 8, tol=tol, upper=u)
        assert len(cut) == min(8, oracle.eigen_count_below(op, u))
        assert all(v <= u for v in cut)
        assert all(abs(v - w) <= tol for v, w in zip(cut, full))


_COUPLINGS = st.sampled_from([0.0, -0.0, 1.0, -0.5, -2.0, 0.3, 1e-3])


@st.composite
def _sturm_cases(draw):
    """Small integer diagonals (mu on one makes a zero pivot), couplings with
    zeros, and often a flat stretch, which ends the matrix half the time."""
    n = draw(st.integers(1, 24))
    ints = st.integers(-4, 4).map(float)
    diag = draw(st.lists(ints, min_size=n, max_size=n))
    off = draw(st.lists(_COUPLINGS, min_size=n - 1, max_size=n - 1))
    flat = (0, 0)
    if n >= 2 and draw(st.booleans()):
        start = draw(st.integers(1, n - 1))
        stop = n if draw(st.booleans()) else draw(st.integers(start + 1, n))
        d, e = draw(ints), draw(_COUPLINGS)
        diag[start:stop] = [d] * (stop - start)
        off[start - 1:stop - 1] = [e] * (stop - start)
        flat = (start, stop)
    return oracle.DiscretizedOperator(tuple(diag), tuple(off), 1.0, float(n), None, None, flat)


# 300 examples, or the loaded profile's count when larger (2000 under ci)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(_sturm_cases(), st.lists(st.floats(-12.0, 12.0), max_size=6))
def test_sturm_count_is_monotone_in_mu(op, extra):
    # lowest_eigenvalues infers counts from this (Demmel, Dhillon & Ren, ETNA 3, 1995)
    mus = {*extra, *op.diag}
    for d, e in zip(op.diag[1:], op.off):  # the band edges, where a tail settles
        mus |= {d - 2.0 * abs(e), d + 2.0 * abs(e), d - 2.0 * abs(e) - 1.0}
    mus |= {math.nextafter(mu, side) for mu in list(mus) for side in (-math.inf, math.inf)}
    mus = sorted(mus)
    counts = [oracle._sturm_count(op.diag, op.off2, mu, op.flat) for mu in mus]
    assert counts == sorted(counts)
    assert counts == [_reference_count(op, mu) for mu in mus]


def _plain_lowest(opd, k, tol=1e-10, upper=None):
    """lowest_eigenvalues before it reused counts, kept as the reference: the
    reference loop's count at every midpoint (once), each eigenvalue bisected
    from [Gershgorin lower bound, upper or the Gershgorin upper bound]."""
    lo0, hi0 = oracle.gershgorin_bounds(opd)
    if upper is None:
        k = min(k, opd.size)
    else:
        k = min(k, _reference_count(opd, upper))
        hi0 = upper
    memo = {}
    out = []
    for j in range(1, k + 1):
        lo, hi = lo0, hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if mid not in memo:
                memo[mid] = _reference_count(opd, mid)
            if memo[mid] >= j:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out, len(memo) + (upper is not None)


_LOWEST_CASES = {
    "half_line": (oracle.discretize(PotentialSpec.square_well(-3.0, 2.0), 20.0, 400, -0.5, None),
                  [None, -0.05, 0.5, -3.5]),
    "interval": (oracle.discretize(PotentialSpec.table([0.0, 0.7, 1.5, 3.0], [-1.0, 0.4, 0.4, 0.25]),
                                   3.0, 300, -0.3, 0.45), [None, 6.0, 1.0]),
    "channel": (oracle.discretize(PotentialSpec.table([0.0, 16.0], [1.25, 1.25]), 16.0, 400, -1.8,
                                  None), [None, 0.9, -2.0]),
    "built": (oracle.DiscretizedOperator((0.0, 3.0, -1.0) + (2.0,) * 40, (0.5, -1.0) + (-1.0,) * 40,
                                         1.0, 43.0, None, None, (3, 43)), [None, 0.0, 2.5, 1e3]),
}


@pytest.mark.parametrize("tol", [1e-10, 0.0])
@pytest.mark.parametrize("case", sorted(_LOWEST_CASES))
def test_lowest_eigenvalues_are_plain_bisection(case, tol, monkeypatch):
    op, uppers = _LOWEST_CASES[case]
    counted = []
    count = oracle.eigen_count_below
    monkeypatch.setattr(oracle, "eigen_count_below", lambda o, mu: counted.append(mu) or count(o, mu))
    for upper in uppers:
        want, passes = _plain_lowest(op, 5, tol, upper)
        counted.clear()
        assert oracle.lowest_eigenvalues(op, 5, tol, upper) == want, upper
        assert len(set(counted)) == len(counted)  # no point is counted twice
        if upper is not None and want and case != "built":
            # a grid's Gershgorin bound lies far below its lowest eigenvalue,
            # and the descent from it needs no count
            assert len(counted) < passes


def _recording_counts(counted):
    """eigen_count_below that appends each mu it counts to `counted`."""
    count = oracle.eigen_count_below
    return lambda o, mu: counted.append(mu) or count(o, mu)


@settings(deadline=None)
@given(_sturm_cases(), st.one_of(st.none(), st.floats(-12.0, 12.0)),
       st.sampled_from([1e-10, 1e-3, 0.0]), st.integers(1, 6))
def test_drawn_lowest_eigenvalues_are_plain_bisection(op, upper, tol, k):
    # zero couplings, multiple eigenvalues and flat stretches that end the
    # matrix: the planted counts may miss, but no value may move
    want, _ = _plain_lowest(op, k, tol, upper)
    counted = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "eigen_count_below", _recording_counts(counted))
        assert oracle.lowest_eigenvalues(op, k, tol, upper) == want
    assert len(set(counted)) == len(counted)


@lru_cache(maxsize=None)
def _plain_lowest_case(case, upper):
    return _plain_lowest(_LOWEST_CASES[case][0], 5, 1e-10, upper)[0]


_WRONG_ESTIMATES = {
    "lower end": lambda a, b, x: a,
    "upper end": lambda a, b, x: b,
    "0.3 away": lambda a, b, x: x + 0.3,
    "nan": lambda a, b, x: math.nan,
    "outside": lambda a, b, x: b + 1.0,
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_ESTIMATES))
@pytest.mark.parametrize("case", sorted(_LOWEST_CASES))
def test_a_wrong_estimate_changes_no_value(case, wrong, monkeypatch):
    op, uppers = _LOWEST_CASES[case]
    estimate = oracle._secant_estimate

    def wrong_estimate(g, a, b, tol):
        x = estimate(g, a, b, tol)
        return None if x is None else _WRONG_ESTIMATES[wrong](a, b, x)

    monkeypatch.setattr(oracle, "_secant_estimate", wrong_estimate)
    for upper in uppers:
        assert oracle.lowest_eigenvalues(op, 5, 1e-10, upper) == _plain_lowest_case(case, upper), upper


_WORKLOAD_ORACLES = [  # the operators and window tops of the spectrum requests
    (oracle.discretize(PotentialSpec.square_well(-1.0, 0.7), 2.0, 2000, -0.5, 0.3), 6.0),
    (oracle.discretize(PotentialSpec.square_well(-2.0, 1.0), 40.0, 4000, -0.5, None), -0.05),
    (oracle.discretize(PotentialSpec.table([0.0, 16.0], [4.0, 4.0]), 16.0, 6666, -1.8, None), 0.9),
]


def test_planted_counts_halve_the_work(monkeypatch):
    # forward Sturm counts plus bottom-up passes, against plain bisection's
    # counts; each bottom-up pass steps at most the rows a count steps
    counted = []
    last_pivot = oracle._last_pivot
    monkeypatch.setattr(oracle, "eigen_count_below", _recording_counts(counted))
    monkeypatch.setattr(oracle, "_last_pivot", lambda o, mu: counted.append(mu) or last_pivot(o, mu))
    work = plain = 0
    for op, upper in _WORKLOAD_ORACLES:
        want, passes = _plain_lowest(op, oracle.MAX_EIGENVALUES, 1e-10, upper)
        counted.clear()
        assert oracle.lowest_eigenvalues(op, oracle.MAX_EIGENVALUES, upper=upper) == want
        work += len(counted)
        plain += passes
    assert work <= plain / 2, (work, plain)


@pytest.mark.parametrize("op, want", [
    (oracle.discretize(PotentialSpec.square_well(-3.0, 2.0), 20.0, 1000, -0.5, None),
     [-3.137495727603322, -0.4097982489278772, 0.03334648647655939, 0.13180571572182875,
      0.29223499589401847]),
    (oracle.discretize(PotentialSpec.table([0.0, 0.7, 1.5, 3.0], [-1.0, 0.4, 0.4, 0.25]),
                       3.0, 400, -0.3, 0.45),
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
        # the couplings and their squares are built once per grid and sides
        assert second.off is first.off and second.off2 is first.off2
        assert _packed(first.off2, ()) == _packed([e * e for e in first.off], ())
        built = oracle.DiscretizedOperator(first.diag, first.off, first.dx, first.L, left, right)
        assert _packed(built.off2, ()) == _packed(first.off2, ())
    # the cached interior holds its flat run, the trailing run of equal
    # rows, as one float object; with no two equal rows there is no run
    _, rows, _, (i, j), _ = oracle._grid(q, L, n)
    if q.kind == "expression":
        assert (i, j) == (0, 0) and len(set(rows)) == len(rows)
    else:
        assert j - i > 100 and j == len(rows)
        assert len({id(v) for v in rows[i:j]}) == 1


# -- grids built from the pieces of q --------------------------------------------

# the grids of the benchmark's boundary_sweep, each with one of its sides: the
# half line's wells at L = 40, the interval's well, and the operator
# potential's channels [1, 1] (a_diag 2) and [4, 4] (a_diag 5)
_BENCH_GRIDS = [
    (PotentialSpec.square_well(-2.0, 1.0), 40.0, 4000, (-0.4, None)),
    (PotentialSpec.square_well(-1.0, 1.2), 40.0, 4000, (0.7, None)),
    (PotentialSpec.square_well(-2.5, 1.0), 40.0, 4000, (0.0, None)),
    (PotentialSpec.square_well(-1.0, 0.7), 2.0, 2000, (-1.0, 0.3)),
    (PotentialSpec.table([0.0, 30.0], [1.0, 1.0]), 30.0, 12500, (-1.2, None)),
    (PotentialSpec.table([0.0, 16.0], [4.0, 4.0]), 16.0, 6666, (-2.0, None)),
]


@pytest.mark.parametrize("q, L, n, sides", _BENCH_GRIDS)
def test_grid_is_the_node_loop_on_the_benchmark_grids(q, L, n, sides):
    for left, right in ((None, None), sides):
        op = oracle.discretize(q, L, n, left, right)
        assert _packed(op.diag, op.off) == _packed(*_node_loop(q, L, n, left, right))
        # the norm bound read off the runs is the one over every row
        built = oracle.DiscretizedOperator(op.diag, op.off, op.dx, op.L, left, right)
        assert op.norm == built.norm
    # each run of equal rows is one float object: a well's inside, its
    # break cell and its outside, or a channel's one run
    _, rows, _, _, _ = oracle._grid(q, L, n)
    assert len({id(v) for v in rows}) == len(set(rows)) <= 3


def test_grid_reads_q_only_across_breaks(monkeypatch):
    reads = []
    cell_average = PotentialSpec.cell_average
    monkeypatch.setattr(PotentialSpec, "value", lambda self, x: reads.append(x) or self._at(x))
    monkeypatch.setattr(PotentialSpec, "cell_average",
                        lambda self, a, b: reads.append((a, b)) or cell_average(self, a, b))
    oracle._grid.cache_clear()
    # the well's one cell across x = 1, and the two end cells
    oracle._grid(PotentialSpec.square_well(-2.0, 1.0), 40.0, 4000)
    ((a, b), end0, end1) = reads
    assert end0 == (0.0, 0.005) and a < 1.0 < b and end1[1] == 40.0
    reads.clear()
    # the end cells of a channel, and none between
    oracle._grid(PotentialSpec.table([0.0, 30.0], [1.0, 1.0]), 30.0, 12500)
    assert len(reads) == 2
    reads.clear()
    # a linear segment on [1, 2] of a 0.01 grid: the cell averages of its 99
    # cells and the two across its ends, then the two end cells, and no cell
    # of the constant pieces; q twice in each of the 101 (_mean's trapezoid
    # over the cell) and twice more in the two with a node inside
    oracle._grid(PotentialSpec.table([0.0, 1.0, 2.0, 3.0], [-1.0, -1.0, 0.5, 0.5]), 10.0, 1000)
    cells = [r for r in reads if isinstance(r, tuple)]
    assert len(cells) == 101 + 2 and all(a < 2.0 and b > 1.0 for a, b in cells[:101])
    assert cells[101] == (0.0, 0.005) and cells[102][1] == 10.0
    assert len(reads) - len(cells) == 2 * 101 + 2 * 2
    oracle._grid.cache_clear()


# tenths too: most are not dyadic, so c w / w need not round to c
_VALUES = st.floats(-5.0, 5.0) | st.integers(-50, 50).map(lambda k: k / 10.0)
_EXPRESSIONS = ("{a}*exp(-x/{s})", "{a}*sin({s}*x)", "{a}/(1+{s}*x^2)")


@st.composite
def _potentials(draw):
    """A potential of a drawn kind: a well; a table whose segments are often
    constant (a value repeated) and otherwise linear; an expression; zero."""
    kind = draw(st.sampled_from(["zero", "square_well", "sampled_table", "expression"]))
    if kind == "square_well":
        return PotentialSpec.square_well(draw(_VALUES), draw(st.floats(0.01, 8.0)))
    if kind == "sampled_table":
        x, v = draw(st.floats(-1.0, 3.0)), draw(_VALUES)
        nodes, values = [x], [v]
        for gap, new in draw(st.lists(st.tuples(st.floats(0.01, 2.0), st.none() | _VALUES),
                                      min_size=1, max_size=8)):
            x, v = x + gap, v if new is None else new
            nodes.append(x)
            values.append(v)
        return PotentialSpec.table(nodes, values)
    if kind == "expression":
        source = draw(st.sampled_from(_EXPRESSIONS))
        return PotentialSpec.expression(source.format(a=draw(st.floats(-3.0, 3.0)),
                                                      s=draw(st.floats(0.2, 3.0))))
    return PotentialSpec.zero()


@settings(deadline=None)
@given(_potentials(), st.floats(0.5, 20.0), st.integers(100, 300),
       st.sampled_from([(None, None), (-0.5, None), (0.25, 1.5)]))
def test_grid_rows_follow_the_pieces_of_q(q, L, n, sides):
    q0, rows, qn, (i, j), _ = oracle._grid(q, L, n)
    dx = L / n
    constant = [(lo, hi, c) for lo, hi, c in q.pieces(0.0, L) if c is not None]

    def mean(k):  # node k's cell: the constant of a piece that holds it, else its cell average
        a, b = max(0.0, (k - 0.5) * dx), min(L, (k + 0.5) * dx)
        c = next((c for lo, hi, c in constant if lo <= a and b <= hi), None)
        if c is None:
            return q.cell_average(a, b)
        assert q.cell_average(a, b) == c
        return c

    assert (q0, qn) == (mean(0), mean(n))
    want = [(2.0 / dx + mean(k) * dx) / dx for k in range(1, n)]
    assert [v.hex() for v in rows] == [v.hex() for v in want]
    # the flat run is the trailing run of equal rows, held as one float object
    k = len(rows)
    while k and rows[k - 1] == rows[-1]:
        k -= 1
    assert (i, j) == ((k, n - 1) if k < n - 2 else (0, 0))
    assert len({id(v) for v in rows[i:j]}) <= 1
    op = oracle.discretize(q, L, n, *sides)
    assert op.norm == oracle.DiscretizedOperator(op.diag, op.off, op.dx, op.L, *sides).norm


@pytest.mark.parametrize("q", [
    Q0,
    PotentialSpec.square_well(-2.5, 1.0),
    PotentialSpec.square_well(0.3, 0.7),
    PotentialSpec.table([0.0, 0.7, 1.5, 3.0], [-1.0, 0.4, 0.4, 0.25]),
    PotentialSpec.table([0.0, 30.0], [0.3, 0.3]),
    PotentialSpec.table([0.0, 0.5, 1.0, 1.5, 2.0], [0.1, 0.1, 0.7, 0.7, -0.3]),
    PotentialSpec.expression("-exp(-x)"),
], ids=lambda q: q.kind)
def test_constant_pieces_are_the_value_of_q(q):
    # _grid takes a constant piece's c for q there, and the propagator its
    # exact transfer: a wrong piece shows here rather than in both at once
    rng = random.Random(0)
    for lo, hi, c in q.pieces(-5.0, 40.0):
        if c is not None:
            xs = (lo + rng.random() * (hi - lo) for _ in range(500))
            assert all(q.value(x) == c for x in xs if lo < x < hi)
