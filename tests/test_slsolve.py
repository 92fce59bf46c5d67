import cmath
import gc
import json
import math
import re
import tracemalloc
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weyl import cli, models, oracle, slsolve
from weyl.errors import AccuracyError, EvalError, PoleError, RangeError
from weyl.slsolve import (
    PotentialSpec,
    decaying_solution,
    finite_interval_M,
    fundamental_system,
    halfline_oscillation,
    halfline_m,
    halfline_m_exact_tail,
    integrate_ivp,
    tail_support,
)
from weyl.specfun import sqrt_upper

Q0 = PotentialSpec.zero()


def test_ivp_linear_solution():
    y, yp, _ = integrate_ivp(Q0, 0.0, (0.0, 1.0), (0.0, 1.0))
    assert abs(y - 1.0) < 1e-9 and abs(yp - 1.0) < 1e-9


def test_ivp_cosh():
    y, yp, _ = integrate_ivp(Q0, -1.0, (1.0, 0.0), (0.0, 1.0))
    assert abs(y - math.cosh(1.0)) < 1e-8
    assert abs(yp - math.sinh(1.0)) < 1e-8


def test_ivp_cosine_full_period():
    y, yp, _ = integrate_ivp(Q0, 4.0, (1.0, 0.0), (0.0, math.pi))
    assert abs(y - 1.0) < 1e-8
    assert abs(yp) < 1e-8


def test_ivp_backward_span():
    y, yp, _ = integrate_ivp(Q0, -1.0, (math.cosh(1.0), math.sinh(1.0)), (1.0, 0.0))
    assert abs(y - 1.0) < 1e-8 and abs(yp) < 1e-8


def test_ivp_residual_along_trajectory():
    # the solution integrated from 0 to each node k/16, and each step between
    # consecutive nodes (x0, y0, y0') -> (x1, y1, y1') against the independent
    # RK5(4) reference at rtol = 1e-13; a second difference of the nodes would
    # carry its own error h^2 |y''''| / 12, about 1e-4 at h = 1/16
    z = 2.0 + 1.0j
    q = PotentialSpec.expression("1/(1+x^2)")
    samples = [(k / 16, *integrate_ivp(q, z, (1.0, 0.0), (0.0, k / 16))[:2]) for k in range(33)]
    worst, checked = 0.0, 0
    for (x0, y0, p0), (x1, y1, p1) in zip(samples, samples[1:]):
        y, yp = _rk45_loop(q, z, y0, p0, x0, x1, 1e-13, 1e-13, None)
        worst = max(worst, abs(y1 - y) / max(1.0, abs(y)), abs(p1 - yp) / max(1.0, abs(yp)))
        checked += 1
    assert checked == 32
    assert worst <= 1e-7


def test_interval_M_closed_form_at_minus_one():
    m = finite_interval_M(Q0, math.pi, -1.0)
    coth = 1.0 / math.tanh(math.pi)
    csch = 1.0 / math.sinh(math.pi)
    assert abs(m.at(0, 0) + coth) < 1e-7
    assert abs(m.at(0, 1) - csch) < 1e-7
    assert abs(m.at(1, 0) - csch) < 1e-7
    assert abs(m.at(1, 1) + coth) < 1e-7


def test_interval_M_pole_at_dirichlet_eigenvalue():
    with pytest.raises(PoleError):
        finite_interval_M(Q0, math.pi, 1.0 + 1e-12)


def _bits(*values):
    """The bits of each complex value, signed zeros included (0.0 == -0.0)."""
    return [(v.real.hex(), v.imag.hex()) for v in map(complex, values)]


# one of each kind, with exact-transfer pieces (zero, the well, the table's
# ends and its flat segment) and Magnus pieces (the table's slopes, the
# expression on both sides of 0); every tail is settled
_CONJ_POTENTIALS = {
    "zero": Q0,
    "square_well": PotentialSpec.square_well(-3.0, 1.5),
    "table": PotentialSpec.table((0.0, 0.5, 1.0, 2.0), (1.0, 1.0, -2.0, 0.5)),
    "expression": PotentialSpec.expression("-3*exp(-x*x)*cos(2*x)"),
}


@pytest.mark.parametrize("span", [(0.0, 2.5), (2.5, 0.0), (-1.0, 3.0), (3.0, -1.0)])
@pytest.mark.parametrize("kind", sorted(_CONJ_POTENTIALS))
def test_propagator_commutes_with_conjugation_to_the_bit(kind, span):
    # a grid request answers conj z on the ODE kinds with the mirror of its
    # answer at z, which is exact only because this holds
    q = _CONJ_POTENTIALS[kind]
    for z in (2.0 + 1.0j, -5.0 + 0.3j, 20.0 + 3e-3j, 1e-9j):
        for y0 in ((1.0 + 0j, 0j), (0.3 - 0.2j, 1.5 + 0.7j)):
            y, yp, zeros = integrate_ivp(q, z, y0, span)
            mirror = integrate_ivp(q, z.conjugate(), [v.conjugate() for v in y0], span)
            assert _bits(*mirror[:2]) == _bits(y.conjugate(), yp.conjugate()), z
            assert mirror[2] == zeros == 0


@pytest.mark.parametrize("kind", sorted(_CONJ_POTENTIALS))
def test_rescaled_endpoint_commutes_with_conjugation_to_the_bit(kind):
    # Im sqrt(z) start = 1000: 13 chunks, and the solution grows by e^1000,
    # past double range (e^709), so the rescaling between chunks must act
    q, z, start = _CONJ_POTENTIALS[kind], -2500.0 + 1.0j, 20.0
    assert sqrt_upper(z - q.tail).imag * start > 1000.0
    # the truncated seed and the tail-matched one, (1, -kappa) with kappa = -i sqrt(z - tail)
    for seed in ((0j, 1.0 + 0j), (1.0 + 0j, 1j * sqrt_upper(z - q.tail))):
        y, yp, _ = slsolve._endpoint(q, z, start, seed, 1e-10)
        mirror = slsolve._endpoint(q, z.conjugate(), start, tuple(v.conjugate() for v in seed), 1e-10)
        assert _bits(*mirror[:2]) == _bits(y.conjugate(), yp.conjugate())


def test_interval_M_conjugate_symmetry():
    # below the axis fundamental_system propagates z itself: integrate_ivp at z,
    # the route a grid request's mirror skips, has its bits
    z = 0.7 - 1.3j
    for q in _CONJ_POTENTIALS.values():
        u1b, u1pb, u2b, u2pb, dirichlet_count = fundamental_system(q, math.pi, z)
        (u1, u1p, _), (u2, u2p, _) = (integrate_ivp(q, z, y0, (0.0, math.pi)) for y0 in ((1.0, 0.0), (0.0, 1.0)))
        assert _bits(u1b, u2b, u1pb, u2pb) == _bits(u1, u2, u1p, u2p)
        assert dirichlet_count == 0
        m = finite_interval_M(q, math.pi, z)
        assert _bits(*m.data) == _bits(-u1 / u2, 1.0 / u2, 1.0 / u2, -u2p / u2)


def test_errors_at_mirrored_points_name_the_requested_z():
    # models.evaluate propagates the z it is asked for, so its errors name that z
    with pytest.raises(AccuracyError, match=re.escape("insufficient for z=(1-0.05j)")):
        models.evaluate(models.half_line(PotentialSpec.expression("exp(-x)")), 1 - 0.05j)
    # sqrt(1 - x) has a branch point at b = 1, which the Magnus levels do not resolve
    with pytest.raises(AccuracyError, match=re.escape("not resolved at z=(1-1j)")):
        models.evaluate(models.finite_interval(PotentialSpec.expression("sqrt(1 - x)"), 1.0), 1 - 1j)


@pytest.mark.parametrize("kind", sorted(_CONJ_POTENTIALS))
def test_mirror_has_the_bits_of_the_direct_route(kind):
    # a grid request answers conj z as M(z)*; models.evaluate at conj z
    # propagates conj z itself, so the mirror saves work and changes no bit
    q = _CONJ_POTENTIALS[kind]
    for model in (models.half_line(q), models.half_line(q, 1.5), models.finite_interval(q, math.pi)):
        for z in (2.0 + 1.0j, -5.0 + 0.3j, 0.5 + 4.0j, 0.7 + 1.3j):
            mirrored = models.evaluate(model, z).conjugate()
            assert _bits(*mirrored.data) == _bits(*models.evaluate(model, z.conjugate()).data), (model, z)


def test_only_the_ode_kinds_are_mirrored():
    kinds = {cls for cls in models.WeylModel.__subclasses__() if cls.mirrored}
    assert kinds == {models.HalfLine, models.FiniteInterval}
    # a class constant, not a field a problem file or a caller could set
    assert all("mirrored" not in cls._fields for cls in models.WeylModel.__subclasses__())


@pytest.mark.parametrize("z", [1e27j, 1e30j, 1e27 + 1e27j])
@pytest.mark.parametrize("h", [None, 1.5])
def test_huge_nonreal_z_is_no_reference_eigenvalue(z, h):
    # |m| = |sqrt z| passes 1e13 |y(0)|, which a real z would take for y(0) = 0
    m = 1j * sqrt_upper(z)
    want = m if h is None else models.h_map(m, h)
    got = models.evaluate(models.half_line(Q0, h), z).at(0, 0)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_boundary_ratio_refuses_a_vanishing_y0_at_real_z_only():
    with pytest.raises(PoleError, match="eigenvalue of the reference Dirichlet problem"):
        slsolve.boundary_ratio(1e-14 + 0j, 1.0 + 0j, -2.0 + 0j)
    assert slsolve.boundary_ratio(1e-14 + 0j, 1.0 + 0j, -2.0 + 1e-3j) == 1e14


def test_conjugate_pairs_are_propagated_once(monkeypatch, tmp_path):
    # an eval or charfn grid integrates each pair of interval and half-line
    # points only at the one met first, lower (as in the benchmark's grids) or
    # upper, and writes what evaluating every point on its own writes
    seen = []
    propagate = slsolve.integrate_ivp
    monkeypatch.setattr(slsolve, "integrate_ivp", lambda q, z, *rest, **kw: seen.append(z) or propagate(q, z, *rest, **kw))
    table = {"kind": "sampled_table", "nodes": [0.0, 1.0, 2.0], "values": [0.375, -1.625, 0.0]}
    f, out = tmp_path / "p.json", tmp_path / "o.json"
    # the interval propagates u1 and u2; the half line one chunk from x = 2
    for cls, model, boundary, per_z in (
            (models.FiniteInterval, {"kind": "finite_interval", "b": 2.0, "potential": table},
             [[0.3, 0.1], [0.1, [0.5, 0.8]]], 2),
            (models.HalfLine, {"kind": "half_line", "potential": table}, [0.5, 0.8], 1)):
        f.write_text(json.dumps({"model": model, "boundary": boundary}))
        for grid, first in (("3:3:1,-0.5:0.5:2", 3.0 - 0.5j), ("-1:-1:1,2:-2:2", -1.0 + 2.0j)):
            for cmd in ("eval", "charfn"):
                argv = [cmd, "--problem", str(f), f"--grid={grid}", "--out", str(out)]
                seen.clear()
                assert cli.main(argv) == 0
                assert seen == [first] * per_z, (model["kind"], grid, cmd)
                paired = out.read_text()
                with monkeypatch.context() as m:
                    m.setattr(cls, "mirrored", False)
                    assert cli.main(argv) == 0
                assert paired == out.read_text(), (model["kind"], grid, cmd)
                if cmd == "eval":
                    a, b = ([complex(*v) for row in r["M"] for v in row] for r in json.loads(paired)["rows"])
                    assert _bits(*b) == _bits(*(v.conjugate() for v in a))


@pytest.mark.parametrize("model", [models.finite_interval(_CONJ_POTENTIALS["square_well"], 2.0),
                                   models.half_line(_CONJ_POTENTIALS["square_well"])], ids=lambda m: m.kind)
def test_no_per_z_state_outlives_an_evaluation(model):
    # a process-wide cache of propagations would keep every z's solutions
    zs = [complex(-3.0 + 0.013 * k, (-1) ** k * (0.2 + 0.01 * k)) for k in range(500)]
    models.evaluate(model, 7.0 + 1.0j)  # what a first call sets up once comes before the baseline
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for z in zs:
            models.evaluate(model, z)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 64 * 1024, held


def test_fundamental_system_det_relation():
    # constant Wronskian: det Y0(z) vanishes exactly at Dirichlet eigenvalues
    u1b, _, u2b, _, _ = fundamental_system(Q0, math.pi, 0.25)
    d = 1.0 * u2b - 0.0 * u1b  # Y0 = [[1, 0], [u1(b), u2(b)]]
    # u2(pi; z=1/4) = sin(pi/2)/(1/2) = 2
    assert abs(d - 2.0) < 1e-8


def test_halfline_m_closed_form():
    assert abs(halfline_m(Q0, -1.0) + 1.0) < 1e-9
    v = halfline_m(Q0, 1j)
    assert abs(v - 1j * cmath.exp(1j * math.pi / 4)) < 1e-9


def test_halfline_mh_family():
    z = -0.5 + 1.2j
    mi = halfline_m(Q0, z)
    for h in (-2.0, -0.5, 1.5, 3.0):
        mh = _halfline_mh(Q0, h, z)
        assert abs(mh * (mi - h) - (1.0 - h * mi)) < 1e-10
    # m_inf(-4) = -2 for q = 0, so z = -4 is the pole of the member h = -2
    with pytest.raises(PoleError, match="pole of the h-triplet family"):
        _halfline_mh(PotentialSpec.zero(), -2.0, -4.0)
    # h = +-1 has m_h = -h at every z: not a member
    for h in (1.0, -1.0):
        with pytest.raises(EvalError) as exc:
            models.half_line(Q0, h)
        assert exc.value.field == "h"


def test_halfline_truncation_error_contract():
    # z too close to the essential spectrum for L = 40: explicit error
    with pytest.raises(AccuracyError, match="truncation at L=40.0 insufficient"):
        halfline_m(Q0, 25.0 + 0.05j, L=40.0)
    # z on it: the same refusal as without L
    with pytest.raises(AccuracyError, match="essential spectrum"):
        halfline_m(Q0, 2.0, L=40.0)


def test_truncation_length_caps():
    # no constant tail: a Dirichlet truncation at an auto L within the cap
    y, yp, error = decaying_solution(PotentialSpec.expression("0*x"), -0.25)
    assert 0.0 < error < 1e-12
    assert abs(yp / y + 0.5) < 1e-9
    assert decaying_solution(Q0, -0.25)[2] == 0.0  # tail-matched


def test_halfline_deep_imaginary_renormalized():
    # large Im sqrt(z) L exercises the chunked rescaling
    z = 400j
    v = halfline_m(Q0, z)
    assert abs(v - 1j * sqrt_upper(z)) < 1e-6 * abs(v)


def test_exact_tail_route_matches_truncated():
    q = PotentialSpec.square_well(-1.0, 1.2)
    z = -0.3
    a = halfline_m(q, z)
    b = halfline_m_exact_tail(q, z)
    assert abs(a - b) < 1e-8


def test_well_herglotz_samples():
    q = PotentialSpec.square_well(-2.0, 1.0)
    for z in (0.5 + 1j, -1 + 0.5j, 2j, -3 + 2j):
        m = halfline_m(q, z)
        assert m.imag > 0


def test_potential_kinds():
    t = PotentialSpec.table([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert t.value(0.5) == 0.5
    assert t.value(5.0) == 0.0
    e = PotentialSpec.expression("x^2")
    assert e.value(3.0) == 9.0
    with pytest.raises(EvalError):
        PotentialSpec.table([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(EvalError):
        PotentialSpec.square_well(-1.0, 0.0)


def test_expression_tail_must_settle():
    for src in ("x", "sin(x)"):
        with pytest.raises(EvalError):
            models.half_line(PotentialSpec.expression(src))
    for src in ("1/(1+x^2)", "-1.7*exp(-x/0.8)"):
        q = PotentialSpec.expression(src)
        assert models.half_line(q).ess_floor == q.value(1e6)


def test_cell_average_square_well():
    q = PotentialSpec.square_well(-2.0, 1.0)
    assert q.cell_average(0.9, 1.1) == pytest.approx(-1.0)
    assert q.cell_average(0.0, 0.5) == pytest.approx(-2.0)
    assert q.cell_average(1.5, 2.0) == 0.0


# -- exact transfer on the constant pieces of q ---------------------------------------


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _m_h(m_inf, h):
    return m_inf if h is None else (1.0 - h * m_inf) / (m_inf - h)


def _halfline_mh(q, h, z):
    """m_h(z) of the half line's h family, as the model answers it."""
    return models.half_line(q, h).M(z).at(0, 0)


def _well_m_closed_form(depth, width, z):
    """m_inf of q = depth on [0, width), 0 beyond: match exp(-kappa x) at the edge."""
    kappa = -1j * sqrt_upper(complex(z))
    k = cmath.sqrt(depth - complex(z))
    t_over_k = cmath.tanh(k * width) / k if k != 0 else width
    return -(k * k * t_over_k + kappa) / (1.0 + kappa * t_over_k)


EXACT_ZS = (1j, 5 + 1j, -20 + 0.3j, 3 + 0.2j, 0.5 + 0.05j, -2.5, 400j, -400.0)


@pytest.mark.parametrize("h", [None, -1.5, 0.7, 3.0])
def test_halfline_zero_matches_closed_form(h):
    for z in EXACT_ZS:
        want = _m_h(1j * sqrt_upper(z), h)
        assert _rel(_halfline_mh(Q0, h, z), want) < 1e-11, z


def test_halfline_zero_near_positive_axis():
    # tail matching has no truncation, so no AccuracyError blind zone here
    z = 3 + 0.2j
    assert abs(halfline_m(Q0, z) - 1j * sqrt_upper(z)) < 1e-12


@pytest.mark.parametrize("h", [None, -1.5, 0.7])
@pytest.mark.parametrize("depth,width", [(-2.0, 1.0), (-1.0, 1.2), (-2.5, 1.0), (3.0, 0.7)])
def test_halfline_square_well_matches_closed_form(depth, width, h):
    q = PotentialSpec.square_well(depth, width)
    for z in EXACT_ZS:
        want = _m_h(_well_m_closed_form(depth, width, z), h)
        got = _halfline_mh(q, h, z)
        assert math.isfinite(abs(got))
        assert _rel(got, want) < 1e-11, z


def test_square_well_never_evaluates_q(monkeypatch):
    # zero and square_well are constant piecewise: no mesh, which samples q, is built
    def no_sampling(self, x):
        raise AssertionError("q sampled on a constant piece")

    monkeypatch.setattr(PotentialSpec, "value", no_sampling)
    q = PotentialSpec.square_well(-2.0, 1.0)
    halfline_m(q, 1 + 1j)
    models.m_at_zero(models.half_line(q))
    finite_interval_M(q, 2.0, -1 + 0.5j)
    finite_interval_M(Q0, math.pi, 2 + 1j)


@pytest.mark.parametrize("z", [-1.0, 2 + 1j, -3 + 0.5j, 0.3 + 4j, -400.0, 400j])
def test_interval_zero_matches_coth_csch(z):
    b = math.pi
    k = -1j * sqrt_upper(complex(z))  # k^2 = -z, Re k >= 0
    coth = cmath.cosh(k * b) / cmath.sinh(k * b)
    csch = 1.0 / cmath.sinh(k * b)
    m = finite_interval_M(Q0, b, z)
    assert _rel(m.at(0, 0), -k * coth) < 1e-11
    assert _rel(m.at(1, 1), -k * coth) < 1e-11
    assert _rel(m.at(0, 1), k * csch) < 1e-11


@pytest.mark.parametrize("b", [1e-10, 1e-8])
def test_short_interval_is_no_pole_at_a_nonreal_z(b):
    # u2(b) is about b here; a pole bound that did not shrink with b refused every z
    z = 1 + 1j
    k = cmath.sqrt(z)
    cot = cmath.cos(k * b) / cmath.sin(k * b)
    csc = 1.0 / cmath.sin(k * b)
    m = models.evaluate(models.finite_interval(Q0, b), z)
    assert _rel(m.at(0, 0), -k * cot) <= 1e-9
    assert _rel(m.at(1, 1), -k * cot) <= 1e-9
    assert _rel(m.at(0, 1), k * csc) <= 1e-9
    assert _rel(m.at(1, 0), k * csc) <= 1e-9


def test_interval_pole_at_a_real_dirichlet_eigenvalue_of_b_2():
    with pytest.raises(PoleError):
        models.evaluate(models.finite_interval(Q0, 2.0), (math.pi / 2) ** 2)


def test_potential_pieces():
    well = PotentialSpec.square_well(-2.0, 1.0)
    assert well.pieces(-1.0, 3.0) == [(-1.0, 0.0, 0.0), (0.0, 1.0, -2.0), (1.0, 3.0, 0.0)]
    assert Q0.pieces(0.0, 5.0) == [(0.0, 5.0, 0.0)]
    t = PotentialSpec.table([0.0, 1.0, 2.0, 3.0, 4.0], [-2.0, -2.0, 0.0, 0.5, 0.5])
    assert t.pieces(-1.0, 6.0) == [
        (-1.0, 1.0, -2.0), (1.0, 2.0, None), (2.0, 3.0, None), (3.0, 6.0, 0.5)
    ]
    assert PotentialSpec.expression("x^2").pieces(0.0, 1.0) == [(0.0, 1.0, None)]
    assert tail_support(t) == 3.0
    assert tail_support(well) == 1.0
    assert tail_support(PotentialSpec.expression("exp(-x)")) is None
    # the tails, and where they start, of every kind, with the sign of a zero tail
    assert _bits(Q0.tail, well.tail, t.tail) == _bits(0.0, 0.0, 0.5)
    assert tail_support(Q0) == 0.0 and tail_support(PotentialSpec.square_well(0.0, 1.0)) == 0.0
    below = PotentialSpec.table([-3.0, -1.0], [1.0, -0.0])  # constant from x = -1 on
    assert tail_support(below) == 0.0 and _bits(below.tail) == _bits(-0.0)
    mixed = PotentialSpec.table([0.0, 1.0, 2.0], [1.0, -0.0, 0.0])  # one constant piece from x = 1 on
    assert tail_support(mixed) == 1.0 and _bits(mixed.tail) == _bits(0.0)
    decaying = PotentialSpec.expression("2 + exp(-x)")
    assert tail_support(decaying) is None and decaying.tail == decaying.value(1e6) == 2.0


def _reference_pieces(q, a, b):
    """pieces(a, b) as it was computed before the whole-line table: the
    pieces of _form clipped to [a, b], equal neighbouring constants merged."""
    breaks, consts = q._form
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


@st.composite
def _any_potentials(draw):
    """A potential of each kind; a table's values come from a small set, so that
    flat segments, sloped ones and runs of equal neighbours all occur."""
    kind = draw(st.sampled_from(["zero", "square_well", "expression", "table"]))
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "square_well":
        return PotentialSpec.square_well(draw(st.sampled_from([-2.0, 0.0, -0.0, 1.5])), draw(st.floats(0.1, 5.0)))
    if kind == "expression":
        return PotentialSpec.expression("exp(-x)")
    nodes = [draw(st.floats(-5.0, 5.0))]
    for step in draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=7)):
        nodes.append(nodes[-1] + step)
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, -0.0, 0.5, 2.0]), min_size=len(nodes), max_size=len(nodes)))
    return PotentialSpec.table(nodes, values)


_SPAN_ENDS = st.one_of(st.sampled_from([-math.inf, math.inf, 0.0]), st.floats(-12.0, 12.0))


@settings(max_examples=400, deadline=None)
@given(_any_potentials(), _SPAN_ENDS, _SPAN_ENDS)
def test_pieces_clip_the_whole_line_table(q, a, b):
    a, b = min(a, b), max(a, b)
    assume(a < b)
    assert q.pieces(a, b) == _reference_pieces(q, a, b)
    assert q.pieces(-math.inf, math.inf) == _reference_pieces(q, -math.inf, math.inf)


def _counting_form_reads(cls):
    """A subclass of cls that counts the reads of its _form in `reads`."""

    class Counting(cls):
        reads = 0

        @property
        def _form(self):
            type(self).reads += 1
            return self.__dict__["form"] if "form" in self.__dict__ else super()._form

        @_form.setter
        def _form(self, form):
            self.__dict__["form"] = form

    return Counting


@pytest.mark.parametrize("kind", sorted(_CONJ_POTENTIALS))
def test_the_piece_table_is_built_once_per_potential(kind):
    # every half-line M and every span reads the pieces of q; none derives them afresh
    base = _CONJ_POTENTIALS[kind]
    q = _counting_form_reads(type(base))(*(getattr(base, f) for f in base._fields))
    assert q.pieces(-1.0, 3.0) == base.pieces(-1.0, 3.0)

    def calls(z):
        assert halfline_m(q, z) == halfline_m(base, z)
        assert integrate_ivp(q, z, (1.0, 0.0), (0.0, 2.5)) == integrate_ivp(base, z, (1.0, 0.0), (0.0, 2.5))
        assert integrate_ivp(q, z, (0.0, 1.0), (3.0, -1.0)) == integrate_ivp(base, z, (0.0, 1.0), (3.0, -1.0))
        assert tail_support(q) == tail_support(base)

    calls(1j)
    reads = type(q).reads
    for z in (2.0 + 1.0j, -0.5 + 0.3j, -5.0 + 0.3j, 3.0 + 0.5j, 0.75j):
        calls(z)
    assert type(q).reads == reads <= 2, type(q).reads  # the table and the tail, each once


# m_inf(z) of q = -1.5 exp(-x/0.7): the decaying solution is J_nu(t), t = 2 b sqrt(a)
# exp(-x/(2b)), nu = 2 b kappa, kappa = -i sqrt_upper(z), so m = -(t0/2b) J_nu'(t0)/J_nu(t0);
# mpmath at 40 digits, at the corners of the benchmark's ode_grid range and at |z| = 400
EXP_WELL_M = [
    ((-3.6 + 0.6j), (-1.6054883810159983 + 0.17704630170153665j)),
    ((-3.6 + 2.1j), (-1.69220977204303 + 0.5923989605281246j)),
    ((-3.6 - 0.6j), (-1.6054883810159983 - 0.17704630170153665j)),
    ((-3.6 - 2.1j), (-1.69220977204303 - 0.5923989605281246j)),
    ((1.7 + 0.6j), (-0.005710756971061646 + 1.7189474432572918j)),
    ((1.7 + 2.1j), (-0.4733590271117741 + 1.7660073631089581j)),
    ((1.7 - 0.6j), (-0.005710756971061646 - 1.7189474432572918j)),
    ((1.7 - 2.1j), (-0.4733590271117741 - 1.7660073631089581j)),
    (400j, (-14.115671504565807 + 14.16737114292737j)),
    (-400.0, -19.963762464746413),
    ((240 + 320j), (-8.926777195924261 + 17.921004589844916j)),
]


@pytest.mark.parametrize("z,want", EXP_WELL_M)
def test_exponential_well_matches_bessel_closed_form(z, want):
    q = PotentialSpec.expression("-1.5*exp(-x/0.7)")
    got = halfline_m(q, z)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_table_with_constant_tail_matches_truncated_route():
    # constant -2 on [0, 1], linear to 0 on [1, 2], 0 beyond: a mesh on [1, 2] only
    q = PotentialSpec.table([0.0, 1.0, 2.0], [-2.0, -2.0, 0.0])
    for z in (1j, -0.4 + 0.3j, -1.5, 2 + 0.5j):
        exact = halfline_m_exact_tail(q, z)
        truncated = halfline_m(q, z, L=100.0, rtol=1e-12)
        assert _rel(exact, truncated) < 1e-9, z


def test_constant_table_has_the_constant_closed_form():
    q = PotentialSpec.table([0.0, 2.0], [0.75, 0.75])
    assert tail_support(q) == 0.0
    for z in (1j, -3.0, 2 + 0.1j):
        assert _rel(halfline_m(q, z), 1j * sqrt_upper(z - 0.75)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    depth=st.floats(-6.0, 4.0),
    width=st.floats(0.1, 3.0),
    re=st.floats(-8.0, 8.0),
    im=st.floats(0.05, 6.0),
)
def test_square_well_property_closed_form(depth, width, re, im):
    # off the real axis m has no poles
    z = complex(re, im)
    q = PotentialSpec.square_well(depth, width)
    assert _rel(halfline_m(q, z), _well_m_closed_form(depth, width, z)) < 1e-11


def test_interval_overflow_is_an_error():
    # cosh(20 * 50) is beyond double range: a typed error, never NaN entries
    with pytest.raises(RangeError):
        finite_interval_M(Q0, 50.0, -400.0)
    m = finite_interval_M(Q0, 10.0, -400.0)  # e^200: large but representable
    assert _rel(m.at(0, 0), -20.0) < 1e-12 and 0.0 < m.at(0, 1).real < 1e-80


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


def _rk45_loop(q, z, y, yp, a, b, rtol, atol, samples):
    """Adaptive Dormand-Prince RK5(4) over the tableau, an independent reference propagator."""
    direction = 1.0 if b >= a else -1.0
    length = abs(b - a)
    qv = q.value

    def f(x, u, up):
        return up, (qv(x) - z) * u

    x = a
    h = direction * min(length / 50.0, 0.2)
    hmin = min(1e-14 * max(length, 1.0), 1e-3 * length)  # a span can be a few ulps long
    k = [None] * 7
    while (b - x) * direction > 0:
        last = abs(h) >= abs(b - x)
        if last:
            h = b - x
        k[0] = f(x, y, yp)
        rejected_nan = False
        for i in range(1, 7):
            ai = _DP_A[i]
            su = 0j
            sp = 0j
            for j in range(i):
                su += ai[j] * k[j][0]
                sp += ai[j] * k[j][1]
            k[i] = f(x + _DP_C[i] * h, y + h * su, yp + h * sp)
        su = 0j
        sp = 0j
        for j in range(6):
            su += _DP_A[6][j] * k[j][0]
            sp += _DP_A[6][j] * k[j][1]
        y_new = y + h * su
        yp_new = yp + h * sp
        eu = 0j
        ep = 0j
        for j in range(7):
            eu += _DP_E[j] * k[j][0]
            ep += _DP_E[j] * k[j][1]
        eu *= h
        ep *= h
        bad = not (
            math.isfinite(y_new.real) and math.isfinite(y_new.imag)
            and math.isfinite(yp_new.real) and math.isfinite(yp_new.imag)
        )
        if bad:
            err = math.inf
            rejected_nan = True
        else:
            sc_u = atol + rtol * max(abs(y), abs(y_new))
            sc_p = atol + rtol * max(abs(yp), abs(yp_new))
            err = math.sqrt(0.5 * ((abs(eu) / sc_u) ** 2 + (abs(ep) / sc_p) ** 2))
        if err <= 1.0:
            x = b if last else x + h  # x + (b - x) can miss b by an ulp
            y, yp = y_new, yp_new
            if samples is not None:
                samples.append((x, y, yp))
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h *= max(0.2, grow)
        else:
            h *= 0.5 if rejected_nan else max(0.2, 0.9 * err ** -0.2)
        if abs(h) < hmin:
            raise ArithmeticError(f"step size underflow at x={x!r}")
    return y, yp


_RK45_ZS = [1j, -3.0 + 0.5j, 7.0 + 0.01j, 400j, -400.0, 240.0 + 320j]


@pytest.mark.parametrize("q,span", [
    (PotentialSpec.table([0.0, 2.0], [-1.5, 0.5]), (0.0, 2.0)),
    (PotentialSpec.table([0.0, 2.0], [-1.5, 0.5]), (2.0, 0.0)),
    (PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)"), (0.0, 6.0)),
    (PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)"), (6.0, 0.0)),
])
@pytest.mark.parametrize("z", _RK45_ZS)
def test_magnus_matches_the_rk45_reference(q, span, z):
    # the Magnus route at its default rtol against RK5(4) at rtol = 1e-13
    y0 = (0.3 - 0.2j, 1.0 + 0j)
    ref = _rk45_loop(q, complex(z), *y0, *span, 1e-13, 1e-13, None)
    got = integrate_ivp(q, z, y0, span)
    scale = max(abs(ref[0]), abs(ref[1]))
    assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-10 * scale


@st.composite
def _varying_potentials(draw):
    """(q, lo, hi): a*exp(-x/b) + c*sin(k*x), or a table of 2 to 6 nodes, with
    the stretch [lo, hi] that spans draw from, a little beyond x = 0 and the
    table's end nodes."""
    def coef(lo, hi):
        return draw(st.integers(lo, hi)) / 100

    if draw(st.booleans()):
        a, b, c, k = coef(-300, 300), coef(30, 300), coef(-100, 100), coef(50, 400)
        return PotentialSpec.expression(f"{a}*exp(-x/{b}) + {c}*sin({k}*x)"), -0.5, 3.0
    nodes = [0.0]
    for step in draw(st.lists(st.integers(20, 100), min_size=1, max_size=5)):
        nodes.append(nodes[-1] + step / 100)
    return PotentialSpec.table(nodes, [coef(-300, 300) for _ in nodes]), -0.5, nodes[-1] + 0.5


@given(potential=_varying_potentials(), ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       re=st.floats(-10.0, 10.0), im=st.floats(-5.0, 5.0))
def test_magnus_agrees_with_rk45_on_random_potentials(potential, ends, re, im):
    # the answer at the default rtol = 1e-10 against RK5(4) at rtol = 1e-13, forward
    # and backward; the reference restarts at each kink of a table, which its
    # error estimate does not see (stepped across them it can miss by 3e-10)
    q, lo, hi = potential
    a, b = (lo + t * (hi - lo) for t in ends)
    assume(abs(b - a) >= 0.05)
    z, y0 = complex(re, im), (0.3 - 0.2j, 1.0 + 0j)
    ref = y0
    pieces = q.pieces(min(a, b), max(a, b))
    for start, end, _c in (pieces if b > a else [(p1, p0, c) for p0, p1, c in reversed(pieces)]):
        ref = _rk45_loop(q, z, *ref, start, end, 1e-13, 1e-13, None)
    got = integrate_ivp(q, z, y0, (a, b))
    scale = max(abs(ref[0]), abs(ref[1]))
    assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-10 * scale


@pytest.mark.parametrize("z", [1j, -3.0 + 0.5j])
def test_magnus_step_is_of_order_six(z):
    # each halving of the mesh cuts the error of a sweep 2^6 = 64-fold; a 4th-order
    # step would cut it 16-fold
    q = PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)")
    y0 = (0.3 - 0.2j, 1.0 + 0j)
    ref = _rk45_loop(q, complex(z), *y0, 0.0, 6.0, 1e-13, 1e-13, None)
    mesh = slsolve._mesh(q, 0.0, math.inf)
    errors = []
    for level in range(3):
        y, yp, _ = mesh.sweep(complex(z), *y0, 0.0, 6.0, level)
        errors.append(max(abs(y - ref[0]), abs(yp - ref[1])))
    assert errors[0] >= 40.0 * errors[1] and errors[1] >= 40.0 * errors[2], errors


@pytest.mark.parametrize("z", [3 + 0.5j, 2 + 1j])
def test_magnus_step_is_time_symmetric(z):
    # stepped back over the same subcells, each step is the inverse of the forward one;
    # the span cuts base cells at both ends
    q = PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)")
    mesh = slsolve._mesh(q, 0.0, math.inf)
    y0 = (0.3 - 0.2j, 1.0 + 0j)
    y, yp, _ = mesh.sweep(z, *y0, 0.3, 4.1, 0)
    back = mesh.sweep(z, y, yp, 4.1, 0.3, 0)
    assert max(abs(back[0] - y0[0]), abs(back[1] - y0[1])) <= 1e-13 * max(abs(y0[0]), abs(y0[1]))


_ODE_GRID_NODES = [0.5 * i for i in range(7)]


# the varying potentials of the ode_grid workload (seed 7), swept back from x = L
# as the half-line route sweeps them
_ODE_GRID_POTENTIALS = [
    (PotentialSpec.table(_ODE_GRID_NODES,
                         [round(-0.8474 * math.exp(-x), 6) for x in _ODE_GRID_NODES[:-1]] + [0.0]), 3.0),
    (PotentialSpec.expression("-1.2865*exp(-x/0.7955)"), 20.0),
]
_ODE_GRID_ZS = [-3.4 + 1.1j, -1.7 - 0.6j, -0.2 + 1.3j, 0.5 - 2.0j, 1.4 + 0.7j, 1.7 + 1.9j, -3.0, -0.4, 1.2]


@pytest.mark.parametrize("q,L", _ODE_GRID_POTENTIALS)
@pytest.mark.parametrize("z", _ODE_GRID_ZS)
def test_magnus_accepted_answer_is_within_rtol(q, L, z):
    # the answer accepted on each varying piece, at the default rtol = 1e-10
    y0 = (0j, 1.0 + 0j)
    for lo, hi, c in q.pieces(0.0, L):
        assert c is None
        ref = _rk45_loop(q, complex(z), *y0, hi, lo, 1e-13, 1e-13, None)
        got = integrate_ivp(q, z, y0, (hi, lo))
        scale = max(abs(ref[0]), abs(ref[1]))
        assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-10 * scale, (lo, hi)


@pytest.mark.parametrize("b", [0.95, 0.7])
def test_magnus_mesh_samples_q_only_inside_the_span(b):
    # sqrt(1 - x) is not defined beyond x = 1, where the mesh would grade on
    q = PotentialSpec.expression("sqrt(1 - x)")
    y0 = (0.0, 1.0)
    ref = _rk45_loop(q, 1 + 1j, *y0, 0.0, b, 1e-13, 1e-13, None)
    got = integrate_ivp(q, 1 + 1j, y0, (0.0, b))
    assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-10 * max(abs(ref[0]), abs(ref[1]))


def test_magnus_mesh_refuses_to_extrapolate_at_a_branch_point():
    # at x = 1 the levels of sqrt(1 - x) converge like h^1.5, not h^6: |L_k - L_{k-1}|/63
    # falls below 1e-10 at level 4 while the result is off by 3e-9, so it is an error
    with pytest.raises(AccuracyError):
        integrate_ivp(PotentialSpec.expression("sqrt(1 - x)"), 1 + 1j, (0.0, 1.0), (0.0, 1.0))


def test_magnus_mesh_across_a_jump_and_a_pole():
    # -1 below x = 0.3 and 1 above is the square well of depth -2 shifted by 1
    jump = PotentialSpec.expression("abs(x-0.3)/(x-0.3)")
    got = integrate_ivp(jump, 1 + 1j, (0.0, 1.0), (0.0, 1.0))
    want = integrate_ivp(PotentialSpec.square_well(-2.0, 0.3), 1j, (0.0, 1.0), (0.0, 1.0))
    assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-9 * max(abs(want[0]), abs(want[1]))
    with pytest.raises(AccuracyError):
        integrate_ivp(PotentialSpec.expression("1/(x-0.3)"), 1 + 1j, (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("jump", [0.06, 0.2, 0.45])
def test_magnus_mesh_isolates_a_jump_above_cell_dq(jump):
    # -J/2 below x = 0.3 and J/2 above is the square well of depth -J shifted by J/2;
    # the mesh halves the base cell across the jump down to _CELL_MIN
    q = PotentialSpec.expression(f"({jump}/2)*abs(x-0.3)/(x-0.3)")
    got = integrate_ivp(q, 1 + 1j, (0.0, 1.0), (0.0, 1.0))
    want = integrate_ivp(PotentialSpec.square_well(-jump, 0.3), 1 + 1j - jump / 2, (0.0, 1.0), (0.0, 1.0))
    assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-10 * max(abs(want[0]), abs(want[1]))
    t = slsolve._mesh(q, 0.0, math.inf).t
    assert any(lo < 0.3 < hi and hi - lo <= slsolve._CELL_MIN for lo, hi in zip(t, t[1:]))


def test_magnus_work_on_the_ode_grid_potentials_is_pinned(monkeypatch):
    # the subcells stepped over the 63 pieces and z of test_magnus_accepted_answer_is_within_rtol,
    # and the last level of each call: the mesh graded for the 6th-order step accepts 61 answers
    # at level 1; the table's [0, 0.5] at 1.7+1.9i and the expression at 1.2 read estimates of
    # 1.3e-10 and 1.1e-10 there and take level 2 (the |dq| <= 0.05 mesh: 5,731 subcells and
    # levels 1, 2 and 3 on 29, 25 and 9 calls)
    counted = []
    sweep = slsolve._Mesh.sweep

    def counting(mesh, z, y, yp, a, b, level):
        out = sweep(mesh, z, y, yp, a, b, level)
        lo, hi = sorted(((a - mesh.origin) * mesh.dir, (b - mesh.origin) * mesh.dir))
        counted.append((level, (bisect_left(mesh.t, hi) - bisect_right(mesh.t, lo) + 1) << level))
        return out

    monkeypatch.setattr(slsolve._Mesh, "sweep", counting)
    last_levels = []
    for q, L in _ODE_GRID_POTENTIALS:
        for z in _ODE_GRID_ZS:
            for lo, hi, _c in q.pieces(0.0, L):
                start = len(counted)
                integrate_ivp(q, z, (0j, 1.0 + 0j), (hi, lo))
                last_levels.append(max(level for level, _n in counted[start:]))
    assert (last_levels.count(1), last_levels.count(2), len(last_levels)) == (61, 2, 63)
    assert sum(n for _level, n in counted) == 2772


@pytest.mark.parametrize("x", [-3.0, 0.5, 2.4, 2.5, 9.0, 10.0, 3000.0])
def test_interval_oscillation_counts_dirichlet_eigenvalues(x):
    # q = 0 on [0, 2]: Dirichlet eigenvalues (k pi/2)^2, k >= 1, and u2 = sin(w t)/w
    dirichlet_count = fundamental_system(Q0, 2.0, x)[4]
    assert dirichlet_count == sum(1 for k in range(1, 40) if (k * math.pi / 2.0) ** 2 < x)
    assert fundamental_system(Q0, 2.0, complex(x, 1.0))[4] == 0


@pytest.mark.parametrize("q,b,top", [
    (PotentialSpec.expression("3*cos(2*x) - 1"), 2.0, 400.0),
    # nearly constant: Magnus settles on coarse levels, whose cells turn several times
    (PotentialSpec.expression("0.001*x"), 3.0, 5000.0),
    (PotentialSpec.table([0.0, 0.3, 0.8, 1.1, 2.0], [4.0, -6.0, -6.0, 2.0, -1.0]), 2.0, 400.0),
])
def test_oscillation_count_on_varying_pieces_matches_the_oracle(q, b, top):
    # the zeros of u2 are the oracle's Sturm count wherever no eigenvalue is within 0.5 %
    op = oracle.discretize(q, b, 2000, None, None)
    checked = 0
    for k in range(40):
        x = -40.0 + k * (top + 40.0) / 39.0
        below, above = (oracle.eigen_count_below(op, x + s * 5e-3 * (1.0 + abs(x))) for s in (-1, 1))
        if below == above:
            assert fundamental_system(q, b, x)[4] == below, x
            checked += 1
    assert checked >= 25


@pytest.mark.parametrize("q,x,want", [
    # threshold-resonant well: its Dirichlet state near -2.6e-4 decays too slowly for
    # the oracle's box; y(0; 0) < 0 < y(1; 0) shows the zero
    (PotentialSpec.square_well(-2.5, 1.0), 0.0, 1),
    # oracle Dirichlet states -23.04 and -4.09
    (PotentialSpec.square_well(-30.0, 1.0), -1.0, 2),
    # truncated seed; oracle states -1.457 and one near -0.0025
    (PotentialSpec.expression("-8*exp(-x)"), -0.3, 1),
    # threshold route, seeded at the truncation cap; oracle -6.62, -1.43, -0.0087
    (PotentialSpec.expression("-20*exp(-x)"), 0.0, 3),
    (PotentialSpec.expression("-exp(-x)"), 0.0, 0),
    # the backward sweep spans two _endpoint chunks; the oracle (L = 40, n = 8000)
    # counts 2 at x (1 -/+ 5e-3)
    (PotentialSpec.expression("-200*exp(-x)"), -60.0, 2),
])
def test_halfline_oscillation_counts_dirichlet_states(q, x, want):
    assert halfline_oscillation(q, x)[0] == want


def test_interval_oscillation_agrees_with_the_sign_of_u2_at_its_zeros():
    # u2(b) > 0 exactly when u2 has an even number of zeros in (0, b), also
    # within the propagation error of a Dirichlet eigenvalue, where the finest
    # Magnus level and the extrapolated u2(b) may lie on either side of 0
    q, b = PotentialSpec.expression("3*cos(2*x) - 1"), 2.0
    for lo, hi in ((0.0, 0.5), (8.0, 8.6)):
        positive = fundamental_system(q, b, lo)[2].real > 0.0
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            if (fundamental_system(q, b, mid)[2].real > 0.0) == positive:
                lo = mid
            else:
                hi = mid
        for k in range(-20, 21):
            _, _, u2b, _, dirichlet_count = fundamental_system(q, b, lo * (1.0 + k * 1e-11))
            assert (u2b.real > 0.0) == (dirichlet_count % 2 == 0), k
