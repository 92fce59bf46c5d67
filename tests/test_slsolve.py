import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl import models, oracle
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


def test_interval_M_conjugate_symmetry():
    z = 0.7 + 1.3j
    a = finite_interval_M(Q0, math.pi, z.conjugate())
    b = finite_interval_M(Q0, math.pi, z).adjoint()
    assert (a - b).norm_fro() < 1e-9


def test_fundamental_system_det_relation():
    # constant Wronskian: det Y0(z) vanishes exactly at Dirichlet eigenvalues
    fs = fundamental_system(Q0, math.pi, 0.25)
    d = fs.Y0.at(0, 0) * fs.Y0.at(1, 1) - fs.Y0.at(0, 1) * fs.Y0.at(1, 0)
    # u2(pi; z=1/4) = sin(pi/2)/(1/2) = 2
    assert abs(d - 2.0) < 1e-8


def test_halfline_m_closed_form():
    assert abs(halfline_m(Q0, None, -1.0) + 1.0) < 1e-9
    v = halfline_m(Q0, None, 1j)
    assert abs(v - 1j * cmath.exp(1j * math.pi / 4)) < 1e-9


def test_halfline_mh_family():
    z = -0.5 + 1.2j
    mi = halfline_m(Q0, None, z)
    for h in (-2.0, -0.5, 1.0, 3.0):
        mh = halfline_m(Q0, h, z)
        assert abs(mh * (mi - h) - (1.0 - h * mi)) < 1e-10
    # m_inf(-1) = -1 for q = 0, so h = -1 is the pole of the family
    with pytest.raises(PoleError, match="pole of the h-triplet family"):
        halfline_m(PotentialSpec.zero(), -1.0, -1.0)


def test_halfline_truncation_error_contract():
    # z too close to the essential spectrum for L = 40: explicit error
    with pytest.raises(AccuracyError, match="truncation at L=40.0 insufficient"):
        halfline_m(Q0, None, 25.0 + 0.05j, L=40.0)
    # z on it: the same refusal as without L
    with pytest.raises(AccuracyError, match="essential spectrum"):
        halfline_m(Q0, None, 2.0, L=40.0)


def test_truncation_length_caps():
    # no constant tail: a Dirichlet truncation at an auto L within the cap
    y, yp, error = decaying_solution(PotentialSpec.expression("0*x"), -0.25)
    assert 0.0 < error < 1e-12
    assert abs(yp / y + 0.5) < 1e-9
    assert decaying_solution(Q0, -0.25)[2] == 0.0  # tail-matched


def test_halfline_deep_imaginary_renormalized():
    # large Im sqrt(z) L exercises the chunked rescaling
    z = 400j
    v = halfline_m(Q0, None, z)
    assert abs(v - 1j * sqrt_upper(z)) < 1e-6 * abs(v)


def test_exact_tail_route_matches_truncated():
    q = PotentialSpec.square_well(-1.0, 1.2)
    z = -0.3
    a = halfline_m(q, None, z)
    b = halfline_m_exact_tail(q, z)
    assert abs(a - b) < 1e-8


def test_well_herglotz_samples():
    q = PotentialSpec.square_well(-2.0, 1.0)
    for z in (0.5 + 1j, -1 + 0.5j, 2j, -3 + 2j):
        m = halfline_m(q, None, z)
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
        assert _rel(halfline_m(Q0, h, z), want) < 1e-11, z


def test_halfline_zero_near_positive_axis():
    # tail matching has no truncation, so no AccuracyError blind zone here
    z = 3 + 0.2j
    assert abs(halfline_m(Q0, None, z) - 1j * sqrt_upper(z)) < 1e-12


@pytest.mark.parametrize("h", [None, -1.5, 0.7])
@pytest.mark.parametrize("depth,width", [(-2.0, 1.0), (-1.0, 1.2), (-2.5, 1.0), (3.0, 0.7)])
def test_halfline_square_well_matches_closed_form(depth, width, h):
    q = PotentialSpec.square_well(depth, width)
    for z in EXACT_ZS:
        want = _m_h(_well_m_closed_form(depth, width, z), h)
        got = halfline_m(q, h, z)
        assert math.isfinite(abs(got))
        assert _rel(got, want) < 1e-11, z


def test_square_well_never_evaluates_q(monkeypatch):
    # zero and square_well are constant piecewise: no mesh, which samples q, is built
    def no_sampling(self, x):
        raise AssertionError("q sampled on a constant piece")

    monkeypatch.setattr(PotentialSpec, "value", no_sampling)
    q = PotentialSpec.square_well(-2.0, 1.0)
    halfline_m(q, None, 1 + 1j)
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
    got = halfline_m(q, None, z)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_table_with_constant_tail_matches_truncated_route():
    # constant -2 on [0, 1], linear to 0 on [1, 2], 0 beyond: a mesh on [1, 2] only
    q = PotentialSpec.table([0.0, 1.0, 2.0], [-2.0, -2.0, 0.0])
    for z in (1j, -0.4 + 0.3j, -1.5, 2 + 0.5j):
        exact = halfline_m_exact_tail(q, z)
        truncated = halfline_m(q, None, z, L=100.0, rtol=1e-12)
        assert _rel(exact, truncated) < 1e-9, z


def test_constant_table_is_constant_potential():
    q = PotentialSpec.table([0.0, 2.0], [0.75, 0.75])
    assert tail_support(q) == 0.0
    for z in (1j, -3.0, 2 + 0.1j):
        assert _rel(halfline_m(q, None, z), 1j * sqrt_upper(z - 0.75)) < 1e-12


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
    assert _rel(halfline_m(q, None, z), _well_m_closed_form(depth, width, z)) < 1e-11


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
    hmin = 1e-14 * max(length, 1.0)
    k = [None] * 7
    while (b - x) * direction > 0:
        if abs(h) > abs(b - x):
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
            x += h
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


@pytest.mark.parametrize("q,span", [
    (PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)"), (0.0, 6.0)),
    (PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)"), (6.0, 0.0)),
    (PotentialSpec.table([0.0, 2.0], [-1.5, 0.5]), (0.0, 2.0)),
    (PotentialSpec.table([0.0, 2.0], [-1.5, 0.5]), (2.0, 0.0)),
])
@pytest.mark.parametrize("z", [1j, -3.0 + 0.5j, 7.0 + 0.01j, 400j, -400.0, 240.0 + 320j])
def test_unrolled_rk45_is_the_tableau_loop_to_the_bit(q, span, z):
    # the name is kept from when integrate_ivp ran an unrolled RK5(4) on these
    # pieces, equal to _rk45_loop bit for bit; it now checks the Magnus route at
    # its default rtol against RK5(4) at rtol = 1e-13
    y0 = (0.3 - 0.2j, 1.0 + 0j)
    ref = _rk45_loop(q, complex(z), *y0, *span, 1e-13, 1e-13, None)
    got = integrate_ivp(q, z, y0, span)
    scale = max(abs(ref[0]), abs(ref[1]))
    assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-10 * scale


@pytest.mark.parametrize("b", [0.95, 0.7])
def test_magnus_mesh_samples_q_only_inside_the_span(b):
    # sqrt(1 - x) is not defined beyond x = 1, where the mesh would grade on
    q = PotentialSpec.expression("sqrt(1 - x)")
    y0 = (0.0, 1.0)
    ref = _rk45_loop(q, 1 + 1j, *y0, 0.0, b, 1e-13, 1e-13, None)
    got = integrate_ivp(q, 1 + 1j, y0, (0.0, b))
    assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-10 * max(abs(ref[0]), abs(ref[1]))


def test_magnus_mesh_refuses_to_extrapolate_at_a_branch_point():
    # at x = 1 the levels of sqrt(1 - x) converge like h^1.5, not h^4: the h^4, h^6
    # extrapolants agree to 1e-10 while the result is off by 3e-9, so it is an error
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


@pytest.mark.parametrize("x", [-3.0, 0.5, 2.4, 2.5, 9.0, 10.0, 3000.0])
def test_interval_oscillation_counts_dirichlet_eigenvalues(x):
    # q = 0 on [0, 2]: Dirichlet eigenvalues (k pi/2)^2, k >= 1, and u2 = sin(w t)/w
    fs = fundamental_system(Q0, 2.0, x)
    assert fs.dirichlet_count == sum(1 for k in range(1, 40) if (k * math.pi / 2.0) ** 2 < x)
    assert fundamental_system(Q0, 2.0, complex(x, 1.0)).dirichlet_count == 0


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
            assert fundamental_system(q, b, x).dirichlet_count == below, x
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
        positive = fundamental_system(q, b, lo).Y0.at(1, 1).real > 0.0
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            if (fundamental_system(q, b, mid).Y0.at(1, 1).real > 0.0) == positive:
                lo = mid
            else:
                hi = mid
        for k in range(-20, 21):
            fs = fundamental_system(q, b, lo * (1.0 + k * 1e-11))
            assert (fs.Y0.at(1, 1).real > 0.0) == (fs.dirichlet_count % 2 == 0), k
