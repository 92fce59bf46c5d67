import cmath
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl import models
from weyl.errors import AccuracyError, EvalError, PoleError, RangeError, StiffnessError
from weyl.slsolve import (
    _DP_A,
    _DP_C,
    _DP_E,
    PotentialSpec,
    _rk45,
    finite_interval_M,
    fundamental_system,
    halfline_m,
    halfline_m_exact_tail,
    integrate_ivp,
    tail_support,
    truncation_length,
)
from weyl.specfun import sqrt_upper

Q0 = PotentialSpec.zero()


def test_ivp_linear_solution():
    y, yp = integrate_ivp(Q0, 0.0, (0.0, 1.0), (0.0, 1.0))
    assert abs(y - 1.0) < 1e-9 and abs(yp - 1.0) < 1e-9


def test_ivp_cosh():
    y, yp = integrate_ivp(Q0, -1.0, (1.0, 0.0), (0.0, 1.0))
    assert abs(y - math.cosh(1.0)) < 1e-8
    assert abs(yp - math.sinh(1.0)) < 1e-8


def test_ivp_cosine_full_period():
    y, yp = integrate_ivp(Q0, 4.0, (1.0, 0.0), (0.0, math.pi))
    assert abs(y - 1.0) < 1e-8
    assert abs(yp) < 1e-8


def test_ivp_backward_span():
    y, yp = integrate_ivp(Q0, -1.0, (math.cosh(1.0), math.sinh(1.0)), (1.0, 0.0))
    assert abs(y - 1.0) < 1e-8 and abs(yp) < 1e-8


def test_ivp_residual_along_trajectory():
    z = 2.0 + 1.0j
    q = PotentialSpec.expression("1/(1+x^2)")
    (_, _), samples = integrate_ivp(q, z, (1.0, 0.0), (0.0, 2.0), record=True)
    worst = 0.0
    for k in range(2, len(samples) - 2):
        x0, y0, _ = samples[k - 1]
        x1, y1, _ = samples[k]
        x2, y2, _ = samples[k + 1]
        if min(x1 - x0, x2 - x1) < 1e-6 or abs((x1 - x0) - (x2 - x1)) > 1e-12 * (x2 - x0):
            continue
        h = x1 - x0
        ypp = (y2 - 2 * y1 + y0) / (h * h)
        resid = ypp - (q.value(x1) - z) * y1
        worst = max(worst, abs(resid) / max(1.0, abs(y1)))
    assert worst <= 1e-7 or worst == 0.0


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


def test_halfline_truncation_error_contract():
    # z too close to the essential spectrum for L = 40: explicit error
    with pytest.raises(AccuracyError):
        halfline_m(Q0, None, 25.0 + 0.05j, L=40.0)


def test_truncation_length_caps():
    L, est = truncation_length(Q0, -0.25)
    assert L <= 200.0 and est < 1e-12


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
    # zero and square_well are constant piecewise: RK5(4), which samples q, never runs
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


def test_ivp_record_on_exact_pieces():
    q = PotentialSpec.square_well(-2.0, 1.0)
    (y, yp), samples = integrate_ivp(q, -0.5, (1.0, 0.0), (0.0, 3.0), record=True)
    assert [s[0] for s in samples] == [0.0, 1.0, 3.0]
    assert samples[-1][1:] == (y, yp)


def test_table_with_constant_tail_matches_truncated_route():
    # constant -2 on [0, 1], linear to 0 on [1, 2], 0 beyond: RK on [1, 2] only
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


def _rk45_loop(q, z, y, yp, a, b, rtol, atol, samples):
    """The tableau-loop Dormand-Prince integrator that _rk45 unrolls, kept as its reference."""
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
            raise StiffnessError("step size underflow", location=x)
    return y, yp


def _bits(values):
    out = []
    for v in values:
        v = complex(v)
        out.append(struct.pack("<dd", v.real, v.imag))
    return out


@pytest.mark.parametrize("q,span", [
    (PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)"), (0.0, 6.0)),
    (PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)"), (6.0, 0.0)),
    (PotentialSpec.table([0.0, 2.0], [-1.5, 0.5]), (0.0, 2.0)),
    (PotentialSpec.table([0.0, 2.0], [-1.5, 0.5]), (2.0, 0.0)),
])
@pytest.mark.parametrize("z", [1j, -3.0 + 0.5j, 7.0 + 0.01j, 400j, -400.0, 240.0 + 320j])
def test_unrolled_rk45_is_the_tableau_loop_to_the_bit(q, span, z):
    a, b = span
    y0 = (0.3 - 0.2j, 1.0 + 0j)
    for rtol in (1e-10, 1e-6):
        got_samples, ref_samples = [], []
        got = _rk45(q, complex(z), *y0, a, b, rtol, got_samples)
        ref = _rk45_loop(q, complex(z), *y0, a, b, rtol, rtol, ref_samples)
        assert _bits(got) == _bits(ref)
        assert len(got_samples) == len(ref_samples) > 5
        for (xg, *g), (xr, *r) in zip(got_samples, ref_samples):
            assert struct.pack("<d", xg) == struct.pack("<d", xr)
            assert _bits(g) == _bits(r)
    # the public propagator runs it for these pieces, and records the same steps
    (y, yp), samples = integrate_ivp(q, z, y0, span, record=True)
    ref_samples = [(a, *y0)]
    ref = _rk45_loop(q, complex(z), *y0, a, b, 1e-10, 1e-10, ref_samples)
    assert _bits((y, yp)) == _bits(ref)
    assert [(s[0], *_bits(s[1:])) for s in samples] == [(s[0], *_bits(s[1:])) for s in ref_samples]
