import cmath
import math

import pytest

from weyl import models
from weyl.errors import AccuracyError, EvalError, PoleError
from weyl.slsolve import (
    PotentialSpec,
    finite_interval_M,
    fundamental_system,
    halfline_m,
    halfline_m_exact_tail,
    integrate_ivp,
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
