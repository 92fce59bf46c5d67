"""The known-defect ledger: one test per open defect of ROADMAP.md, each
asserting the right answer or the typed refusal that its item asks for.

Every test is a strict xfail naming its item, so the run lists what is still
wrong (`pytest -rxX tests/test_known_defects.py`), and a fix that makes one
pass fails the run until the change that made it removes the mark.  A truth
is a refusal, an exact closed form, a shifted square well, or a literal
computed once with mpmath at 30 to 60 digits (mpmath is no dependency of
the package), the method named at its test.
"""

import json
import math

import pytest

from weyl import charfun, extensions, models
from weyl.cli import main
from weyl.errors import AccuracyError
from weyl.linalg import Matrix
from weyl.slsolve import PotentialSpec, integrate_ivp

HUGE_B = [[1e160, 1e160], [1e160, 1e160]]


def _run(tmp_path, capsys, problem, argv):
    """(exit code, stdout, stderr) of the weyl command argv on problem."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    rc = main([argv[0], "--problem", str(path), *argv[1:]])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _half_line(source):
    """The half-line problem on the expression source with B = 0 (Neumann)."""
    return {"model": {"kind": "half_line", "potential": {"kind": "expression", "source": source}},
            "boundary": 0}


def _within(got, want, rtol):
    """Each entry of got within rtol of want's, relative to want's."""
    return all(abs(g - w) <= rtol * abs(w) for g, w in zip(got, want, strict=True))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_interval_spectrum_with_a_dwarfing_b_is_refused(tmp_path, capsys):
    # today: exit 0 and an eigenvalue at -3.1557020385953365 that rounding decided
    problem = {"model": {"kind": "finite_interval", "potential": {"kind": "zero"}, "b": 2}, "boundary": HUGE_B}
    rc, _, err = _run(tmp_path, capsys, problem, ["spectrum", "--window=-5:0.5"])
    assert rc == 1 and err.startswith("error:"), (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_operator_potential_negcount_with_a_dwarfing_b_is_refused(tmp_path, capsys):
    # today: kappa_M 0 and kappa_oracle null
    problem = {"model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]}, "boundary": HUGE_B}
    rc, _, err = _run(tmp_path, capsys, problem, ["negcount"])
    assert rc == 1 and err.startswith("error:"), (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_w_next_to_its_pole_is_refused():
    # B = Re M(-0.5) + 1e-10 i puts a pole of W 1e-10 from z = -0.5 + 1e-10 i; today
    # W there is returned 7.7e-3 off the Bessel closed form, with no error
    model = models.half_line(PotentialSpec.expression("-2*exp(-x)"))
    eps = 1e-10
    col = charfun.factor_colligation(Matrix.scalar(complex(models.evaluate(model, -0.5)[0].real, eps)))
    m = models.evaluate_matrix(model, complex(-0.5, eps))
    with pytest.raises(AccuracyError):
        charfun.char_function_from_m(col, m)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_magnus_mesh_answers_a_jump_below_cell_dq():
    # the 0.04 twin of test_magnus_mesh_isolates_a_jump_above_cell_dq; today an
    # AccuracyError at level 6 (estimate 5.989e-06)
    jump = 0.04
    q = PotentialSpec.expression(f"({jump}/2)*abs(x-0.3)/(x-0.3)")
    got = integrate_ivp(q, 1 + 1j, (0.0, 1.0), (0.0, 1.0))
    want = integrate_ivp(PotentialSpec.square_well(-jump, 0.3), 1 + 1j - jump / 2, (0.0, 1.0), (0.0, 1.0))
    assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-10 * max(abs(want[0]), abs(want[1]))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_long_span_at_large_negative_z_holds_rtol():
    # y'' = (q + 400) y from (y, y')(30) = (0, 1) back to 0.  Reference: Taylor
    # steps at 40 digits, 600 and 1200 of order 40 and 600 of order 60 agreeing
    # to 24 digits.  Today 1.96e-10 off in y and 1.45e-10 in y', relative, with
    # the estimate within rtol
    q = PotentialSpec.expression("0.5*sqrt(1+x)*exp(-x/4)")
    y, yp, _ = integrate_ivp(q, -400, (0.0, 1.0), (30.0, 0.0))
    assert _within((y, yp), (-1.0467013749105819e+259, 2.0947185403031477e+260), 1e-10), (y, yp)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_eigenvalue_near_zero_is_located_relative_to_its_size():
    # boundary_sweep seed 101, request 161; its second eigenvalue is x = 4 - s^2 with
    # sqrt(5) s^2 + b s + sqrt(5) (b - 5) = 0 in the channel a = 5, b = 0.5284; today
    # 0.0009586880121787882, 1.27e-8 relative off
    spec = extensions.ExtensionSpec(models.operator_potential_halfline([2.0, 5.0]),
                                    Matrix.diag([0.4942, 0.5284]))
    eigs = [x for x, _mult in extensions.point_spectrum_real(spec, (-5.0, 0.9)).eigenvalues]
    a, b, c = math.sqrt(5.0), 0.5284, math.sqrt(5.0) * (0.5284 - 5.0)
    s = 2.0 * c / (-b - math.sqrt(b * b - 4.0 * a * c))
    want = (2.0 - s) * (2.0 + s)
    assert len(eigs) == 2 and abs(eigs[1] - want) <= 1e-10 * abs(want), (eigs, want)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
@pytest.mark.parametrize("z, want", [
    (200 + 1j, 31.7256224249735 + 2.2605649124324283j),
    (400 + 100j, 71.09974462772102 + 104.64956848281665j),
    (1500 + 3j, -78.89356742696643 + 25.468597747277336j),
], ids=["200+1i", "400+100i", "1500+3i"])
def test_corner_at_large_z(z, want):
    # M(z) = -0F1(; 1 - beta; -z/4) / 0F1(; 1 + beta; -z/4) at beta = 0.75, at 60
    # digits, where it equals the Bessel quotient; today each z is an
    # AccuracyError (cancellation estimates 1.3e-10, 5.5e-9 and 6.4)
    got = models.evaluate(models.Corner(0.75), z)[0]
    assert abs(got - want) <= 1e-12 * abs(want), got


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_negcount_below_the_kneser_constant_names_kneser(tmp_path, capsys):
    # q ~ -0.5/x^2 with -0.5 < -1/4: infinitely many negative eigenvalues; today
    # "0 lies in the essential spectrum [-4.999999999995e-13, inf)"
    rc, _, err = _run(tmp_path, capsys, _half_line("-0.5/(1+x^2)"), ["negcount"])
    assert rc == 1 and err.startswith("error:") and "Kneser" in err, (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_negcount_on_a_positive_power_law_tail_is_zero(tmp_path, capsys):
    # q > 0 and Neumann at 0 give A_B >= 0; today "truncation at L=200.0
    # insufficient for z=0j (estimated error 9.997e-01)"
    rc, out, err = _run(tmp_path, capsys, _half_line("0.5/(1+x^2)"), ["negcount"])
    assert rc == 0 and json.loads(out)["kappa_M"] == 0, (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_negcount_on_an_exponential_tail_is_the_bessel_count(tmp_path, capsys):
    # with t = 12 e^(-x/12) and nu = 12 kappa, -y'' - e^(-x/6) y = -kappa^2 y is
    # Bessel's equation in t, so y'(0) = 0 is J'_nu(12) = 0: mpmath finds 4 zeros
    # in nu > 0, at 1.1976, 3.4863, 6.2202 and 10.2168 (a finite-difference count
    # at L = 400 and 600 agrees); today "M(0) did not settle by L = 200
    # (estimated error 6.911e-09)"
    rc, out, err = _run(tmp_path, capsys, _half_line("-exp(-x/6)"), ["negcount"])
    assert rc == 0 and json.loads(out)["kappa_M"] == 4, (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_magnus_at_large_z_holds_rtol():
    # (y, y')(2) from (0, 1) at 0, at z = 3e7 (about 1,740 periods).  Reference:
    # Taylor steps at 32 digits, 4000 of order 36 and 6000 of order 30 agreeing
    # to 22 digits.  Today an AccuracyError: the levels do not settle
    q = PotentialSpec.expression("-2*exp(-x/1.5) + 0.3*sin(3*x)")
    y, yp, _ = integrate_ivp(q, 3e7, (0.0, 1.0), (0.0, 2.0))
    want = (5.084685550115251e-05, -0.9604363038947169)
    assert max(abs(y - want[0]), abs(yp - want[1])) <= 1e-10 * max(map(abs, want)), (y, yp)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_branch_point_at_a_span_end_is_answered():
    # in t = 1 - x the equation is y_tt = (t^(1/2) - z) y, solved by two entire
    # series in t^(1/2), combined to meet (0, 1) at x = 0; at 40 digits they
    # agree with mpmath's odefun at x = 0.9 to 1e-40.  Today an AccuracyError
    # at level 6
    y, yp, _ = integrate_ivp(PotentialSpec.expression("sqrt(1-x)"), 1 + 1j, (0.0, 1.0), (0.0, 1.0))
    want = (0.9402638975947409 - 0.1612148233212244j, 0.7329022148102456 - 0.46457717670342397j)
    assert _within((y, yp), want, 1e-10), (y, yp)
