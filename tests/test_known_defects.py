"""The known-defect ledger: one test per open defect of ROADMAP.md, each
asserting the right answer or the typed refusal that its item asks for.

Every test is a strict xfail naming its item, so the run lists what is still
wrong (`pytest -rxX tests/test_known_defects.py`), and a fix that makes one
pass fails the run until the change that made it removes the mark.  The
truths here need no arbitrary-precision literal: a refusal, an exact
closed form, or a shifted square well.
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
    """(exit code, stderr) of the weyl command argv on problem."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    rc = main([argv[0], "--problem", str(path), *argv[1:]])
    return rc, capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_interval_spectrum_with_a_dwarfing_b_is_refused(tmp_path, capsys):
    # today: exit 0 and an eigenvalue at -3.1557020385953365 that rounding decided
    problem = {"model": {"kind": "finite_interval", "potential": {"kind": "zero"}, "b": 2}, "boundary": HUGE_B}
    rc, err = _run(tmp_path, capsys, problem, ["spectrum", "--window=-5:0.5"])
    assert rc == 1 and err.startswith("error:"), (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_operator_potential_negcount_with_a_dwarfing_b_is_refused(tmp_path, capsys):
    # today: kappa_M 0 and kappa_oracle null
    problem = {"model": {"kind": "operator_potential_halfline", "a_diag": [2, 5]}, "boundary": HUGE_B}
    rc, err = _run(tmp_path, capsys, problem, ["negcount"])
    assert rc == 1 and err.startswith("error:"), (rc, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_w_next_to_its_pole_is_refused():
    # B = Re M(-0.5) + 1e-10 i puts a pole of W 1e-10 from z = -0.5 + 1e-10 i; today
    # W there is returned 7.7e-3 off the Bessel closed form, with no error
    model = models.half_line(PotentialSpec.expression("-2*exp(-x)"))
    eps = 1e-10
    col = charfun.factor_colligation(Matrix.scalar(complex(models.evaluate(model, -0.5).at(0, 0).real, eps)))
    m = models.evaluate(model, complex(-0.5, eps))
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_negcount_below_the_kneser_constant_names_kneser(tmp_path, capsys):
    # q ~ -0.5/x^2 with -0.5 < -1/4: infinitely many negative eigenvalues; today
    # "0 lies in the essential spectrum [-4.999999999995e-13, inf)"
    problem = {"model": {"kind": "half_line", "potential": {"kind": "expression", "source": "-0.5/(1+x^2)"}},
               "boundary": 0}
    rc, err = _run(tmp_path, capsys, problem, ["negcount"])
    assert rc == 1 and err.startswith("error:") and "Kneser" in err, (rc, err)
