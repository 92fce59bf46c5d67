"""The frozen value classes (weyl.values.Value): constructors, ==, hash, repr
and immutability as the package's records have always had them, and a CLI
start-up that loads no class-generating machinery."""

import math
import os
import subprocess
import sys

import pytest

from weyl import models, oracle, problems
from weyl.expr import Num, Var
from weyl.linalg import Matrix
from weyl.slsolve import PotentialSpec, SquareWell, Zero
from weyl.triplets import TripletTransform, make_transform
from weyl.values import FrozenInstanceError, Value

WELL = PotentialSpec.square_well(2, 1.5)
ONE, ZERO = Matrix.identity(1), Matrix.zeros(1, 1)

# (value, a second value built another way from equal fields, its pinned repr)
VALUES = [
    (Matrix(1, 2, (1 + 0j, 2j)), Matrix.from_rows([[1, 2j]]),
     "Matrix(rows=1, cols=2, data=((1+0j), 2j))"),
    (models.HalfLine(WELL, 1.5), models.half_line(q=SquareWell(2.0, 1.5), h=1.5),
     "HalfLine(q=SquareWell(depth=2.0, width=1.5), h=1.5)"),
    (models.Strip((2, 3)), models.Strip([2.0, 3.0], width=math.pi),
     "Strip(a_diag=(2.0, 3.0), width=3.141592653589793)"),
    (WELL, SquareWell(width=1.5, depth=2.0), "SquareWell(depth=2.0, width=1.5)"),
    (make_transform(ONE, ONE, ZERO, ZERO, ONE), TripletTransform(ONE, ONE, ZERO, ZERO, ONE),
     "TripletTransform(U=Matrix(rows=1, cols=1, data=((1+0j),)), X11=Matrix(rows=1, cols=1, data=((1+0j),)), "
     "X12=Matrix(rows=1, cols=1, data=(0j,)), X21=Matrix(rows=1, cols=1, data=(0j,)), "
     "X22=Matrix(rows=1, cols=1, data=((1+0j),)))"),
    (problems.problem_from_data({"model": {"kind": "corner", "beta": 0.75}, "boundary": 2}),
     problems.ProblemFile(models.Corner(0.75), Matrix.scalar(2), None),
     "ProblemFile(model=Corner(beta=0.75), boundary=Matrix(rows=1, cols=1, data=((2+0j),)), "
     "transform=None, task={}, sha256='')"),
]


@pytest.mark.parametrize("value, twin, text", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
def test_value_contract(value, twin, text):
    assert repr(value) == repr(twin) == text
    assert value == twin and not value != twin
    if not isinstance(value, problems.ProblemFile):  # its task is a dict
        assert hash(value) == hash(twin)
    for name in ("data", "q", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_equal_fields_of_another_class_are_unequal():
    assert models.Corner(0.75) != models.Sector(0.75)
    assert models.Corner(0.75) == models.Corner(0.75)
    assert Var() != Zero() and Var() == Var() and hash(Zero()) == hash(Zero())
    assert Num(1.0) != (1.0,)


def test_derived_values_stay_out_of_eq_hash_and_repr():
    t = make_transform(ONE, ONE, ZERO, ZERO, ONE)
    assert t.U_star == ONE and "U_star" not in repr(t)
    plain = oracle.DiscretizedOperator((1.0, 2.0), (0.5,), 1.0, 2.0, None, None)
    given = oracle.DiscretizedOperator((1.0, 2.0), (0.5,), 1.0, 2.0, None, None, (0, 0), (9.0,), 7.0)
    assert (plain.off2, plain.norm, given.off2, given.norm) == ((0.25,), 3.0, (9.0,), 7.0)
    assert plain == given and hash(plain) == hash(given) and repr(plain) == repr(given)
    f, g = models.callable_model(abs, 1), models.CallableModel(round, 1, 0.0)
    assert f == g and repr(f) == "CallableModel(fn=<built-in function abs>, n=1, ess_floor=0.0)"


def test_construction_normalizes_and_checks_in_order():
    # the normal form is what ==, hash and repr see
    assert models.Corner(3 / 4) == models.Corner(0.75) and repr(models.MultiCorner([0.6])) == "MultiCorner(betas=(0.6,))"
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'beta'"):
        models.Corner(0.75).beta = 0.8
    with pytest.raises(TypeError, match=r"Strip.__init__\(\) missing 1 required positional argument: 'a_diag'"):
        models.Strip()
    with pytest.raises(TypeError, match=r"takes from 2 to 3 positional arguments but 4 were given"):
        models.Strip((2,), 1.0, 3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'x'"):
        models.HalfLine(Zero(), x=1)
    with pytest.raises(TypeError, match="multiple values for argument 'q'"):
        models.HalfLine(Zero(), q=Zero())
    # Table checks nodes before values, and each entry before the lengths
    from weyl.errors import EvalError
    with pytest.raises(EvalError) as exc:
        PotentialSpec.table([0, math.nan], [1])
    assert exc.value.field == "nodes[1]"


def test_value_subclasses_declare_fields_and_keep_a_dict():
    expression = PotentialSpec.expression("1/(1+x^2)")
    assert "tail" not in vars(expression)
    assert expression.tail == expression.value(1e6) and "tail" in vars(expression)  # cached_property
    assert Value.__slots__ == () and models.HalfLine._fields == ("q", "h")
    assert models.HalfLine._defaults == {"h": None}


def test_cli_start_up_loads_no_class_generation_or_verify():
    # a fresh process: what `import weyl.cli` adds to what the interpreter had loaded
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import weyl.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'weyl.verify'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("[]\n", "")
