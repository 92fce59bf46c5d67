import json
import math
import os

import pytest

from weyl import models, problems
from weyl.errors import EvalError, SchemaError
from weyl.linalg import Matrix
from weyl.slsolve import PotentialSpec
from weyl.triplets import make_transform

SCHEMA = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "problem.schema.json")


WELL = PotentialSpec.square_well(-2.0, 1.0)


def test_reader_half_line():
    data = {
        "model": {"kind": "half_line", "potential": {"kind": "square_well", "depth": -2.0, "width": 1.0}, "h": 1.5},
        "boundary": -2.0,
        "task": {"window": [-5.0, -0.1]},
    }
    p = problems.problem_from_data(data)
    assert p.model == models.half_line(WELL, 1.5)
    assert p.boundary == Matrix.scalar(-2.0)
    assert p.transform is None
    assert p.task == {"window": [-5.0, -0.1]}


# Problem-file models per model class kind, each with the model built
# directly; every class of models.py needs one.
MODELS_BY_KIND = {
    "half_line": [
        ({"kind": "half_line", "potential": {"kind": "square_well", "depth": -2.0, "width": 1.0}, "h": 1.5},
         models.half_line(WELL, 1.5)),
        ({"kind": "half_line", "h": None}, models.half_line(PotentialSpec.zero())),
        ({"kind": "radial_schrodinger", "potential": {"kind": "expression", "source": "1/(1+x^2)"}},
         models.half_line(PotentialSpec.expression("1/(1+x^2)"))),
    ],
    "finite_interval": [
        ({"kind": "finite_interval", "b": 2.0,
          "potential": {"kind": "sampled_table", "nodes": [0.0, 1.0], "values": [0.5, 0.0]}},
         models.finite_interval(PotentialSpec.table([0.0, 1.0], [0.5, 0.0]), 2.0)),
        ({"kind": "finite_interval", "b": 1.5, "potential": None},
         models.finite_interval(PotentialSpec.zero(), 1.5)),
    ],
    "operator_potential_halfline": [
        ({"kind": "operator_potential_halfline", "a_diag": [1.5, 3.0]},
         models.operator_potential_halfline([1.5, 3.0])),
    ],
    "strip": [
        ({"kind": "strip", "a_diag": [2.0, 5.0], "width": 3.0}, models.strip([2.0, 5.0], 3.0)),
        ({"kind": "strip", "a_diag": [1.0]}, models.strip([1.0], math.pi)),
    ],
    "corner": [({"kind": "corner", "beta": 0.6}, models.corner(0.6))],
    "sector": [({"kind": "sector", "beta": 0.75}, models.sector(0.75))],
    "multi_corner": [({"kind": "multi_corner", "betas": [0.55, 0.9]}, models.multi_corner([0.55, 0.9]))],
}


def test_reader_builds_every_kind():
    classes = [c for c in models.WeylModel.__subclasses__() if c is not models.CallableModel]
    assert len(classes) == len(MODELS_BY_KIND)
    for cls in classes:
        for data, expected in MODELS_BY_KIND[cls.kind]:
            m = problems.model_from_json(data)
            assert type(m) is cls
            assert m == expected, data
            assert problems.problem_from_data({"model": data}).model == expected, data


def test_kind_tables_match_the_classes_and_the_schema_doc():
    """Every potential class and every model class but CallableModel has a row
    in the reader's kind tables, and docs/problem.schema.json lists the same kinds."""
    assert set(problems.POTENTIAL_KINDS.values()) == set(PotentialSpec.__subclasses__())
    model_classes = set(models.WeylModel.__subclasses__()) - {models.CallableModel}
    assert set(problems.MODEL_KINDS.values()) == model_classes
    for kind, cls in {**problems.POTENTIAL_KINDS, **problems.MODEL_KINDS}.items():
        assert kind == cls.kind or (kind, cls) == ("radial_schrodinger", models.HalfLine)
    with open(SCHEMA) as f:
        schema = json.load(f)
    assert schema["definitions"]["potential"]["properties"]["kind"]["enum"] == list(problems.POTENTIAL_KINDS)
    assert schema["properties"]["model"]["properties"]["kind"]["enum"] == list(problems.MODEL_KINDS)


def test_radial_schrodinger_is_half_line_alias():
    p = problems.problem_from_data({"model": {"kind": "radial_schrodinger", "potential": {"kind": "zero"}}})
    assert p.model.kind == "half_line"
    assert p.model.h is None


def test_reader_strip_with_transform():
    identity = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    zero = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    data = {
        "model": {"kind": "strip", "a_diag": [2.0, 5.0], "width": 3.0},
        "boundary": [[0.0, 0, 0, 0], [0, 0.0, 0, 0], [0, 0, 0.0, 0], [0, 0, 0, 0.0]],
        "transform": {"U": identity, "X11": identity, "X12": zero, "X21": zero, "X22": identity},
    }
    p = problems.problem_from_data(data)
    assert p.model == models.strip([2.0, 5.0], 3.0)
    assert p.boundary == Matrix.zeros(4, 4)
    eye, zeros = Matrix.identity(4), Matrix.zeros(4, 4)
    assert p.transform == make_transform(eye, eye, zeros, zeros, eye)
    assert p.task == {}


def test_scalar_boundary_broadcasts_to_diagonal():
    data = {
        "model": {"kind": "operator_potential_halfline", "a_diag": [2.0, 5.0]},
        "boundary": 1.5,
    }
    p = problems.problem_from_data(data)
    assert p.boundary.rows == 2
    assert p.boundary.at(0, 0) == 1.5 and p.boundary.at(1, 1) == 1.5


def test_complex_pair_boundary():
    data = {"model": {"kind": "sector", "beta": 0.75}, "boundary": [0.5, 1.5]}
    p = problems.problem_from_data(data)
    assert p.boundary.at(0, 0) == 0.5 + 1.5j


def test_schema_error_paths():
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": {"kind": "sector", "beta": 1.2}})
    assert "$.model.beta" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": {"kind": "nope"}})
    assert "$.model.kind" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": {"kind": "half_line"}, "boundary": [[1, 2], [3]]})
    assert "$.boundary" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data(
            {"model": {"kind": "half_line"}, "task": {"bogus": 1}}
        )
    assert "$.task.bogus" in str(exc.value)


_WELL_JSON = {"kind": "square_well", "depth": -2.0, "width": 1.0}
_TABLE_JSON = {"kind": "sampled_table", "nodes": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 3.0]}


@pytest.mark.parametrize("model,path,reason", [
    ({"kind": "half_line", "potential": {**_WELL_JSON, "width": 0.0}}, "$.model.potential.width",
     "must be positive"),
    ({"kind": "half_line", "potential": {**_TABLE_JSON, "nodes": [0.0, 2.0, 1.0]}}, "$.model.potential.nodes",
     "must be strictly increasing"),
    ({"kind": "half_line", "potential": {**_TABLE_JSON, "values": [1.0, 2.0]}}, "$.model.potential.values",
     "length mismatch with nodes"),
    ({"kind": "half_line", "potential": {**_TABLE_JSON, "nodes": [], "values": []}}, "$.model.potential.nodes",
     "needs at least two nodes"),
    ({"kind": "finite_interval", "b": -1.0}, "$.model.b", "must be positive"),
    ({"kind": "finite_interval", "b": 0}, "$.model.b", "must be positive"),
    ({"kind": "operator_potential_halfline", "a_diag": []}, "$.model.a_diag", "must not be empty"),
    ({"kind": "operator_potential_halfline", "a_diag": [2.0, 0.99]}, "$.model.a_diag[1]", "must be >= 1"),
    ({"kind": "strip", "a_diag": [2.0], "width": -1.0}, "$.model.width", "must be positive"),
    ({"kind": "corner", "beta": 0.5}, "$.model.beta", "must lie in the open interval (0.5, 1)"),
    ({"kind": "sector", "beta": 1.0}, "$.model.beta", "must lie in the open interval (0.5, 1)"),
    ({"kind": "multi_corner", "betas": []}, "$.model.betas", "must not be empty"),
    ({"kind": "multi_corner", "betas": [0.6, 0.4]}, "$.model.betas[1]",
     "must lie in the open interval (0.5, 1)"),
])
def test_constructor_rule_is_a_schema_error_at_its_path(model, path, reason):
    """Each value rule is the constructor's: its EvalError names the field, and
    the reader reports it at that field's JSON path."""
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": model})
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {reason}"
    assert isinstance(exc.value.__cause__, EvalError)
    assert exc.value.__cause__.field == path.removeprefix("$.model.potential.").removeprefix("$.model.")


@pytest.mark.parametrize("task,path", [
    ({"window": [1]}, "$.task.window"),
    ({"window": [1, 2, 3]}, "$.task.window"),
    ({"window": 1.0}, "$.task.window"),
    ({"window": [0.0, True]}, "$.task.window"),
    ({"window": [0.0, "1"]}, "$.task.window"),
    ({"rect": [0.0, 1.0, 0.1]}, "$.task.rect"),
    ({"rect": {"re0": 0.0}}, "$.task.rect"),
    ({"grid": [0.0, 1.0]}, "$.task.grid"),
    ({"grid_n": 128.0}, "$.task.grid_n"),
    ({"grid_n": True}, "$.task.grid_n"),
    ({"grid_n": "128"}, "$.task.grid_n"),
])
def test_malformed_task_value_rejected(task, path):
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": {"kind": "half_line"}, "task": task})
    assert exc.value.path.startswith(path)


def test_task_value_forms_accepted():
    task = {"window": "-5:-0.1", "rect": [-2, 2, 0.1, 2.0], "grid": "-1:1:3,0.5:1:2", "grid_n": 256}
    p = problems.problem_from_data({"model": {"kind": "half_line"}, "task": task})
    assert p.task == task
    p = problems.problem_from_data({"model": {"kind": "half_line"}, "task": {"window": [-5, -0.1], "rect": "0:1:0.1:1"}})
    assert p.task == {"window": [-5, -0.1], "rect": "0:1:0.1:1"}


@pytest.mark.parametrize("boundary,path", [
    (True, "$.boundary"),
    ([[True]], "$.boundary[0][0]"),
    ([[1.0, 0.0], [0.0, [False, 1.0]]], "$.boundary[1][1]"),
    ([True, 1.0], "$.boundary"),
])
def test_boolean_is_not_a_complex_number(boundary, path):
    model = {"kind": "finite_interval", "b": 1.0} if "[1]" in path else {"kind": "half_line"}
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": model, "boundary": boundary})
    assert exc.value.path == path


@pytest.mark.parametrize("key", ["zeta", "z", "h"])
def test_unread_task_keys_rejected(key):
    with pytest.raises(SchemaError) as exc:
        problems.problem_from_data({"model": {"kind": "half_line"}, "task": {key: 1.0}})
    assert f"$.task.{key}" in str(exc.value)


def test_boundary_dimension_mismatch():
    with pytest.raises(SchemaError):
        problems.problem_from_data(
            {
                "model": {"kind": "finite_interval", "b": math.pi},
                "boundary": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
            }
        )
    # a bare scalar broadcasts to the diagonal instead
    p = problems.problem_from_data(
        {"model": {"kind": "finite_interval", "b": math.pi}, "boundary": [[1.0]]}
    )
    assert p.boundary.rows == 2


def test_parse_problem_hash(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"model": {"kind": "corner", "beta": 0.6}}))
    p = problems.parse_problem(str(f))
    assert len(p.sha256) == 64
    assert p.model.kind == "corner"


def test_parse_problem_bad_json(tmp_path):
    f = tmp_path / "p.json"
    f.write_text("{nope")
    with pytest.raises(SchemaError):
        problems.parse_problem(str(f))


def test_matrix_json_helpers():
    m = Matrix.from_rows([[1 + 2j, 0], [0, -1j]])
    encoded = problems.matrix_to_json(m)
    assert encoded == [[[1.0, 2.0], 0.0], [0.0, [0.0, -1.0]]]
    back = problems.matrix_from_json(encoded, "$.boundary")
    assert (back - m).norm_fro() == 0.0
