import json
import math

import pytest

from weyl import models, problems
from weyl.errors import SchemaError
from weyl.linalg import Matrix


def roundtrip(data):
    p = problems.problem_from_data(data)
    out = problems.problem_to_data(p)
    p2 = problems.problem_from_data(out)
    return p, problems.problem_to_data(p2), out


def test_roundtrip_half_line():
    data = {
        "model": {"kind": "half_line", "potential": {"kind": "square_well", "depth": -2.0, "width": 1.0}, "h": 1.5},
        "boundary": -2.0,
        "task": {"window": [-5.0, -0.1]},
    }
    _, a, b = roundtrip(data)
    assert a == b


# Problem-file models per model class kind; every class of models.py needs one.
MODELS_BY_KIND = {
    "half_line": [
        {"kind": "half_line", "potential": {"kind": "square_well", "depth": -2.0, "width": 1.0}, "h": 1.5},
        {"kind": "radial_schrodinger", "potential": {"kind": "expression", "source": "1/(1+x^2)"}},
    ],
    "finite_interval": [{"kind": "finite_interval", "b": 2.0, "potential": {
        "kind": "sampled_table", "nodes": [0.0, 1.0], "values": [0.5, 0.0]}}],
    "operator_potential_halfline": [{"kind": "operator_potential_halfline", "a_diag": [1.5, 3.0]}],
    "strip": [{"kind": "strip", "a_diag": [2.0, 5.0], "width": 3.0}, {"kind": "strip", "a_diag": [1.0]}],
    "corner": [{"kind": "corner", "beta": 0.6}],
    "sector": [{"kind": "sector", "beta": 0.75}],
    "multi_corner": [{"kind": "multi_corner", "betas": [0.55, 0.9]}],
}


def test_roundtrip_all_kinds():
    classes = [c for c in models.WeylModel.__subclasses__() if c is not models.CallableModel]
    assert len(classes) == len(MODELS_BY_KIND)
    for cls in classes:
        for data in MODELS_BY_KIND[cls.kind]:
            m = problems.model_from_json(data)
            assert type(m) is cls
            assert problems.model_from_json(problems.model_to_json(m)) == m, data
            _, a, b = roundtrip({"model": data})
            assert a == b, data


def test_radial_schrodinger_is_half_line_alias():
    p = problems.problem_from_data({"model": {"kind": "radial_schrodinger", "potential": {"kind": "zero"}}})
    assert p.model.kind == "half_line"
    assert p.model.h is None


def test_roundtrip_strip_with_transform():
    data = {
        "model": {"kind": "strip", "a_diag": [2.0, 5.0], "width": 3.0},
        "boundary": [[0.0, 0, 0, 0], [0, 0.0, 0, 0], [0, 0, 0.0, 0], [0, 0, 0, 0.0]],
        "transform": {
            "U": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "X11": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "X12": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            "X21": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            "X22": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        },
    }
    _, a, b = roundtrip(data)
    assert a == b


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
