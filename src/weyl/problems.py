"""Problem files: JSON descriptions of a model, a boundary operator, an
optional triplet transform, and task parameters.

Complex numbers are encoded as plain numbers (real) or two-element
[re, im] arrays; matrices as row-major nested lists of those.  Every number
must be finite (Python's json reads NaN and Infinity), and a JSON boolean is
not a number.  Validation errors carry the JSON path of the offending field.
Models and potentials are read through one table from kind to class each
(MODEL_KINDS, POTENTIAL_KINDS), and the class's constructor checks the values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields

from . import models
from .errors import EvalError, SchemaError
from .linalg import Matrix
from .slsolve import Expression, PotentialSpec, SquareWell, Table, Zero
from .triplets import TripletTransform, make_transform


@dataclass(frozen=True)
class ProblemFile:
    model: models.WeylModel
    boundary: Matrix | None
    transform: TripletTransform | None
    task: dict = field(default_factory=dict)
    sha256: str = ""


def _finite(v, path: str) -> float:
    """float(v) for a JSON int or float, refusing NaN, Infinity and ints past the float range."""
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(path, "must be finite")
    return x


def _is_number(v) -> bool:
    """A JSON int or float; a JSON boolean is neither."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_complex(v) -> bool:
    """A JSON number or an [re, im] pair of them."""
    return _is_number(v) or (isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)))


def _complex_from_json(v, path: str) -> complex:
    if not _is_complex(v):
        raise SchemaError(path, "expected a number or an [re, im] pair")
    if isinstance(v, list):
        return complex(_finite(v[0], path), _finite(v[1], path))
    return complex(_finite(v, path))


def matrix_from_json(v, path: str) -> Matrix:
    if _is_complex(v):
        return Matrix.scalar(_complex_from_json(v, path))
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise SchemaError(path, "expected a scalar or a nested list of rows")
    rows = []
    width = None
    for i, r in enumerate(v):
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise SchemaError(f"{path}[{i}]", f"row length {len(r)} != {width}")
        rows.append([_complex_from_json(t, f"{path}[{i}][{j}]") for j, t in enumerate(r)])
    return Matrix.from_rows(rows)


def matrix_to_json(m: Matrix):
    """The rows of m, each entry a plain number where it is real, else an [re, im] pair."""
    rows = ([m.at(i, j) for j in range(m.cols)] for i in range(m.rows))
    return [[z.real if z.imag == 0.0 else [z.real, z.imag] for z in row] for row in rows]


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return data[key]


def _number(v, path: str) -> float:
    if not _is_number(v):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    return _finite(v, path)


def _numbers(v, path: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of numbers")
    return [_number(t, f"{path}[{i}]") for i, t in enumerate(v)]


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise SchemaError(path, "expected a string")
    return v


def _potential(v, path: str) -> PotentialSpec:
    return Zero() if v is None else _from_json(POTENTIAL_KINDS, "potential", v, path)


# Field name -> (JSON key, reader of its value).  A field with a default may
# be left out, and so may the potential: an absent or null one is q = 0.
_FIELDS = {
    "q": ("potential", _potential),
    "h": ("h", lambda v, path: None if v is None else _number(v, path)),
    **{name: (name, _number) for name in ("depth", "width", "b", "beta")},
    **{name: (name, _numbers) for name in ("nodes", "values", "a_diag", "betas")},
    "source": ("source", _string),
}

POTENTIAL_KINDS = {cls.kind: cls for cls in (Zero, SquareWell, Table, Expression)}
MODEL_KINDS = {
    **{cls.kind: cls for cls in (models.HalfLine, models.FiniteInterval, models.OperatorPotentialHalfline,
                                 models.Strip, models.Corner, models.Sector, models.MultiCorner)},
    "radial_schrodinger": models.HalfLine,  # the 3-D spherically symmetric problem, h = None
}


def _from_json(kinds: dict, what: str, data, path: str):
    """The instance of kinds[data["kind"]] built from data's fields; the
    constructor's EvalError on a field becomes a SchemaError at its path."""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    kind = _require(data, "kind", path)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"{path}.kind", f"unknown {what} kind {kind!r}")
    args = {}
    for f in fields(cls):
        key, read = _FIELDS[f.name]
        if key in data or key == "potential":
            args[f.name] = read(data.get(key), f"{path}.{key}")
        elif f.default is MISSING:
            _require(data, key, path)
    try:
        return cls(**args)
    except EvalError as e:
        if e.field is None:
            raise
        raise SchemaError(f"{path}.{e.field}", e.reason) from e


def model_from_json(data, path: str = "$.model") -> models.WeylModel:
    return _from_json(MODEL_KINDS, "model", data, path)


def transform_from_json(data, n: int, path: str = "$.transform") -> TripletTransform:
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object with U, X11, X12, X21, X22")
    mats = {}
    for name in ("U", "X11", "X12", "X21", "X22"):
        mats[name] = matrix_from_json(_require(data, name, path), f"{path}.{name}")
        if mats[name].rows != n or mats[name].cols != n:
            raise SchemaError(f"{path}.{name}", f"must be {n}x{n} for this model")
    return make_transform(mats["U"], mats["X11"], mats["X12"], mats["X21"], mats["X22"])


# How many finite numbers a task value may hold in place of a string (None:
# a string only); grid_n is an integer.
_TASK_NUMBERS = {"window": 2, "rect": 4, "grid": None}


def _check_task(task: dict):
    for key, v in task.items():
        path = f"$.task.{key}"
        if key == "grid_n":
            if not (_is_number(v) and isinstance(v, int)):
                raise SchemaError(path, f"expected an integer, got {type(v).__name__}")
        elif key not in _TASK_NUMBERS:
            raise SchemaError(path, f"unknown task key (allowed: {sorted([*_TASK_NUMBERS, 'grid_n'])})")
        elif not isinstance(v, str):
            count = _TASK_NUMBERS[key]
            if count is None:
                raise SchemaError(path, f"expected a string, got {type(v).__name__}")
            if not isinstance(v, list) or len(v) != count:
                raise SchemaError(path, f"expected a string or an array of {count} numbers")
            _numbers(v, path)


def problem_from_data(data: dict, sha: str = "") -> ProblemFile:
    if not isinstance(data, dict):
        raise SchemaError("$", "problem file must be a JSON object")
    model = model_from_json(_require(data, "model", "$"), "$.model")
    boundary = None
    if data.get("boundary") is not None:
        boundary = matrix_from_json(data["boundary"], "$.boundary")
        if boundary.rows == 1 and boundary.cols == 1 and model.n > 1:
            boundary = Matrix.diag([boundary.at(0, 0)] * model.n)
        if boundary.rows != model.n or boundary.cols != model.n:
            raise SchemaError(
                "$.boundary", f"must be {model.n}x{model.n} for this model"
            )
    transform = None
    if data.get("transform") is not None:
        transform = transform_from_json(data["transform"], model.n)
    task = data.get("task", {})
    if not isinstance(task, dict):
        raise SchemaError("$.task", "expected an object")
    _check_task(task)
    return ProblemFile(model, boundary, transform, dict(task), sha)


def parse_problem(path: str) -> ProblemFile:
    with open(path, "rb") as f:
        raw = f.read()
    sha = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError("$", f"not valid UTF-8 JSON: {e}") from e
    return problem_from_data(data, sha)
