"""Problem files: JSON descriptions of a model, a boundary operator, an
optional triplet transform, and task parameters.

Complex numbers are encoded as plain numbers (real) or two-element
[re, im] arrays; matrices as row-major nested lists of those.  Every number
must be finite (Python's json reads NaN and Infinity).  Validation errors
carry the JSON path of the offending field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from . import models as models_mod
from .errors import SchemaError
from .linalg import Matrix
from .models import WeylModel
from .slsolve import PotentialSpec
from .triplets import TripletTransform, make_transform


@dataclass(frozen=True)
class ProblemFile:
    model: WeylModel
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


def _complex_from_json(v, path: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(_finite(v, path))
    if isinstance(v, list) and len(v) == 2 and all(isinstance(t, (int, float)) for t in v):
        return complex(_finite(v[0], path), _finite(v[1], path))
    raise SchemaError(path, "expected a number or an [re, im] pair")


def _complex_to_json(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def matrix_from_json(v, path: str) -> Matrix:
    if isinstance(v, (int, float)) or (
        isinstance(v, list) and len(v) == 2 and all(isinstance(t, (int, float)) for t in v)
    ):
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
    return [[_complex_to_json(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return data[key]


def _number(v, path: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    return _finite(v, path)


def _numbers(data: dict, key: str, path: str, min_len: int = 1) -> list:
    """data[key] as a list of at least min_len numbers."""
    v = _require(data, key, path)
    if not isinstance(v, list) or len(v) < min_len:
        raise SchemaError(f"{path}.{key}", f"expected an array of at least {min_len} numbers")
    return [_number(t, f"{path}.{key}[{i}]") for i, t in enumerate(v)]


def _check_each(vals: list, path: str, ok, what: str):
    for i, v in enumerate(vals):
        if not ok(v):
            raise SchemaError(f"{path}[{i}]", what)


def potential_from_json(data, path: str) -> PotentialSpec:
    if data is None:
        return PotentialSpec.zero()
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    kind = _require(data, "kind", path)
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "square_well":
        depth = _number(_require(data, "depth", path), f"{path}.depth")
        width = _number(_require(data, "width", path), f"{path}.width")
        if width <= 0:
            raise SchemaError(f"{path}.width", "must be positive")
        return PotentialSpec.square_well(depth, width)
    if kind == "sampled_table":
        nodes = _numbers(data, "nodes", path, min_len=2)
        values = _numbers(data, "values", path)
        if len(nodes) != len(values):
            raise SchemaError(f"{path}.values", "length mismatch with nodes")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise SchemaError(f"{path}.nodes", "must be strictly increasing")
        return PotentialSpec.table(nodes, values)
    if kind == "expression":
        src = _require(data, "source", path)
        if not isinstance(src, str):
            raise SchemaError(f"{path}.source", "expected a string")
        return PotentialSpec.expression(src)
    raise SchemaError(f"{path}.kind", f"unknown potential kind {kind!r}")


def potential_to_json(q: PotentialSpec):
    if q.kind == "zero":
        return {"kind": "zero"}
    if q.kind == "square_well":
        return {"kind": "square_well", "depth": q.depth, "width": q.width}
    if q.kind == "sampled_table":
        return {"kind": "sampled_table", "nodes": list(q.nodes), "values": list(q.values)}
    return {"kind": "expression", "source": q.source}


def model_from_json(data, path: str = "$.model") -> WeylModel:
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    kind = _require(data, "kind", path)
    if kind in ("half_line", "radial_schrodinger"):
        q = potential_from_json(data.get("potential"), f"{path}.potential")
        if kind == "radial_schrodinger":  # an alias: the half-line model with h = None
            return models_mod.radial_schrodinger(q)
        h = data.get("h")
        if h is not None:
            h = _number(h, f"{path}.h")
        return models_mod.half_line(q, h)
    if kind == "finite_interval":
        q = potential_from_json(data.get("potential"), f"{path}.potential")
        b = _number(_require(data, "b", path), f"{path}.b")
        if b <= 0:
            raise SchemaError(f"{path}.b", "must be positive")
        return models_mod.finite_interval(q, b)
    if kind in ("operator_potential_halfline", "strip"):
        a = _numbers(data, "a_diag", path)
        _check_each(a, f"{path}.a_diag", lambda v: v >= 1.0, "must be >= 1")
        if kind == "operator_potential_halfline":
            return models_mod.operator_potential_halfline(a)
        width = _number(data.get("width", math.pi), f"{path}.width")
        if width <= 0:
            raise SchemaError(f"{path}.width", "must be positive")
        return models_mod.strip(a, width)
    if kind in ("corner", "sector"):
        beta = _number(_require(data, "beta", path), f"{path}.beta")
        if not 0.5 < beta < 1.0:
            raise SchemaError(f"{path}.beta", "must lie in the open interval (0.5, 1)")
        return models_mod.corner(beta) if kind == "corner" else models_mod.sector(beta)
    if kind == "multi_corner":
        betas = _numbers(data, "betas", path)
        _check_each(betas, f"{path}.betas", lambda v: 0.5 < v < 1.0, "must lie in (0.5, 1)")
        return models_mod.multi_corner(betas)
    raise SchemaError(f"{path}.kind", f"unknown model kind {kind!r}")


def model_to_json(m: WeylModel):
    """The model's parameters under their field names; its potential q as "potential"."""
    out = {"kind": m.kind}
    for f in fields(m):
        v = getattr(m, f.name)
        if isinstance(v, PotentialSpec):
            out["potential"] = potential_to_json(v)
        elif isinstance(v, tuple):
            out[f.name] = list(v)
        elif v is not None:
            out[f.name] = v
    return out


def transform_from_json(data, n: int, path: str = "$.transform") -> TripletTransform:
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object with U, X11, X12, X21, X22")
    mats = {}
    for name in ("U", "X11", "X12", "X21", "X22"):
        mats[name] = matrix_from_json(_require(data, name, path), f"{path}.{name}")
        if mats[name].rows != n or mats[name].cols != n:
            raise SchemaError(f"{path}.{name}", f"must be {n}x{n} for this model")
    return make_transform(mats["U"], mats["X11"], mats["X12"], mats["X21"], mats["X22"])


def transform_to_json(t: TripletTransform):
    return {
        "U": matrix_to_json(t.U),
        "X11": matrix_to_json(t.X11),
        "X12": matrix_to_json(t.X12),
        "X21": matrix_to_json(t.X21),
        "X22": matrix_to_json(t.X22),
    }


_TASK_KEYS = {"window", "grid", "rect", "grid_n"}


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
    for key in task:
        if key not in _TASK_KEYS:
            raise SchemaError(f"$.task.{key}", f"unknown task key (allowed: {sorted(_TASK_KEYS)})")
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


def problem_to_data(p: ProblemFile) -> dict:
    out = {"model": model_to_json(p.model)}
    if p.boundary is not None:
        out["boundary"] = matrix_to_json(p.boundary)
    if p.transform is not None:
        out["transform"] = transform_to_json(p.transform)
    if p.task:
        out["task"] = dict(p.task)
    return out
