"""Problem files: JSON descriptions of a model, a boundary operator, an
optional triplet transform, and task parameters: the defaults of a request's
window, rect and grid, read by request_value, which reads the command-line
flags too.

Complex numbers are encoded as plain numbers (real) or two-element
[re, im] arrays; matrices as row-major nested lists of those.  Every number
must be finite (Python's json reads NaN and Infinity), and a JSON boolean is
not a number, and a matrix row is not empty.  Validation errors carry the
JSON path of the offending field.  Models and potentials are read through
one table from kind to class each (MODEL_KINDS, POTENTIAL_KINDS): a kind's
keys are "kind" and its class's _fields (values.Value; the radial_schrodinger
alias takes no h), and the class's constructor checks the values.  A key the
reader does not know, at the top level or in a model, potential or transform
object, is refused at its path, not ignored.

parse_problem records the SHA-256 of the file's bytes (the reports'
problem_sha256) by CPython's built-in SHA-256 module, `_sha2` from 3.12 on and
`_sha256` before, and by hashlib only where neither exists.
"""

from __future__ import annotations

import json
import math

from . import models
from .errors import EvalError, SchemaError
from .linalg import Matrix
from .slsolve import Expression, PotentialSpec, SquareWell, Table, Zero
from .triplets import TripletTransform, make_transform
from .values import Value

# hashlib loads OpenSSL's libcrypto, 3.5 MB of peak RSS and about 3 ms a
# process, to hash one small file; the built-in module gives the same digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class ProblemFile(Value):
    # model: a WeylModel; boundary, transform: a Matrix, a TripletTransform or
    # None; task: key -> its value typed by request_value (a fresh {} when
    # left out); sha256: the hex SHA-256 of the file's bytes, or ""
    _fields = ("model", "boundary", "transform", "task", "sha256")

    def __init__(self, model, boundary, transform, task: dict | None = None, sha256: str = ""):
        super().__init__(model, boundary, transform, {} if task is None else task, sha256)


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
        if not r:
            raise SchemaError(f"{path}[{i}]", "a row must not be empty")
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


# Field name -> (JSON key, reader of its value).  A kind's keys are "kind" and
# those of its class's _fields; any other is refused.  A field with a default
# may be left out, and so may the potential: an absent or null one is q = 0.
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
# the fields of a kind that reads fewer than its class has
_KIND_FIELDS = {"radial_schrodinger": ("q",)}


def _known_keys(data: dict, keys, path: str, what: str):
    """A SchemaError at the first key of data not in keys."""
    for key in data:
        if key not in keys:
            raise SchemaError(f"{path}.{key}", f"unknown {what} (allowed: {sorted(keys)})")


def _from_json(kinds: dict, what: str, data, path: str):
    """The instance of kinds[data["kind"]] built from data's fields; the
    constructor's EvalError on a field becomes a SchemaError at its path."""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    kind = _require(data, "kind", path)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"{path}.kind", f"unknown {what} kind {kind!r}")
    names = _KIND_FIELDS.get(kind, cls._fields)
    _known_keys(data, ["kind", *(_FIELDS[name][0] for name in names)], path, f"{what} key for {kind}")
    args = {}
    for name in names:
        key, read = _FIELDS[name]
        if key in data or key == "potential":
            args[name] = read(data.get(key), f"{path}.{key}")
        elif name not in cls._defaults:
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
    _known_keys(data, TripletTransform._fields, path, "transform key")
    mats = {}
    for name in TripletTransform._fields:
        mats[name] = matrix_from_json(_require(data, name, path), f"{path}.{name}")
        if mats[name].rows != n or mats[name].cols != n:
            raise SchemaError(f"{path}.{name}", f"must be {n}x{n} for this model")
    return make_transform(**mats)


# The text form of each request value; window and rect also take a JSON
# array of as many numbers as their text has fields.
_TASK_FORMS = {"window": "'a:b'", "rect": "'re0:re1:im0:im1'", "grid": "'re0:re1:n,im0:im1:m'"}
MAX_AXIS_POINTS = 1000  # the most points one grid axis may have


def _axis(text: str, what: str, path: str) -> list:
    """The values of one grid axis 'start:stop:count', all finite."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError(path, f"{what} must be 'start:stop:count', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise SchemaError(path, f"bad {what} {text!r}: {e}") from e
    if n < 1:
        raise SchemaError(path, f"{what} count must be >= 1")
    if n > MAX_AXIS_POINTS:
        raise SchemaError(path, f"{what} count must be at most {MAX_AXIS_POINTS}, got {n}")
    values = [a] if n == 1 else [a + (b - a) * k / (n - 1) for k in range(n)]
    if not all(map(math.isfinite, (a, b, *values))):
        raise SchemaError(path, f"{what} values must be finite, got {text!r}")
    return values


def request_value(key: str, v, flag: str | None = None):
    """A request's window or rect as a tuple of 2 or 4 finite floats, or its grid as
    (real axis, imaginary axis) lists of 1 to MAX_AXIS_POINTS finite floats, from the
    task entry v or the text v of the flag named flag; each SchemaError names that
    source ("--window", "$.task.window[0]")."""
    path, form = flag or f"$.task.{key}", _TASK_FORMS.get(key)
    if form is None:
        raise SchemaError(path, f"unknown task key (allowed: {sorted(_TASK_FORMS)})")
    if key == "grid":
        if not isinstance(v, str):
            raise SchemaError(path, f"expected a string, got {type(v).__name__}")
        axes = v.split(",")
        if len(axes) != 2:
            raise SchemaError(path, f"grid must be {form}, got {v!r}")
        return _axis(axes[0], "real axis", path), _axis(axes[1], "imaginary axis", path)
    count = form.count(":") + 1
    if isinstance(v, str):
        if v.count(":") != count - 1:
            raise SchemaError(path, f"{key} must be {form}, got {v!r}")
        try:
            v = [float(p) for p in v.split(":")]
        except ValueError as e:
            raise SchemaError(path, f"bad {key} {v!r}: {e}") from e
    if not isinstance(v, list) or len(v) != count:
        raise SchemaError(path, f"expected a string or an array of {count} numbers")
    return tuple(_numbers(v, path))


def problem_from_data(data: dict, sha: str = "") -> ProblemFile:
    if not isinstance(data, dict):
        raise SchemaError("$", "problem file must be a JSON object")
    _known_keys(data, ("model", "boundary", "transform", "task"), "$", "key")
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
    return ProblemFile(model, boundary, transform, {k: request_value(k, v) for k, v in task.items()}, sha)


def parse_problem(path: str) -> ProblemFile:
    with open(path, "rb") as f:
        raw = f.read()
    sha = sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError("$", f"not valid UTF-8 JSON: {e}") from e
    return problem_from_data(data, sha)
