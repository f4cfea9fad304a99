"""JSON encoding and decoding of the package's objects.

Exact scalars travel as strings ("3/4", "1/2+2/3*i") and floats as JSON
numbers, so exact data round-trips bit for bit.  Decoders track a JSON
pointer style path and report it on failure.  A scalar mode restricts
what the decoders accept: "rational" admits only rational literals,
"gaussian" admits complex rational ones as well, and "float" converts
everything to floating point with the given comparison tolerance,
refusing a value that is not a finite float (NaN, infinities, exact
values beyond the float range).
"""

import cmath
import enum
import sys
from typing import List, Optional

from .errors import GeometryError, ParseError
from .linalg import Matrix
from .projgeom import ProjPoint, Subspace, span
from .quadrics import (QuadricForm, null_cone, pencil_member, quadric_y8,
                       study_quadric)
from .quaternions import DualQuaternion, Quaternion
from .scalars import (DEFAULT_TOLERANCE, ComplexFloat, GaussianRational,
                      Scalar, parse_scalar, scalar_to_json)

SCALAR_MODES = ("rational", "gaussian", "float")


def _fail(path: str, message: str):
    raise ParseError("%s: %s" % (path, message))


def parse_scalar_at(value, path: str, mode: str = "rational",
                    tolerance: float = DEFAULT_TOLERANCE) -> Scalar:
    assert mode in SCALAR_MODES
    try:
        s = parse_scalar(value, tolerance)
    except ParseError as err:
        _fail(path, str(err))
    if mode == "float":
        try:
            c = s.to_complex()
            finite = cmath.isfinite(c)
        except OverflowError:  # an exact value beyond the float range
            finite = False
        if not finite:
            _fail(path, "float scalar must be finite")
        return ComplexFloat(c.real, c.imag, tolerance)
    if isinstance(s, ComplexFloat):
        _fail(path, "float scalar not allowed in %s mode" % mode)
    if mode == "rational" and isinstance(s, GaussianRational):
        _fail(path, "complex scalar not allowed in rational mode")
    return s


def parse_vector(value, path: str, size: int, mode: str,
                 tolerance: float) -> List[Scalar]:
    if not isinstance(value, list) or len(value) != size:
        _fail(path, "expected an array of %d scalars" % size)
    return [parse_scalar_at(v, "%s[%d]" % (path, k), mode, tolerance)
            for k, v in enumerate(value)]


def parse_dq(value, path: str, mode: str, tolerance: float) -> DualQuaternion:
    if not isinstance(value, dict):
        _fail(path, "expected an object with primal and dual parts")
    for key in ("primal", "dual"):
        if key not in value:
            _fail(path, "missing %r part" % key)
    primal = Quaternion(*parse_vector(value["primal"], path + ".primal", 4,
                                      mode, tolerance))
    dual = Quaternion(*parse_vector(value["dual"], path + ".dual", 4,
                                    mode, tolerance))
    return DualQuaternion(primal, dual)


def parse_point(value, path: str, mode: str, tolerance: float) -> ProjPoint:
    q = parse_dq(value, path, mode, tolerance)
    try:
        return ProjPoint(q)
    except GeometryError as err:
        _fail(path, str(err))


def parse_points(value, path: str, mode: str, tolerance: float,
                 count: Optional[int] = None) -> List[ProjPoint]:
    if not isinstance(value, list) or (count is not None and len(value) != count):
        what = "an array of points" if count is None else (
            "an array of %d points" % count)
        _fail(path, "expected " + what)
    if not value:
        _fail(path, "expected a nonempty array of points")
    return [parse_point(v, "%s[%d]" % (path, k), mode, tolerance)
            for k, v in enumerate(value)]


def parse_subspace(value, path: str, mode: str, tolerance: float) -> Subspace:
    return span(parse_points(value, path, mode, tolerance))


def parse_matrix(value, path: str, size: int, mode: str,
                 tolerance: float) -> Matrix:
    if not isinstance(value, list) or len(value) != size:
        _fail(path, "expected %d rows of %d scalars" % (size, size))
    rows = [parse_vector(row, "%s[%d]" % (path, k), size, mode, tolerance)
            for k, row in enumerate(value)]
    return Matrix(rows)


_QUADRICS_8 = {"S": study_quadric, "N": null_cone, "Y": quadric_y8}


def parse_quadric(value, path: str, mode: str, tolerance: float) -> QuadricForm:
    """A quadric is a label ("S", "N", "Y", "pencil(nu,sigma)") or a Gram matrix."""
    if isinstance(value, str):
        if value in _QUADRICS_8:
            return _QUADRICS_8[value]()
        if value.startswith("pencil(") and value.endswith(")"):
            parts = value[len("pencil("):-1].split(",")
            if len(parts) == 2:
                nu = parse_scalar_at(parts[0], path, mode, tolerance)
                sigma = parse_scalar_at(parts[1], path, mode, tolerance)
                return pencil_member(nu, sigma)
        _fail(path, "unknown quadric label %r" % value)
    gram = parse_matrix(value, path, 8, mode, tolerance)
    if not gram.is_symmetric():
        _fail(path, "Gram matrix must be symmetric")
    return QuadricForm(gram, "custom")


def dq_to_json(q: DualQuaternion) -> dict:
    return {"primal": [scalar_to_json(c) for c in q.primal.coords()],
            "dual": [scalar_to_json(c) for c in q.dual.coords()]}


def point_to_json(p: ProjPoint) -> dict:
    return dq_to_json(p.dq())


def subspace_to_json(u: Subspace) -> list:
    return [point_to_json(p) for p in u.points()]


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(c) for c in row] for row in m.rows]


_NAMED_LABELS = ("S", "N", "E", "Y")


def quadric_to_json(q: QuadricForm):
    if q.label in _NAMED_LABELS or q.label.startswith("pencil("):
        return q.label
    return {"label": q.label, "gram": matrix_to_json(q.gram)}


def encode(obj):
    """Recursive JSON view of evidence and witness structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, ProjPoint):
        return point_to_json(obj)
    if isinstance(obj, Subspace):
        return subspace_to_json(obj)
    # a Quadrilateral exists only once dyads is loaded; encoding needs no more
    dyads = sys.modules.get(__package__ + ".dyads")
    if dyads is not None and isinstance(obj, dyads.Quadrilateral):
        return {"lines": [encode(l) for l in obj.lines],
                "vertices": [encode(v) for v in obj.vertices]}
    if isinstance(obj, Quaternion):
        return [scalar_to_json(c) for c in obj.coords()]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    raise TypeError("cannot encode %r" % type(obj).__name__)
