"""Projective points, subspaces and lines of P^7 (and its charts).

Subspaces are canonicalized to reduced row echelon form, so equality of
subspaces is equality of representations.  Membership, chart
coordinates and meets are read off that form: each basis row has a one
at its pivot column where the other rows vanish, so a vector's entries
at the pivot columns are its coordinates in the basis, and the vector
lies in the subspace exactly when it equals their combination of the
rows.  The ambient dimension is 8 for dual quaternion space; restricted
charts use smaller vectors.

``meet`` and ``project_from_center`` share one kernel, ``_meet_rows``:
the meet of a subspace with the span of independent rows is spanned by
the kernel of the rows' residues.  A central projection hands it the
point's row and the centre's rows directly, without canonicalising
their join first.  The exceptional generator [eps H] is built once, at
import.

Exact vectors (rational or Gaussian entries, mixed or not) take integer
paths: residues (so ``contains``, ``chart_coords``, ``meet`` and
projections) and ``lift`` go through ``linalg._combination``, and
``ProjPoint.__eq__`` cross-multiplies the cleared coordinates
(``linalg._proportional``) instead of normalising both points.  A float
coordinate anywhere sends the operation through the scalar loop, which
compares at the floats' tolerance.  ``contains`` and ``chart_coords``
first scale the point to max-norm one (``scalars._unit_scale``) when it
or the subspace's basis has a float coordinate, and float
``ProjPoint.__eq__`` divides both points by their coordinate where the
first is largest, so these answers do not depend on the representative;
``meet`` still compares unscaled values.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence

from .errors import GeometryError
from .linalg import (Matrix, Vector, _cleared, _combination, _proportional, as_vector,
                     nullspace, rref, vec_is_zero, vec_scale)
from .quaternions import DualQuaternion
from .scalars import ComplexFloat, Scalar, ONE, ZERO, _unit_scale


class ProjPoint:
    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        if isinstance(coords, DualQuaternion):
            coords = coords.coords()
        cs = as_vector(coords)
        assert len(cs) >= 2
        if vec_is_zero(cs):
            raise GeometryError("zero vector is not a projective point")
        self.coords = cs

    @property
    def ambient(self) -> int:
        return len(self.coords)

    def dq(self) -> DualQuaternion:
        assert len(self.coords) == 8
        return DualQuaternion.from_coords(self.coords)

    def normalized(self) -> "ProjPoint":
        """Representative scaled so the first nonzero coordinate is one."""
        pivot = next(c for c in self.coords if not c.is_zero())
        inv = ONE / pivot
        return ProjPoint([inv * c for c in self.coords])

    def scalar_conjugate(self) -> "ProjPoint":
        return ProjPoint([c.conjugate() for c in self.coords])

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        ca, cb = _cleared(self.coords), _cleared(other.coords)
        if ca is not None and cb is not None:
            return _proportional(ca, cb)
        # scale both at self's largest coordinate, so the tolerance meets
        # the same values whatever representatives were given
        k = max(range(self.ambient), key=lambda j: abs(self.coords[j].to_complex()))
        pa, pb = self.coords[k], other.coords[k]
        if pb.to_complex() == 0:
            return False
        return all(x / pa == y / pb for x, y in zip(self.coords, other.coords))

    __hash__ = None

    def __repr__(self):
        return "ProjPoint[%s]" % ", ".join(str(c) for c in self.coords)


class Subspace:
    """Projective subspace given by an RREF matrix of spanning rows.

    The empty subspace (projective dimension -1) has basis None.
    """

    __slots__ = ("basis", "ambient", "_pivots")

    def __init__(self, basis: Optional[Matrix], ambient: int):
        if basis is not None:
            assert basis.ncols == ambient
        self.basis = basis
        self.ambient = ambient
        self._pivots = () if basis is None else tuple(
            next(j for j, e in enumerate(row) if not e.is_zero()) for row in basis.rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ambient: int) -> "Subspace":
        mat = Matrix(rows) if len(rows) else None
        if mat is None:
            return Subspace(None, ambient)
        red, pivots = rref(mat)
        if not pivots:
            return Subspace(None, ambient)
        return Subspace(Matrix._of(red.rows[:len(pivots)]), ambient)

    @staticmethod
    def empty(ambient: int) -> "Subspace":
        return Subspace(None, ambient)

    @property
    def dim(self) -> int:
        """Projective dimension."""
        return -1 if self.basis is None else self.basis.nrows - 1

    def points(self) -> List[ProjPoint]:
        if self.basis is None:
            return []
        return [ProjPoint(row) for row in self.basis.rows]

    def _residue(self, v: Sequence[Scalar]) -> Vector:
        """v minus the basis rows, each scaled by v's entry at its pivot.

        The result vanishes at every pivot column, and everywhere exactly
        when v lies in the subspace.
        """
        return _combination(v, [-v[j] for j in self._pivots], self.basis)

    def _holds(self, p: ProjPoint) -> bool:
        """Whether p's residue vanishes, p taken at max-norm one when p or the
        basis has a float coordinate, by a factor at their largest tolerance."""
        assert p.ambient == self.ambient
        coords = p.coords
        if ComplexFloat in map(type, chain(coords, *self.basis.rows)):
            tolerance = max(e.tolerance for e in chain(coords, *self.basis.rows)
                            if type(e) is ComplexFloat)
            coords = vec_scale(_unit_scale(coords, tolerance), coords)
        return vec_is_zero(self._residue(coords))

    def contains(self, p: ProjPoint) -> bool:
        return self.basis is not None and self._holds(p)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.basis is None:
            return True
        return all(self.contains(p) for p in other.points())

    def _require_chart(self) -> None:
        if self.basis.nrows == 1:
            raise GeometryError("a point (projective dimension 0) has no chart: "
                                "its coordinates would be a single number")

    def lift(self, chart_point: ProjPoint) -> ProjPoint:
        """Chart coordinates (relative to the basis rows) to ambient point."""
        assert self.basis is not None
        self._require_chart()
        assert chart_point.ambient == self.basis.nrows
        return ProjPoint(_combination((ZERO,) * self.ambient, chart_point.coords,
                                      self.basis))

    def chart_coords(self, p: ProjPoint) -> Optional[ProjPoint]:
        """Coordinates of p in this subspace's basis, or None if outside."""
        if self.basis is None:
            return None
        self._require_chart()
        if not self._holds(p):
            return None
        return ProjPoint([p.coords[j] for j in self._pivots])

    def conjugation_closed(self) -> bool:
        # the conjugate rows are the canonical basis of the conjugate space
        if self.basis is None:
            return True
        return all(c.conjugate() == c for row in self.basis.rows for c in row)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        if (self.basis is None) != (other.basis is None):
            return False
        if self.basis is None:
            return True
        return self.basis == other.basis

    __hash__ = None

    def __repr__(self):
        if self.basis is None:
            return "Subspace(empty, ambient=%d)" % self.ambient
        rows = "; ".join(", ".join(str(c) for c in r) for r in self.basis.rows)
        return "Subspace[%s]" % rows


def span(points: Sequence[ProjPoint]) -> Subspace:
    assert points
    ambient = points[0].ambient
    assert all(p.ambient == ambient for p in points)
    return Subspace.from_rows([p.coords for p in points], ambient)


def join(a: Subspace, b: Subspace) -> Subspace:
    assert a.ambient == b.ambient
    rows = []
    if a.basis is not None:
        rows += list(a.basis.rows)
    if b.basis is not None:
        rows += list(b.basis.rows)
    return Subspace.from_rows(rows, a.ambient)


def _meet_rows(rows: Sequence[Vector], b: Subspace) -> Subspace:
    """The meet of b with the span of independent rows: a combination of
    the rows lies in b exactly when the same combination of their residues
    modulo b vanishes, so the kernel of the residues, one column per row,
    spans the meet."""
    if b.basis is None:
        return Subspace.empty(b.ambient)
    kernel = nullspace(Matrix._of(zip(*[b._residue(row) for row in rows])))
    if not kernel:
        return Subspace.empty(b.ambient)
    return Subspace.from_rows((Matrix._of(kernel) * Matrix._of(rows)).rows, b.ambient)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces; the empty subspace when disjoint."""
    assert a.ambient == b.ambient
    return Subspace.empty(a.ambient) if a.basis is None else _meet_rows(a.basis.rows, b)


class Line(Subspace):
    """Projective line."""

    __slots__ = ()

    def __init__(self, basis: Matrix, ambient: int):
        super().__init__(basis, ambient)
        assert self.dim == 1

    # bench/tracing.py reads this by name to count float lines
    @property
    def approx(self) -> bool:
        """Whether the line holds float coordinates, so is known only at tolerance."""
        return not self.basis.is_exact()

    @staticmethod
    def through(x: ProjPoint, y: ProjPoint) -> "Line":
        s = span([x, y])
        if s.dim != 1:
            raise GeometryError("coincident points do not span a line")
        return Line(s.basis, s.ambient)

    @staticmethod
    def of(sub: Subspace) -> "Line":
        assert sub.dim == 1
        return Line(sub.basis, sub.ambient)


# --- the exceptional generator and the fiber projectivity ---------------

_EPS_H = Subspace.from_rows([[ONE if j == 4 + k else ZERO for j in range(8)]
                             for k in range(4)], 8)


def exceptional_generator() -> Subspace:
    """The 3-space [eps H] of vanishing primal part."""
    return _EPS_H


def fiber_projectivity(x: ProjPoint) -> ProjPoint:
    """phi([x' + eps x'']) = [eps x']."""
    assert x.ambient == 8
    if all(c.is_zero() for c in x.coords[:4]):
        raise GeometryError(
            "fiber projectivity undefined on the exceptional generator")
    return ProjPoint(tuple([ZERO] * 4) + tuple(x.coords[:4]))


def fiber_image(u: Subspace) -> Subspace:
    """Span of phi over all of u (equivalently over basis points off eps H)."""
    assert u.ambient == 8
    rows = [] if u.basis is None else [
        (ZERO,) * 4 + row[:4] for row in u.basis.rows if not vec_is_zero(row[:4])]
    if not rows:
        raise GeometryError(
            "fiber projectivity undefined on the exceptional generator")
    return Subspace.from_rows(rows, 8)


def fiber_line(x: ProjPoint) -> Line:
    return Line.through(x, fiber_projectivity(x))


def project_from_center(x: ProjPoint, center: Subspace, target: Subspace) -> ProjPoint:
    if center.contains(x):
        raise GeometryError("projection not well defined")
    # x off the centre keeps x and the centre's rows independent
    rows = (x.coords,) if center.basis is None else (x.coords,) + center.basis.rows
    image = _meet_rows(rows, target)
    if image.dim != 0:
        raise GeometryError("projection not well defined")
    return image.points()[0]


# --- the conjugation map chi --------------------------------------------

def chi_point(p: ProjPoint) -> ProjPoint:
    """Quaternion conjugation on both halves: [q] -> [conj(q)]."""
    assert p.ambient == 8
    q = p.dq().conjugate()
    return ProjPoint(q.coords())


def chi_subspace(u: Subspace) -> Subspace:
    assert u.ambient == 8
    if u.basis is None:
        return u
    return Subspace.from_rows([(w, -x, -y, -z, dw, -dx, -dy, -dz)
                               for w, x, y, z, dw, dx, dy, dz in u.basis.rows], 8)
