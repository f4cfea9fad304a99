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

Exact vectors (rational or Gaussian entries, mixed or not) take one
integer path on their kept forms, passed whole to ``kept``'s form
operations (the layout is described there).  A ``ProjPoint`` is a
one-row ``Matrix``, which keeps the form (``_kept``); one born from kept
rows (``ProjPoint._of``: lifts, ``Subspace.points``, ``quadrecon``'s
projections) makes its Scalars when ``coords`` is first read.  A reduced
basis keeps the rows ``rref`` computed it in, and ``Matrix._stacked``
hands kept rows on to ``rref`` in ``span``, ``join`` and central
projections.  ``contains`` and ``chart_coords`` decide membership by an
integer residue (``_residue_of``), and ``ProjPoint.__eq__`` by
``kept.proportional``, so neither makes a Scalar.  Meets, so central
projections, run on integers too: the residues of the kept rows, their
kernel (``kernel_forms``) and its combinations of the rows, so only the
reduced meet makes Scalars, when read.  ``lift`` is the chart point's
row times the basis.
A float coordinate anywhere sends the operation through the scalar
loop, which compares each float at its own tolerance, on values at
max-norm about one, scaled by a power of two
(``scalars._power_of_two_scale``, exact, so every representative that
differs by a power of two meets the same bits): ``contains`` and
``chart_coords`` read the point so, and ``chart_coords`` returns its
coordinates at that scale; ``meet`` reads each of its rows so; float
``ProjPoint.__eq__`` divides both points by their coordinate where the
first is largest.  So these answers do not depend on the representative.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .kept import (Cleared, cleared_image, first_nonzero, kernel_forms, proportional,
                   reduced_form, residue, transposed)
from .linalg import Matrix, Vector, nullspace, rref, vec_is_zero, vec_scale
from .quaternions import DualQuaternion
from .scalars import Scalar, ONE, ZERO, _power_of_two_scale


class ProjPoint:
    __slots__ = ("_row",)

    def __init__(self, coords: Sequence):
        if isinstance(coords, DualQuaternion):
            coords = coords.coords()
        row = Matrix([coords])
        if row.ncols < 2:
            raise GeometryError("a projective point needs at least two coordinates")
        if vec_is_zero(row.rows[0]):
            raise GeometryError("zero vector is not a projective point")
        self._row = row

    @classmethod
    def _of(cls, row: Matrix) -> "ProjPoint":
        """The trusted constructor: a nonzero one-row matrix."""
        p = object.__new__(cls)
        p._row = row
        return p

    @property
    def coords(self) -> Vector:
        return self._row.rows[0]

    def _kept(self) -> Optional[Cleared]:
        """The coordinates cleared (``kept.cleared``), or None when one is
        a float: the kept row of the point's matrix."""
        forms = self._row._cleared_rows()
        return None if forms is None else forms[0]

    @property
    def ambient(self) -> int:
        return self._row.ncols

    def dq(self) -> DualQuaternion:
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
        ka, kb = self._kept(), other._kept()
        if ka is not None and kb is not None:
            return proportional(ka, kb)
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
        """basis must be in reduced row echelon form (floats compared at
        their tolerance), or GeometryError is raised."""
        pivots = ()
        if basis is not None:
            if basis.ncols != ambient:
                raise GeometryError("a subspace basis needs one column per coordinate: "
                                    "expected %d, got %d" % (ambient, basis.ncols))
            red, pivots = rref(basis)
            if len(pivots) < basis.nrows or red != basis:
                raise GeometryError("a subspace basis must be in reduced row echelon form")
        self.basis, self.ambient, self._pivots = basis, ambient, pivots

    @classmethod
    def _of(cls, basis: Matrix, pivots: Tuple[int, ...], ambient: int) -> "Subspace":
        """The trusted constructor: a reduced basis and its pivot columns."""
        u = object.__new__(cls)
        u.basis, u.ambient, u._pivots = basis, ambient, pivots
        return u

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ambient: int) -> "Subspace":
        if not len(rows):
            return Subspace(None, ambient)
        return _reduced(Matrix(rows), ambient)

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
        return [ProjPoint._of(self.basis._slice(i, i + 1)) for i in range(self.basis.nrows)]

    def _residue(self, v: Sequence[Scalar]) -> Vector:
        """v minus the basis rows, each scaled by v's entry at its pivot, by
        the scalar loop ``o + c*r``.

        The result vanishes at every pivot column, and everywhere exactly
        when v lies in the subspace.
        """
        out = tuple(v)
        for j, row in zip(self._pivots, self.basis.rows):
            c = -v[j]
            out = tuple(o + c * r for o, r in zip(out, row))
        return out

    def _residue_of(self, v: Cleared) -> Cleared:
        """``_residue`` of a kept form, for an exact basis (``kept.residue``)."""
        return residue(v, self.basis._cleared_rows(), self._pivots)

    def _read(self, p: ProjPoint) -> Optional[Matrix]:
        """p's row as membership reads it, or None when p lies outside.  An
        exact p in an exact subspace is tested on integers and read as it is,
        with no Scalar made; otherwise p is taken at max-norm about one, by a
        power of two, and its residue compared at each float's tolerance."""
        _require_ambient(self.ambient, p)
        kept = p._kept()
        if kept is not None and self.basis._cleared_rows() is not None:
            return p._row if first_nonzero(self._residue_of(kept)) is None else None
        coords = vec_scale(_power_of_two_scale(p.coords), p.coords)
        return Matrix._of([coords]) if vec_is_zero(self._residue(coords)) else None

    def contains(self, p: ProjPoint) -> bool:
        return self.basis is not None and self._read(p) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.basis is None:
            return True
        return all(self.contains(p) for p in other.points())

    def _require_chart(self) -> None:
        if self.basis is None:
            raise GeometryError("the empty subspace has no chart")
        if self.basis.nrows == 1:
            raise GeometryError("a point (projective dimension 0) has no chart: "
                                "its coordinates would be a single number")

    def lift(self, chart_point: ProjPoint) -> ProjPoint:
        """Chart coordinates (relative to the basis rows) to ambient point."""
        self._require_chart()
        if chart_point.ambient != self.basis.nrows:
            raise GeometryError("a chart point has one coordinate per basis row")
        return ProjPoint._of(chart_point._row * self.basis)

    def chart_coords(self, p: ProjPoint) -> Optional[ProjPoint]:
        """Coordinates of p in this subspace's basis, or None if outside."""
        if self.basis is None:
            return None
        self._require_chart()
        row = self._read(p)
        if row is None:
            return None
        return ProjPoint([row[0, j] for j in self._pivots])

    def conjugation_closed(self) -> bool:
        # the conjugate rows are the canonical basis of the conjugate space
        return self.basis is None or self.basis.is_real()

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


def _require_ambient(ambient: int, *items) -> None:
    """GeometryError unless every point or subspace has ambient coordinates."""
    for x in items:
        if x.ambient != ambient:
            raise GeometryError("expected points and subspaces of %d coordinates, got %d"
                                % (ambient, x.ambient))


def _reduced(m: Matrix, ambient: int) -> Subspace:
    """The row space of m, on its reduced nonzero rows."""
    red, pivots = rref(m)
    if not pivots:
        return Subspace.empty(ambient)
    return Subspace._of(red._slice(0, len(pivots)), pivots, ambient)


def span(points: Sequence[ProjPoint]) -> Subspace:
    if not points:
        raise GeometryError("a span needs at least one point")
    ambient = points[0].ambient
    _require_ambient(ambient, *points)
    return _reduced(Matrix._stacked([p._row for p in points]), ambient)


def join(a: Subspace, b: Subspace) -> Subspace:
    """The span of both; exact bases are eliminated from their kept rows."""
    _require_ambient(a.ambient, b)
    bases = [u.basis for u in (a, b) if u.basis is not None]
    if not bases:
        return Subspace.empty(a.ambient)
    return _reduced(Matrix._stacked(bases), a.ambient)


def _meet_rows(rows: Matrix, b: Subspace) -> Subspace:
    """The meet of b with the span of independent rows: a combination of
    the rows lies in b exactly when the same combination of their residues
    modulo b vanishes, so the kernel of the residues, one column per row,
    spans the meet.

    Exact rows and basis run on integers: the residues of the kept rows,
    the kernel of their transpose and its combinations of the rows, so
    only the reduced meet makes Scalars, when read.
    """
    if b.basis is None:
        return Subspace.empty(b.ambient)
    forms = rows._cleared_rows()
    if forms is None or b.basis._cleared_rows() is None:
        # each row at max-norm about one, so no representative moves the tolerance
        rows = Matrix._of([vec_scale(_power_of_two_scale(row), row) for row in rows.rows])
        kernel = nullspace(Matrix._of(zip(*[b._residue(row) for row in rows.rows])))
        if not kernel:
            return Subspace.empty(b.ambient)
        return _reduced(Matrix._of(kernel) * rows, b.ambient)
    residues = transposed([b._residue_of(v) for v in forms])
    red, pivots = rref(Matrix._of_cleared(residues))
    kernel = kernel_forms(red._cleared_rows(), pivots)
    if not kernel:
        return Subspace.empty(b.ambient)
    out = [reduced_form(*cleared_image(forms, c)) for c in kernel]
    return _reduced(Matrix._of_cleared(out), b.ambient)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces; the empty subspace when disjoint."""
    _require_ambient(a.ambient, b)
    return Subspace.empty(a.ambient) if a.basis is None else _meet_rows(a.basis, b)


class Line(Subspace):
    """Projective line."""

    __slots__ = ()

    def __init__(self, basis: Matrix, ambient: int):
        super().__init__(basis, ambient)
        if self.dim != 1:
            raise GeometryError("a line has a basis of two rows")

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
        return Line._of(s.basis, s._pivots, s.ambient)

    @staticmethod
    def of(sub: Subspace) -> "Line":
        if sub.dim != 1:
            raise GeometryError("a line has a basis of two rows")
        return Line._of(sub.basis, sub._pivots, sub.ambient)


# --- the exceptional generator and the fiber projectivity ---------------

_EPS_H = Subspace.from_rows([[ONE if j == 4 + k else ZERO for j in range(8)]
                             for k in range(4)], 8)


def exceptional_generator() -> Subspace:
    """The 3-space [eps H] of vanishing primal part."""
    return _EPS_H


def fiber_projectivity(x: ProjPoint) -> ProjPoint:
    """phi([x' + eps x'']) = [eps x']."""
    _require_ambient(8, x)
    if all(c.is_zero() for c in x.coords[:4]):
        raise GeometryError(
            "fiber projectivity undefined on the exceptional generator")
    return ProjPoint(tuple([ZERO] * 4) + tuple(x.coords[:4]))


def fiber_image(u: Subspace) -> Subspace:
    """Span of phi over all of u (equivalently over basis points off eps H)."""
    _require_ambient(8, u)
    rows = [] if u.basis is None else [
        (ZERO,) * 4 + row[:4] for row in u.basis.rows if not vec_is_zero(row[:4])]
    if not rows:
        raise GeometryError(
            "fiber projectivity undefined on the exceptional generator")
    return _reduced(Matrix._of(rows), 8)


def fiber_line(x: ProjPoint) -> Line:
    return Line.through(x, fiber_projectivity(x))


def project_from_center(x: ProjPoint, center: Subspace, target: Subspace) -> ProjPoint:
    _require_ambient(x.ambient, center, target)
    if center.contains(x):
        raise GeometryError("projection not well defined")
    # x off the centre keeps x and the centre's rows independent
    rows = x._row if center.basis is None else Matrix._stacked([x._row, center.basis])
    image = _meet_rows(rows, target)
    if image.dim != 0:
        raise GeometryError("projection not well defined")
    return image.points()[0]


# --- the conjugation map chi --------------------------------------------

def chi_point(p: ProjPoint) -> ProjPoint:
    """Quaternion conjugation on both halves: [q] -> [conj(q)]."""
    _require_ambient(8, p)
    q = p.dq().conjugate()
    return ProjPoint(q.coords())


def chi_subspace(u: Subspace) -> Subspace:
    _require_ambient(8, u)
    if u.basis is None:
        return u
    return _reduced(Matrix._of([(w, -x, -y, -z, dw, -dx, -dy, -dz)
                                for w, x, y, z, dw, dx, dy, dz in u.basis.rows]), 8)
