"""Quadric forms and the pencil geometry used throughout the package.

The absolute pencil on P^7 is spanned by the null cone N (primal norm)
and the Study quadric S (dual norm part).  Common lines of two quadric
surfaces in a 3-space chart are located through degenerate pencil
members: a pencil whose base locus contains a line has a determinant
form that is a perfect square, so every line sits inside a member at a
multiple root (or at infinity when the far member is degenerate enough).
One degenerate member is enough: every member q1 + s q2 vanishes on each
common line, so the lines on the anchor q1 inside the first degenerate
member, each checked against both forms, are all the common lines (a
singular member contains the whole base locus; Hodge & Pedoe, *Methods
of Algebraic Geometry* II, book IV, ch. XIII).  Exact forms give exact
lines, or ``ExactnessError`` where a needed square root leaves the
Gaussian rationals; forms with a float entry raise ``ExactnessError``
too.  The determinant det(q1 + s q2) is expanded by cofactors on the two
grams' cleared integer rows (``_pencil_det``), over Z or over Z[i] when
an entry is Gaussian, and stays integer: its gcd with its derivative
holds the repeated roots, and Scalars are made only for the at most
three coefficients that are split.

One splitter, ``_components``, splits every form of rank one or two
into the matrices of its components' spanning rows: the planes of a
degenerate member, the lines of a degenerate conic, and the lines
through a point of a quadric, a conic in its tangent plane
(``_lines_through``, for a cone vertex and for ``dyads.recover_axes``).
A candidate line travels as two rows, a conic's component times the
rows of its plane, kept where exact.

A line lies on a quadric when the form restricted to two of its points
vanishes (``QuadricForm.contains_line``, integer sums on exact input);
that one test verifies common lines and decides null lines, which lie
on both S and N.  S and N are built once, at import.  The ruling family
of a line in Y is decided by one quaternion product: for a null a, a H
is where conj(a) b vanishes and H a where b conj(a) does; float points
are tested at max-norm about one, scaled by a power of two, so each
float keeps its own tolerance.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import List, NoReturn, Optional, Tuple

from .errors import ExactnessError, GeometryError, InvariantError
from .kept import (NO_POLY, IntPoly, cleared_image, derivative, dot_numerator, flat_cleared,
                   int_gcd, poly_product, poly_sum, proportional, scalars_of, stripped)
from .linalg import (
    Matrix,
    Vector,
    _kernel,
    nullspace,
    rank,
    rref,
    signature as matrix_signature,
    vec_dot,
    vec_is_zero,
    vec_scale,
)
from .polys import Poly, low_degree_roots, monic, split_quadratic
from .projgeom import Line, ProjPoint, Subspace
from .quaternions import Quaternion
from .scalars import ComplexFloat, Scalar, ZERO, _power_of_two_scale, scalar, scalar_to_json


class QuadricForm:
    __slots__ = ("gram", "label")

    def __init__(self, gram: Matrix, label: str = "restricted"):
        if not gram.is_symmetric():
            raise GeometryError("a quadric form needs a square symmetric gram")
        self.gram = gram
        self.label = label

    @property
    def n(self) -> int:
        return self.gram.nrows

    def value(self, p: ProjPoint) -> Scalar:
        return self.polar(p, p)

    def _require_points(self, *points: ProjPoint) -> None:
        for p in points:
            if p.ambient != self.n:
                raise GeometryError("a form on %d coordinates takes points of %d, got %d"
                                    % (self.n, self.n, p.ambient))

    def polar(self, p: ProjPoint, q: ProjPoint) -> Scalar:
        self._require_points(p, q)
        return vec_dot(p.coords, self.gram.apply(q.coords))

    def contains(self, p: ProjPoint) -> bool:
        return self.value(p).is_zero()

    def contains_line(self, a: ProjPoint, b: ProjPoint) -> bool:
        """Whether the form vanishes on the span of a and b: E G E^T = 0, E = [a; b].

        G is symmetric, so that is a.Ga = a.Gb = b.Gb = 0.  On exact input
        Ga and Gb are integer vectors over one denominator, built from the
        gram's cleared columns, and the three tests are integer sums.
        """
        self._require_points(a, b)
        cols = self.gram._cleared_columns()
        ca = None if cols is None else a._kept()
        cb = None if ca is None else b._kept()
        if cb is None:
            e = Matrix._stacked([a._row, b._row])
            return (e * self.gram * e.transpose()).is_zero()
        ga, gb = cleared_image(cols, ca), cleared_image(cols, cb)
        return not any(x for u, v in ((ca, ga), (ca, gb), (cb, gb))
                       for x in dot_numerator(u, v))

    def rank(self) -> int:
        return rank(self.gram)

    def signature(self) -> Tuple[int, int, int]:
        return matrix_signature(self.gram)

    def __repr__(self):
        return "QuadricForm(%s, %r)" % (self.label, self.gram)


def pencil_member(nu, sigma) -> QuadricForm:
    """8x8 member [[nu I, sigma I], [sigma I, 0]] of the absolute pencil."""
    nu, sigma = scalar(nu), scalar(sigma)
    if nu.is_zero() and sigma.is_zero():
        raise GeometryError("degenerate pencil parameter")
    eye = Matrix.identity(4)
    gram = Matrix.block2x2(eye.scale(nu), eye.scale(sigma),
                           eye.scale(sigma), Matrix.zeros(4, 4))
    if sigma.is_zero():
        label = "N"
    elif nu.is_zero():
        label = "S"
    else:
        label = "pencil(%s,%s)" % (scalar_to_json(nu), scalar_to_json(sigma))
    return QuadricForm(gram, label)


_STUDY = pencil_member(0, 1)
_NULL = pencil_member(1, 0)


def study_quadric() -> QuadricForm:
    return _STUDY


def null_cone() -> QuadricForm:
    return _NULL


def quadric_e() -> QuadricForm:
    """The norm form on the primal chart [H]: p -> p conj(p)."""
    return QuadricForm(Matrix.identity(4), "E")


def quadric_y() -> QuadricForm:
    """The norm form on the exceptional chart [eps H]: eps d -> d conj(d)."""
    return QuadricForm(Matrix.identity(4), "Y")


def quadric_y8() -> QuadricForm:
    """Rank-4 extension of Y to all of P^7."""
    z = Matrix.zeros(4, 4)
    return QuadricForm(Matrix.block2x2(z, z, z, Matrix.identity(4)), "Y")


def restrict(form: QuadricForm, u: Subspace) -> QuadricForm:
    if u.basis is None:
        raise GeometryError("the empty subspace has no restricted form")
    if u.ambient != form.n:
        raise GeometryError("a form on %d coordinates restricts to subspaces of %d, got %d"
                            % (form.n, form.n, u.ambient))
    gram = u.basis * form.gram * u.basis.transpose()
    return QuadricForm(gram, "restricted")


def is_null_line(x: ProjPoint, y: ProjPoint) -> bool:
    """Whether the whole line through x and y sits inside both S and N."""
    _require_p7(x, y)
    if x == y:
        raise GeometryError("coincident points do not span a line")
    return study_quadric().contains_line(x, y) and null_cone().contains_line(x, y)


def _require_p7(a: ProjPoint, b: ProjPoint) -> None:
    if a.ambient != 8 or b.ambient != 8:
        raise GeometryError("a line of P^7 needs two points of 8 coordinates, got %d and %d"
                            % (a.ambient, b.ambient))


class Handedness(enum.Enum):
    RightRuling = "RightRuling"
    LeftRuling = "LeftRuling"
    NotARuling = "NotARuling"


def ruling_handedness(a: ProjPoint, b: ProjPoint) -> Handedness:
    """Which ruling family of Y the line [a] v [b] belongs to.

    Right rulings are the orbits b = a q of right multiplication, left
    rulings the orbits b = q a; both points must lie on Y inside the
    exceptional generator.  For a null quaternion a the orbit a H is the
    right annihilator of conj(a) and H a the left one, both planes, so
    membership is one product each.  Neither vanishes for nonzero a and b
    unless both are null, since any other quaternion is invertible.
    Points with a float coordinate are tested at max-norm about one, each
    scaled by a power of two, so the answer does not depend on their
    representatives.
    """
    _require_p7(a, b)
    if a == b:
        raise GeometryError("coincident points do not span a line")
    x, y = a.coords, b.coords
    if ComplexFloat in map(type, x + y):
        x, y = (vec_scale(_power_of_two_scale(v), v) for v in (x, y))
    for v in (x, y):
        if not all(c.is_zero() for c in v[:4]):
            return Handedness.NotARuling
    ca, db = Quaternion(*x[4:]).conjugate(), Quaternion(*y[4:])
    right, left = (ca * db).is_zero(), (db * ca).is_zero()
    if right and left:
        # a H intersects H a in the span of a only, so distinct points
        # never lie in both
        raise InvariantError("ruling ambiguity for distinct points")
    if right:
        return Handedness.RightRuling
    if left:
        return Handedness.LeftRuling
    return Handedness.NotARuling


# --- common lines of two quadric surfaces in a 3-space chart -------------

def _pencil_det(g1: Matrix, g2: Matrix) -> IntPoly:
    """det(g1 + s*g2) of two exact 4x4 grams up to a positive factor, as an
    integer polynomial: expanded by cofactors along the first row on their
    cleared rows, over Z, or over Z[i] as (re, im) pairs when an entry is
    Gaussian.

    Row i of the pencil is taken over d1*d2, the denominators of the two
    cleared rows, which scales the determinant by their positive product
    and moves no root.  Its kinds mask is the scalar loop's: the expansion
    here skips zero entries, strips trailing zeros and spreads Gaussian
    kinds where a cofactor expansion over ``Poly`` entries
    [g1[i, j], g2[i, j]] does.
    """
    rows1, rows2 = g1._cleared_rows(), g2._cleared_rows()
    gaussian = any(kinds for _, _, _, kinds in rows1 + rows2)
    entries = []
    for (r1, i1, d1, k1), (r2, i2, d2, k2) in zip(rows1, rows2):
        row = []
        for j in range(4):
            im = [i1[j] * d2 if i1 else 0, i2[j] * d1 if i2 else 0] if gaussian else None
            row.append(stripped([r1[j] * d2, r2[j] * d1], im,
                                 (k1 >> j & 1) | (k2 >> j & 1) << 1))
        entries.append(row)

    # the minor on the last len(cols) rows and the columns cols, bottom up
    minors = {(j,): entries[3][j] for j in range(4)}
    for size in (2, 3, 4):
        row = entries[4 - size]
        for cols in combinations(range(4), size):
            out = NO_POLY
            for k, j in enumerate(cols):
                if row[j][0]:
                    term = poly_product(row[j], minors[cols[:k] + cols[k + 1:]])
                    out = poly_sum(out, term, -1 if k % 2 else 1)
            minors[cols] = out
    return minors[(0, 1, 2, 3)]


def _components(form: Matrix) -> Tuple[List[Vector], List[Matrix]]:
    """The kernel of a form, and the linear components, each the matrix of
    its spanning rows, when its rank is one (the kernel) or two; none
    otherwise.

    At rank two the unit points at the two pivot columns span a line
    that complements the kernel, so each hyperplane is the kernel joined
    with one root of the form on that line.
    """
    red, pivots = rref(form)
    kern = _kernel(red, pivots)
    if len(pivots) == 1:
        return kern, [Matrix._of(kern)]
    if len(pivots) != 2:
        return kern, []
    j1, j2 = pivots
    components = []
    for alpha, beta in split_quadratic(form[j1, j1], form[j1, j2], form[j2, j2]):
        coords = [ZERO] * form.ncols
        coords[j1], coords[j2] = alpha, beta
        components.append(Matrix._of(kern + [coords]))
    return kern, components


def _plane_lines(form: QuadricForm, plane: Matrix) -> List[Matrix]:
    """The lines of a quadric in the plane spanned by the rows of plane, two
    rows each: the lines of the conic it cuts, lifted by those rows."""
    conic = plane * form.gram * plane.transpose()
    return [line * plane for line in _components(conic)[1]]


def _lines_through(form: QuadricForm, p: ProjPoint) -> List[Matrix]:
    """The lines of a quadric through a point p of it, two rows each: the
    lines of the conic it cuts in the tangent plane at p, singular at p."""
    polar = form.gram.apply(p.coords)
    if vec_is_zero(polar):
        raise GeometryError("a singular point of the quadric has no tangent plane")
    return _plane_lines(form, Matrix._of(nullspace(Matrix._of([polar]))))


def _member_lines(member: Matrix, anchor: QuadricForm) -> List[Matrix]:
    """Candidate common lines contributed by one degenerate member, two rows
    each: the anchor's lines in each plane of the member, or through its
    vertex."""
    kern, planes = _components(member)
    if len(kern) == 1:
        vertex = ProjPoint(kern[0])
        return _lines_through(anchor, vertex) if anchor.contains(vertex) else []
    return [line for plane in planes for line in _plane_lines(anchor, plane)]


def _line_sort_key(line: Line) -> str:
    return ";".join(",".join(str(c) for c in row) for row in line.basis.rows)


def _first_exact_member(det: IntPoly, g1: Matrix, g2: Matrix) -> Optional[Matrix]:
    """The first degenerate member of an exact pencil g1 + s*g2: at the first
    repeated root of its determinant det (``_pencil_det``), else g2 when the
    far member is degenerate, else None.

    The repeated roots are the roots of g = gcd(det, det').  det has degree
    at most four, so g is cubic only when det = c (s - r)^4, and then g' has
    the one root r; at degree two or less ``low_degree_roots`` lists the
    distinct roots.  g is split monic, since the square root there orders
    the roots, and its coefficients are Gaussian when one of det's is.
    """
    re, _, kinds = det
    if len(re) >= 2:
        g = int_gcd(det, derivative(det))
        if len(g[0]) == 4:
            g = derivative(g)
        if len(g[0]) >= 2:
            gre, gim, _ = g
            mask = (1 << len(gre)) - 1 if kinds else 0
            roots = low_degree_roots(monic(Poly(scalars_of(gre, gim, 1, mask))))
            if roots is None:
                raise ExactnessError(
                    "the repeated roots of the pencil determinant are not in Q(i)")
            # a polynomial of degree one or two has a root here
            return g1 + g2.scale(roots[0])
    return g2 if len(re) <= 3 else None


# bench/tracing.py binds this by name: a traced run counts its calls as the
# float forms that reached common_lines
def _float_member_grams() -> NoReturn:
    """Refuse a pencil with any float entry: its common lines are not exact."""
    raise ExactnessError("common lines need exact scalars")


def common_lines(q1: QuadricForm, q2: QuadricForm) -> List[Line]:
    """All lines lying on both quadric surfaces of a 3-space chart.

    q1 anchors the pencil and must be regular.  The lines are exact, and
    ExactnessError is raised when a form has a float entry, or when a
    pencil root, or a line pair of the first degenerate member, needs a
    square root outside the Gaussian rationals.
    """
    if q1.n != 4 or q2.n != 4:
        raise GeometryError("common lines need two forms of a 3-space chart, 4x4 grams, "
                            "got %dx%d and %dx%d" % (q1.n, q1.n, q2.n, q2.n))
    if not (q1.gram.is_exact() and q2.gram.is_exact()):
        _float_member_grams()
    if rank(q1.gram) != 4:
        raise GeometryError("pencil anchor must be regular")
    # the grams as points of P^15; a zero q2 reads as the point of q1
    if proportional(flat_cleared(q1.gram._cleared_rows()), flat_cleared(q2.gram._cleared_rows())):
        raise GeometryError("identical quadrics")
    det = _pencil_det(q1.gram, q2.gram)
    assert det[0]

    member = _first_exact_member(det, q1.gram, q2.gram)
    if member is None:
        return []
    # every member contains each common line, so the first degenerate
    # member's lines on the anchor hold them all
    lines: List[Line] = []
    for rows in _member_lines(member, q1):
        a, b = (ProjPoint._of(rows._slice(i, i + 1)) for i in (0, 1))
        if q1.contains_line(a, b) and q2.contains_line(a, b):
            line = Line.through(a, b)
            if not any(line == seen for seen in lines):
                lines.append(line)
    return sorted(lines, key=_line_sort_key)
