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
Gaussian rationals; float forms give float lines at their tolerance.
Neither kind falls back on the other.

A line lies on a quadric when the form restricted to two of its points
vanishes (``QuadricForm.contains_line``, integer sums on exact input);
that one test verifies common lines and decides null lines, which lie
on both S and N.  S and N are built once, at import.  The ruling family
of a line in Y is read from quaternion ideals: for a null a, a H is
where conj(a) b vanishes and H a where b conj(a) does.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from .errors import ExactnessError, GeometryError, InvariantError
from .linalg import (
    Matrix,
    _cleared,
    _cleared_image,
    _dot_numerator,
    _kernel,
    nullspace,
    rank,
    rref,
    scalar_multiple_of,
    signature as matrix_signature,
    vec_dot,
)
from .polys import (Poly, _horner, durand_kerner, low_degree_roots, poly_gcd,
                    split_quadratic, squarefree_part)
from .projgeom import Line, ProjPoint, Subspace
from .quaternions import Quaternion
from .scalars import ComplexFloat, Scalar, scalar, scalar_to_json, ZERO


class QuadricForm:
    __slots__ = ("gram", "label")

    def __init__(self, gram: Matrix, label: str = "restricted"):
        assert gram.nrows == gram.ncols and gram.is_symmetric()
        self.gram = gram
        self.label = label

    @property
    def n(self) -> int:
        return self.gram.nrows

    def value(self, p: ProjPoint) -> Scalar:
        return self.polar(p, p)

    def polar(self, p: ProjPoint, q: ProjPoint) -> Scalar:
        assert p.ambient == self.n and q.ambient == self.n
        return vec_dot(p.coords, self.gram.apply(q.coords))

    def contains(self, p: ProjPoint) -> bool:
        return self.value(p).is_zero()

    def contains_line(self, a: ProjPoint, b: ProjPoint) -> bool:
        """Whether the form vanishes on the span of a and b: E G E^T = 0, E = [a; b].

        G is symmetric, so that is a.Ga = a.Gb = b.Gb = 0.  On exact input
        Ga and Gb are integer vectors over one denominator, built from the
        gram's cleared columns, and the three tests are integer sums.
        """
        assert a.ambient == self.n and b.ambient == self.n
        cols = self.gram._cleared_columns()
        ca = None if cols is None else _cleared(a.coords)
        cb = None if ca is None else _cleared(b.coords)
        if cb is None:
            e = Matrix._of([a.coords, b.coords])
            return (e * self.gram * e.transpose()).is_zero()
        ga, gb = _cleared_image(cols, ca), _cleared_image(cols, cb)
        return not any(x for u, v in ((ca, ga), (ca, gb), (cb, gb))
                       for x in _dot_numerator(u, v))

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
    assert u.basis is not None and u.ambient == form.n
    gram = u.basis * form.gram * u.basis.transpose()
    return QuadricForm(gram, "restricted")


def is_null_line(x: ProjPoint, y: ProjPoint) -> bool:
    """Whether the whole line through x and y sits inside both S and N."""
    assert x.ambient == 8 and y.ambient == 8
    if x == y:
        raise GeometryError("coincident points do not span a line")
    return study_quadric().contains_line(x, y) and null_cone().contains_line(x, y)


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
    membership is one product each.
    """
    assert a.ambient == 8 and b.ambient == 8
    if a == b:
        raise GeometryError("coincident points do not span a line")
    for p in (a, b):
        if not all(c.is_zero() for c in p.coords[:4]):
            return Handedness.NotARuling
    da = Quaternion(*a.coords[4:])
    db = Quaternion(*b.coords[4:])
    if not (da.norm().is_zero() and db.norm().is_zero()):
        return Handedness.NotARuling
    ca = da.conjugate()
    right = (ca * db).is_zero()
    left = (db * ca).is_zero()
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

def _det_poly(rows: List[List[Poly]]) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = Poly([])
    for j in range(n):
        e = rows[0][j]
        if e.is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = e * _det_poly(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def _pencil_det(g1: Matrix, g2: Matrix) -> Poly:
    rows = [[Poly([g1[i, j], g2[i, j]]) for j in range(4)] for i in range(4)]
    return _det_poly(rows)


def _split_points(gram: Matrix, pivots: Sequence[int]) -> List[ProjPoint]:
    """Where the two hyperplanes of a rank-2 form cut the pivot-column line.

    The unit points at the two pivot columns span a line that complements
    the kernel, so each hyperplane is the kernel joined with one point.
    """
    j1, j2 = pivots
    points = []
    for alpha, beta in split_quadratic(gram[j1, j1], gram[j1, j2], gram[j2, j2]):
        coords = [ZERO] * gram.ncols
        coords[j1], coords[j2] = alpha, beta
        points.append(ProjPoint(coords))
    return points


def _conic_line_pairs(conic: Matrix) -> List[Tuple[ProjPoint, ProjPoint]]:
    """Lines of a degenerate conic in a plane chart, as point pairs."""
    assert conic.nrows == 3
    red, pivots = rref(conic)
    kern = _kernel(red, pivots)
    if len(pivots) == 3:
        return []
    if len(pivots) == 2:
        vertex = ProjPoint(kern[0])
        return [(vertex, d) for d in _split_points(conic, pivots)]
    if len(pivots) == 1:
        return [(ProjPoint(kern[0]), ProjPoint(kern[1]))]
    raise GeometryError("degenerate conic extraction")


def _member_line_pairs(member: Matrix, anchor: QuadricForm):
    """Candidate common lines contributed by one degenerate member."""
    red, pivots = rref(member)
    kern = _kernel(red, pivots)
    if len(pivots) == 4:
        return []
    if len(pivots) == 3:
        vertex = ProjPoint(kern[0])
        if not anchor.value(vertex).is_zero():
            return []
        # lines on the anchor through the vertex live in its polar plane
        polar_row = anchor.gram.apply(vertex.coords)
        planes = [Subspace.from_rows(nullspace(Matrix([polar_row])), 4)]
    elif len(pivots) == 2:
        # a pair of planes through the kernel line
        planes = [Subspace.from_rows(list(kern) + [d.coords], 4)
                  for d in _split_points(member, pivots)]
    else:
        planes = [Subspace.from_rows(kern, 4)]
    pairs = []
    for plane in planes:
        conic = restrict(anchor, plane)
        for pa, pb in _conic_line_pairs(conic.gram):
            pairs.append((plane.lift(pa), plane.lift(pb)))
    return pairs


def _line_verified(q1: QuadricForm, q2: QuadricForm, a: ProjPoint,
                   b: ProjPoint) -> bool:
    return a != b and q1.contains_line(a, b) and q2.contains_line(a, b)


def _line_sort_key(line: Line) -> str:
    def fmt(c: Scalar) -> str:
        if isinstance(c, ComplexFloat):
            z = c.to_complex()
            return "%.9g%+.9gi" % (z.real, z.imag)
        return str(c)
    return ";".join(",".join(fmt(c) for c in row) for row in line.basis.rows)


def _first_exact_member(det_poly: Poly, g1: Matrix, g2: Matrix) -> Optional[Matrix]:
    """The first degenerate member of an exact pencil g1 + s*g2: at the first
    repeated root of its determinant, else g2 when the far member is
    degenerate, else None."""
    if det_poly.degree >= 1:
        g = poly_gcd(det_poly, det_poly.derivative())
        if g.degree >= 1:
            roots = low_degree_roots(squarefree_part(g))
            if roots is None:
                raise ExactnessError(
                    "the repeated roots of the pencil determinant are not in Q(i)")
            if roots:
                return g1 + g2.scale(roots[0])
    return g2 if 4 - det_poly.degree >= 2 else None


# bench/tracing.py binds this by name: the float tier's one traced entry point
def _float_member_grams(det_poly: Poly, g1: Matrix, g2: Matrix,
                        tolerance: float) -> List[Matrix]:
    """Degenerate members of a float pencil: at the roots of p' where p vanishes too."""
    coeffs = [c.to_complex() for c in det_poly.coeffs]
    members = []
    if len(coeffs) >= 3:
        slope = [k * c for k, c in enumerate(coeffs)][1:]
        residual_tol = max(tolerance, 1e-10) ** 0.5 * max(abs(c) for c in coeffs)
        roots = durand_kerner(slope)
        worst = max(abs(_horner(slope, z)) for z in roots)
        if worst > residual_tol:
            raise GeometryError("root isolation failed; residual %.3e" % worst)
        for z in roots:
            if abs(_horner(coeffs, z)) <= residual_tol:
                members.append(g1 + g2.scale(ComplexFloat(z, tolerance=tolerance)))
    if 4 - det_poly.degree >= 2:
        members.append(g2)
    return members


def _float_form(q: QuadricForm, tolerance: float) -> QuadricForm:
    return QuadricForm(Matrix([[ComplexFloat(e.to_complex(), tolerance=tolerance)
                                for e in row] for row in q.gram.rows]))


def common_lines(q1: QuadricForm, q2: QuadricForm) -> List[Line]:
    """All lines lying on both quadric surfaces of a 3-space chart.

    q1 anchors the pencil and must be regular.  Exact forms give exact
    lines, and raise ExactnessError when a pencil root, or a line pair of
    the first degenerate member, needs a square root outside the Gaussian
    rationals.  Forms with any
    float entry are taken as float forms at the largest tolerance among
    their entries and give float lines (``Line.approx``), verified at
    that tolerance.
    """
    assert q1.n == 4 and q2.n == 4
    if rank(q1.gram) != 4:
        raise GeometryError("pencil anchor must be regular")
    if scalar_multiple_of(q2.gram, q1.gram) is not None:
        raise GeometryError("identical quadrics")
    det_poly = _pencil_det(q1.gram, q2.gram)
    assert not det_poly.is_zero()

    tolerances = [e.tolerance for g in (q1.gram, q2.gram) for row in g.rows for e in row
                  if isinstance(e, ComplexFloat)]
    if tolerances:
        tolerance = max(tolerances)
        q1, q2 = _float_form(q1, tolerance), _float_form(q2, tolerance)
        members = _float_member_grams(det_poly, q1.gram, q2.gram, tolerance)
        member = members[0] if members else None
    else:
        member = _first_exact_member(det_poly, q1.gram, q2.gram)

    if member is None:
        return []
    # every member contains each common line, so the first degenerate
    # member's lines on the anchor hold them all
    lines: List[Line] = []
    for a, b in _member_line_pairs(member, q1):
        if _line_verified(q1, q2, a, b):
            line = Line.through(a, b)
            if not any(line == seen for seen in lines):
                lines.append(line)
    return sorted(lines, key=_line_sort_key)
