"""Coordinate changes of the displacement model.

Changing the fixed frame multiplies every displacement on the left by a
fixed element of the group cover, changing the moving frame multiplies on
the right.  On the projectivised algebra this induces the subgroup of
projective maps that fix the quadric pencil and both ruling families.
This module builds such maps from their two factors, checks the
characterising invariants of an arbitrary 8x8 matrix, and recovers the
factors constructively.  The pencil is fixed exactly when congruence by
the matrix scales N and S, which span it, by one nonzero factor lam.  For
t = [[a, b], [c, d]] that says a^T a = lam I and a^T b = 0, so b = 0,
then a^T d = a^T a, so d = a, and a^T c + c^T a = 0; conversely these
give both congruences, and t^T S t = lam S makes t regular, as S is.
"""

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Tuple

from .errors import GeometryError, InvariantError
from .linalg import Matrix, det, rank, solve
from .projgeom import ProjPoint, Subspace
from .quaternions import (
    DualQuaternion,
    Q_BASIS,
    Quaternion,
    left_mul_matrix,
    left_mul_matrix8,
    right_mul_matrix,
    right_mul_matrix8,
)
from .scalars import ExactRational, GaussianRational, Scalar, ZERO, _power_of_two_scale, rational


def _block(m: Matrix, i0: int, j0: int) -> Matrix:
    return Matrix([[m[i0 + i, j0 + j] for j in range(4)] for i in range(4)])


def _flatten(m: Matrix) -> list:
    return [entry for row in m.rows for entry in row]


def _positive_real(s: Scalar) -> bool:
    if isinstance(s, ExactRational):
        return s.sign() > 0
    if isinstance(s, GaussianRational):
        return s.im == 0 and s.re > 0
    z = s.to_complex()
    return abs(z.imag) <= s.tolerance and z.real > s.tolerance


def _gauge_sign(c: Scalar) -> int:
    # orientation of a known-nonzero scalar, used only to fix a sign choice
    if isinstance(c, ExactRational):
        return c.sign()
    if isinstance(c, GaussianRational):
        v = c.re if c.re != 0 else c.im
        return 1 if v > 0 else -1
    z = c.to_complex()
    v = z.real if abs(z.real) > c.tolerance else z.imag
    return 1 if v > 0 else -1


def _positive_orthogonal(a: Matrix, ata: Matrix) -> Tuple[bool, bool, bool]:
    """Given ata = a^T a: whether ata = lam I with lam != 0, whether
    moreover lam > 0, and whether det(a) > 0.

    The signs are read on a divided by its first nonzero entry p, that is
    on lam / p^2 and det(a) / p^4, so every nonzero rescaling of a,
    complex ones included, gives the same answers.
    """
    p = next((e for row in a.rows for e in row if not e.is_zero()), None)
    if p is None:
        return False, False, False
    lam = ata[0, 0]
    p2 = p * p
    orthogonal = not lam.is_zero() and ata == Matrix.identity(4).scale(lam)
    return (orthogonal, orthogonal and _positive_real(lam / p2),
            _positive_real(det(a) / (p2 * p2)))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three invariant checks on an 8x8 matrix."""

    pencil_fixed: bool
    shape_ok: bool
    rulings_preserved: bool

    @property
    def overall(self) -> bool:
        return self.pencil_fixed and self.shape_ok and self.rulings_preserved

    def as_dict(self) -> dict:
        return {**asdict(self), "overall": self.overall}


@dataclass(frozen=True)
class AdmissibleTransform:
    """A frame-change map of the projectivised algebra.

    matrix is the 8x8 action on coordinates; factors, when known, are the
    left and right group elements whose multiplication matrices compose to
    it.
    """

    matrix: Matrix
    factors: Optional[Tuple[DualQuaternion, DualQuaternion]] = None

    def apply(self, x: ProjPoint) -> ProjPoint:
        assert x.ambient == 8
        return ProjPoint(self.matrix.apply(x.coords))

    def apply_subspace(self, u: Subspace) -> Subspace:
        assert u.basis is not None, "cannot transform the empty subspace"
        rows = [self.matrix.apply(r) for r in u.basis.rows]
        return Subspace.from_rows(rows, ambient=8)


def conjugation_matrix() -> Matrix:
    """The coordinate matrix of [q] -> [q conjugate].

    It fixes every quadric of the pencil but swaps the two ruling
    families, so it fails the admissibility check on purpose.
    """
    return Matrix.diagonal([1, -1, -1, -1, 1, -1, -1, -1])


def build_transform(l: DualQuaternion, r: DualQuaternion) -> AdmissibleTransform:
    """Compose the left action of l with the right action of r."""
    for f in (l, r):
        if f.primal.is_zero() or not f.study_condition():
            raise GeometryError("factor not in SE(3) cover")
    return AdmissibleTransform(left_mul_matrix8(l) * right_mul_matrix8(r), (l, r))


def verify_admissible(t: Matrix) -> VerificationReport:
    """Run the three invariant checks that characterise frame changes.

    They are read on the 4x4 blocks of t = [[a, b], [c, d]].
    pencil_fixed: congruence by t maps N and S to the same nonzero
    multiple of themselves, which by linearity fixes every member of the
    pencil; by the module docstring that is a^T a = lam I with lam != 0,
    b = 0, d = a and a^T c skew.
    shape_ok: those block conditions with lam > 0, so pencil_fixed and
    lam > 0.  A singular t raises GeometryError; only one that moves the
    pencil needs its rank, which on float input, unlike the determinant,
    does not shrink with the entries (a product of eight small pivots
    reads as zero).
    rulings_preserved: positive determinant of the diagonal block; the
    conjugation map is the shape-passing matrix that fails exactly here.
    The diagonal block's signs are read on it divided by its first nonzero
    entry, and float input is read at max-norm about one, by a power of
    two, so no nonzero rescaling of t, complex ones included, changes the
    report.
    """
    assert t.nrows == 8 and t.ncols == 8
    if not t.is_exact():
        t = t.scale(_power_of_two_scale(_flatten(t)))
    a, b, c, d = (_block(t, i, j) for i in (0, 4) for j in (0, 4))
    at = a.transpose()
    atc = at * c
    orthogonal, positive, rulings = _positive_orthogonal(a, at * a)
    pencil = orthogonal and b.is_zero() and d == a and (atc + atc.transpose()).is_zero()
    if not pencil and rank(t) < 8:
        raise GeometryError("singular transform")
    return VerificationReport(pencil, pencil and positive, rulings)


@cache
def _unit_matrices(conjugated: bool) -> Tuple[Tuple[Matrix, ...], Tuple[Matrix, ...]]:
    """left_mul_matrix(e) and right_mul_matrix(e) for the basis units e, or
    for their conjugates; constants, built on first use."""
    units = [e.conjugate() for e in Q_BASIS] if conjugated else Q_BASIS
    return (tuple(left_mul_matrix(e) for e in units),
            tuple(right_mul_matrix(e) for e in units))


def factor_so4(a: Matrix) -> Tuple[Quaternion, Quaternion]:
    """Split a positive scalar-orthogonal 4x4 matrix into l*x*r form.

    Returns quaternions (l, r) with left_mul_matrix(l) * right_mul_matrix(r)
    equal to a.  The pair is unique up to a shared sign, pinned so the
    first nonzero coordinate of l is positive.  Float input is read at
    max-norm about one, by a power of two that changes no mantissa: its
    orthogonality is checked, its associate matrix read and the product
    of its factors compared there, so its entries clear the absolute
    tolerance, and l is divided by the power at the end.
    """
    assert a.nrows == 4 and a.ncols == 4
    power = None if a.is_exact() else _power_of_two_scale(_flatten(a))
    scaled = a if power is None else a.scale(power)
    _, orthogonal, positive = _positive_orthogonal(scaled, scaled.transpose() * scaled)
    if not orthogonal:
        raise GeometryError("not a positive scalar-orthogonal matrix")
    if not positive:
        raise GeometryError("orientation-reversing, not in the group")

    # bilinear coefficient extraction: entry (i, j) of the associate matrix
    # recovers l_i * r_j, so the whole matrix is the rank-one outer product
    quarter = rational(Fraction(1, 4))
    lefts, rights = _unit_matrices(True)
    products = [li * scaled for li in lefts]
    assoc = Matrix([[(la * rj).trace() * quarter for rj in rights] for la in products])
    i0, j0 = max(
        ((i, j) for i in range(4) for j in range(4)),
        key=lambda ij: abs(assoc[ij].to_complex()),
    )
    pivot = assoc[i0, j0]
    if pivot.is_zero():
        raise InvariantError("the associate matrix of an orthogonal matrix vanishes")
    l1 = Quaternion(*assoc.column(j0))
    r1 = Quaternion(*[x / pivot for x in assoc.row(i0)])
    # the pivot is a nonzero coordinate of l1 at this scale
    first = next(c for c in l1.coords() if not c.is_zero())
    if _gauge_sign(first) < 0:
        l1, r1 = -l1, -r1
    if left_mul_matrix(l1) * right_mul_matrix(r1) != scaled:
        raise InvariantError("the SO(4) factors do not reproduce the matrix")
    return (l1, r1) if power is None else (l1 * (1 / power), r1)


def factor_transform(t: Matrix) -> Tuple[DualQuaternion, DualQuaternion]:
    """Recover the left and right factors of an admissible matrix.

    Primal parts come from the diagonal block.  The dual parts solve a
    linear system: sixteen bilinear equations from the lower-left block
    plus one orthogonality constraint per factor, which removes the
    one-parameter shift along the primal pair and makes the solution
    unique.  The gauge puts the scale of t into l1, so float input scales
    r2's columns and the right side to max-norm about one by powers of two:
    the zero tests then hold at every scale of t, and no mantissa changes.
    """
    report = verify_admissible(t)
    if not report.overall:
        err = GeometryError("transform is not admissible")
        err.report = report
        raise err
    l1, r1 = factor_so4(_block(t, 0, 0))

    lefts, rights = _unit_matrices(False)
    l1_left, r1_right = left_mul_matrix(l1), right_mul_matrix(r1)
    cols = []
    for e, e_left in zip(Q_BASIS, lefts):
        cols.append(_flatten(e_left * r1_right) + [l1.dot(e), ZERO])
    for e, e_right in zip(Q_BASIS, rights):
        cols.append(_flatten(l1_left * e_right) + [ZERO, r1.dot(e)])
    rhs = _flatten(_block(t, 4, 0)) + [ZERO, ZERO]
    if not t.is_exact():
        sr, sc = (_power_of_two_scale(x) for x in (l1.coords(), rhs))
        cols[4:] = [[sr * x for x in col] for col in cols[4:]]
        rhs = [sc * x for x in rhs]
    sol = solve(Matrix.from_columns(cols), rhs)
    if sol is None:
        raise InvariantError("the dual-part system of an admissible transform is inconsistent")
    l2, r2 = Quaternion(*sol[:4]), Quaternion(*sol[4:])
    if not t.is_exact():
        l2, r2 = l2 * (1 / sc), r2 * (sr / sc)
    return DualQuaternion(l1, l2), DualQuaternion(r1, r2)
