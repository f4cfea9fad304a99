"""Coordinate changes of the displacement model.

Changing the fixed frame multiplies every displacement on the left by a
fixed element of the group cover, changing the moving frame multiplies on
the right.  On the projectivised algebra this induces the subgroup of
projective maps that fix the quadric pencil and both ruling families.
This module builds such maps from their two factors, checks the
characterising invariants of an arbitrary 8x8 matrix, and recovers the
factors constructively.  The pencil is fixed exactly when congruence by
the matrix scales N and S by one and the same nonzero factor; the
pencil is spanned by the two, so no third member needs checking.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Tuple

from .errors import GeometryError, InvariantError
from .linalg import Matrix, det, scalar_multiple_of, solve
from .projgeom import ProjPoint, Subspace
from .quadrics import null_cone, study_quadric
from .quaternions import (
    DualQuaternion,
    Q_BASIS,
    Quaternion,
    left_mul_matrix,
    left_mul_matrix8,
    right_mul_matrix,
    right_mul_matrix8,
)
from .scalars import ExactRational, GaussianRational, Scalar, ZERO, _unit_scale, rational


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
        return {
            "pencil_fixed": self.pencil_fixed,
            "shape_ok": self.shape_ok,
            "rulings_preserved": self.rulings_preserved,
            "overall": self.overall,
        }


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


def _congruence_factor(t: Matrix, gram: Matrix) -> Optional[Scalar]:
    """c with t^T gram t = c gram, if any."""
    return scalar_multiple_of(t.transpose() * gram * t, gram)


def verify_admissible(t: Matrix) -> VerificationReport:
    """Run the three invariant checks that characterise frame changes.

    pencil_fixed: congruence by t maps N and S to the same nonzero
    multiple of themselves, which by linearity fixes every member of the
    pencil.
    shape_ok: the block conditions forced on such a matrix (zero
    upper-right block, equal diagonal blocks, scalar-orthogonal diagonal
    block, skew compatibility of the lower-left block).
    rulings_preserved: positive determinant of the diagonal block; the
    conjugation map is the shape-passing matrix that fails exactly here.
    Float input is checked at max-norm one, so a nonzero rescaling of t
    does not change the report.
    """
    assert t.nrows == 8 and t.ncols == 8
    if not t.is_exact():
        t = t.scale(_unit_scale(_flatten(t)))
    if det(t).is_zero():
        raise GeometryError("singular transform")
    factor = _congruence_factor(t, null_cone().gram)
    pencil = (factor is not None and not factor.is_zero()
              and _congruence_factor(t, study_quadric().gram) == factor)
    a = _block(t, 0, 0)
    b = _block(t, 0, 4)
    c = _block(t, 4, 0)
    d = _block(t, 4, 4)
    shape = b.is_zero() and d == a
    if shape:
        ata = a.transpose() * a
        lam = ata[0, 0]
        shape = ata == Matrix.identity(4).scale(lam) and _positive_real(lam)
    if shape:
        shape = (c.transpose() * a + a.transpose() * c).is_zero()
    rulings = _positive_real(det(a))
    return VerificationReport(pencil, shape, rulings)


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
    first nonzero coordinate of l is positive.
    """
    assert a.nrows == 4 and a.ncols == 4
    ata = a.transpose() * a
    lam = ata[0, 0]
    if not (ata == Matrix.identity(4).scale(lam) and _positive_real(lam)):
        raise GeometryError("not a positive scalar-orthogonal matrix")
    if not _positive_real(det(a)):
        raise GeometryError("orientation-reversing, not in the group")

    # bilinear coefficient extraction: entry (i, j) of the associate matrix
    # recovers l_i * r_j, so the whole matrix is the rank-one outer product
    quarter = rational(Fraction(1, 4))
    lefts, rights = _unit_matrices(True)
    products = [li * a for li in lefts]
    assoc = Matrix([[(la * rj).trace() * quarter for rj in rights] for la in products])
    i0, j0 = max(
        ((i, j) for i in range(4) for j in range(4)),
        key=lambda ij: abs(assoc[ij].to_complex()),
    )
    pivot = assoc[i0, j0]
    assert not pivot.is_zero()
    l1 = Quaternion(*assoc.column(j0))
    r1 = Quaternion(*[x / pivot for x in assoc.row(i0)])
    if left_mul_matrix(l1) * right_mul_matrix(r1) != a:
        raise InvariantError("the SO(4) factors do not reproduce the matrix")
    first = next(c for c in l1.coords() if not c.is_zero())
    if _gauge_sign(first) < 0:
        l1, r1 = -l1, -r1
    return l1, r1


def factor_transform(t: Matrix) -> Tuple[DualQuaternion, DualQuaternion]:
    """Recover the left and right factors of an admissible matrix.

    Primal parts come from the diagonal block.  The dual parts solve a
    linear system: sixteen bilinear equations from the lower-left block
    plus one orthogonality constraint per factor, which removes the
    one-parameter shift along the primal pair and makes the solution
    unique.
    """
    report = verify_admissible(t)
    if not report.overall:
        err = GeometryError("transform is not admissible")
        err.report = report
        raise err
    l1, r1 = factor_so4(_block(t, 0, 0))
    c = _block(t, 4, 0)

    lefts, rights = _unit_matrices(False)
    l1_left, r1_right = left_mul_matrix(l1), right_mul_matrix(r1)
    cols = []
    for e, e_left in zip(Q_BASIS, lefts):
        cols.append(_flatten(e_left * r1_right) + [l1.dot(e), ZERO])
    for e, e_right in zip(Q_BASIS, rights):
        cols.append(_flatten(l1_left * e_right) + [ZERO, r1.dot(e)])
    rhs = _flatten(c) + [ZERO, ZERO]
    sol = solve(Matrix.from_columns(cols), rhs)
    if sol is None:
        raise InvariantError("the dual-part system of an admissible transform is inconsistent")
    l2 = Quaternion(*sol[:4])
    r2 = Quaternion(*sol[4:])
    return DualQuaternion(l1, l2), DualQuaternion(r1, r2)
