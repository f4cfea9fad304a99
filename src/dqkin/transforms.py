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
from .linalg import Matrix, _flat_cleared, _scalars, det, rank, solve
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
from .scalars import (
    ComplexFloat,
    ExactRational,
    GaussianRational,
    Scalar,
    ZERO,
    _power_of_two_scale,
    rational,
)


def _block(m: Matrix, i0: int, j0: int) -> Matrix:
    return Matrix._of([[m[i0 + i, j0 + j] for j in range(4)] for i in range(4)])


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


# A term (sign, k) stands for sign, 1 or -1, times entry k of a 4x4 source
# matrix flattened row by row.  An index table gives the terms of each
# entry of a result flattened row by row: four each for the associate
# matrix, one each for a moved block.
_Terms = Tuple[Tuple[int, int], ...]


def _signed_permutation(m: Matrix) -> _Terms:
    """(sign, column) of the one nonzero entry, 1 or -1, of each row of m."""
    return tuple(next((e.sign(), k) for k, e in enumerate(row) if not e.is_zero())
                 for row in m.rows)


@cache
def _associate_table() -> Tuple[_Terms, ...]:
    """The index table of 4 times the associate matrix: entry (i, j) is
    trace(L(conj e_i) a R(conj e_j)), and as L(conj e_i) and R(conj e_j)
    are signed permutations, its terms are L(conj e_i)[m, p] a[p, q]
    R(conj e_j)[q, m], one for each m."""
    lefts, rights = _unit_matrices(True)
    rows = [_signed_permutation(left) for left in lefts]
    cols = [_signed_permutation(right.transpose()) for right in rights]
    return tuple(tuple((s * t, 4 * p + q) for (s, p), (t, q) in zip(rp, cq))
                 for rp in rows for cq in cols)


@cache
def _dual_part_tables() -> Tuple[_Terms, ...]:
    """The index tables of L(e) R(r1) on R(r1), then of L(l1) R(e) on
    L(l1), for the basis units e: L(e) moves and signs the rows of R(r1),
    R(e) the columns of L(l1)."""
    lefts, rights = _unit_matrices(False)
    by_rows = tuple(tuple((s, 4 * p + n) for s, p in _signed_permutation(left) for n in range(4))
                    for left in lefts)
    by_cols = tuple(tuple((t, 4 * m + q) for m in range(4)
                          for t, q in _signed_permutation(right.transpose()))
                    for right in rights)
    return by_rows + by_cols


def _associate(a: Matrix) -> Matrix:
    """The associate matrix of a 4x4 matrix a: entry (i, j) is
    trace(L(conj e_i) a R(conj e_j)) / 4, which is l_i r_j when
    a = L(l) R(r) (Van Elfrinkhof's formula).

    Each entry is a signed sum of four entries of a (_associate_table),
    equal to the trace of the matrix products in value and kind: exact a
    is summed on its cleared integers, every entry Gaussian when one of
    a's is; float a on plain complex values, each sum started at 0j in the
    trace's order and carrying a's largest tolerance.
    """
    table = _associate_table()
    if a.is_exact():
        re, im, den = _flat_cleared(a)

        def sums(v):
            return [sum(s * v[k] for s, k in terms) for terms in table]

        gaussian = im is not None
        entries = _scalars(sums(re), sums(im) if gaussian else None, 4 * den,
                           (1 << 16) - 1 if gaussian else 0)
    else:
        flat = _flatten(a)
        values = [e.to_complex() for e in flat]
        tolerance = max(e.tolerance for e in flat if type(e) is ComplexFloat)
        quarter = rational(Fraction(1, 4))
        entries = []
        for terms in table:
            v = 0j
            for s, k in terms:
                v = v + values[k] if s > 0 else v - values[k]
            entries.append(ComplexFloat(v, 0.0, tolerance) * quarter)
    return Matrix._of([entries[i:i + 4] for i in range(0, 16, 4)])


def _moved(entries: list, table: _Terms) -> list:
    """The entries moved and signed by an index table of one term each."""
    return [entries[k] if s > 0 else -entries[k] for s, k in table]


def _dual_part_columns(l1: Quaternion, r1: Quaternion) -> list:
    """The eight columns of factor_transform's dual-part system: L(e) R(r1)
    flattened over l1 . e and 0, then L(l1) R(e) flattened over 0 and
    r1 . e, for the basis units e, moved by _dual_part_tables.

    They equal the matrix products entry for entry, bit for bit: every
    coordinate of a Hamilton product involves all four coordinates of
    each factor, so all entries of L(l1), and all of R(r1), have one kind
    and one tolerance, which a negation keeps.
    """
    tables = _dual_part_tables()
    right, left = _flatten(right_mul_matrix(r1)), _flatten(left_mul_matrix(l1))
    return ([_moved(right, table) + [l1.dot(e), ZERO] for e, table in zip(Q_BASIS, tables[:4])]
            + [_moved(left, table) + [ZERO, r1.dot(e)] for e, table in zip(Q_BASIS, tables[4:])])


def factor_so4(a: Matrix) -> Tuple[Quaternion, Quaternion]:
    """Split a positive scalar-orthogonal 4x4 matrix into l*x*r form.

    Returns quaternions (l, r) with left_mul_matrix(l) * right_mul_matrix(r)
    equal to a.  The pair is unique up to a shared sign, pinned so the
    first nonzero coordinate of l is positive.  It is read off the
    associate matrix of a, whose entry (i, j) is l_i r_j (Van Elfrinkhof's
    formula; Mebius, arXiv:math/0501249), each entry a signed sum of four
    entries of a, and the product of the factors must give a back, else
    InvariantError.  Float input is read at max-norm about one, by a power
    of two that changes no mantissa: its orthogonality is checked, its
    associate matrix read and the product of its factors compared there,
    so its entries clear the absolute tolerance, and l is divided by the
    power at the end.
    """
    assert a.nrows == 4 and a.ncols == 4
    power = None if a.is_exact() else _power_of_two_scale(_flatten(a))
    scaled = a if power is None else a.scale(power)
    _, orthogonal, positive = _positive_orthogonal(scaled, scaled.transpose() * scaled)
    if not orthogonal:
        raise GeometryError("not a positive scalar-orthogonal matrix")
    if not positive:
        raise GeometryError("orientation-reversing, not in the group")

    # by Van Elfrinkhof's formula the associate matrix is the rank-one outer
    # product of l and r, so a row and a column give both up to scale
    assoc = _associate(scaled)
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
    unique.  Its columns L(e) R(r1) and L(l1) R(e), for the basis units e,
    are the rows of R(r1) and the columns of L(l1) moved and signed, as
    L(e) and R(e) are signed permutations; an inconsistent system raises
    InvariantError.  The gauge puts the scale of t into l1, so float input
    scales r2's columns and the right side to max-norm about one by powers
    of two: the zero tests then hold at every scale of t, and no mantissa
    changes.
    """
    report = verify_admissible(t)
    if not report.overall:
        err = GeometryError("transform is not admissible")
        err.report = report
        raise err
    l1, r1 = factor_so4(_block(t, 0, 0))

    cols = _dual_part_columns(l1, r1)
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
