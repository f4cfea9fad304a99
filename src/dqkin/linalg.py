"""Small dense matrices over the scalar tower.

Everything is immutable and dimension-checked with asserts.  The path an
operation takes follows the kinds of the entries; results are the same
on every path, entry by entry and kind by kind.

- Products (``Matrix.__mul__``, ``apply``) of exact matrices clear each
  row and column to one integer vector (Gaussian entries to a pair of
  integer vectors) over one denominator, so each entry is one integer
  dot product and one ``Fraction``.
- ``rref`` and ``det`` of a matrix whose entries are all ExactRational
  run fraction-free Gauss-Jordan elimination (Bareiss 1968) on the
  cleared integer rows and divide by the pivot only to emit the
  canonical reduced form.
- Anything with a float entry, and Gaussian input to ``rref``/``det``,
  takes the scalar loop: Gaussian elimination that pivots on magnitude
  when floats are present.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .scalars import (
    ExactRational,
    GaussianRational,
    Scalar,
    as_exact_real,
    scalar,
    ONE,
    ZERO,
)

Vector = Tuple[Scalar, ...]


def as_vector(entries: Sequence) -> Vector:
    return tuple(scalar(e) for e in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vector, v: Vector) -> Vector:
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, u: Vector) -> Vector:
    c = scalar(c)
    return tuple(c * a for a in u)

def vec_dot(u: Vector, v: Vector) -> Scalar:
    """Plain bilinear dot product, no conjugation."""
    assert len(u) == len(v)
    out = ZERO
    for a, b in zip(u, v):
        out = out + a * b
    return out

def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


# A cleared vector (re, im, den) stands for the entries (re[k] + i*im[k]) / den,
# with integer lists re and im; im is None when every entry is an ExactRational.
_Cleared = Tuple[List[int], Optional[List[int]], int]


def _cleared(u: Vector) -> Optional[_Cleared]:
    """u over one common denominator, or None when an entry is a float."""
    if all(type(a) is ExactRational for a in u):
        re = [a.value for a in u]
        den = lcm(*[f.denominator for f in re])
        return [f.numerator * (den // f.denominator) for f in re], None, den
    if not all(a.is_exact for a in u):
        return None
    re = [a.value if type(a) is ExactRational else a.re for a in u]
    im = [0 if type(a) is ExactRational else a.im for a in u]
    den = lcm(*[f.denominator for f in re], *[f.denominator for f in im])
    return ([f.numerator * (den // f.denominator) for f in re],
            [f.numerator * (den // f.denominator) for f in im], den)


def _cleared_dot(u: _Cleared, v: _Cleared) -> Scalar:
    """vec_dot of two cleared vectors, of the kind vec_dot would return."""
    (ur, ui, ud), (vr, vi, vd) = u, v
    re = sum(map(mul, ur, vr))
    if ui is None and vi is None:
        return ExactRational(Fraction(re, ud * vd))
    im = 0
    if vi is not None:
        im += sum(map(mul, ur, vi))
    if ui is not None:
        im += sum(map(mul, ui, vr))
        if vi is not None:
            re -= sum(map(mul, ui, vi))
    return GaussianRational(Fraction(re, ud * vd), Fraction(im, ud * vd))


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(scalar(e) for e in row) for row in rows)
        assert self.rows, "empty matrix"
        width = len(self.rows[0])
        assert width > 0 and all(len(r) == width for r in self.rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        es = [scalar(e) for e in entries]
        n = len(es)
        return Matrix([[es[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix([[col[i] for col in cols] for i in range(len(cols[0]))])

    @staticmethod
    def block2x2(a: "Matrix", b: "Matrix", c: "Matrix", d: "Matrix") -> "Matrix":
        assert a.nrows == b.nrows and c.nrows == d.nrows
        assert a.ncols == c.ncols and b.ncols == d.ncols
        rows = [ra + rb for ra, rb in zip(a.rows, b.rows)]
        rows += [rc + rd for rc, rd in zip(c.rows, d.rows)]
        return Matrix(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.ncols)])

    def __add__(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return Matrix([vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return Matrix([vec_sub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([tuple(-e for e in r) for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        return Matrix([vec_scale(c, r) for r in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.ncols == other.nrows
        cols = [other.column(j) for j in range(other.ncols)]
        rows = [_cleared(r) for r in self.rows]
        cleared_cols = [_cleared(c) for c in cols]
        if None not in rows and None not in cleared_cols:
            return Matrix([[_cleared_dot(r, c) for c in cleared_cols] for r in rows])
        return Matrix([[vec_dot(r, c) for c in cols] for r in self.rows])

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        u = as_vector(v)
        assert len(u) == self.ncols
        cu = _cleared(u)
        rows = [_cleared(r) for r in self.rows]
        if cu is not None and None not in rows:
            return tuple(_cleared_dot(r, cu) for r in rows)
        return tuple(vec_dot(r, u) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(self.rows[i][j] == self.rows[j][i]
                   for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def is_exact(self) -> bool:
        return all(e.is_exact for r in self.rows for e in r)

    def trace(self) -> Scalar:
        assert self.nrows == self.ncols
        out = ZERO
        for i in range(self.nrows):
            out = out + self.rows[i][i]
        return out

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return "Matrix[%s]" % body


def _pivot_row(rows: List[List[Scalar]], col: int, start: int) -> Optional[int]:
    """Row index to pivot on, favouring magnitude when floats are present."""
    best, best_mag = None, 0.0
    for i in range(start, len(rows)):
        e = rows[i][col]
        if e.is_zero():
            continue
        if e.is_exact:
            return i
        mag = abs(e.to_complex())
        if mag > best_mag:
            best, best_mag = i, mag
    return best


def _all_rational(m: Matrix) -> bool:
    return all(type(e) is ExactRational for r in m.rows for e in r)


def _fraction_free(a: List[List[int]]) -> Tuple[List[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    At every pivot each other row, above and below, is reduced against
    the pivot row, so after each step each entry is a minor of the input
    (Bareiss 1968) and the division by the previous pivot is exact.
    Returns the pivot columns, the last pivot, which every pivot row then
    holds at its pivot column and which is the minor on the pivot rows
    and columns, and the sign of the row swaps.  Rows past the pivot rows
    end up zero.
    """
    n = len(a)
    pivots = []
    prev, sign = 1, 1
    for col in range(len(a[0])):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        pivot = top[col]
        for i in range(n):
            if i != r:
                f = a[i][col]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = pivot
        pivots.append(col)
    return pivots, prev, sign


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    if _all_rational(m):
        # scaling a row changes no reduced form, so each row is cleared alone
        a = [_cleared(r)[0] for r in m.rows]
        pivots, d, _ = _fraction_free(a)
        rows = [[ExactRational(Fraction(x, d)) if x else ZERO for x in a[i]]
                for i in range(len(pivots))]
        rows += [[ZERO] * m.ncols] * (m.nrows - len(pivots))
        return Matrix(rows), tuple(pivots)
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for col in range(m.ncols):
        if r == len(rows):
            break
        p = _pivot_row(rows, col, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return Matrix(rows), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def det(m: Matrix) -> Scalar:
    assert m.nrows == m.ncols
    if _all_rational(m):
        cleared = [_cleared(r) for r in m.rows]
        pivots, d, sign = _fraction_free([c[0] for c in cleared])
        if len(pivots) < m.nrows:
            return ZERO
        return ExactRational(Fraction(sign * d, prod(c[2] for c in cleared)))
    rows = [list(r) for r in m.rows]
    n = m.nrows
    sign = 1
    out = ONE
    for col in range(n):
        p = _pivot_row(rows, col, col)
        if p is None:
            return ZERO * rows[0][0]  # keep the scalar kind of the input
        if p != col:
            rows[col], rows[p] = rows[p], rows[col]
            sign = -sign
        pivot = rows[col][col]
        out = out * pivot
        inv = ONE / pivot
        for i in range(col + 1, n):
            if rows[i][col].is_zero():
                continue
            f = rows[i][col] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return out if sign > 0 else -out


def nullspace(m: Matrix) -> List[Vector]:
    """Basis of the right kernel, one vector per free column."""
    return _kernel(*rref(m))


def _kernel(red: Matrix, pivots: Sequence[int]) -> List[Vector]:
    """The nullspace basis read off a reduced row echelon form."""
    free = [j for j in range(red.ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [ZERO] * red.ncols
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][j]
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """One solution of m·x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    rhs = as_vector(b)
    assert len(rhs) == m.nrows
    aug = Matrix([row + (rhs[i],) for i, row in enumerate(m.rows)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def inverse(m: Matrix) -> Optional[Matrix]:
    assert m.nrows == m.ncols
    n = m.nrows
    eye = Matrix.identity(n)
    aug = Matrix([m.rows[i] + eye.rows[i] for i in range(n)])
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        return None
    return Matrix([r[n:] for r in red.rows])


def scalar_multiple_of(a: Matrix, b: Matrix) -> Optional[Scalar]:
    """c with a = c·b, if any.  b must be nonzero."""
    assert a.nrows == b.nrows and a.ncols == b.ncols
    c = None
    for ra, rb in zip(a.rows, b.rows):
        for x, y in zip(ra, rb):
            if not y.is_zero():
                c = x / y
                break
        if c is not None:
            break
    if c is None:
        return None
    ok = all(x == c * y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
    return c if ok else None


def signature(gram: Matrix) -> Tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a real symmetric form.

    Computed by symmetric congruence reduction, so it is exact; refuses
    anything that is not a real exact matrix.
    """
    assert gram.nrows == gram.ncols and gram.is_symmetric()
    n = gram.nrows
    a = []
    for row in gram.rows:
        demoted = [as_exact_real(e) for e in row]
        if any(d is None for d in demoted):
            raise GeometryError("signature requires a real form")
        a.append([d.value for d in demoted])

    def add_into(dst, src, f):
        # row and column operation together keep the matrix symmetric
        for j in range(n):
            a[dst][j] += f * a[src][j]
        for i in range(n):
            a[i][dst] += f * a[i][src]

    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for i in range(n):
                    a[i][k], a[i][swap] = a[i][swap], a[i][k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue
                add_into(k, j, 1)
        pivot = a[k][k]
        assert pivot != 0
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_into(i, k, -a[i][k] / pivot)
    pos = sum(1 for k in range(n) if a[k][k] > 0)
    neg = sum(1 for k in range(n) if a[k][k] < 0)
    return pos, neg, n - pos - neg
