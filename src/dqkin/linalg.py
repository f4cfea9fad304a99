"""Small dense matrices over the scalar tower.

Everything is immutable and dimension-checked with asserts.  Elimination
is plain Gaussian elimination: entries are exact rationals in all the
paths that matter, so there is no growth problem at these sizes, and the
float paths pivot on magnitude.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .scalars import Scalar, as_exact_real, scalar, ONE, ZERO

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
        return Matrix([[vec_dot(r, c) for c in cols] for r in self.rows])

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        u = as_vector(v)
        assert len(u) == self.ncols
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


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
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
