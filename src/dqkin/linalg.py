"""Small dense matrices over the scalar tower.

Everything is immutable, and every shape is checked by GeometryError, so
also under ``python -O``.  The path an operation takes follows the kinds
of the entries; results are the same on every path, entry by entry and
kind by kind.  The exact paths run on ``kept``'s forms and kernels.

- A ``Matrix`` never changes, so it keeps its rows cleared and its
  columns cleared (``kept.cleared``), each built on first use and
  ``None`` when an entry is a float; a transpose starts with the two
  forms swapped, and the columns of kept rows are their ``transposed``.
  ``Matrix(rows)`` and ``Matrix.from_columns`` convert every entry with
  ``scalars.scalar``; the trusted constructor ``Matrix._of`` takes rows
  of Scalars as they are (results built here and in ``projgeom``, the
  quaternion multiplication matrices, the block readers of
  ``transforms`` and ``quadrecon``, reconstruction's frames).  Exact
  results are born cleared: ``Matrix._of_cleared`` takes kept rows, each
  equal to ``cleared`` of its entries (``reduced_form``), and makes the
  rows of Scalars only when ``rows`` is first read.  ``rref``'s exact
  path returns its eliminated rows so; a reduced basis read only by
  integer steps (a join in ``quadrecon.run_cycle``) never makes a
  Scalar, and two matrices with kept rows compare as integers.
  ``_slice`` and ``_stacked`` pass kept rows on.
- Exact products are born kept too (``cleared_products``), as are the
  ``transpose`` of kept rows and ``__add__`` and ``scale`` of exact
  matrices; ``is_zero``, ``is_symmetric``, ``is_real``, ``==`` and an
  entry read make no row of Scalars.
- ``rref``, ``rank`` and ``det`` of an exact matrix run
  ``kept.exact_elimination`` on the kept rows; ``rref`` divides by the
  pivot only to emit the canonical reduced form, and ``rank`` emits
  nothing.  ``det`` is Gaussian iff some pivot was; a singular one is a
  zero of the first pivot's kind, or of entry (0, 0)'s if column 0 has
  none.  ``signature`` runs ``kept.int_step`` on a real form's kept rows
  with symmetric pivots, each pivot's sign read against the one before.
- Products (``Matrix.__mul__``, ``apply`` and ``vec_dot``) are the one
  float kernel: with a float entry anywhere they convert their operands
  to plain Python ``complex`` once, run the scalar loop's operations in
  the scalar loop's order, and wrap each result once in a ComplexFloat.
  The results equal the scalar loop's bit for bit (value, signed zeros,
  kind and tolerance): each sum starts at ``0j``, as the scalar loop
  starts at ZERO, and an entry carries the largest float tolerance in its
  row and column.  An entry with a term of two exact factors keeps the
  scalar loop, which multiplies that term exactly.
- ``det``, ``rref`` (so ``nullspace``, ``solve`` and
  ``Subspace.from_rows``) of a matrix with a float entry run the scalar
  loop on the scalars' own arithmetic, each entry compared at its own
  tolerance, with one pivot rule (``_pivot_row``): the first exact
  nonzero entry of the column, else its largest float that is not zero
  at its tolerance.
"""

from __future__ import annotations

from functools import reduce
from math import lcm, prod
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .kept import (Cleared, all_cleared, cleared, cleared_image, cleared_products,
                   exact_elimination, first_nonzero, int_step, kernel_forms, kinds_of,
                   reduced_form, scalars_of, transposed)
from .scalars import ComplexFloat, Scalar, _float_of, scalar, ONE, ZERO

Vector = Tuple[Scalar, ...]


def as_vector(entries: Sequence) -> Vector:
    return tuple(scalar(e) for e in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise GeometryError("a sum needs two vectors of one length")
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise GeometryError("a difference needs two vectors of one length")
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, u: Vector) -> Vector:
    c = scalar(c)
    return tuple(c * a for a in u)

def vec_dot(u: Vector, v: Vector) -> Scalar:
    """Plain bilinear dot product, no conjugation."""
    if len(u) != len(v):
        raise GeometryError("a dot product needs two vectors of one length")
    cu = cleared(u)
    cv = None if cu is None else cleared(v)
    if cv is None:
        return _float_products([u], [v])[0][0]
    return scalars_of(*cleared_products([cu], [cv])[0])[0]


def _plain_dot(u: Vector, v: Vector) -> Scalar:
    out = ZERO
    for a, b in zip(u, v):
        out = out + a * b
    return out


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


def _float_products(rows: Sequence[Vector], cols: Sequence[Vector]) -> List[List[Scalar]]:
    """The dot product of every row with every column, with a float entry
    somewhere: every entry whose terms each have a float factor runs the
    float kernel; an entry with a term of two exact factors keeps the
    scalar loop, which multiplies that term exactly."""
    float_cols = [_floated(c) for c in cols]
    out = []
    for r in rows:
        rv, rt, rx = _floated(r)
        out.append([_plain_dot(r, c) if rx & cx else
                    _float_of(reduce(add, map(mul, rv, cv), 0j), max(rt, ct))
                    for c, (cv, ct, cx) in zip(cols, float_cols)])
    return out


def _floated(u: Vector) -> Tuple[List[complex], float, int]:
    """u as plain complex numbers, the largest tolerance among its floats
    (0.0 when it has none) and the bitmask of its exact positions."""
    values, tolerance, exact = [], 0.0, 0
    for k, e in enumerate(u):
        if type(e) is ComplexFloat:
            values.append(e.value)
            if e.tolerance > tolerance:
                tolerance = e.tolerance
        else:
            values.append(e.to_complex())
            exact |= 1 << k
    return values, tolerance, exact


_UNSET = object()  # a cleared form not yet built


class Matrix:
    __slots__ = ("rows", "_row_form", "_column_form")

    def __init__(self, rows: Sequence[Sequence]):
        self._set(tuple(tuple(scalar(e) for e in row) for row in rows))

    @classmethod
    def _of(cls, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        """The trusted constructor: rows whose entries are Scalars already."""
        m = object.__new__(cls)
        m._set(tuple(map(tuple, rows)))
        return m

    @classmethod
    def _of_cleared(cls, forms: List[Cleared]) -> "Matrix":
        """The trusted constructor from kept rows: each row's cleared form,
        equal to ``cleared`` of its entries (see ``reduced_form``).  The
        rows of Scalars are made on first read."""
        m = object.__new__(cls)
        m._row_form, m._column_form = forms, _UNSET
        return m

    def __getattr__(self, name):
        # reached only for an unset slot, so for the rows of a matrix born
        # from kept rows, made once here
        if name != "rows":
            raise AttributeError(name)
        self.rows = rows = tuple([scalars_of(*form) for form in self._row_form])
        return rows

    def _set(self, rows: Tuple[Vector, ...]) -> None:
        width = len(rows[0]) if rows else 0
        if not width or any(len(r) != width for r in rows):
            raise GeometryError("a matrix needs rows of one nonzero length")
        self.rows = rows
        self._row_form = self._column_form = _UNSET

    def _cleared_rows(self) -> Optional[List[Cleared]]:
        """Every row cleared (``cleared``), or None when an entry is a float;
        built on first use and kept, as the matrix never changes."""
        if self._row_form is _UNSET:
            self._row_form = all_cleared(self.rows)
        return self._row_form

    def _cleared_columns(self) -> Optional[List[Cleared]]:
        """Every column cleared, or None when an entry is a float; kept too."""
        if self._column_form is _UNSET:
            rows = self._row_form
            self._column_form = (transposed(rows) if type(rows) is list
                                 else all_cleared(list(zip(*self.rows))))
        return self._column_form

    def _slice(self, start: int, stop: int) -> "Matrix":
        """Rows start to stop, with their kept rows when the matrix has them."""
        if start == 0 and stop == self.nrows:
            return self
        forms = self._row_form
        if type(forms) is list:
            return Matrix._of_cleared(forms[start:stop])
        return Matrix._of(self.rows[start:stop])

    @staticmethod
    def _stacked(parts: Sequence["Matrix"]) -> "Matrix":
        """The rows of the matrices one below the other, kept cleared when all
        are exact."""
        forms = [m._cleared_rows() for m in parts]
        if any(f is None for f in forms):
            return Matrix._of([r for m in parts for r in m.rows])
        return Matrix._of_cleared([r for f in forms for r in f])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix._of([[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        es = [scalar(e) for e in entries]
        n = len(es)
        return Matrix._of([[es[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix([[col[i] for col in cols] for i in range(len(cols[0]))])

    @staticmethod
    def block2x2(a: "Matrix", b: "Matrix", c: "Matrix", d: "Matrix") -> "Matrix":
        if a.nrows != b.nrows or c.nrows != d.nrows or a.ncols != c.ncols or b.ncols != d.ncols:
            raise GeometryError("blocks side by side need one row count, stacked one column count")
        rows = [ra + rb for ra, rb in zip(a.rows, b.rows)]
        rows += [rc + rd for rc, rd in zip(c.rows, d.rows)]
        return Matrix._of(rows)

    @property
    def nrows(self) -> int:
        forms = self._row_form
        return len(forms) if type(forms) is list else len(self.rows)

    @property
    def ncols(self) -> int:
        forms = self._row_form
        return len(forms[0][0]) if type(forms) is list else len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        forms = self._row_form
        if type(forms) is list:  # the one entry, not the rows
            re, im, den, kinds = forms[i]
            return scalars_of((re[j],), im and (im[j],), den, kinds >> j & 1)[0]
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        # the two kept forms swapped; kept rows make no Scalar
        t = (Matrix._of_cleared(self._cleared_columns()) if type(self._row_form) is list
             else Matrix._of(zip(*self.rows)))
        t._row_form, t._column_form = self._column_form, self._row_form
        return t

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise GeometryError("a sum needs two matrices of one shape")
        fa = self._cleared_rows()
        fb = None if fa is None else other._cleared_rows()
        if fb is None:
            return Matrix._of([vec_add(a, b) for a, b in zip(self.rows, other.rows)])
        # each row pair's combination with coefficients (1, 1)
        return Matrix._of_cleared([reduced_form(*cleared_image(pair, ([1, 1], None, 1, 0)))
                                   for pair in zip(fa, fb)])

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        form = cleared((c,))
        forms = None if form is None else self._cleared_rows()
        if forms is None:
            return Matrix._of([vec_scale(c, r) for r in self.rows])
        return Matrix._of_cleared([reduced_form(*cleared_image([f], form)) for f in forms])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise GeometryError("a product needs as many columns on the left as rows on the right")
        rows = self._cleared_rows()
        cols = None if rows is None else other._cleared_columns()
        if cols is None:
            return Matrix._of(_float_products(self.rows, list(zip(*other.rows))))
        return Matrix._of_cleared([reduced_form(*f) for f in cleared_products(rows, cols)])

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        u = as_vector(v)
        if len(u) != self.ncols:
            raise GeometryError("a matrix applies to vectors with one coordinate per column")
        rows = self._cleared_rows()
        form = None if rows is None else cleared(u)
        if form is None:
            return tuple(row[0] for row in _float_products(self.rows, [u]))
        return scalars_of(*cleared_products([form], rows)[0])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        fa, fb = self._row_form, other._row_form
        if type(fa) is list and type(fb) is list:
            # kept forms are those of cleared, one per value, with im None
            # standing for zeros
            return all(ra == rb and da == db
                       and (ia == ib or (ia or [0] * len(ra)) == (ib or [0] * len(rb)))
                       for (ra, ia, da, _), (rb, ib, db, _) in zip(fa, fb))
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    __hash__ = None

    def is_zero(self) -> bool:
        forms = self._row_form
        if type(forms) is list:
            return all(first_nonzero(f) is None for f in forms)
        return all(vec_is_zero(r) for r in self.rows)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose()

    def is_exact(self) -> bool:
        return type(self._row_form) is list or all(e.is_exact for r in self.rows for e in r)

    def real_part(self) -> "Matrix":
        """The real parts of an exact matrix's entries, ExactRational."""
        return Matrix._of_cleared([reduced_form(re, None, den, 0)
                                   for re, _, den, _ in self._cleared_rows()])

    def is_real(self) -> bool:
        forms = self._cleared_rows()
        if forms is None:
            return all(e.conjugate() == e for r in self.rows for e in r)
        return not any(im is not None and any(im) for _, im, _, _ in forms)

    def trace(self) -> Scalar:
        _require_square(self)
        out = ZERO
        for i in range(self.nrows):
            out = out + self.rows[i][i]
        return out

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return "Matrix[%s]" % body


def _require_square(m: Matrix) -> None:
    if m.nrows != m.ncols:
        raise GeometryError("a trace, a determinant or an inverse needs a square matrix")


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
    """Reduced row echelon form and the pivot column indices.

    An exact matrix is reduced fraction-free; one with a float entry by
    the scalar loop, which compares each entry at its own tolerance.
    """
    forms = m._cleared_rows()
    if forms is not None:
        # scaling a row changes no reduced form, so each row is cleared alone
        a, gaussian, (pivots, d, _, _) = exact_elimination(forms)
        if gaussian is None:
            return Matrix._of_cleared([reduced_form(row, None, d, 0) for row in a]), tuple(pivots)
        # a Z[i] row over d is the row times conj(d) over |d|^2; a row the
        # scalar loop holds as rational has imaginary parts zero
        dr, di = d
        forms = [reduced_form([xr * dr + xi * di for xr, xi in row],
                              [xi * dr - xr * di for xr, xi in row] if g else None,
                              dr * dr + di * di, g)
                 for row, g in zip(a, gaussian)]
        return Matrix._of_cleared(forms), tuple(pivots)
    rows = [list(r) for r in m.rows]
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
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
    return Matrix._of(rows), tuple(pivots)


def rank(m: Matrix) -> int:
    """The number of pivots of rref(m); an exact matrix is eliminated
    without emitting its reduced form."""
    forms = m._cleared_rows()
    if forms is None:
        return len(rref(m)[1])
    return len(exact_elimination(forms)[2][0])


def det(m: Matrix) -> Scalar:
    """Determinant: fraction-free for an exact matrix, of the kind the scalar
    loop gives it; with a float entry the scalar loop itself, forward
    elimination on ``rref``'s pivot rule."""
    _require_square(m)
    forms = m._cleared_rows()
    if forms is None:
        rows = [list(r) for r in m.rows]
        sign, out = 1, ONE
        for col in range(len(rows)):
            p = _pivot_row(rows, col, col)
            if p is None:
                return ZERO * rows[0][0]
            if p != col:
                rows[col], rows[p] = rows[p], rows[col]
                sign = -sign
            pivot = rows[col][col]
            out = out * pivot
            inv = ONE / pivot
            for i in range(col + 1, len(rows)):
                if not rows[i][col].is_zero():
                    f = rows[i][col] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
        return out if sign > 0 else -out
    _, gaussian, (pivots, d, sign, gaussian_pivot) = exact_elimination(forms)
    if len(pivots) < m.nrows:
        # a zero of the kind of the first pivot, or of entry (0, 0)
        first = next((r[0] for r in m.rows if not r[0].is_zero()), m.rows[0][0])
        return scalars_of((0,), None, 1, kinds_of((first,)))[0]
    dr, di = (d, 0) if gaussian is None else d
    return scalars_of((sign * dr,), (sign * di,), prod(c[2] for c in forms), gaussian_pivot)[0]


def nullspace(m: Matrix) -> List[Vector]:
    """Basis of the right kernel, one vector per free column."""
    return _kernel(*rref(m))


def _kernel(red: Matrix, pivots: Sequence[int]) -> List[Vector]:
    """The nullspace basis read off a reduced row echelon form: for each
    free column j, one at j and minus the pivot rows' entries in column j
    at their pivots; from kept rows by ``kernel_forms``."""
    if type(red._row_form) is list:
        return [scalars_of(*form) for form in kernel_forms(red._row_form, pivots)]
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
    if len(rhs) != m.nrows:
        raise GeometryError("a right-hand side has one entry per row")
    aug = Matrix._of([row + (rhs[i],) for i, row in enumerate(m.rows)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def inverse(m: Matrix) -> Optional[Matrix]:
    _require_square(m)
    n = m.nrows
    eye = Matrix.identity(n)
    aug = Matrix._of([m.rows[i] + eye.rows[i] for i in range(n)])
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        return None
    return Matrix._of([r[n:] for r in red.rows])


def signature(gram: Matrix) -> Tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a real exact symmetric form.

    ``int_step`` on the kept rows over one positive denominator, with
    symmetric pivots: a nonzero diagonal entry, else entry k made 2 a[k][j]
    by adding row and column j to k.  By Sylvester's law of inertia each
    pivot over the one before, a diagonal entry of LDL^T, counts one sign.
    Any other form raises GeometryError.
    """
    rows = gram._cleared_rows()
    if rows is None or not gram.is_real():
        raise GeometryError("signature requires a real form")
    den = lcm(*[d for _, _, d, _ in rows])
    a = [[x * (den // d) for x in re] for re, _, d, _ in rows]
    n = len(a)
    if len(a[0]) != n or any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise GeometryError("signature requires a square symmetric form")
    free, neg, prev = list(range(n)), 0, 1
    for _ in range(n):
        k = next((k for k in free if a[k][k]), None)
        if k is None:
            k, j = next(((k, j) for k in free for j in free if a[k][j]), (None, None))
            if k is None:
                break
            a[k] = list(map(add, a[k], a[j]))
            for row in a:
                row[k] += row[j]
        free.remove(k)
        neg += (a[k][k] > 0) != (prev > 0)
        prev = int_step(a, k, k, prev)
    return n - len(free) - neg, neg, len(free)
