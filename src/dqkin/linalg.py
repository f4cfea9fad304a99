"""Small dense matrices over the scalar tower.

Everything is immutable and dimension-checked with asserts.  The path an
operation takes follows the kinds of the entries; results are the same
on every path, entry by entry and kind by kind.

- A cleared vector is one integer vector (Gaussian entries: a pair of
  integer vectors) over one denominator (``_cleared``).  Since a
  ``Matrix`` never changes, it keeps its rows cleared and its columns
  cleared, each built on first use and ``None`` when an entry is a
  float; a transpose starts with the two swapped.  ``Matrix(rows)``
  converts every entry with ``scalars.scalar``; the trusted constructor
  ``Matrix._of`` takes rows of Scalars as they are, for results built
  here and in ``projgeom`` (``rref``, products, ``transpose``,
  ``Subspace.from_rows``, meets).
- Products (``Matrix.__mul__``, ``apply``) of exact matrices read the
  kept forms, and ``vec_dot`` clears its two vectors, so each entry is
  one integer dot product and one ``Fraction``.
- ``rref``, ``rank`` and ``det`` of an exact matrix read the kept rows
  and run fraction-free Gauss-Jordan elimination (Bareiss 1968) over
  the integers, or over the Gaussian integers Z[i] held as (re, im)
  pairs when some entry is Gaussian; ``rref`` divides by the pivot only
  to emit the canonical reduced form, and ``rank`` emits nothing.
  Kinds are the scalar loop's: a pivot row turns Gaussian where its
  pivot is, a row with a nonzero entry in the pivot column turns
  Gaussian where that entry or the pivot row is, ``det`` is Gaussian iff
  some pivot was, and a singular ``det`` is a zero of the kind of the
  first pivot, or of entry (0, 0) if column 0 has none.
- One combination kernel, ``_combination``, computes ``v + sum c_k *
  row_k`` for ``projgeom`` and ``quadrecon``, clearing only v and the
  coefficients and reading the rows' kept form.  An output entry is
  Gaussian exactly when the entry of ``v``, some coefficient ``c_k`` or
  some ``row_k`` entry in its column is Gaussian, which is the kind the
  scalar loop gives it.
- Float input runs float kernels: each converts its operands to plain
  Python ``complex`` once, runs the scalar loop's operations in the
  scalar loop's order, and wraps each result once in a ComplexFloat.
  The results equal the scalar loop's bit for bit (value, signed zeros,
  kind and tolerance):
  - Products, ``apply`` and ``vec_dot`` start each sum at ``0j``, as the
    scalar loop starts at ZERO, and an entry carries the largest float
    tolerance in its row and column.  An entry with a term of two exact
    factors keeps the scalar loop, which multiplies that term exactly.
  - ``det`` and ``rref`` (so ``nullspace``, ``solve`` and
    ``Subspace.from_rows``) of a matrix whose entries are all floats
    pivot, as the scalar loop does, on the largest magnitude above the
    tolerance, with ``1+0j`` for the exact constants.  The matrix has one
    tolerance, the largest among its entries, so the results are the
    scalar loop's whenever the entries share one tolerance, as the
    floats of one parsed input do.  ``det`` of exact and float entries
    promotes the exact ones at it; ``rref`` of them keeps the scalar loop.
  - ``scalar_multiple_of`` with a float multiple compares every entry
    at the tolerances the scalar loop compares it at.
  Single scalars keep ComplexFloat's own arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .scalars import (
    ComplexFloat,
    ExactRational,
    GaussianRational,
    Scalar,
    _float_of,
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
    return _products([u], [v])[0][0]


def _plain_dot(u: Vector, v: Vector) -> Scalar:
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


def _dot_numerator(u: _Cleared, v: _Cleared) -> Tuple[int, Optional[int]]:
    """vec_dot of two cleared vectors times both denominators, as integers
    (re, im); im is None when neither vector has a Gaussian entry."""
    (ur, ui, _), (vr, vi, _) = u, v
    re = sum(map(mul, ur, vr))
    if ui is None and vi is None:
        return re, None
    im = 0
    if vi is not None:
        im += sum(map(mul, ur, vi))
    if ui is not None:
        im += sum(map(mul, ui, vr))
        if vi is not None:
            re -= sum(map(mul, ui, vi))
    return re, im


def _cleared_dot(u: _Cleared, v: _Cleared) -> Scalar:
    """vec_dot of two cleared vectors, of the kind vec_dot would return."""
    re, im = _dot_numerator(u, v)
    den = u[2] * v[2]
    if im is None:
        return ExactRational(Fraction(re, den))
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _cleared_image(cols: Sequence[_Cleared], v: _Cleared) -> _Cleared:
    """The matrix with cleared columns cols times v, cleared: the sum of
    v[k] * cols[k] over the common denominator of v and the columns."""
    vr, vi, vd = v
    den = lcm(*[d for _, _, d in cols])
    gaussian = vi is not None or any(ci is not None for _, ci, _ in cols)
    re = [0] * len(cols[0][0])
    im = [0] * len(re) if gaussian else None
    for k, (cr, ci, d) in enumerate(cols):
        s = den // d
        xr, xi = vr[k] * s, 0 if vi is None else vi[k] * s
        if xr:
            re = [o + xr * c for o, c in zip(re, cr)]
            if ci is not None:
                im = [o + xr * c for o, c in zip(im, ci)]
        if xi:
            im = [o + xi * c for o, c in zip(im, cr)]
            if ci is not None:
                re = [o - xi * c for o, c in zip(re, ci)]
    return re, im, den * vd


def _products(rows: Sequence[Vector], cols: Sequence[Vector]) -> List[List[Scalar]]:
    """The dot product of every row with every column, on one path per call.

    Exact input runs on cleared integers.  With a float entry anywhere,
    every entry whose terms each have a float factor runs the float
    kernel; an entry with a term of two exact factors keeps the scalar
    loop, which multiplies that term exactly.
    """
    cleared_rows = _all_cleared(rows)
    cleared_cols = None if cleared_rows is None else _all_cleared(cols)
    if cleared_cols is not None:
        return [[_cleared_dot(r, c) for c in cleared_cols] for r in cleared_rows]
    return _float_products(rows, cols)


def _float_products(rows: Sequence[Vector], cols: Sequence[Vector]) -> List[List[Scalar]]:
    """_products of rows and columns with a float entry somewhere."""
    float_cols = [_floated(c) for c in cols]
    out = []
    for r in rows:
        rv, rt, rx = _floated(r)
        out.append([_plain_dot(r, c) if rx & cx else
                    _float_of(reduce(add, map(mul, rv, cv), 0j), max(rt, ct))
                    for c, (cv, ct, cx) in zip(cols, float_cols)])
    return out


def _all_cleared(vectors: Sequence[Vector]) -> Optional[List[_Cleared]]:
    """Every vector cleared, or None as soon as one has a float entry."""
    out = []
    for v in vectors:
        c = _cleared(v)
        if c is None:
            return None
        out.append(c)
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


def _combination(v: Vector, coeffs: Sequence[Scalar], m: "Matrix") -> Vector:
    """v + sum of coeffs[k]*m.rows[k]: on cleared integers, m's rows taken
    from its cached cleared form, when every entry is exact, else by the
    scalar loop ``o + c*r``, row by row.

    On the integer path an entry is Gaussian exactly when v's entry, some
    coefficient or some row's entry in its column is Gaussian: the kind
    the scalar loop would give it.
    """
    n = len(v)
    rows = m._cleared_rows()
    head = None if rows is None else _cleared(tuple(v) + tuple(coeffs))
    if head is None:
        out = tuple(v)
        for c, row in zip(coeffs, m.rows):
            out = tuple(o + c * r for o, r in zip(out, row))
        return out
    re, im, den = head
    # v is over den and the sum of the rows over sum_den, a multiple of den
    sum_re, sum_im, sum_den = _cleared_image(rows, (re[n:], None if im is None else im[n:], den))
    s = sum_den // den
    out_re = [x * s + y for x, y in zip(re, sum_re)]
    if sum_im is None:
        return tuple(ExactRational(Fraction(x, sum_den)) for x in out_re)
    out_im = sum_im if im is None else [x * s + y for x, y in zip(im, sum_im)]
    if any(type(c) is GaussianRational for c in coeffs):
        gaussian = [True] * n
    else:
        gaussian = [type(e) is GaussianRational for e in v]
        for row in m.rows:
            gaussian = [g or type(e) is GaussianRational for g, e in zip(gaussian, row)]
    return tuple(GaussianRational(Fraction(x, sum_den), Fraction(y, sum_den)) if g
                 else ExactRational(Fraction(x, sum_den))
                 for x, y, g in zip(out_re, out_im, gaussian))


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

    def _set(self, rows: Tuple[Vector, ...]) -> None:
        assert rows, "empty matrix"
        width = len(rows[0])
        assert width > 0 and all(len(r) == width for r in rows)
        self.rows = rows
        self._row_form = self._column_form = _UNSET

    def _cleared_rows(self) -> Optional[List[_Cleared]]:
        """Every row cleared (``_cleared``), or None when an entry is a float;
        built on first use and kept, as the matrix never changes."""
        if self._row_form is _UNSET:
            self._row_form = _all_cleared(self.rows)
        return self._row_form

    def _cleared_columns(self) -> Optional[List[_Cleared]]:
        """Every column cleared, or None when an entry is a float; kept too."""
        if self._column_form is _UNSET:
            self._column_form = _all_cleared(list(zip(*self.rows)))
        return self._column_form

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
        assert a.nrows == b.nrows and c.nrows == d.nrows
        assert a.ncols == c.ncols and b.ncols == d.ncols
        rows = [ra + rb for ra, rb in zip(a.rows, b.rows)]
        rows += [rc + rd for rc, rd in zip(c.rows, d.rows)]
        return Matrix._of(rows)

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
        t = Matrix._of(zip(*self.rows))
        t._row_form, t._column_form = self._column_form, self._row_form
        return t

    def __add__(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return Matrix._of([vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return Matrix._of([vec_sub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix._of([tuple(-e for e in r) for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        return Matrix._of([vec_scale(c, r) for r in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.ncols == other.nrows
        rows = self._cleared_rows()
        cols = None if rows is None else other._cleared_columns()
        if cols is None:
            return Matrix._of(_float_products(self.rows, list(zip(*other.rows))))
        return Matrix._of([[_cleared_dot(r, c) for c in cols] for r in rows])

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        u = as_vector(v)
        assert len(u) == self.ncols
        rows = self._cleared_rows()
        cleared = None if rows is None else _cleared(u)
        if cleared is None:
            return tuple(row[0] for row in _float_products(self.rows, [u]))
        return tuple(_cleared_dot(r, cleared) for r in rows)

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


def _float_rows(m: Matrix) -> Tuple[List[List[complex]], float]:
    """The rows of a matrix with float entries as plain complex numbers, and
    the largest tolerance among its floats, the one the kernels compare at;
    exact entries are promoted as ``_coerce`` promotes them."""
    return ([[e.to_complex() for e in r] for r in m.rows],
            max(e.tolerance for r in m.rows for e in r if type(e) is ComplexFloat))


def _float_pivot(rows: List[List[complex]], col: int, start: int,
                 tolerance: float) -> Optional[int]:
    """_pivot_row on plain complex rows: the largest magnitude above tolerance."""
    best, best_mag = None, 0.0
    for i in range(start, len(rows)):
        mag = abs(rows[i][col])
        if mag > tolerance and mag > best_mag:
            best, best_mag = i, mag
    return best


def _int_step(a: List[List[int]], r: int, col: int, prev: int) -> int:
    """Reduce every row but r against row r, dividing by prev; the new pivot."""
    top = a[r]
    pivot = top[col]
    for i in range(len(a)):
        if i != r:
            f = a[i][col]
            a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], top)]
    return pivot


def _gaussian_step(a: List[List[Tuple[int, int]]], r: int, col: int,
                   prev: Tuple[int, int]) -> Tuple[int, int]:
    """_int_step over Z[i]: dividing by prev is multiplying by its
    conjugate and dividing by its norm, exact in both parts."""
    top = a[r]
    pr, pi = top[col]
    qr, qi = prev
    nq = qr * qr + qi * qi
    for i in range(len(a)):
        if i != r:
            fr, fi = a[i][col]
            row = []
            for (xr, xi), (yr, yi) in zip(a[i], top):
                ur = pr * xr - pi * xi - fr * yr + fi * yi
                ui = pr * xi + pi * xr - fr * yi - fi * yr
                row.append(((ur * qr + ui * qi) // nq, (ui * qr - ur * qi) // nq))
            a[i] = row
    return pr, pi


def _fraction_free(a: List[list], step=_int_step, zero=0, one=1,
                   gaussian: Optional[List[int]] = None) -> Tuple[List[int], object, int, bool]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    At every pivot each other row, above and below, is reduced against
    the pivot row, so after each step each entry is a minor of the input
    (Bareiss 1968) and the division by the previous pivot is exact.
    Returns the pivot columns, the last pivot, which every pivot row then
    holds at its pivot column and which is the minor on the pivot rows
    and columns, the sign of the row swaps, and whether some pivot was
    Gaussian under ``gaussian``.  Rows past the pivot rows end up zero.

    ``step`` reduces the other rows against one pivot row: ``_int_step``
    for integer entries, ``_gaussian_step`` for Gaussian integers held as
    (re, im) pairs, with ``zero`` and ``one`` of the same ring.

    ``gaussian``, one bitmask per row of the entries the scalar loop holds
    as Gaussian, follows that loop's kind rule in place: each row here is a
    nonzero multiple of the loop's row, so both see the same zeros.
    """
    n = len(a)
    full = (1 << len(a[0])) - 1
    pivots = []
    prev, sign, gaussian_pivot = one, 1, False
    for col in range(len(a[0])):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col] != zero), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        if gaussian is not None:
            gaussian[r], gaussian[p] = gaussian[p], gaussian[r]
            if gaussian[r] >> col & 1:
                gaussian_pivot, gaussian[r] = True, full
            top = gaussian[r]
            for i in range(n):
                if i != r and a[i][col] != zero:
                    gaussian[i] = full if gaussian[i] >> col & 1 else gaussian[i] | top
        prev = step(a, r, col, prev)
        pivots.append(col)
    return pivots, prev, sign, gaussian_pivot


_GAUSSIAN_ZERO = GaussianRational(0, 0)


def _exact_elimination(m: Matrix, cleared: List[_Cleared]):
    """Run ``_fraction_free`` on the cleared rows of m over Z, or over Z[i]
    with the Gaussian mask when some entry is Gaussian.  Returns the
    eliminated rows, the mask (None over Z) and ``_fraction_free``'s result."""
    if all(im is None for _, im, _ in cleared):
        # _fraction_free replaces rows and never writes into one, so the
        # matrix's kept rows can start the elimination
        a = [re for re, _, _ in cleared]
        return a, None, _fraction_free(a)
    a = [list(zip(re, im or [0] * len(re))) for re, im, _ in cleared]
    gaussian = [sum(1 << j for j, e in enumerate(r) if type(e) is GaussianRational)
                for r in m.rows]
    return a, gaussian, _fraction_free(a, _gaussian_step, (0, 0), (1, 0), gaussian)


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    An exact matrix is reduced fraction-free, an all-float one at its
    largest tolerance, one of exact and float entries by the scalar loop.
    """
    cleared = m._cleared_rows()
    if cleared is not None:
        # scaling a row changes no reduced form, so each row is cleared alone
        a, gaussian, (pivots, d, _, _) = _exact_elimination(m, cleared)
        r = len(pivots)
        if gaussian is None:
            rows = [[ExactRational(Fraction(x, d)) if x else ZERO for x in a[i]]
                    for i in range(r)]
            rows += [[ZERO] * m.ncols] * (m.nrows - r)
        else:
            dr, di = d
            nd = dr * dr + di * di
            rows = [[GaussianRational(Fraction(xr * dr + xi * di, nd),
                                      Fraction(xi * dr - xr * di, nd))
                     if g >> j & 1 else ExactRational(Fraction(xr * dr + xi * di, nd))
                     for j, (xr, xi) in enumerate(a[i])] for i, g in enumerate(gaussian[:r])]
            rows += [[_GAUSSIAN_ZERO if g >> j & 1 else ZERO for j in range(m.ncols)]
                     for g in gaussian[r:]]
        return Matrix._of(rows), tuple(pivots)
    if all(type(e) is ComplexFloat for r in m.rows for e in r):
        return _float_rref(m)
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


def _float_rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """The scalar loop of rref on plain complex rows.  A row the loop never
    rewrites is returned as it came in, as the scalar loop returns it."""
    rows, tolerance = _float_rows(m)
    kept = list(m.rows)  # a row's input entries until the loop rewrites it
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = _float_pivot(rows, col, r, tolerance)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        kept[p] = kept[r]
        kept[r] = None
        inv = (1 + 0j) / rows[r][col]
        top = rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and abs(rows[i][col]) > tolerance:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
                kept[i] = None
        pivots.append(col)
    return Matrix._of([[_float_of(v + 0j, tolerance) for v in row] if k is None else k
                       for row, k in zip(rows, kept)]), tuple(pivots)


def rank(m: Matrix) -> int:
    """The number of pivots of rref(m); an exact matrix is eliminated
    without emitting its reduced form."""
    cleared = m._cleared_rows()
    if cleared is None:
        return len(rref(m)[1])
    return len(_exact_elimination(m, cleared)[2][0])


def det(m: Matrix) -> Scalar:
    """Determinant: fraction-free for an exact matrix, of the kind the scalar
    loop gives it; in floats when some entry is a float."""
    assert m.nrows == m.ncols
    cleared = m._cleared_rows()
    if cleared is None:
        return _float_det(m)
    _, gaussian, (pivots, d, sign, gaussian_pivot) = _exact_elimination(m, cleared)
    if len(pivots) < m.nrows:
        # a zero of the kind of the first pivot, or of entry (0, 0)
        first = next((r[0] for r in m.rows if not r[0].is_zero()), m.rows[0][0])
        return _GAUSSIAN_ZERO if type(first) is GaussianRational else ZERO
    den = prod(c[2] for c in cleared)
    dr, di = (d, 0) if gaussian is None else d
    if gaussian_pivot:
        return GaussianRational(Fraction(sign * dr, den), Fraction(sign * di, den))
    return ExactRational(Fraction(sign * dr, den))


def _float_det(m: Matrix) -> ComplexFloat:
    """The scalar loop of det on plain complex rows."""
    rows, tolerance = _float_rows(m)
    n = len(rows)
    sign, out = 1, 1 + 0j
    for col in range(n):
        p = _float_pivot(rows, col, col, tolerance)
        if p is None:
            return ComplexFloat(0j * rows[0][0], tolerance=tolerance)
        if p != col:
            rows[col], rows[p] = rows[p], rows[col]
            sign = -sign
        pivot = rows[col][col]
        out = out * pivot
        inv = (1 + 0j) / pivot
        for i in range(col + 1, n):
            if abs(rows[i][col]) <= tolerance:
                continue
            f = rows[i][col] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return ComplexFloat(out if sign > 0 else -out, tolerance=tolerance)


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
    aug = Matrix._of([row + (rhs[i],) for i, row in enumerate(m.rows)])
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
    aug = Matrix._of([m.rows[i] + eye.rows[i] for i in range(n)])
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        return None
    return Matrix._of([r[n:] for r in red.rows])


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
    if type(c) is ComplexFloat:
        # x == c*y for every entry, as the scalar loop compares it: at the
        # largest tolerance among x, y and c
        cv, ct = c.value, c.tolerance
        xs, ys = _entry_floats(a), _entry_floats(b)
        ok = all(abs(x - cv * y) <= max(xt, yt, ct) for (x, xt), (y, yt) in zip(xs, ys))
    else:
        ok = all(x == c * y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
    return c if ok else None


def _entry_floats(m: Matrix) -> List[Tuple[complex, float]]:
    """Each entry of m as a plain complex number with its tolerance (0.0 if exact)."""
    return [(e.value, e.tolerance) if type(e) is ComplexFloat else (e.to_complex(), 0.0)
            for r in m.rows for e in r]


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
