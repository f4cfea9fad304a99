"""Small dense matrices over the scalar tower.

Everything is immutable, and every shape is checked by GeometryError, so
also under ``python -O``.  The path an operation takes follows the kinds
of the entries; results are the same on every path, entry by entry and
kind by kind.

- The kept form of an exact vector is one value ``(re, im, den, kinds)``
  (``_cleared``): integer lists re and im over one denominator, for the
  entries (re[k] + i*im[k]) / den, GaussianRational where bit k of the
  mask kinds is set, else ExactRational (im[k] zero); im is None exactly
  when kinds is 0.  This module alone knows that layout; other modules
  pass forms whole to its operations: ``_first_nonzero``,
  ``_proportional`` (two forms span one point), ``_residue`` (modulo
  reduced rows), ``_transposed`` (the kept rows of a transpose),
  ``_cleared_image`` (a combination of forms), ``_cancelling``
  (the coefficients of the combination of two forms that vanishes at an
  entry), ``_normalized`` (division by the first nonzero entry),
  ``_kernel_forms`` (a nullspace basis off kept rows) and ``_scalars``,
  the one writer of Scalars, with the shared zeros.  Only the integer
  producers ``quaternions._cleared_product``, ``quadrics._pencil_det``
  and ``transforms._associate`` read the integers, for their arithmetic.
- A ``Matrix`` never changes, so it keeps its rows cleared and its
  columns cleared, each built on first use and ``None`` when an entry is
  a float; a transpose starts with the two forms swapped, and the
  columns of kept rows are their ``_transposed``.
  ``Matrix(rows)`` and ``Matrix.from_columns`` convert every entry with
  ``scalars.scalar``; the trusted constructor ``Matrix._of`` takes rows
  of Scalars as they are (results built here and in ``projgeom``, the
  quaternion multiplication matrices, the block readers of
  ``transforms`` and ``quadrecon``, reconstruction's frames).  Exact
  results are born cleared: ``Matrix._of_cleared`` takes kept rows, each
  equal to ``_cleared`` of its entries (``_reduced_form``), and makes the
  rows of Scalars only when ``rows`` is first read.  ``rref``'s exact
  path returns its eliminated rows so; a reduced basis read only by
  integer steps (a join in ``quadrecon.run_cycle``) never makes a
  Scalar, and two matrices with kept rows compare as integers.
  ``_slice`` and ``_stacked`` pass kept rows on.  A point
  (``projgeom.ProjPoint``) is a one-row ``Matrix``, so it keeps no form
  of its own.
- Exact products are born kept too: one kernel, ``_cleared_products``,
  gives cleared rows, which ``Matrix.__mul__`` reduces and ``apply`` and
  ``vec_dot`` write as Scalars.  ``transpose`` of kept rows, and
  ``__add__`` and ``scale`` of exact matrices, return kept rows, and
  ``is_zero``, ``is_symmetric``, ``is_real``, ``==`` and an entry read
  make no row of Scalars.
- ``rref``, ``rank`` and ``det`` of an exact matrix read the kept rows
  and run fraction-free Gauss-Jordan elimination (Bareiss 1968) over
  the integers, or over the Gaussian integers Z[i] held as (re, im)
  pairs when some entry is Gaussian; ``rref`` divides by the pivot only
  to emit the canonical reduced form, and ``rank`` emits nothing.
  ``signature`` runs that step on a real form's kept rows with
  symmetric pivots, each pivot's sign read against the one before.
- The kinds of every integer path are the scalar loop's: each integer
  step writes its result's mask by that loop's rule.  A dot or Hamilton
  product or a quotient is Gaussian when an operand is; a combination
  entry when v's entry, a row's entry in its column or any coefficient
  is; in elimination a pivot row where its pivot is, another where its
  pivot-column entry or the pivot row is.  ``det`` is Gaussian iff some
  pivot was; a singular one is a zero of the first pivot's kind, or of
  entry (0, 0)'s if column 0 has none.
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

from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import add, mul, or_
from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .scalars import (
    ComplexFloat,
    ExactRational,
    GaussianRational,
    Scalar,
    _float_of,
    scalar,
    ONE,
    ZERO,
)

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
    cu = _cleared(u)
    cv = None if cu is None else _cleared(v)
    if cv is None:
        return _float_products([u], [v])[0][0]
    return _scalars(*_cleared_products([cu], [cv])[0])[0]


def _plain_dot(u: Vector, v: Vector) -> Scalar:
    out = ZERO
    for a, b in zip(u, v):
        out = out + a * b
    return out


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


# the kept form (see the module docstring)
_Cleared = Tuple[List[int], Optional[List[int]], int, int]


def _cleared(u: Vector) -> Optional[_Cleared]:
    """u over one common denominator with its kinds, or None when an entry
    is a float."""
    if all(type(a) is ExactRational for a in u):
        re = [a.value for a in u]
        den = lcm(*[f.denominator for f in re])
        return [f.numerator * (den // f.denominator) for f in re], None, den, 0
    if not all(a.is_exact for a in u):
        return None
    re = [a.value if type(a) is ExactRational else a.re for a in u]
    im = [0 if type(a) is ExactRational else a.im for a in u]
    den = lcm(*[f.denominator for f in re], *[f.denominator for f in im])
    return ([f.numerator * (den // f.denominator) for f in re],
            [f.numerator * (den // f.denominator) for f in im], den, _kinds(u))


def _flat_cleared(m: "Matrix") -> _Cleared:
    """The entries of an exact matrix, row by row, over one denominator,
    read from its kept cleared rows."""
    rows = m._cleared_rows()
    den = lcm(*[d for _, _, d, _ in rows])
    scales = [den // d for _, _, d, _ in rows]
    re = [x * s for (r, _, _, _), s in zip(rows, scales) for x in r]
    kinds = sum(k << i * len(r) for i, (r, _, _, k) in enumerate(rows))
    im = ([x * s for (r, im, _, _), s in zip(rows, scales) for x in im or [0] * len(r)]
          if kinds else None)
    return re, im, den, kinds


def _dot_numerator(u: _Cleared, v: _Cleared) -> Tuple[int, Optional[int]]:
    """vec_dot of two cleared vectors times both denominators, as integers
    (re, im); im is None when neither vector has a Gaussian entry."""
    (ur, ui, _, _), (vr, vi, _, _) = u, v
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


def _proportional(a: _Cleared, b: _Cleared) -> bool:
    """Whether two cleared nonzero vectors span the same point: a_k*b_p == b_k*a_p
    for every k, p the first nonzero coordinate of a (denominators cancel)."""
    p = _first_nonzero(a)
    (ar, ai, _, _), (br, bi, _, _) = a, b
    if ai is None and bi is None:
        x, y = ar[p], br[p]
        return all(s * y == t * x for s, t in zip(ar, br))
    ai = ai or [0] * len(ar)
    bi = bi or [0] * len(br)
    xr, xi, yr, yi = ar[p], ai[p], br[p], bi[p]
    return all(sr * yr - si * yi == tr * xr - ti * xi and sr * yi + si * yr == tr * xi + ti * xr
               for sr, si, tr, ti in zip(ar, ai, br, bi))


def _kinds(entries: Sequence[Scalar]) -> int:
    """The bitmask of the positions of entries that are GaussianRational."""
    mask = 0
    for k, e in enumerate(entries):
        if type(e) is GaussianRational:
            mask |= 1 << k
    return mask


_GAUSSIAN_ZERO = GaussianRational(0, 0)  # read by _scalars only


def _scalars(re: Sequence[int], im: Optional[Sequence[int]], den: int, mask: int) -> Vector:
    """The entries (re[k] + i*im[k]) / den, GaussianRational where bit k of
    mask is set and ExactRational (im[k] zero) elsewhere; im None stands
    for zeros.  A zero entry is the shared zero of its kind."""
    if not mask:
        return tuple([ExactRational(Fraction(x, den)) if x else ZERO for x in re])
    return tuple([(GaussianRational(Fraction(x, den), Fraction(y, den)) if x or y
                   else _GAUSSIAN_ZERO) if mask >> k & 1
                  else ExactRational(Fraction(x, den)) if x else ZERO
                  for k, (x, y) in enumerate(zip(re, im or [0] * len(re)))])


def _cleared_products(rows: Sequence[_Cleared], cols: Sequence[_Cleared]) -> List[_Cleared]:
    """vec_dot of every cleared row with every cleared column, one cleared
    vector per row, not reduced; an entry is Gaussian when its row or its
    column has a Gaussian entry, the kind vec_dot would return."""
    den = lcm(*[d for _, _, d, _ in cols])
    scales = [den // d for _, _, d, _ in cols]
    kinds = sum(1 << k for k, (_, _, _, ck) in enumerate(cols) if ck)
    out = []
    for r in rows:
        dots = [_dot_numerator(r, c) for c in cols]
        mask = (1 << len(cols)) - 1 if r[3] else kinds
        out.append(([x * s for (x, _), s in zip(dots, scales)],
                    [(y or 0) * s for (_, y), s in zip(dots, scales)] if mask else None,
                    r[2] * den, mask))
    return out


def _cleared_image(cols: Sequence[_Cleared], v: _Cleared) -> _Cleared:
    """The matrix with cleared columns cols times v, cleared: the sum of
    v[k] * cols[k] over the common denominator of v and the columns, with
    the scalar loop's kinds: every entry Gaussian when a coefficient v[k]
    is, else where some column is."""
    vr, vi, vd, vk = v
    den = lcm(*[d for _, _, d, _ in cols])
    n = len(cols[0][0])
    kinds = (1 << n) - 1 if vk else reduce(or_, [ck for _, _, _, ck in cols])
    re = [0] * n
    im = [0] * n if kinds else None
    for k, (cr, ci, d, _) in enumerate(cols):
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
    return re, im, den * vd, kinds


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


def _first_nonzero(v: _Cleared) -> Optional[int]:
    """The first position where v is nonzero, or None when v is zero."""
    re, im, _, _ = v
    return next((k for k, x in enumerate(re) if x or im is not None and im[k]), None)


def _residue(v: _Cleared, rows: Sequence[_Cleared], pivots: Sequence[int]) -> _Cleared:
    """v minus the reduced rows, each times v's entry at its pivot column:
    the scalar loop ``o + c*r`` on cleared integers, not reduced.  Its kinds
    are ``_cleared_image``'s, and Gaussian also where v's entry is."""
    re, im, den, kinds = v
    sum_re, sum_im, sum_den, sum_kinds = _cleared_image(rows, (
        [-re[j] for j in pivots], None if im is None else [-im[j] for j in pivots], den,
        kinds and sum(1 << k for k, j in enumerate(pivots) if kinds >> j & 1)))
    # the sum of the rows is over sum_den, a multiple of den
    s = sum_den // den
    out_re = [x * s + y for x, y in zip(re, sum_re)]
    if sum_im is None:
        return out_re, None if im is None else [x * s for x in im], sum_den, kinds
    return (out_re, sum_im if im is None else [x * s + y for x, y in zip(im, sum_im)],
            sum_den, kinds | sum_kinds)


def _transposed(forms: Sequence[_Cleared]) -> List[_Cleared]:
    """The kept rows of the transpose of a matrix with kept rows forms: row
    j holds their entries at j over their common denominator, reduced,
    Gaussian at k where forms[k] is at j."""
    den = lcm(*[d for _, _, d, _ in forms])
    res = zip(*[[x * (den // d) for x in re] for re, _, d, _ in forms])
    masks = [kinds for _, _, _, kinds in forms]
    if not any(masks):
        return [_reduced_form(list(r), None, den, 0) for r in res]
    n = len(forms[0][0])
    ims = zip(*[[x * (den // d) for x in im] if im else [0] * n for _, im, d, _ in forms])
    kinds = [sum(1 << k for k, m in enumerate(masks) if m >> j & 1) for j in range(n)]
    return [_reduced_form(list(r), list(i) if g else None, den, g)
            for r, i, g in zip(res, ims, kinds)]


def _normalized(v: _Cleared) -> Optional[_Cleared]:
    """v divided by its first nonzero entry, reduced, or None when v is
    zero; with the scalar loop's kinds: all Gaussian when that entry is."""
    p = _first_nonzero(v)
    if p is None:
        return None
    re, im, _, kinds = v
    if not kinds >> p & 1:
        return _reduced_form(re, im, re[p], kinds)
    pr, pi = re[p], im[p]  # times its conjugate over its norm
    return _reduced_form([x * pr + y * pi for x, y in zip(re, im)],
                         [y * pr - x * pi for x, y in zip(re, im)],
                         pr * pr + pi * pi, (1 << len(re)) - 1)


def _cancelling(a: _Cleared, b: _Cleared, k: int) -> _Cleared:
    """The coefficients (b[k], -a[k]), for b[k] nonzero, whose combination
    of a and b vanishes at k; both Gaussian when a[k] or b[k] is, so the
    combination has the kinds of the scalar loop's a + c*b, c = -a[k]/b[k]."""
    (ar, ai, ad, ak), (br, bi, bd, bk) = a, b
    c = [br[k] * ad, -ar[k] * bd]
    if not (ak | bk) >> k & 1:
        return c, None, ad * bd, 0
    return c, [(bi[k] if bk else 0) * ad, -(ai[k] if ak else 0) * bd], ad * bd, 0b11


def _reduced_form(re: List[int], im: Optional[List[int]], den: int, kinds: int) -> _Cleared:
    """A cleared vector divided by the gcd of its integers and its
    denominator, the denominator made positive: the form ``_cleared``
    gives the entries it stands for, integer for integer."""
    g = gcd(*re, den) if im is None else gcd(*re, *im, den)
    if den < 0:
        g = -g
    if g == 1:
        return re, im, den, kinds
    return [x // g for x in re], None if im is None else [x // g for x in im], den // g, kinds


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
    def _of_cleared(cls, forms: List[_Cleared]) -> "Matrix":
        """The trusted constructor from kept rows: each row's cleared form,
        equal to ``_cleared`` of its entries (see ``_reduced_form``).  The
        rows of Scalars are made on first read."""
        m = object.__new__(cls)
        m._row_form, m._column_form = forms, _UNSET
        return m

    def __getattr__(self, name):
        # reached only for an unset slot, so for the rows of a matrix born
        # from kept rows, made once here
        if name != "rows":
            raise AttributeError(name)
        self.rows = rows = tuple([_scalars(*form) for form in self._row_form])
        return rows

    def _set(self, rows: Tuple[Vector, ...]) -> None:
        width = len(rows[0]) if rows else 0
        if not width or any(len(r) != width for r in rows):
            raise GeometryError("a matrix needs rows of one nonzero length")
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
            rows = self._row_form
            self._column_form = (_transposed(rows) if type(rows) is list
                                 else _all_cleared(list(zip(*self.rows))))
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
            return _scalars((re[j],), im and (im[j],), den, kinds >> j & 1)[0]
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
        return Matrix._of_cleared([_reduced_form(*_cleared_image(pair, ([1, 1], None, 1, 0)))
                                   for pair in zip(fa, fb)])

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        form = _cleared((c,))
        forms = None if form is None else self._cleared_rows()
        if forms is None:
            return Matrix._of([vec_scale(c, r) for r in self.rows])
        return Matrix._of_cleared([_reduced_form(*_cleared_image([f], form)) for f in forms])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise GeometryError("a product needs as many columns on the left as rows on the right")
        rows = self._cleared_rows()
        cols = None if rows is None else other._cleared_columns()
        if cols is None:
            return Matrix._of(_float_products(self.rows, list(zip(*other.rows))))
        return Matrix._of_cleared([_reduced_form(*f) for f in _cleared_products(rows, cols)])

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        u = as_vector(v)
        if len(u) != self.ncols:
            raise GeometryError("a matrix applies to vectors with one coordinate per column")
        rows = self._cleared_rows()
        cleared = None if rows is None else _cleared(u)
        if cleared is None:
            return tuple(row[0] for row in _float_products(self.rows, [u]))
        return _scalars(*_cleared_products([cleared], rows)[0])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        fa, fb = self._row_form, other._row_form
        if type(fa) is list and type(fb) is list:
            # kept forms are those of _cleared, one per value, with im None
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
            return all(_first_nonzero(f) is None for f in forms)
        return all(vec_is_zero(r) for r in self.rows)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose()

    def is_exact(self) -> bool:
        return type(self._row_form) is list or all(e.is_exact for r in self.rows for e in r)

    def real_part(self) -> "Matrix":
        """The real parts of an exact matrix's entries, ExactRational."""
        return Matrix._of_cleared([_reduced_form(re, None, den, 0)
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


def _exact_elimination(cleared: List[_Cleared]):
    """Run ``_fraction_free`` on cleared rows over Z, or over Z[i] with their
    kinds masks when some entry is Gaussian.  Returns the eliminated rows,
    the masks (None over Z) and ``_fraction_free``'s result."""
    gaussian = [kinds for _, _, _, kinds in cleared]  # _fraction_free updates it in place
    if not any(gaussian):
        # _fraction_free replaces rows and never writes into one, so the
        # matrix's kept rows can start the elimination
        a = [re for re, _, _, _ in cleared]
        return a, None, _fraction_free(a)
    a = [list(zip(re, im or [0] * len(re))) for re, im, _, _ in cleared]
    return a, gaussian, _fraction_free(a, _gaussian_step, (0, 0), (1, 0), gaussian)


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    An exact matrix is reduced fraction-free; one with a float entry by
    the scalar loop, which compares each entry at its own tolerance.
    """
    cleared = m._cleared_rows()
    if cleared is not None:
        # scaling a row changes no reduced form, so each row is cleared alone
        a, gaussian, (pivots, d, _, _) = _exact_elimination(cleared)
        if gaussian is None:
            return Matrix._of_cleared([_reduced_form(row, None, d, 0) for row in a]), tuple(pivots)
        # a Z[i] row over d is the row times conj(d) over |d|^2; a row the
        # scalar loop holds as rational has imaginary parts zero
        dr, di = d
        forms = [_reduced_form([xr * dr + xi * di for xr, xi in row],
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
    cleared = m._cleared_rows()
    if cleared is None:
        return len(rref(m)[1])
    return len(_exact_elimination(cleared)[2][0])


def det(m: Matrix) -> Scalar:
    """Determinant: fraction-free for an exact matrix, of the kind the scalar
    loop gives it; with a float entry the scalar loop itself, forward
    elimination on ``rref``'s pivot rule."""
    _require_square(m)
    cleared = m._cleared_rows()
    if cleared is None:
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
    _, gaussian, (pivots, d, sign, gaussian_pivot) = _exact_elimination(cleared)
    if len(pivots) < m.nrows:
        # a zero of the kind of the first pivot, or of entry (0, 0)
        first = next((r[0] for r in m.rows if not r[0].is_zero()), m.rows[0][0])
        return _scalars((0,), None, 1, _kinds((first,)))[0]
    dr, di = (d, 0) if gaussian is None else d
    return _scalars((sign * dr,), (sign * di,), prod(c[2] for c in cleared), gaussian_pivot)[0]


def nullspace(m: Matrix) -> List[Vector]:
    """Basis of the right kernel, one vector per free column."""
    return _kernel(*rref(m))


def _kernel(red: Matrix, pivots: Sequence[int]) -> List[Vector]:
    """The nullspace basis read off a reduced row echelon form: for each
    free column j, one at j and minus the pivot rows' entries in column j
    at their pivots; from kept rows by ``_kernel_forms``."""
    if type(red._row_form) is list:
        return [_scalars(*form) for form in _kernel_forms(red, pivots)]
    free = [j for j in range(red.ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [ZERO] * red.ncols
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][j]
        basis.append(tuple(v))
    return basis


def _kernel_forms(red: Matrix, pivots: Sequence[int]) -> List[_Cleared]:
    """``_kernel`` of a reduced form with kept rows, each vector cleared over
    the pivot rows' common denominator: its one is rational, and an entry
    read off a row has that entry's kind."""
    n = red.ncols
    forms = red._row_form[:len(pivots)]
    den = lcm(*[d for _, _, d, _ in forms])
    scales = [den // d for _, _, d, _ in forms]
    out = []
    for j in (j for j in range(n) if j not in pivots):
        mask = sum(1 << pc for pc, (_, _, _, g) in zip(pivots, forms) if g >> j & 1)
        re = [0] * n
        re[j] = den
        for pc, (row, _, _, _), s in zip(pivots, forms, scales):
            re[pc] = -row[j] * s
        im = None
        if mask:
            im = [0] * n
            for pc, (_, row, _, _), s in zip(pivots, forms, scales):
                if row is not None:
                    im[pc] = -row[j] * s
        out.append((re, im, den, mask))
    return out


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

    ``_int_step`` on the kept rows over one positive denominator, with
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
        prev = _int_step(a, k, k, prev)
    return n - len(free) - neg, neg, len(free)
