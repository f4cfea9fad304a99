"""The kept integer forms of exact values, and the kernels that run on them.

Exact answers are computed over the integers, or over the Gaussian
integers Z[i] as (re, im) pairs, and made Scalars only when read.  This
module owns both integer forms and their operations, and of the package
imports only ``errors`` and ``scalars``.

- A cleared vector ``(re, im, den, kinds)`` (``Cleared``, made by
  ``cleared``): integer lists re and im over one denominator, for the
  entries (re[k] + i*im[k]) / den, GaussianRational where bit k of the
  mask kinds is set, else ExactRational (im[k] zero); im is None exactly
  when kinds is 0.  ``reduced_form`` gives each value one form, and
  ``scalars_of`` is the one writer of Scalars, with the shared zeros.  A
  ``linalg.Matrix`` keeps its rows and columns so, and a
  ``projgeom.ProjPoint`` is a one-row ``Matrix``.
- An integer polynomial ``(re, im, kinds)`` (``IntPoly``): the
  coefficients re[k] + i*im[k] in ascending order with no trailing zero
  (im None over Z), and the bitmask of the coefficients the scalar loop
  holds as Gaussian.  Its division is fraction-free pseudo-division in
  place, its gcd a primitive remainder sequence whose divisors are freed
  of the gcd of their coefficients, in Z[i] when they are Gaussian, so no
  content builds up.  A precondition on a nonzero polynomial raises
  GeometryError, also under ``python -O``.
- Every integer step writes its result's kinds by the scalar loop's
  rule.  A dot or Hamilton product or a quotient is Gaussian when an
  operand is; a combination entry when v's entry, a row's entry in its
  column or any coefficient is; in elimination a pivot row where its
  pivot is, another where its pivot-column entry or the pivot row is; a
  polynomial coefficient when one of its terms has a Gaussian factor, or
  one of its summands is.
- ``linalg``, ``projgeom`` and ``quadrecon`` pass forms whole to the
  operations here.  The integer producers ``quaternions._cleared_product``,
  ``quadrics._pencil_det``, ``transforms._associate`` and
  ``motions.trajectory`` read the integers, for their own arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm
from operator import mul, or_
from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .scalars import ExactRational, GaussianRational, Scalar, ZERO

Cleared = Tuple[List[int], Optional[List[int]], int, int]


def cleared(u: Sequence[Scalar]) -> Optional[Cleared]:
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
            [f.numerator * (den // f.denominator) for f in im], den, kinds_of(u))


def flat_cleared(rows: Sequence[Cleared]) -> Cleared:
    """The entries of an exact matrix with kept rows, row by row, over one
    denominator."""
    den = lcm(*[d for _, _, d, _ in rows])
    scales = [den // d for _, _, d, _ in rows]
    re = [x * s for (r, _, _, _), s in zip(rows, scales) for x in r]
    kinds = sum(k << i * len(r) for i, (r, _, _, k) in enumerate(rows))
    im = ([x * s for (r, im, _, _), s in zip(rows, scales) for x in im or [0] * len(r)]
          if kinds else None)
    return re, im, den, kinds


def dot_numerator(u: Cleared, v: Cleared) -> Tuple[int, Optional[int]]:
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


def proportional(a: Cleared, b: Cleared) -> bool:
    """Whether two cleared nonzero vectors span the same point: a_k*b_p == b_k*a_p
    for every k, p the first nonzero coordinate of a (denominators cancel)."""
    p = first_nonzero(a)
    (ar, ai, _, _), (br, bi, _, _) = a, b
    if ai is None and bi is None:
        x, y = ar[p], br[p]
        return all(s * y == t * x for s, t in zip(ar, br))
    ai = ai or [0] * len(ar)
    bi = bi or [0] * len(br)
    xr, xi, yr, yi = ar[p], ai[p], br[p], bi[p]
    return all(sr * yr - si * yi == tr * xr - ti * xi and sr * yi + si * yr == tr * xi + ti * xr
               for sr, si, tr, ti in zip(ar, ai, br, bi))


def kinds_of(entries: Sequence[Scalar]) -> int:
    """The bitmask of the positions of entries that are GaussianRational."""
    mask = 0
    for k, e in enumerate(entries):
        if type(e) is GaussianRational:
            mask |= 1 << k
    return mask


_GAUSSIAN_ZERO = GaussianRational(0, 0)  # read by scalars_of only


def scalars_of(re: Sequence[int], im: Optional[Sequence[int]], den: int,
               mask: int) -> Tuple[Scalar, ...]:
    """The entries (re[k] + i*im[k]) / den, GaussianRational where bit k of
    mask is set and ExactRational (im[k] zero) elsewhere; im None stands
    for zeros.  A zero entry is the shared zero of its kind."""
    if not mask:
        return tuple([ExactRational(Fraction(x, den)) if x else ZERO for x in re])
    return tuple([(GaussianRational(Fraction(x, den), Fraction(y, den)) if x or y
                   else _GAUSSIAN_ZERO) if mask >> k & 1
                  else ExactRational(Fraction(x, den)) if x else ZERO
                  for k, (x, y) in enumerate(zip(re, im or [0] * len(re)))])


def cleared_products(rows: Sequence[Cleared], cols: Sequence[Cleared]) -> List[Cleared]:
    """vec_dot of every cleared row with every cleared column, one cleared
    vector per row, not reduced; an entry is Gaussian when its row or its
    column has a Gaussian entry, the kind vec_dot would return."""
    den = lcm(*[d for _, _, d, _ in cols])
    scales = [den // d for _, _, d, _ in cols]
    kinds = sum(1 << k for k, (_, _, _, ck) in enumerate(cols) if ck)
    out = []
    for r in rows:
        dots = [dot_numerator(r, c) for c in cols]
        mask = (1 << len(cols)) - 1 if r[3] else kinds
        out.append(([x * s for (x, _), s in zip(dots, scales)],
                    [(y or 0) * s for (_, y), s in zip(dots, scales)] if mask else None,
                    r[2] * den, mask))
    return out


def cleared_image(cols: Sequence[Cleared], v: Cleared) -> Cleared:
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


def all_cleared(vectors: Sequence[Sequence[Scalar]]) -> Optional[List[Cleared]]:
    """Every vector cleared, or None as soon as one has a float entry."""
    out = []
    for v in vectors:
        c = cleared(v)
        if c is None:
            return None
        out.append(c)
    return out


def first_nonzero(v: Cleared) -> Optional[int]:
    """The first position where v is nonzero, or None when v is zero."""
    re, im, _, _ = v
    return next((k for k, x in enumerate(re) if x or im is not None and im[k]), None)


def residue(v: Cleared, rows: Sequence[Cleared], pivots: Sequence[int]) -> Cleared:
    """v minus the reduced rows, each times v's entry at its pivot column:
    the scalar loop ``o + c*r`` on cleared integers, not reduced.  Its kinds
    are ``cleared_image``'s, and Gaussian also where v's entry is."""
    re, im, den, kinds = v
    sum_re, sum_im, sum_den, sum_kinds = cleared_image(rows, (
        [-re[j] for j in pivots], None if im is None else [-im[j] for j in pivots], den,
        kinds and sum(1 << k for k, j in enumerate(pivots) if kinds >> j & 1)))
    # the sum of the rows is over sum_den, a multiple of den
    s = sum_den // den
    out_re = [x * s + y for x, y in zip(re, sum_re)]
    if sum_im is None:
        return out_re, None if im is None else [x * s for x in im], sum_den, kinds
    return (out_re, sum_im if im is None else [x * s + y for x, y in zip(im, sum_im)],
            sum_den, kinds | sum_kinds)


def transposed(forms: Sequence[Cleared]) -> List[Cleared]:
    """The kept rows of the transpose of a matrix with kept rows forms: row
    j holds their entries at j over their common denominator, reduced,
    Gaussian at k where forms[k] is at j."""
    den = lcm(*[d for _, _, d, _ in forms])
    res = zip(*[[x * (den // d) for x in re] for re, _, d, _ in forms])
    masks = [kinds for _, _, _, kinds in forms]
    if not any(masks):
        return [reduced_form(list(r), None, den, 0) for r in res]
    n = len(forms[0][0])
    ims = zip(*[[x * (den // d) for x in im] if im else [0] * n for _, im, d, _ in forms])
    kinds = [sum(1 << k for k, m in enumerate(masks) if m >> j & 1) for j in range(n)]
    return [reduced_form(list(r), list(i) if g else None, den, g)
            for r, i, g in zip(res, ims, kinds)]


def normalized(v: Cleared) -> Optional[Cleared]:
    """v divided by its first nonzero entry, reduced, or None when v is
    zero; with the scalar loop's kinds: all Gaussian when that entry is."""
    p = first_nonzero(v)
    if p is None:
        return None
    re, im, _, kinds = v
    if not kinds >> p & 1:
        return reduced_form(re, im, re[p], kinds)
    pr, pi = re[p], im[p]  # times its conjugate over its norm
    return reduced_form([x * pr + y * pi for x, y in zip(re, im)],
                        [y * pr - x * pi for x, y in zip(re, im)],
                        pr * pr + pi * pi, (1 << len(re)) - 1)


def cancelling(a: Cleared, b: Cleared, k: int) -> Cleared:
    """The coefficients (b[k], -a[k]), for b[k] nonzero, whose combination
    of a and b vanishes at k; both Gaussian when a[k] or b[k] is, so the
    combination has the kinds of the scalar loop's a + c*b, c = -a[k]/b[k]."""
    (ar, ai, ad, ak), (br, bi, bd, bk) = a, b
    c = [br[k] * ad, -ar[k] * bd]
    if not (ak | bk) >> k & 1:
        return c, None, ad * bd, 0
    return c, [(bi[k] if bk else 0) * ad, -(ai[k] if ak else 0) * bd], ad * bd, 0b11


def reduced_form(re: List[int], im: Optional[List[int]], den: int, kinds: int) -> Cleared:
    """A cleared vector divided by the gcd of its integers and its
    denominator, the denominator made positive: the form ``cleared``
    gives the entries it stands for, integer for integer."""
    g = gcd(*re, den) if im is None else gcd(*re, *im, den)
    if den < 0:
        g = -g
    if g == 1:
        return re, im, den, kinds
    return [x // g for x in re], None if im is None else [x // g for x in im], den // g, kinds


# --- fraction-free elimination ----------------------------------------------

def int_step(a: List[List[int]], r: int, col: int, prev: int) -> int:
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
    """int_step over Z[i]: dividing by prev is multiplying by its
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


def _fraction_free(a: List[list], step=int_step, zero=0, one=1,
                   gaussian: Optional[List[int]] = None) -> Tuple[List[int], object, int, bool]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    At every pivot each other row, above and below, is reduced against
    the pivot row, so after each step each entry is a minor of the input
    (Bareiss 1968) and the division by the previous pivot is exact.
    Returns the pivot columns, the last pivot, which every pivot row then
    holds at its pivot column and which is the minor on the pivot rows
    and columns, the sign of the row swaps, and whether some pivot was
    Gaussian under ``gaussian``.  Rows past the pivot rows end up zero.

    ``step`` reduces the other rows against one pivot row: ``int_step``
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


def exact_elimination(rows: List[Cleared]):
    """Run ``_fraction_free`` on cleared rows over Z, or over Z[i] with their
    kinds masks when some entry is Gaussian.  Returns the eliminated rows,
    the masks (None over Z) and ``_fraction_free``'s result."""
    gaussian = [kinds for _, _, _, kinds in rows]  # _fraction_free updates it in place
    if not any(gaussian):
        # _fraction_free replaces rows and never writes into one, so the
        # matrix's kept rows can start the elimination
        a = [re for re, _, _, _ in rows]
        return a, None, _fraction_free(a)
    a = [list(zip(re, im or [0] * len(re))) for re, im, _, _ in rows]
    return a, gaussian, _fraction_free(a, _gaussian_step, (0, 0), (1, 0), gaussian)


def kernel_forms(rows: Sequence[Cleared], pivots: Sequence[int]) -> List[Cleared]:
    """The nullspace basis read off the kept rows of a reduced row echelon
    form (``linalg._kernel``), each vector cleared over the pivot rows'
    common denominator: its one is rational, and an entry read off a row
    has that entry's kind."""
    n = len(rows[0][0])
    forms = rows[:len(pivots)]
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


# --- integer polynomials ------------------------------------------------------

IntPoly = Tuple[List[int], Optional[List[int]], int]
NO_POLY: IntPoly = ([], None, 0)


def _convolve(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_product(a: IntPoly, b: IntPoly) -> IntPoly:
    """a*b; a coefficient is Gaussian when one of its terms has a Gaussian
    factor.  Leading coefficients multiply to a nonzero one, so nothing is
    stripped."""
    (ar, ai, am), (br, bi, bm) = a, b
    if not (ar and br):
        return NO_POLY
    mask = 0
    for k in range(len(ar)):
        if am >> k & 1:
            mask |= ((1 << len(br)) - 1) << k
    for k in range(len(br)):
        if bm >> k & 1:
            mask |= ((1 << len(ar)) - 1) << k
    re = _convolve(ar, br)
    if ai is None and bi is None:
        return re, None, mask
    # a missing im reads as zeros
    ai, bi = ai or [0] * len(ar), bi or [0] * len(br)
    re = [x - y for x, y in zip(re, _convolve(ai, bi))]
    im = [x + y for x, y in zip(_convolve(ar, bi), _convolve(ai, br))]
    return re, im, mask


def stripped(re: List[int], im: Optional[List[int]], mask: int) -> IntPoly:
    """The polynomial without its trailing zeros, whose kinds go with them."""
    while re and not re[-1] and (im is None or not im[-1]):
        re.pop()
        if im is not None:
            im.pop()
    return re, im, mask & ((1 << len(re)) - 1)


def poly_sum(a: IntPoly, b: IntPoly, sign: int = 1) -> IntPoly:
    """a + sign*b; a coefficient is Gaussian when one of its summands is."""
    (ar, ai, am), (br, bi, bm) = a, b
    re = [x + sign * y for x, y in zip_longest(ar, br, fillvalue=0)]
    im = None if ai is None and bi is None else [
        x + sign * y for x, y in zip_longest(ai or (), bi or (), fillvalue=0)]
    return stripped(re, im, am | bm)


# The division and the gcd below carry values only: their results' kinds
# masks are zero, and their callers write the kinds.

def derivative(p: IntPoly) -> IntPoly:
    """dp/ds."""
    re, im, _ = p
    return ([k * x for k, x in enumerate(re)][1:],
            im and [k * y for k, y in enumerate(im)][1:], 0)


def _primitive(p: IntPoly) -> IntPoly:
    """p over the gcd of its coefficients: in Z, or in Z[i] when p has an
    imaginary part."""
    re, im, _ = p
    c = gcd(*re, *(im or ()))
    if c > 1:
        re, im = [x // c for x in re], im and [y // c for y in im]
    if im is not None and any(im):
        # Euclid on Z[i] with rounded quotients, until the gcd is a unit
        x = y = 0
        for u, v in zip(re, im):
            while u or v:
                # (x + iy)/(u + iv) = (x + iy)(u - iv)/n, rounded to qs + i qt
                n = u * u + v * v
                qs, qt = (2 * (x * u + y * v) + n) // (2 * n), (2 * (y * u - x * v) + n) // (2 * n)
                x, y, u, v = u, v, x - qs * u + qt * v, y - qs * v - qt * u
            if x * x + y * y == 1:
                break
        n = x * x + y * y
        if n > 1:
            re, im = ([(a * x + b * y) // n for a, b in zip(re, im)],
                      [(b * x - a * y) // n for a, b in zip(re, im)])
    return re, im, 0


def pseudo_divmod(a: IntPoly, b: IntPoly) -> Tuple[IntPoly, IntPoly, int]:
    """(q, r, n) with lc(b)^n a = q b + r and deg r < deg b, for b nonzero:
    fraction-free division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R), in
    place on the remainder's coefficient lists.  A step pops the remainder's
    top coefficient c, multiplies the rest of it and the quotient entries so
    far by lc(b), sets c as the next quotient entry, subtracts c b below the
    top and strips the trailing zeros; n counts the steps.  q and r are over
    Z exactly when a and b are."""
    (ar, ai, _), (br, bi, _) = a, b
    if not br:
        raise GeometryError("the zero polynomial has no leading coefficient")
    m = len(br) - 1
    r, q = list(ar), [0] * max(0, len(ar) - m)
    n, lr = 0, br[-1]
    if ai is None and bi is None:
        while len(r) > m:
            k, c = len(r) - m - 1, r.pop()
            if lr != 1:
                r = [x * lr for x in r]
                q[k + 1:] = [x * lr for x in q[k + 1:]]
            q[k] = c
            for j in range(m):
                r[k + j] -= c * br[j]
            while r and not r[-1]:
                r.pop()
            n += 1
        return (q, None, 0), (r, None, 0), n
    ri, qi = list(ai) if ai is not None else [0] * len(r), [0] * len(q)
    bi = bi or [0] * len(br)
    li = bi[-1]
    while len(r) > m:
        k, c, ci = len(r) - m - 1, r.pop(), ri.pop()
        if li:
            r, ri = ([x * lr - y * li for x, y in zip(r, ri)],
                     [x * li + y * lr for x, y in zip(r, ri)])
            q[k + 1:], qi[k + 1:] = ([x * lr - y * li for x, y in zip(q[k + 1:], qi[k + 1:])],
                                     [x * li + y * lr for x, y in zip(q[k + 1:], qi[k + 1:])])
        elif lr != 1:
            r, ri = [x * lr for x in r], [y * lr for y in ri]
            q[k + 1:], qi[k + 1:] = [x * lr for x in q[k + 1:]], [y * lr for y in qi[k + 1:]]
        q[k], qi[k] = c, ci
        for j in range(m):
            x, y = br[j], bi[j]
            r[k + j] -= c * x - ci * y
            ri[k + j] -= c * y + ci * x
        while r and not (r[-1] or ri[-1]):
            r.pop()
            ri.pop()
        n += 1
    return (q, qi, 0), (r, ri, 0), n


def int_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """A primitive gcd of two integer polynomials, zero if both are: the
    primitive polynomial remainder sequence (Brown 1971), each divisor over
    the gcd of its coefficients, in Z[i] when it has an imaginary part."""
    if not b[0]:
        a, b = b, a
    while b[0]:
        b = _primitive(b)
        a, b = b, pseudo_divmod(a, b)[1]
    return a
