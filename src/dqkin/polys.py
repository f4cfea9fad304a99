"""Polynomials in one variable over any of the package's rings.

Coefficients are stored in ascending degree order.  The coefficient ring
only needs +, -, * and is_zero; the parameter is always a central scalar.
Division, gcd and root extraction are restricted to exact scalar
coefficients; division and gcd are public API and the tests' reference,
and no other module of the package calls them.  The private integer
polynomials at the end, over Z or Z[i] with the kinds their scalars
would have, are where the pencil determinant is expanded and its
repeated roots isolated by a gcd with its derivative, and where
trajectories are multiplied out, divided by their gcd.  Their division is
fraction-free pseudo-division in place on the remainder's coefficient
lists, and their gcd a primitive remainder sequence whose divisors are
freed of the gcd of their coefficients, in Z[i] when they are Gaussian,
so no content builds up.  A precondition
on a nonzero polynomial or form raises GeometryError, also under
``python -O``.
``split_quadratic`` splits a binary quadratic form over exact and float
scalars alike: it is where the package takes the square roots of its
quadratics, and ``low_degree_roots`` is it dehomogenised.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import ExactnessError, GeometryError
from .scalars import ComplexFloat, Scalar, as_scalar, ONE, ZERO


def _coerce_coeff(c):
    s = as_scalar(c)
    return c if s is None else s


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise GeometryError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                term = a * b  # left factor first: safe when the ring is noncommutative
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = _coerce_coeff(c)
        return Poly([c * a for a in self.coeffs])

    def __call__(self, t):
        """Evaluate at a central scalar parameter."""
        if self.is_zero():
            return ZERO
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * t + c
        return out

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly[%s]" % ", ".join(str(c) for c in self.coeffs)


def _require_exact_scalars(p: Poly, what: str):
    for c in p.coeffs:
        if not isinstance(c, Scalar) or isinstance(c, ComplexFloat):
            raise ExactnessError("%s needs exact scalar coefficients" % what)


def poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """Quotient and remainder over an exact scalar field."""
    _require_exact_scalars(a, "polynomial division")
    _require_exact_scalars(b, "polynomial division")
    inv_lead = ONE / b.leading()
    quot = [ZERO] * max(0, a.degree - b.degree + 1)
    rest = list(a.coeffs)
    for k in range(a.degree - b.degree, -1, -1):
        if len(rest) < b.degree + k + 1:
            continue
        f = rest[b.degree + k] * inv_lead
        if f.is_zero():
            continue
        quot[k] = f
        for i, c in enumerate(b.coeffs):
            rest[i + k] = rest[i + k] - f * c
    return Poly(quot), Poly(rest)


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise ExactnessError("inexact polynomial division: remainder %r" % (r,))
    return q


def monic(p: Poly) -> Poly:
    return p.scale(ONE / p.leading())


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over an exact scalar field (zero polynomial if both zero)."""
    _require_exact_scalars(a, "polynomial gcd")
    _require_exact_scalars(b, "polynomial gcd")
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
        if not b.is_zero():
            b = monic(b)
    return monic(a) if not a.is_zero() else a


def squarefree_part(p: Poly) -> Poly:
    """p with every repeated root collapsed to multiplicity one."""
    if p.degree <= 0:
        return monic(p)
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return monic(p)
    return monic(exact_div(p, g))


def split_quadratic(a: Scalar, b: Scalar, c: Scalar) -> List[Tuple[Scalar, Scalar]]:
    """Root pairs (alpha, beta) of a alpha^2 + 2 b alpha beta + c beta^2.

    The package's one splitter of quadratics.  Float coefficients take the
    float square root; exact ones raise ExactnessError when the roots
    leave Q(i).
    """
    if a.is_zero():
        if b.is_zero():
            if c.is_zero():
                raise GeometryError("the zero form vanishes at every point")
            return [(ONE, ZERO)]
        return [(ONE, ZERO), (-c, 2 * b)]
    disc = b * b - a * c
    if disc.is_zero():
        return [(-b, a)]
    s = disc.sqrt()
    if s is None:
        raise ExactnessError("the square root of %s is not in Q(i)" % disc)
    return [(-b + s, a), (-b - s, a)]


def low_degree_roots(p: Poly) -> Optional[List[Scalar]]:
    """Distinct roots of a polynomial of degree at most two.

    Stays inside the exact tower: returns None when a needed square root
    does not exist there, or when the degree is out of reach.
    """
    _require_exact_scalars(p, "exact root extraction")
    if p.is_zero():
        raise GeometryError("every scalar is a root of the zero polynomial")
    if p.degree > 2:
        return None
    c0, c1, c2 = (p.coeff(k) for k in range(3))
    try:
        pairs = split_quadratic(c2, c1 / 2, c0)
    except ExactnessError:
        return None
    return [alpha / beta for alpha, beta in pairs if not beta.is_zero()]


# --- integer polynomials ---------------------------------------------------

# An integer polynomial (re, im, kinds): the coefficients re[k] + i*im[k] in
# ascending order with no trailing zero (im None over Z), and the bitmask of
# the coefficients the scalar loop holds as Gaussian.
_IntPoly = Tuple[List[int], Optional[List[int]], int]
_NO_POLY: _IntPoly = ([], None, 0)


def _convolve(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_product(a: _IntPoly, b: _IntPoly) -> _IntPoly:
    """a*b; a coefficient is Gaussian when one of its terms has a Gaussian
    factor.  Leading coefficients multiply to a nonzero one, so nothing is
    stripped."""
    (ar, ai, am), (br, bi, bm) = a, b
    if not (ar and br):
        return _NO_POLY
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


def _stripped(re: List[int], im: Optional[List[int]], mask: int) -> _IntPoly:
    """The polynomial without its trailing zeros, whose kinds go with them."""
    while re and not re[-1] and (im is None or not im[-1]):
        re.pop()
        if im is not None:
            im.pop()
    return re, im, mask & ((1 << len(re)) - 1)


def _poly_sum(a: _IntPoly, b: _IntPoly, sign: int = 1) -> _IntPoly:
    """a + sign*b; a coefficient is Gaussian when one of its summands is."""
    (ar, ai, am), (br, bi, bm) = a, b
    re = [x + sign * y for x, y in zip_longest(ar, br, fillvalue=0)]
    im = None if ai is None and bi is None else [
        x + sign * y for x, y in zip_longest(ai or (), bi or (), fillvalue=0)]
    return _stripped(re, im, am | bm)


# The division and the gcd below carry values only: their results' kinds
# masks are zero, and their callers write the kinds.

def _derivative(p: _IntPoly) -> _IntPoly:
    """dp/ds."""
    re, im, _ = p
    return ([k * x for k, x in enumerate(re)][1:],
            im and [k * y for k, y in enumerate(im)][1:], 0)


def _primitive(p: _IntPoly) -> _IntPoly:
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


def _pseudo_divmod(a: _IntPoly, b: _IntPoly) -> Tuple[_IntPoly, _IntPoly, int]:
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


def _int_gcd(a: _IntPoly, b: _IntPoly) -> _IntPoly:
    """A primitive gcd of two integer polynomials, zero if both are: the
    primitive polynomial remainder sequence (Brown 1971), each divisor over
    the gcd of its coefficients, in Z[i] when it has an imaginary part."""
    if not b[0]:
        a, b = b, a
    while b[0]:
        b = _primitive(b)
        a, b = b, _pseudo_divmod(a, b)[1]
    return a
