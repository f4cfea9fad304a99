"""Polynomials in one variable over any of the package's rings.

Coefficients are stored in ascending degree order.  The coefficient ring
only needs +, -, * and is_zero, so quaternion and dual quaternion
coefficients work; the parameter is always a central scalar.  Division,
gcd and root extraction are restricted to exact scalar coefficients.
``split_quadratic`` splits a binary quadratic form over exact and float
scalars alike: it is where the package takes the square roots of its
quadratics, and ``low_degree_roots`` is it dehomogenised.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import ExactnessError
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
        assert self.coeffs, "zero polynomial has no leading coefficient"
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
    assert not b.is_zero(), "division by the zero polynomial"
    quot = [ZERO] * max(0, a.degree - b.degree + 1)
    rest = list(a.coeffs)
    inv_lead = ONE / b.leading()
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
    assert not p.is_zero()
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
    assert not p.is_zero()
    if p.degree == 0:
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
            assert not c.is_zero()
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
    assert not p.is_zero()
    if p.degree > 2:
        return None
    c0, c1, c2 = (p.coeff(k) for k in range(3))
    try:
        pairs = split_quadratic(c2, c1 / 2, c0)
    except ExactnessError:
        return None
    return [alpha / beta for alpha, beta in pairs if not beta.is_zero()]


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Value at z of a float polynomial, ascending coefficients."""
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


_DK_MAX_ITER = 200
_DK_STEP_TOL = 1e-13


def durand_kerner(coeffs: Sequence[complex]) -> List[complex]:
    """All complex roots of a float polynomial, ascending coefficients.

    Iterates until no root moves by more than _DK_STEP_TOL, or at most
    _DK_MAX_ITER times.
    """
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) == 0.0:
        cs.pop()
    assert len(cs) >= 2, "need positive degree"
    lead = cs[-1]
    cs = [c / lead for c in cs]
    n = len(cs) - 1
    seed = complex(0.4, 0.9)
    roots = [seed ** (k + 1) for k in range(n)]
    for _ in range(_DK_MAX_ITER):
        shift = 0.0
        new = list(roots)
        for i in range(n):
            denom = 1.0 + 0j
            for j in range(n):
                if j != i:
                    denom *= roots[i] - roots[j]
            step = _horner(cs, roots[i]) / denom
            new[i] = roots[i] - step
            shift = max(shift, abs(step))
        roots = new
        if shift < _DK_STEP_TOL:
            break
    return roots
