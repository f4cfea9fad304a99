"""Scalar tower: exact rationals, Gaussian rationals, complex floats.

The three kinds form a closed union.  Mixed arithmetic promotes upward,
ExactRational -> GaussianRational -> ComplexFloat, and only the last step
is lossy.  Exact kinds never consult a tolerance; ComplexFloat carries
one and propagates the larger tolerance through arithmetic.

Dispatch: when both operands of an arithmetic operator or ``==`` have the
same type, the operator calls that kind's worker (``_add``, ``_sub``,
``_mul``, ``_div``, ``_eq``) directly; only mixed operands (other kinds,
ints, Fractions) go through ``_coerce``, which promotes them first.  The
float workers therefore take the larger of the two tolerances
themselves.  Exact constructors keep a ``Fraction`` argument as it is,
since a Fraction is already in lowest terms; ints and strings are
normalised.

The ComplexFloat workers serve every float operation but one: float
products of vectors and matrices run in ``linalg``'s float kernel on
plain ``complex`` values, which wraps each result once (``_float_of``)
and gives the same bits as these workers would.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError

DEFAULT_TOLERANCE = 1e-9


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class Scalar:
    """Base of the closed scalar union.

    Not meant to be subclassed outside this module; code may rely on the
    three concrete kinds being the only ones.
    """

    __slots__ = ()
    level = -1  # promotion rank; higher absorbs lower

    @property
    def is_exact(self) -> bool:
        return self.level < 2

    def is_zero(self) -> bool:
        raise NotImplementedError

    def conjugate(self) -> "Scalar":
        raise NotImplementedError

    def sqrt(self) -> Optional["Scalar"]:
        """A square root inside the same (or next Gaussian) kind, or None."""
        raise NotImplementedError

    def to_complex(self) -> complex:
        raise NotImplementedError

    def _promote(self, level: int, tolerance: float) -> "Scalar":
        raise NotImplementedError

    # Arithmetic: same-kind operands go straight to the worker (_add etc.)
    # defined by each concrete class; others are coerced to the higher
    # kind first.  The reflected forms only ever see mixed operands.

    def __add__(self, other):
        if type(other) is type(self):
            return self._add(other)
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[0]._add(pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is type(self):
            return self._sub(other)
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[0]._sub(pair[1])

    def __rsub__(self, other):
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[1]._sub(pair[0])

    def __mul__(self, other):
        if type(other) is type(self):
            return self._mul(other)
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[0]._mul(pair[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is type(self):
            return self._div(other)
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[0]._div(pair[1])

    def __rtruediv__(self, other):
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[1]._div(pair[0])

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (ONE / self) ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is type(self):
            return self._eq(other)
        pair = _coerce(self, other)
        return NotImplemented if pair is None else pair[0]._eq(pair[1])

    def __bool__(self):
        return not self.is_zero()


class ExactRational(Scalar):
    """Arbitrary-precision rational, stored in lowest terms."""

    __slots__ = ("value",)
    level = 0

    def __init__(self, numerator: Union[int, Fraction, str] = 0, denominator: int = 1):
        if type(numerator) is Fraction and type(denominator) is int and denominator == 1:
            self.value = numerator  # a Fraction is kept in lowest terms
            return
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("no implicit floats; use ComplexFloat")
        # Fraction takes a string only as its single argument
        self.value = Fraction(numerator) if denominator == 1 else Fraction(numerator, denominator)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def is_zero(self) -> bool:
        return self.value == 0

    def sign(self) -> int:
        return -1 if self.value < 0 else (0 if self.value == 0 else 1)

    def conjugate(self) -> "ExactRational":
        return self

    def sqrt(self) -> Optional[Scalar]:
        root = _rational_sqrt(abs(self.value))
        if root is None:
            return None
        if self.value >= 0:
            return ExactRational(root)
        return GaussianRational(0, root)

    def to_complex(self) -> complex:
        return complex(float(self.value), 0.0)

    def _promote(self, level, tolerance):
        if level <= 0:
            return self
        if level == 1:
            return GaussianRational(self.value, 0)
        return ComplexFloat(float(self.value), 0.0, tolerance)

    def _add(self, o):
        return ExactRational(self.value + o.value)

    def _sub(self, o):
        return ExactRational(self.value - o.value)

    def _mul(self, o):
        return ExactRational(self.value * o.value)

    def _div(self, o):
        return ExactRational(self.value / o.value)

    def _eq(self, o):
        return self.value == o.value

    def __neg__(self):
        return ExactRational(-self.value)

    def __hash__(self):
        return hash(self.value)

    # Ordering makes sense for real exact scalars only.
    def __lt__(self, other):
        o = as_scalar(other)
        if not isinstance(o, ExactRational):
            return NotImplemented
        return self.value < o.value

    def __str__(self):
        return "%d/%d" % (self.value.numerator, self.value.denominator)

    def __repr__(self):
        return "ExactRational(%s)" % self.value


class GaussianRational(Scalar):
    """Element of Q(i): exact rational real and imaginary parts."""

    __slots__ = ("re", "im")
    level = 1

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("no implicit floats; use ComplexFloat")
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def sqrt(self) -> Optional[Scalar]:
        a, b = self.re, self.im
        if b == 0:
            root = _rational_sqrt(abs(a))
            if root is None:
                return None
            return GaussianRational(root, 0) if a >= 0 else GaussianRational(0, root)
        # sqrt(a+bi) = x+yi with x = sqrt((r+a)/2), y = b/(2x), r = |a+bi|
        r = _rational_sqrt(a * a + b * b)
        if r is None:
            return None
        x = _rational_sqrt((r + a) / 2)
        if x is None:
            return None
        assert x != 0
        return GaussianRational(x, b / (2 * x))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def _promote(self, level, tolerance):
        if level <= 1:
            return self
        return ComplexFloat(float(self.re), float(self.im), tolerance)

    def _add(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    def _sub(self, o):
        return GaussianRational(self.re - o.re, self.im - o.im)

    def _mul(self, o):
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    def _div(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def _eq(self, o):
        return self.re == o.re and self.im == o.im

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        mag = abs(self.im)
        return "%d/%d%s%d/%d*i" % (self.re.numerator, self.re.denominator,
                                   sign, mag.numerator, mag.denominator)

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


class ComplexFloat(Scalar):
    """Floating complex number with an attached comparison tolerance."""

    __slots__ = ("value", "tolerance")
    level = 2
    __hash__ = None  # tolerant equality is not hashable

    def __init__(self, real=0.0, imag=0.0, tolerance: float = DEFAULT_TOLERANCE):
        if isinstance(real, complex):
            self.value = real + complex(0.0, float(imag))
        else:
            self.value = complex(float(real), float(imag))
        self.tolerance = float(tolerance)

    def is_zero(self) -> bool:
        return abs(self.value) <= self.tolerance

    def conjugate(self) -> "ComplexFloat":
        return ComplexFloat(self.value.conjugate(), tolerance=self.tolerance)

    def sqrt(self) -> Optional[Scalar]:
        return ComplexFloat(cmath.sqrt(self.value), tolerance=self.tolerance)

    def to_complex(self) -> complex:
        return self.value

    def _promote(self, level, tolerance):
        assert level == 2
        if tolerance == self.tolerance:
            return self
        return ComplexFloat(self.value, tolerance=tolerance)

    # The same-kind fast path skips _coerce, so each worker carries the
    # larger tolerance itself.

    def _add(self, o):
        return ComplexFloat(self.value + o.value, tolerance=max(self.tolerance, o.tolerance))

    def _sub(self, o):
        return ComplexFloat(self.value - o.value, tolerance=max(self.tolerance, o.tolerance))

    def _mul(self, o):
        return ComplexFloat(self.value * o.value, tolerance=max(self.tolerance, o.tolerance))

    def _div(self, o):
        return ComplexFloat(self.value / o.value, tolerance=max(self.tolerance, o.tolerance))

    def _eq(self, o):
        return abs(self.value - o.value) <= max(self.tolerance, o.tolerance)

    def __neg__(self):
        return ComplexFloat(-self.value, tolerance=self.tolerance)

    def __str__(self):
        if self.value.imag == 0.0:
            return repr(self.value.real)
        sign = "+" if self.value.imag >= 0 else "-"
        return "%r%s%r*i" % (self.value.real, sign, abs(self.value.imag))

    def __repr__(self):
        return "ComplexFloat(%r, %r)" % (self.value.real, self.value.imag)


def _float_of(value: complex, tolerance: float) -> ComplexFloat:
    """``ComplexFloat(value, tolerance=tolerance)`` without the constructor's
    conversions, for the float product kernel of ``linalg``.

    The constructor adds 0j to a complex value, which turns a -0.0 part
    into 0.0; the caller passes a value that has no -0.0 part (a sum
    started at 0j, or a value plus 0j), so the results are the same.
    """
    out = object.__new__(ComplexFloat)
    out.value = value
    out.tolerance = tolerance
    return out


def as_scalar(x) -> Optional[Scalar]:
    """Coerce ints and Fractions into the tower; floats stay out on purpose."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return ExactRational(x)
    return None


def scalar(x) -> Scalar:
    s = as_scalar(x)
    if s is None:
        raise TypeError("not usable as a scalar: %r" % (x,))
    return s


def _coerce(a: Scalar, b):
    sb = as_scalar(b)
    if sb is None:
        return None
    level = max(a.level, sb.level)
    if level < 2:
        return a._promote(level, 0.0), sb._promote(level, 0.0)
    tols = [s.tolerance for s in (a, sb) if isinstance(s, ComplexFloat)]
    tol = max(tols) if tols else DEFAULT_TOLERANCE
    return a._promote(2, tol), sb._promote(2, tol)


def rational(numerator=0, denominator=1) -> ExactRational:
    return ExactRational(numerator, denominator)


def gaussian(re=0, im=0) -> GaussianRational:
    return GaussianRational(re, im)


def as_exact_real(s: Scalar) -> Optional[ExactRational]:
    """The ExactRational equal to s, if there is one (real Gaussians demote)."""
    if isinstance(s, ExactRational):
        return s
    if isinstance(s, GaussianRational) and s.im == 0:
        return ExactRational(s.re)
    return None


def _power_of_two_scale(entries) -> ExactRational:
    """The power of two that brings the largest magnitude among entries into
    [1/2, 1); a zero object keeps its scale.

    Tolerant tests compare against an absolute tolerance, so tests of a
    homogeneous object only mean the same on every representative once it
    is scaled.  Scaling by a power of two is exact: each float keeps its
    own tolerance, and representatives that differ by a power of two
    scale to the same bits.
    """
    return ExactRational(Fraction(2) ** -math.frexp(max(abs(e.to_complex()) for e in entries))[1])


def _unit_scale(entries) -> ComplexFloat:
    """The float, at the largest tolerance among the entries' floats, that
    scales a homogeneous object to max-norm exactly one, for an output read
    off the scaled object; it rounds, unlike ``_power_of_two_scale``.  A
    zero object keeps its scale."""
    top = max(abs(e.to_complex()) for e in entries)
    tolerance = max(e.tolerance for e in entries if isinstance(e, ComplexFloat))
    return ComplexFloat(1.0 / top if top else 1.0, 0.0, tolerance)


ZERO = ExactRational(0)
ONE = ExactRational(1)
I_UNIT = GaussianRational(0, 1)

_DENOM = r"0*[1-9]\d*"  # a denominator of zero is no literal
_FRAC = r"[+-]?\d+(?:/%s)?" % _DENOM
_FLOATBODY = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRAC_RE = re.compile(r"([+-]?\d+)/(%s)\Z" % _DENOM)
_GAUSS_RE = re.compile(r"(%s)\s*([+-]\s*\d+(?:/%s)?)\*i\Z" % (_FRAC, _DENOM))
_CFLOAT_RE = re.compile(r"([+-]?%s)\s*([+-]%s)\*i\Z" % (_FLOATBODY, _FLOATBODY))
_FLOAT_RE = re.compile(r"[+-]?%s\Z" % _FLOATBODY)


def parse_scalar(value, tolerance: float = DEFAULT_TOLERANCE) -> Scalar:
    """Parse a scalar from its JSON form.

    Strings hold exact values ("a/b" or "a/b+c/d*i") or a complex float
    literal; bare numbers are floats (ints are taken as exact).
    """
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        raise ParseError("bad scalar literal: %r" % (value,))
    if isinstance(value, int):
        return ExactRational(value)
    if isinstance(value, float):
        return ComplexFloat(value, tolerance=tolerance)
    if isinstance(value, Fraction):
        return ExactRational(value)
    if not isinstance(value, str):
        raise ParseError("bad scalar literal: %r" % (value,))
    text = value.strip()
    if _INT_RE.match(text):
        return ExactRational(int(text))
    m = _FRAC_RE.match(text)
    if m:
        return ExactRational(Fraction(int(m.group(1)), int(m.group(2))))
    m = _GAUSS_RE.match(text)
    if m:
        re_part = Fraction(m.group(1).replace(" ", ""))
        im_part = Fraction(m.group(2).replace(" ", ""))
        return GaussianRational(re_part, im_part)
    m = _CFLOAT_RE.match(text)
    if m:
        return ComplexFloat(float(m.group(1)), float(m.group(2)), tolerance=tolerance)
    if _FLOAT_RE.match(text):
        return ComplexFloat(float(text), tolerance=tolerance)
    raise ParseError("bad scalar literal: %r" % (value,))


def scalar_to_json(s: Scalar):
    """JSON value for a scalar: strings for exact kinds, numbers for floats."""
    if isinstance(s, (ExactRational, GaussianRational)):
        return str(s)
    if not isinstance(s, ComplexFloat):
        raise TypeError("not usable as a scalar: %r" % (s,))
    if s.value.imag == 0.0:
        return s.value.real
    return str(s)
