"""Quaternions, dual quaternions, and their multiplication matrices.

Coordinates are always ordered (1, i, j, k) and, for dual quaternions,
primal before dual.  The 4x4 and 8x8 multiplication matrices are
generated column by column from actual products on the basis, so they
are correct by construction for either side.

The Hamilton product of two exact quaternions (rational or Gaussian
coordinates, mixed or not) runs on cleared integer coordinates; one
float coordinate sends it through the scalar formula.  Dual quaternion
products and the multiplication matrices are built from it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import GeometryError
from .kept import cleared, scalars_of
from .linalg import Matrix
from .scalars import Scalar, scalar, ZERO


class Quaternion:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = scalar(w)
        self.x = scalar(x)
        self.y = scalar(y)
        self.z = scalar(z)

    def coords(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.w, self.x, self.y, self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            ca, cb = cleared(self.coords()), cleared(other.coords())
            if ca is not None and cb is not None:
                return _cleared_product(ca, cb)
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)
        try:
            c = scalar(other)
        except TypeError:
            return NotImplemented
        return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)

    # bench/tracing.py binds __rmul__ by name, so it stays though no caller uses it
    def __rmul__(self, other):
        # scalars commute with everything, so one implementation serves
        try:
            c = scalar(other)
        except TypeError:
            return NotImplemented
        return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> Scalar:
        """Scalar part of q·conj(q): the sum of squared coordinates."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def dot(self, other: "Quaternion") -> Scalar:
        return (self.w * other.w + self.x * other.x +
                self.y * other.y + self.z * other.z)

    def scalar_part(self) -> Scalar:
        return self.w

    def vector_part(self) -> "Quaternion":
        return Quaternion(ZERO, self.x, self.y, self.z)

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n.is_zero():
            raise GeometryError("quaternion is not invertible")
        return self.conjugate() * (1 / n)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords())

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return all(a == b for a, b in zip(self.coords(), other.coords()))

    __hash__ = None

    def __repr__(self):
        return "Quaternion(%s)" % ", ".join(str(c) for c in self.coords())


def _hamilton(a: Sequence[int], b: Sequence[int]) -> Tuple[int, int, int, int]:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _cleared_product(a, b) -> Quaternion:
    """Hamilton product of two cleared coordinate vectors (see kept.cleared).

    Every output coordinate involves all eight inputs, so all four are
    Gaussian exactly when an input is, as in the scalar product.
    """
    (ar, ai, ad, _), (br, bi, bd, _) = a, b
    re = _hamilton(ar, br)
    if ai is None and bi is None:
        return Quaternion(*scalars_of(re, None, ad * bd, 0))
    # (ar + i ai)(br + i bi), the scalar i commuting with the units
    im = (0, 0, 0, 0)
    if bi is not None:
        im = _hamilton(ar, bi)
    if ai is not None:
        im = [x + y for x, y in zip(im, _hamilton(ai, br))]
        if bi is not None:
            re = [x - y for x, y in zip(re, _hamilton(ai, bi))]
    return Quaternion(*scalars_of(re, im, ad * bd, 0b1111))


Q_ONE = Quaternion(1, 0, 0, 0)
Q_I = Quaternion(0, 1, 0, 0)
Q_J = Quaternion(0, 0, 1, 0)
Q_K = Quaternion(0, 0, 0, 1)
Q_BASIS = (Q_ONE, Q_I, Q_J, Q_K)


class DualNumber:
    """The value re + epsilon * du (epsilon squared zero) of a dual quaternion
    norm, compared by its two parts; it carries no arithmetic."""

    __slots__ = ("re", "du")

    def __init__(self, re=0, du=0):
        self.re = scalar(re)
        self.du = scalar(du)

    def __eq__(self, other):
        if not isinstance(other, DualNumber):
            return NotImplemented
        return self.re == other.re and self.du == other.du

    __hash__ = None

    def __repr__(self):
        return "DualNumber(%s, %s)" % (self.re, self.du)


class DualQuaternion:
    __slots__ = ("primal", "dual")

    def __init__(self, primal: Quaternion, dual: Quaternion = None):
        if dual is None:
            dual = Quaternion()
        if not (isinstance(primal, Quaternion) and isinstance(dual, Quaternion)):
            raise GeometryError("a dual quaternion has two quaternion parts, got %s and %s"
                                % (type(primal).__name__, type(dual).__name__))
        self.primal = primal
        self.dual = dual

    @staticmethod
    def from_coords(coords: Sequence) -> "DualQuaternion":
        if len(coords) != 8:
            raise GeometryError("a dual quaternion has 8 coordinates, got %d" % len(coords))
        return DualQuaternion(Quaternion(*coords[:4]), Quaternion(*coords[4:]))

    def coords(self) -> Tuple[Scalar, ...]:
        return self.primal.coords() + self.dual.coords()

    def __add__(self, other: "DualQuaternion") -> "DualQuaternion":
        return DualQuaternion(self.primal + other.primal, self.dual + other.dual)

    def __sub__(self, other: "DualQuaternion") -> "DualQuaternion":
        return DualQuaternion(self.primal - other.primal, self.dual - other.dual)

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            # (p + eps d)(p' + eps d') = pp' + eps(pd' + dp')
            return DualQuaternion(
                self.primal * other.primal,
                self.primal * other.dual + self.dual * other.primal)
        try:
            c = scalar(other)
        except TypeError:
            return NotImplemented
        return DualQuaternion(self.primal * c, self.dual * c)

    # bench/tracing.py binds __rmul__ by name, so it stays though no caller uses it
    def __rmul__(self, other):
        try:
            c = scalar(other)
        except TypeError:
            return NotImplemented
        return DualQuaternion(self.primal * c, self.dual * c)

    def conjugate(self) -> "DualQuaternion":
        """Quaternion conjugation on both parts."""
        return DualQuaternion(self.primal.conjugate(), self.dual.conjugate())

    def norm(self) -> DualNumber:
        """q·conj(q) as a dual number."""
        p, d = self.primal, self.dual
        re = (p * p.conjugate()).scalar_part()
        du = (p * d.conjugate() + d * p.conjugate()).scalar_part()
        return DualNumber(re, du)

    def study_condition(self) -> bool:
        """True iff the dual part of the norm vanishes."""
        return self.norm().du.is_zero()

    def inverse(self) -> "DualQuaternion":
        # (p + eps d)^-1 = p^-1 - eps p^-1 d p^-1
        pinv = self.primal.inverse()
        return DualQuaternion(pinv, -(pinv * (self.dual * pinv)))

    def is_zero(self) -> bool:
        return self.primal.is_zero() and self.dual.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return self.primal == other.primal and self.dual == other.dual

    __hash__ = None

    def __repr__(self):
        return "DualQuaternion(%r, %r)" % (self.primal, self.dual)


DQ_ONE = DualQuaternion(Q_ONE)
DQ_EPS = DualQuaternion(Quaternion(), Q_ONE)
DQ_BASIS = tuple([DualQuaternion(q) for q in Q_BASIS] +
                 [DualQuaternion(Quaternion(), q) for q in Q_BASIS])


def left_mul_matrix(p: Quaternion) -> Matrix:
    """4x4 matrix of x -> p*x on (1,i,j,k) coordinates."""
    return Matrix._of(zip(*[(p * e).coords() for e in Q_BASIS]))


def right_mul_matrix(p: Quaternion) -> Matrix:
    """4x4 matrix of x -> x*p on (1,i,j,k) coordinates."""
    return Matrix._of(zip(*[(e * p).coords() for e in Q_BASIS]))


def left_mul_matrix8(h: DualQuaternion) -> Matrix:
    """8x8 matrix of q -> h*q on dual quaternion coordinates."""
    return Matrix._of(zip(*[(h * e).coords() for e in DQ_BASIS]))


def right_mul_matrix8(h: DualQuaternion) -> Matrix:
    """8x8 matrix of q -> q*h on dual quaternion coordinates."""
    return Matrix._of(zip(*[(e * h).coords() for e in DQ_BASIS]))
