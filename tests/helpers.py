"""Shared construction helpers for the test suite."""

from fractions import Fraction

from dqkin.linalg import Matrix
from dqkin.polys import Poly, exact_div, poly_gcd
from dqkin.projgeom import ProjPoint
from dqkin.quaternions import (
    DualQuaternion,
    Q_BASIS,
    Quaternion,
    left_mul_matrix,
    right_mul_matrix,
)
from dqkin.scalars import ZERO, GaussianRational, rational
from dqkin.transforms import build_transform, factor_so4

I = GaussianRational(0, 1)  # the complex unit, not the quaternion one


def quat(w=0, x=0, y=0, z=0) -> Quaternion:
    return Quaternion(w, x, y, z)


def dq(primal=None, dual=None) -> DualQuaternion:
    return DualQuaternion(primal or Quaternion(), dual or Quaternion())


def point(primal=None, dual=None) -> ProjPoint:
    return ProjPoint(dq(primal, dual))


def pt8(*coords) -> ProjPoint:
    assert len(coords) == 8
    return ProjPoint(coords)


def lift_via(frame, chart_coords) -> ProjPoint:
    """Ambient point with the given coordinates in an explicit dq frame."""
    assert len(frame) == len(chart_coords)
    out = None
    for c, f in zip(chart_coords, frame):
        term = f * c
        out = term if out is None else out + term
    return ProjPoint(out)


def scalar_multiple_of(a, b):
    """c with a = c*b for matrices a and b, if any; b must be nonzero.  The
    scalar loop on the entries' own arithmetic, each compared at its own
    tolerance: the one reference for proportional matrices in the tests."""
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


def associate_by_traces(a) -> Matrix:
    """The associate matrix of a 4x4 matrix by its definition on matrix
    products: entry (i, j) is trace(L(conj e_i) a R(conj e_j)) / 4.  The
    reference for transforms._associate."""
    quarter = rational(Fraction(1, 4))
    products = [left_mul_matrix(e.conjugate()) * a for e in Q_BASIS]
    return Matrix([[(la * right_mul_matrix(e.conjugate())).trace() * quarter for e in Q_BASIS]
                   for la in products])


def dual_part_columns(l1, r1) -> list:
    """The eight columns of factor_transform's dual-part system on matrix
    products: L(e) R(r1) flattened over l1 . e and 0, then L(l1) R(e) over
    0 and r1 . e.  The reference for transforms._dual_part_columns."""
    cols = []
    for e in Q_BASIS:
        m = left_mul_matrix(e) * right_mul_matrix(r1)
        cols.append([x for row in m.rows for x in row] + [l1.dot(e), rational(0)])
    for e in Q_BASIS:
        m = left_mul_matrix(l1) * right_mul_matrix(e)
        cols.append([x for row in m.rows for x in row] + [rational(0), r1.dot(e)])
    return cols


def dual_part_system(rng) -> Matrix:
    """The 18x9 augmented system factor_transform solves for the dual parts."""
    t = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
    l1, r1 = factor_so4(Matrix([row[:4] for row in t.rows[:4]]))
    rhs = [x for row in t.rows[4:] for x in row[:4]] + [rational(0), rational(0)]
    return Matrix.from_columns(dual_part_columns(l1, r1) + [rhs])


def rational_unit_pure(rng) -> Quaternion:
    """Random rational pure quaternion of unit norm, via q k conj(q)."""
    while True:
        q = Quaternion(*[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(4)])
        n = q.norm()
        if not n.is_zero():
            break
    u = q * Quaternion(0, 0, 0, 1) * q.conjugate()
    u = u * (1 / n)
    assert u.scalar_part().is_zero() and u.norm() == rational(1)
    return u


def random_rational_quaternion(rng, lo=-5, hi=5) -> Quaternion:
    return Quaternion(*[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                        for _ in range(4)])


def random_study_dq(rng, invertible=True) -> DualQuaternion:
    """Random rational dual quaternion on the Study quadric."""
    while True:
        p = random_rational_quaternion(rng)
        if invertible and p.norm().is_zero():
            continue
        if p.is_zero():
            continue
        d0 = random_rational_quaternion(rng)
        # remove the component violating the Study condition
        lam = p.dot(d0) * (1 / p.norm())
        d = d0 - p * lam
        out = DualQuaternion(p, d)
        assert out.study_condition()
        return out


def half_turn_about(rng, axis_dir=None) -> DualQuaternion:
    """Dual quaternion of a half turn about a random rational line."""
    u = axis_dir if axis_dir is not None else rational_unit_pure(rng)
    w = random_rational_quaternion(rng)
    moment = (u * w - w * u) * Fraction(1, 2)  # u x w as pure quaternion
    h = DualQuaternion(u, moment.vector_part())
    assert h.study_condition()
    assert h.primal.scalar_part().is_zero()
    return h


def random_pure_vector(rng, lo=-5, hi=5) -> Quaternion:
    while True:
        p = Quaternion(0, *[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                            for _ in range(3)])
        if not p.is_zero():
            return p


def random_dyad_spec(rng, kind):
    """Random rational joint data for the requested dyad kind."""
    from dqkin.dyads import DyadKind, DyadSpec

    if kind is DyadKind.RR:
        while True:
            h1 = half_turn_about(rng)
            h2 = half_turn_about(rng)
            prod = h1 * h2
            skew = not prod.dual.scalar_part().is_zero()
            if skew and not _parallel(h1.primal, h2.primal):
                return DyadSpec(kind, h1, h2)
    if kind is DyadKind.C:
        u = rational_unit_pure(rng)
        h = half_turn_about(rng, axis_dir=u)
        lam = Fraction(0)
        while lam == 0:
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return DyadSpec(kind, h, DualQuaternion(Quaternion(), u * lam))
    # RP and PR need a translation neither along nor orthogonal to the axis
    while True:
        h = half_turn_about(rng)
        p = random_pure_vector(rng)
        if _parallel(h.primal, p):
            continue
        if h.primal.dot(p).is_zero():
            continue
        return DyadSpec(kind, h, DualQuaternion(Quaternion(), p))


def _parallel(a: Quaternion, b: Quaternion) -> bool:
    prod = a * b - b * a
    return prod.is_zero()


def reference_trajectory(m, x):
    """(components, degree) of ``motions.trajectory`` by the scalar loop:
    m(t) x conj(m(t)) multiplied out as a Poly of DualQuaternions, its
    components 0, 5, 6, 7 divided by their gcd with poly_gcd and exact_div
    over the package's Scalars.  As there, a lone nonzero component is
    divided by itself, not made monic."""
    w, px, py, pz = x.coords
    point = DualQuaternion(Quaternion(w), Quaternion(ZERO, px, py, pz))
    asc = list(reversed(m.coefficients))
    # conj(p + eps d) = conj(p) - eps conj(d), the action's conjugate
    right = Poly([DualQuaternion(c.primal.conjugate(), -c.dual.conjugate()) for c in asc])
    prod = Poly(asc) * Poly([point]) * right
    comps = [Poly([c.coords()[k] for c in prod.coeffs]) for k in (0, 5, 6, 7)]
    nonzero = [p for p in comps if not p.is_zero()]
    g = nonzero[0]
    for p in nonzero[1:]:
        g = poly_gcd(g, p)
    comps = [exact_div(p, g) for p in comps]
    return tuple(comps), max(p.degree for p in comps)
