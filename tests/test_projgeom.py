import random
from fractions import Fraction

import pytest

from dqkin.errors import GeometryError
from dqkin.linalg import Matrix, rank, solve
from dqkin.projgeom import (
    Line,
    ProjPoint,
    Subspace,
    chi_point,
    chi_subspace,
    exceptional_generator,
    fiber_image,
    fiber_line,
    fiber_projectivity,
    join,
    meet,
    project_from_center,
    span,
)
from dqkin.quaternions import DualQuaternion, Q_I, Q_J, Q_K, Q_ONE, Quaternion
from dqkin.scalars import ComplexFloat, gaussian, rational

from helpers import I, dq, point, pt8


def rand_point(rng):
    while True:
        coords = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
        if any(coords):
            return ProjPoint(coords)


KINDS = ("rational", "gaussian", "float")


def rand_scalar(rng, kind):
    """A small rational, Gaussian or float scalar; zero about a third of the time."""
    q = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
    if kind == "rational":
        return rational(q)
    if kind == "gaussian":
        return gaussian(q, rng.randint(-2, 2) if q else 0)
    return ComplexFloat(float(q))


def rand_space(rng, kind, dim):
    while True:
        rows = [[rand_scalar(rng, kind) for _ in range(8)] for _ in range(dim + 1)]
        u = Subspace.from_rows(rows, 8)
        if u.dim == dim:
            return u


def rand_member(rng, kind, u):
    """A point of u with random coefficients on its basis rows."""
    while True:
        coeffs = [rand_scalar(rng, kind) for _ in u.basis.rows]
        coords = [sum((c * row[j] for c, row in zip(coeffs, u.basis.rows)), rational(0))
                  for j in range(8)]
        if any(not c.is_zero() for c in coords):
            return ProjPoint(coords)


class TestProjPoint:
    def test_projective_equality(self):
        a = pt8(2, 4, 0, 0, 0, 0, 0, -2)
        b = pt8(1, 2, 0, 0, 0, 0, 0, -1)
        c = pt8(1, 2, 0, 0, 0, 0, 0, 1)
        assert a == b and a != c
        assert pt8(0, 3, 0, 0, 0, 0, 0, 0) == pt8(0, 1, 0, 0, 0, 0, 0, 0)

    def test_zero_rejected(self):
        with pytest.raises(GeometryError):
            ProjPoint([0] * 8)

    def test_gaussian_scaling(self):
        a = ProjPoint([I, 1, 0, 0, 0, 0, 0, 0])
        b = ProjPoint([1, -I, 0, 0, 0, 0, 0, 0])  # a scaled by -i
        assert a == b

    def test_float_equality(self):
        a = ProjPoint([ComplexFloat(2.0), ComplexFloat(4.0)])
        b = ProjPoint([ComplexFloat(1.0), ComplexFloat(2.0 + 1e-12)])
        assert a == b


class TestSubspaceLattice:
    def test_specified_meets(self):
        s1 = span([point(Q_ONE), point(dual=Q_ONE)])
        s2 = span([point(Q_I), point(Q_J)])
        assert meet(s1, s2).dim == -1

        u = span([point(Q_ONE), point(Q_K), point(dual=Q_I), point(dual=Q_J)])
        got = meet(u, exceptional_generator())
        want = span([point(dual=Q_I), point(dual=Q_J)])
        assert got == want and got.dim == 1

    def test_dimension_formula(self):
        rng = random.Random(4)
        for kind in KINDS:
            for _ in range(40):
                a = rand_space(rng, kind, rng.randint(0, 4))
                b = rand_space(rng, kind, rng.randint(0, 4))
                assert join(a, b).dim == a.dim + b.dim - meet(a, b).dim

    def test_contains(self):
        u = span([point(Q_ONE), point(Q_I)])
        assert u.contains(point(Quaternion(2, -3, 0, 0)))
        assert not u.contains(point(Q_J))

    def test_canonical_representation(self):
        a = span([pt8(1, 1, 0, 0, 0, 0, 0, 0), pt8(1, -1, 0, 0, 0, 0, 0, 0)])
        b = span([pt8(1, 0, 0, 0, 0, 0, 0, 0), pt8(0, 1, 0, 0, 0, 0, 0, 0)])
        assert a == b
        assert a.basis == b.basis

    def test_conjugation_closed(self):
        real_space = span([point(Q_ONE), point(Q_K)])
        assert real_space.conjugation_closed()
        # i + quaternion i, and a Gaussian dual vector: Example-2 style span
        n1 = point(Quaternion(I, 1, 0, 0))
        u = span([point(Q_ONE), point(dual=Q_I), n1,
                  point(dual=Quaternion(I, 1, 1, I))])
        assert not u.conjugation_closed()
        closed_pair = span([n1, n1.scalar_conjugate()])
        assert closed_pair.conjugation_closed()

    def test_chart_coords_roundtrip(self):
        u = span([point(Q_ONE), point(Q_K), point(dual=Q_I)])
        p = point(Quaternion(1, 0, 0, 2), Quaternion(0, -3, 0, 0))
        chart = u.chart_coords(p)
        assert chart is not None
        assert u.lift(chart) == p
        assert u.chart_coords(point(Q_J)) is None


def stacked_rank(*row_lists):
    return rank(Matrix([row for rows in row_lists for row in rows]))


def pairs(rng, kind):
    """General, nested and equal pairs of subspaces of dimension 0 to 5."""
    for da in range(6):
        for db in range(6):
            # generically disjoint when da + db < 7, else meeting in dimension da + db - 7
            yield rand_space(rng, kind, da), rand_space(rng, kind, db)
        a = rand_space(rng, kind, da)
        bigger = join(a, rand_space(rng, kind, rng.randint(0, 5 - da)))
        yield a, bigger
        yield bigger, a
        yield a, span([rand_member(rng, kind, a) for _ in range(da + 3)])


class TestReadOffCanonicalBasis:
    """contains, chart_coords, meet and conjugation_closed against their definitions."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_contains_and_chart_coords(self, kind):
        rng = random.Random(21)
        for a, b in pairs(rng, kind):
            inside = rand_member(rng, kind, b)
            for p in a.points() + [rand_member(rng, kind, a), inside]:
                member = stacked_rank(b.basis.rows, [p.coords]) == b.dim + 1
                assert b.contains(p) == member
                if b.dim == 0:
                    continue  # a ProjPoint needs two coordinates
                chart = b.chart_coords(p)
                sol = solve(b.basis.transpose(), p.coords)
                assert (chart is None) == (sol is None) == (not member)
                if member:
                    assert all(x == y for x, y in zip(chart.coords, sol))
                    assert b.lift(chart) == p
            assert b.contains(inside)

    def test_point_has_no_chart(self):
        u = Subspace.from_rows([[1, 2, 3, 4]], ambient=4)
        for p in (ProjPoint([1, 2, 3, 4]), ProjPoint([1, 0, 0, 0])):
            with pytest.raises(GeometryError, match="dimension 0"):
                u.chart_coords(p)
            with pytest.raises(GeometryError, match="dimension 0"):
                u.lift(p)

    @pytest.mark.parametrize("kind", KINDS)
    def test_meet(self, kind):
        rng = random.Random(22)
        for a, b in pairs(rng, kind):
            both = stacked_rank(a.basis.rows, b.basis.rows)
            for m in (meet(a, b), meet(b, a)):
                assert m.dim == a.dim + b.dim + 1 - both
                for p in m.points():
                    assert stacked_rank(a.basis.rows, [p.coords]) == a.dim + 1
                    assert stacked_rank(b.basis.rows, [p.coords]) == b.dim + 1
            assert meet(a, b) == meet(b, a)

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugation_closed(self, kind):
        rng = random.Random(23)
        for dim in range(6):
            u = rand_space(rng, kind, dim)
            spaces = [u]
            if dim < 3:
                conj = [[c.conjugate() for c in row] for row in u.basis.rows]
                spaces.append(Subspace.from_rows(list(u.basis.rows) + conj, 8))
            for v in spaces:
                conj = [[c.conjugate() for c in row] for row in v.basis.rows]
                closed = stacked_rank(v.basis.rows, conj) == v.dim + 1
                assert v.conjugation_closed() == closed
                if kind != "gaussian":
                    assert closed


class TestLine:
    def test_line_through(self):
        ln = Line.through(point(Q_ONE), point(Q_I))
        assert ln.dim == 1
        with pytest.raises(GeometryError):
            Line.through(point(Q_ONE), point(Quaternion(5)))

    def test_line_is_subspace(self):
        ln = Line.through(point(Q_ONE), point(Q_I))
        assert ln == span([point(Q_ONE), point(Q_I)])


class TestFiberProjectivity:
    def test_basic_image(self):
        assert fiber_projectivity(point(Q_ONE)) == point(dual=Q_ONE)
        p = point(Quaternion(1, 2, 0, 0), Quaternion(0, 0, 7, 0))
        assert fiber_projectivity(p) == point(dual=Quaternion(1, 2, 0, 0))

    def test_undefined_on_exceptional_generator(self):
        with pytest.raises(GeometryError, match="exceptional generator"):
            fiber_projectivity(point(dual=Q_I))

    def test_fiber_image_of_cylinder_space(self):
        u = span([point(Q_ONE), point(Q_I), point(dual=Q_ONE), point(dual=Q_I)])
        got = fiber_image(u)
        assert got == span([point(dual=Q_ONE), point(dual=Q_I)])

    def test_fiber_image_needs_primal_part(self):
        with pytest.raises(GeometryError, match="exceptional generator"):
            fiber_image(span([point(dual=Q_I), point(dual=Q_J)]))

    def test_fiber_line(self):
        x = point(Q_ONE, Q_I)
        ln = fiber_line(x)
        assert ln.contains(x) and ln.contains(point(dual=Q_ONE))

    def test_idempotent_on_image(self):
        rng = random.Random(8)
        for _ in range(20):
            x = rand_point(rng)
            if all(c.is_zero() for c in x.coords[:4]):
                continue
            y = fiber_projectivity(x)
            assert all(c.is_zero() for c in y.coords[:4])


class TestCentralProjection:
    def test_collinearity(self):
        center = span([pt8(0, 0, 0, 1, 0, 0, 0, 0)])
        target = span([pt8(1, 0, 0, 0, 0, 0, 0, 0), pt8(0, 1, 0, 0, 0, 0, 0, 0),
                       pt8(0, 0, 1, 0, 0, 0, 0, 0)])
        x = pt8(1, 2, 3, 4, 0, 0, 0, 0)
        y = project_from_center(x, center, target)
        assert y == pt8(1, 2, 3, 0, 0, 0, 0, 0)
        assert span([x, center.points()[0], y]).dim == 1

    def test_coordinate_cycle_step(self):
        # one side of the coordinate null quadrilateral construction
        u1 = span([pt8(1, 0, 0, 0, 0, 0, 0, 0)] +
                  [pt8(*[1 if i == k else 0 for i in range(8)]) for k in range(4, 8)])
        v1 = span([pt8(0, 1, 0, 0, 0, 0, 0, 0)] +
                  [pt8(*[1 if i == k else 0 for i in range(8)]) for k in range(4, 8)])
        center = span([pt8(1, 1, 0, 0, 0, 0, 0, 0)])
        x = pt8(3, 0, 0, 0, 5, -1, 2, 7)
        y = project_from_center(x, center, v1)
        assert y == pt8(0, -3, 0, 0, 5, -1, 2, 7)
        assert u1.contains(x) and v1.contains(y)

    def test_identity_on_target(self):
        target = span([point(Q_ONE), point(Q_I)])
        center = span([point(Q_J)])
        x = point(Quaternion(1, 5, 0, 0))
        assert project_from_center(x, center, target) == x

    def test_not_well_defined(self):
        center = span([point(Q_J)])
        target = span([point(Q_ONE), point(Q_I)])
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(point(Q_K), center, target)
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(point(Q_J), center, target)  # x in center


class TestChi:
    def test_involution_and_fixed_reals(self):
        rng = random.Random(12)
        for _ in range(20):
            x = rand_point(rng)
            assert chi_point(chi_point(x)) == x
        assert chi_point(point(Q_ONE)) == point(Q_ONE)
        assert chi_point(point(Q_I)) == point(Q_I)  # sign flip is projective

    def test_chi_subspace(self):
        u = span([point(Q_ONE, Q_I), point(Q_K)])
        img = chi_subspace(u)
        assert img == span([point(Q_ONE, -Q_I), point(Q_K)])
        assert chi_subspace(img) == u
