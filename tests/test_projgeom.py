import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ldexp

import pytest
from hypothesis import given, settings, strategies as st

from dqkin.errors import GeometryError
from dqkin.kept import cleared, scalars_of
from dqkin.linalg import Matrix, det, nullspace, rank, solve, vec_is_zero, vec_scale
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
from dqkin.quaternions import Q_I, Q_J, Q_K, Q_ONE, Quaternion
from dqkin.scalars import (ComplexFloat, ExactRational, GaussianRational, _power_of_two_scale,
                           gaussian, rational)

from helpers import I, point, pt8
from test_linalg import (_bits, _loop_dot, _loop_kernel, _loop_rref, _matrix, _mixed_exact_matrix,
                         _rank_r_pairs, _rows_bits)


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

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0], [0, 0, 0]],  # a zero row
        [[1, 1, 0], [0, 1, 0]],  # a pivot column not cleared above
        [[0, 1, 0], [1, 0, 0]],  # pivots out of order
        [[2, 0, 0]],  # a pivot that is not one
        [[1, 0, 0], [1, 0, 0]],  # a repeated row
        [[ComplexFloat(1.0), ComplexFloat(1e-3), 0], [0, ComplexFloat(1.0), 0]],
    ])
    def test_public_constructor_refuses_unreduced_bases(self, rows):
        with pytest.raises(GeometryError, match="reduced row echelon form"):
            Subspace(Matrix(rows), 3)
        with pytest.raises(GeometryError, match="reduced row echelon form"):
            Line(Matrix(rows + [[0, 0, 1]] * (2 - len(rows))), 3)

    def test_public_constructor_accepts_reduced_bases(self):
        # floats compare at their tolerance, and a Gaussian one is a pivot
        u = Subspace(Matrix([[ComplexFloat(1 + 1e-12), ComplexFloat(-1e-12), 2],
                             [ComplexFloat(1e-12), gaussian(1, 0), I]]), 3)
        assert u.contains(ProjPoint([1, 1, 2 + I]))
        assert not u.contains(ProjPoint([1, 0, 0]))
        line = Line(Matrix([[1, 0, 3], [0, 1, 4]]), 3)
        assert line == span([ProjPoint([1, 0, 3]), ProjPoint([0, 1, 4])])
        with pytest.raises(GeometryError, match="two rows"):
            Line(Matrix([[1, 0, 0]]), 3)

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

    def test_lift_refuses_a_chart_point_of_another_length(self):
        # an explicit check, so also under python -O
        u = span([point(Q_ONE), point(Q_K), point(dual=Q_I)])
        for coords in ([1, 2], [1, 2, 3, 4, 5]):
            with pytest.raises(GeometryError, match="one coordinate per basis row"):
                u.lift(ProjPoint(coords))


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
                # a float point is read at max-norm about one, by a power of two
                read = p.coords if kind != "float" else vec_scale(
                    _power_of_two_scale(p.coords), p.coords)
                sol = solve(b.basis.transpose(), read)
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


# --- the integer kernels against the scalar loop ------------------------

def rand_mixed(rng):
    """A rational or a Gaussian scalar at random, zero about a third of the time."""
    return rand_scalar(rng, rng.choice(("rational", "gaussian")))


def mixed_space(rng, dim):
    """A subspace whose canonical basis mixes rational and Gaussian entries,
    zeros of both kinds included, built directly in reduced form."""
    pivots = sorted(rng.sample(range(8), dim + 1))
    rows = []
    for r, pc in enumerate(pivots):
        row = [rand_mixed(rng) for _ in range(8)]
        for j in range(8):
            if j < pc or (j in pivots and j != pc):
                row[j] = rng.choice((rational(0), gaussian(0, 0)))
        row[pc] = rng.choice((rational(1), gaussian(1, 0)))
        rows.append(row)
    return Subspace(Matrix(rows), 8)


def mixed_spaces(rng):
    for dim in range(8):
        for _ in range(4):
            yield mixed_space(rng, dim)
            rows = [[rand_mixed(rng) for _ in range(8)] for _ in range(dim + 1)]
            yield Subspace.from_rows(rows, 8)


def ref_residue(u, v):
    out = list(v)
    for row, j in zip(u.basis.rows, u._pivots):
        c = v[j]
        out = [o - c * r for o, r in zip(out, row)]
    return out


def ref_lift(u, coords):
    out = [rational(0)] * u.ambient
    for c, row in zip(coords, u.basis.rows):
        out = [o + c * r for o, r in zip(out, row)]
    return out


def ref_equal(p, q):
    a, b = p.normalized().coords, q.normalized().coords
    return all(x == y for x, y in zip(a, b))


def assert_same(got, want):
    """Equal entry by entry and of the same scalar kind entry by entry."""
    assert [type(x) for x in got] == [type(x) for x in want], (got, want)
    assert all(x == y for x, y in zip(got, want)), (got, want)


class TestIntegerKernelsKeepKinds:
    """_residue (the scalar loop, and _residue_of on cleared integers),
    contains, lift, meet and ProjPoint equality on vectors that mix rational
    and Gaussian entries, against the scalar-loop definitions."""

    def test_residue_contains_and_lift(self):
        rng = random.Random(51)
        for u in mixed_spaces(rng):
            if u.basis is None:
                continue
            coeffs = [[rand_mixed(rng) for _ in u.basis.rows] for _ in range(3)]
            coeffs.append([rational(rng.randint(-3, 3)) for _ in u.basis.rows])
            for cs in coeffs:
                inside = ref_lift(u, cs)
                outside = [rand_mixed(rng) for _ in range(8)]
                for v in (inside, outside, [x + y for x, y in zip(inside, outside)]):
                    want = ref_residue(u, v)
                    assert_same(u._residue(v), want)
                    assert_same(scalars_of(*u._residue_of(cleared(v))), want)
                    if any(not x.is_zero() for x in v):
                        assert u.contains(ProjPoint(v)) == all(x.is_zero() for x in want)
                if u.dim > 0 and any(not c.is_zero() for c in cs):
                    assert_same(u.lift(ProjPoint(cs)).coords, inside)
                    assert u.contains(ProjPoint(inside))

    @pytest.mark.parametrize("kind", ("mixed", "float"))
    def test_points_and_lift(self, kind):
        """``points`` slices the basis's rows and ``lift`` multiplies them, on
        one path for every kind: each coordinate equal to ``ProjPoint(row)``'s
        and to the scalar-loop lift's in value and kind, floats to the bit,
        and an exact result's kept form that of its coordinates."""
        rng = random.Random({"mixed": 54, "float": 55}[kind])
        if kind == "mixed":
            spaces, coeff_kinds = mixed_spaces(rng), ("rational", "gaussian")
        else:
            spaces, coeff_kinds = (rand_space(rng, "float", dim) for dim in range(8)
                                   for _ in range(4)), KINDS
        lifts = 0
        for u in spaces:
            if u.basis is None:
                continue
            points = u.points()
            assert _rows_bits([p.coords for p in points]) == _rows_bits(
                [ProjPoint(row).coords for row in u.basis.rows])
            for _ in range(3 if u.dim > 0 else 0):
                cs = [rand_scalar(rng, rng.choice(coeff_kinds)) for _ in u.basis.rows]
                if vec_is_zero(cs):
                    continue
                got = u.lift(ProjPoint(cs))
                assert _rows_bits([got.coords]) == _rows_bits([ref_lift(u, cs)])
                points.append(got)
                lifts += 1
            if kind == "mixed":
                assert all(p._kept() == cleared(p.coords) for p in points)
        assert lifts > 60

    def test_meet(self):
        rng = random.Random(52)
        spaces = [u for u in mixed_spaces(rng) if u.basis is not None]
        for _ in range(60):
            a, b = rng.choice(spaces), rng.choice(spaces)
            kernel = nullspace(Matrix.from_columns([ref_residue(b, row) for row in a.basis.rows]))
            got = meet(a, b)
            if not kernel:
                assert got.basis is None
                continue
            want = Subspace.from_rows((Matrix(kernel) * a.basis).rows, 8)
            assert got.dim == want.dim
            for g, w in zip(got.basis.rows, want.basis.rows):
                assert_same(g, w)

    def test_projective_equality(self):
        rng = random.Random(53)
        for _ in range(300):
            coords = [rand_mixed(rng) for _ in range(rng.choice((2, 4, 8)))]
            if all(c.is_zero() for c in coords):
                continue
            p = ProjPoint(coords)
            c = rand_mixed(rng)
            if c.is_zero():
                c = gaussian(0, 1)
            others = [ProjPoint([c * x for x in coords]),
                      ProjPoint([x.conjugate() for x in coords])]
            bumped = list(coords)
            k = rng.randrange(len(coords))
            bumped[k] = bumped[k] + rand_mixed(rng)
            if any(not x.is_zero() for x in bumped):
                others.append(ProjPoint(bumped))
            for q in others:
                assert (p == q) == (q == p) == ref_equal(p, q)
            assert p == others[0]


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
exact_scalars = st.one_of(
    small_fractions.map(rational),
    st.tuples(small_fractions, small_fractions).map(lambda t: gaussian(*t)))
nonzero_gaussians = st.one_of(
    st.just(gaussian(0, 1)),
    exact_scalars.filter(lambda c: not c.is_zero()))
vectors8 = st.lists(exact_scalars, min_size=8, max_size=8).filter(
    lambda v: any(not c.is_zero() for c in v))


class TestRescalingAndBasisInvariance:
    @settings(max_examples=60, deadline=None)
    @given(vectors8, vectors8, nonzero_gaussians, nonzero_gaussians)
    def test_point_equality(self, u, v, c, d):
        p, q = ProjPoint(u), ProjPoint(v)
        cp = ProjPoint([c * x for x in u])
        dq_ = ProjPoint([d * x for x in v])
        assert p == cp and cp == p
        assert (p == q) == (cp == dq_) == (q == cp)
        assert (cp == ProjPoint([d * x for x in u]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(vectors8, min_size=1, max_size=4), vectors8,
           st.lists(exact_scalars, min_size=16, max_size=16),
           st.lists(nonzero_gaussians, min_size=4, max_size=4), nonzero_gaussians,
           st.lists(exact_scalars, min_size=4, max_size=4))
    def test_containment(self, rows, v, entries, diagonal, c, coeffs):
        # an invertible change of basis: unit lower times upper triangular
        k = len(rows)
        lower = Matrix([[entries[i * 4 + j] if j < i else rational(i == j) for j in range(k)]
                        for i in range(k)])
        upper = Matrix([[diagonal[i] if j == i else entries[j * 4 + i] if j > i else rational(0)
                         for j in range(k)] for i in range(k)])
        change = lower * upper
        assert not det(change).is_zero()
        u = Subspace.from_rows(rows, 8)
        w = Subspace.from_rows((change * Matrix(rows)).rows, 8)
        assert u == w
        member = [sum((a * r[j] for a, r in zip(coeffs, rows)), rational(0)) for j in range(8)]
        points = [v] + ([member] if any(not x.is_zero() for x in member) else [])
        for x in points:
            inside = u.contains(ProjPoint(x))
            assert w.contains(ProjPoint(x)) == inside
            assert u.contains(ProjPoint([c * e for e in x])) == inside
        if len(points) == 2:
            assert u.contains(ProjPoint(member))


class TestLine:
    def test_line_through(self):
        ln = Line.through(point(Q_ONE), point(Q_I))
        assert ln.dim == 1
        with pytest.raises(GeometryError):
            Line.through(point(Q_ONE), point(Quaternion(5)))

    def test_line_is_subspace(self):
        ln = Line.through(point(Q_ONE), point(Q_I))
        assert ln == span([point(Q_ONE), point(Q_I)])


class TestShapePreconditions:
    SCRIPT = (
        "from dqkin.errors import GeometryError\n"
        "from dqkin.linalg import Matrix\n"
        "from dqkin.projgeom import (Line, ProjPoint, Subspace, chi_point, chi_subspace,\n"
        "                            fiber_image, fiber_projectivity, join, meet,\n"
        "                            project_from_center, span)\n"
        "from dqkin.quadrics import (QuadricForm, common_lines, is_null_line, quadric_e,\n"
        "                            restrict, ruling_handedness)\n"
        "from dqkin.quaternions import DualQuaternion\n"
        "from dqkin.transforms import AdmissibleTransform, factor_so4, verify_admissible\n"
        "p2, p3, q3 = ProjPoint([1, 0, 0]), ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0])\n"
        "p7 = ProjPoint([1, 0, 0, 0, 0, 0, 0, 0])\n"
        "center = Subspace.from_rows([[0, 1, 0, 0, 0, 0, 0, 0]], 8)\n"
        "target = Subspace.from_rows([[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]], 8)\n"
        "e3, t = quadric_e(), AdmissibleTransform(Matrix.identity(8))\n"
        "i3 = QuadricForm(Matrix.identity(3))\n"
        "for make in (lambda: span([p3, p2]),\n"
        "             lambda: span([]),\n"
        "             lambda: join(span([p3]), span([p2])),\n"
        "             lambda: meet(span([p3]), span([p2])),\n"
        "             lambda: Subspace(Matrix([[1, 0, 0]]), 4),\n"
        "             lambda: span([p3]).contains(p2),\n"
        "             lambda: Subspace.empty(4).lift(ProjPoint([1, 1])),\n"
        "             lambda: Line.of(span([p3])),\n"
        "             lambda: project_from_center(p3, center, target),\n"
        "             lambda: p3.dq(),\n"
        "             lambda: DualQuaternion.from_coords([1, 0, 0, 0]),\n"
        "             lambda: chi_point(p3),\n"
        "             lambda: chi_subspace(span([p3])),\n"
        "             lambda: fiber_projectivity(p3),\n"
        "             lambda: fiber_image(span([p3])),\n"
        "             lambda: e3.polar(p2, p3),\n"
        "             lambda: e3.contains_line(p3, p2),\n"
        "             lambda: restrict(e3, Subspace.empty(4)),\n"
        "             lambda: restrict(e3, span([p7])),\n"
        "             lambda: is_null_line(p3, q3),\n"
        "             lambda: ruling_handedness(p3, q3),\n"
        "             lambda: common_lines(i3, i3),\n"
        "             lambda: verify_admissible(Matrix.identity(4)),\n"
        "             lambda: factor_so4(Matrix.identity(8)),\n"
        "             lambda: t.apply(p3),\n"
        "             lambda: t.apply_subspace(Subspace.empty(8))):\n"
        "    try:\n"
        "        print(make())\n"
        "    except GeometryError as exc:\n"
        "        print(exc)\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_mismatched_dimensions_raise(self, flags):
        """Points and subspaces of different ambient dimensions in a span,
        join, meet, membership test or central projection, a basis of the
        wrong width, the empty subspace where a chart, a restricted form or
        a transformed subspace is asked of it, a non-line as a line, P^3
        points where P^7 ones are needed (dual quaternions, chi, the fiber
        projectivity, null lines and rulings), points of the wrong width for
        a form, and grams or matrices of the wrong size for common lines,
        the admissibility check, the SO(4) factors and a transform raise
        GeometryError, also under python -O, where an assert would leave a
        silent answer or another exception."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        p3_in_p7 = "expected points and subspaces of 8 coordinates, got 4"
        assert proc.stdout.splitlines() == [
            "expected points and subspaces of 4 coordinates, got 3",
            "a span needs at least one point",
            "expected points and subspaces of 4 coordinates, got 3",
            "expected points and subspaces of 4 coordinates, got 3",
            "a subspace basis needs one column per coordinate: expected 4, got 3",
            "expected points and subspaces of 4 coordinates, got 3",
            "the empty subspace has no chart",
            "a line has a basis of two rows",
            "expected points and subspaces of 4 coordinates, got 8",
            "a dual quaternion has 8 coordinates, got 4",
            "a dual quaternion has 8 coordinates, got 4",
            p3_in_p7, p3_in_p7, p3_in_p7, p3_in_p7,
            "a form on 4 coordinates takes points of 4, got 3",
            "a form on 4 coordinates takes points of 4, got 3",
            "the empty subspace has no restricted form",
            "a form on 4 coordinates restricts to subspaces of 4, got 8",
            "a line of P^7 needs two points of 8 coordinates, got 4 and 4",
            "a line of P^7 needs two points of 8 coordinates, got 4 and 4",
            "common lines need two forms of a 3-space chart, 4x4 grams, got 3x3 and 3x3",
            "an admissible transform is an 8x8 matrix, got 4x4",
            "factor_so4 needs a 4x4 matrix, got 8x8",
            "a transform acts on points of 8 coordinates, got 4",
            "cannot transform the empty subspace",
        ]


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


def rand_of(rng, kind):
    return rand_mixed(rng) if kind == "mixed" else rand_scalar(rng, kind)


def rand_exact_space(rng, kind, dim):
    while True:
        u = Subspace.from_rows([[rand_of(rng, kind) for _ in range(8)]
                                for _ in range(dim + 1)], 8)
        if u.dim == dim:
            return u


def ref_projection(x, center, target):
    """Central projection as the meet of the canonical join with the target."""
    if center.contains(x):
        raise GeometryError("projection not well defined")
    image = meet(join(span([x]), center), target)
    if image.dim != 0:
        raise GeometryError("projection not well defined")
    return image.points()[0]


class TestProjectionIsOneMeet:
    """project_from_center against the meet of the join of x and the centre
    with the target, on rational, Gaussian and mixed input, centres of
    dimension -1 to 2: the same point, coordinate by coordinate and kind
    by kind, and a GeometryError exactly where the definition has none."""

    @pytest.mark.parametrize("kind", ["rational", "gaussian", "mixed"])
    def test_against_join_and_meet(self, kind):
        rng = random.Random({"rational": 61, "gaussian": 62, "mixed": 63}[kind])
        outcomes = set()
        for c in range(-1, 3):
            for trial in range(30):
                center = Subspace.empty(8) if c < 0 else rand_exact_space(rng, kind, c)
                x = ProjPoint([rand_of(rng, kind) for _ in range(8)])
                while vec_is_zero(x.coords):
                    x = ProjPoint([rand_of(rng, kind) for _ in range(8)])
                mode = trial % 4
                if mode == 0 and c >= 0:
                    x = rand_member(rng, "rational", center)  # inside the centre
                if mode == 1:
                    # through x, so x itself when the centre is empty
                    rows = [x.coords] + [[rand_of(rng, kind) for _ in range(8)]
                                         for _ in range(rng.randint(0, 6 - c))]
                    target = Subspace.from_rows(rows, 8)
                elif mode == 2:
                    target = rand_exact_space(rng, kind, rng.randint(0, 7))
                else:
                    target = rand_exact_space(rng, kind, 6 - c)
                try:
                    want = ref_projection(x, center, target)
                except GeometryError:
                    outcomes.add((c, "error"))
                    with pytest.raises(GeometryError, match="not well defined"):
                        project_from_center(x, center, target)
                    continue
                outcomes.add((c, "point"))
                assert_same(project_from_center(x, center, target).coords, want.coords)
        assert outcomes == {(c, o) for c in range(-1, 3) for o in ("error", "point")}

    def test_empty_centre(self):
        target = span([point(Q_ONE), point(Q_I)])
        x = point(Quaternion(2, 3, 0, 0))
        assert project_from_center(x, Subspace.empty(8), target) == x
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(point(Q_J), Subspace.empty(8), target)
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(x, Subspace.empty(8), Subspace.empty(8))

    def test_both_errors(self):
        center = span([point(Q_J)])
        line = span([point(Q_ONE), point(Q_I)])
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(point(Q_J), center, line)  # x in the centre
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(point(Q_K), center, line)  # the line misses the target
        plane = span([point(Q_ONE), point(Q_J), point(Q_K)])
        with pytest.raises(GeometryError, match="not well defined"):
            project_from_center(point(Q_K), center, plane)  # ... or lies in it


class TestConstantsAndRowMaps:
    def test_exceptional_generator_is_eps_h(self):
        rows = [[rational(int(j == 4 + k)) for j in range(8)] for k in range(4)]
        eh = exceptional_generator()
        assert eh == Subspace.from_rows(rows, 8)
        assert eh.basis.rows == tuple(tuple(r) for r in rows)
        assert_same([e for r in eh.basis.rows for e in r], [e for r in rows for e in r])
        assert exceptional_generator() is eh

    def test_against_per_point_maps(self):
        rng = random.Random(64)
        for u in mixed_spaces(rng):
            if u.basis is None:
                continue
            want = Subspace.from_rows([chi_point(p).coords for p in u.points()], 8)
            got = chi_subspace(u)
            assert_same([e for r in got.basis.rows for e in r],
                        [e for r in want.basis.rows for e in r])
            rows = [fiber_projectivity(p).coords for p in u.points()
                    if not vec_is_zero(p.coords[:4])]
            if not rows:
                with pytest.raises(GeometryError, match="exceptional generator"):
                    fiber_image(u)
                continue
            want = Subspace.from_rows(rows, 8)
            got = fiber_image(u)
            assert_same([e for r in got.basis.rows for e in r],
                        [e for r in want.basis.rows for e in r])


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


def _float_point(values, scale):
    return ProjPoint([ComplexFloat(x * scale) for x in values])


class TestFloatContainmentAtUnitScale:
    """Float containment decides at max-norm one, so a point's scale cannot
    move it in or out: 100 seeded float 3-spaces of P^7, with a point of
    each and a point 1e-2 off each."""

    IN_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
    OFF_SCALES = (1e-8, 1e-4, 1.0, 1e3, 1e6)

    def test_scaled_points(self):
        rng = random.Random(808)
        for _ in range(100):
            rows = [[rng.uniform(-1, 1) for _ in range(8)] for _ in range(4)]
            u = Subspace.from_rows([[ComplexFloat(x) for x in row] for row in rows], 8)
            assert u.dim == 3
            pivots = [next(j for j, e in enumerate(r) if not e.is_zero()) for r in u.basis.rows]
            coeffs = [rng.uniform(-1, 1) for _ in range(4)]
            inside = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(8)]
            off = [x + 1e-2 * rng.uniform(-1, 1) for x in inside]
            for scale in self.IN_SCALES:
                p = _float_point(inside, scale)
                assert u.contains(p), scale
                chart = u.chart_coords(p)
                read = vec_scale(_power_of_two_scale(p.coords), p.coords)
                assert [c.value for c in chart.coords] == [read[j].value for j in pivots]
            for scale in self.OFF_SCALES:
                p = _float_point(off, scale)
                assert not u.contains(p), scale
                assert u.chart_coords(p) is None


    def test_chart_where_pivot_coordinates_are_below_tolerance(self):
        """The point's pivot coordinates are below the tolerance while the
        point is not, so its chart is read at the scale membership read it
        at; unscaled, it would be the zero vector."""
        u = Subspace.from_rows([[ComplexFloat(x) for x in row]
                                for row in ((1, 0, 1e6, 0), (0, 1, 0, 1e6))], 4)
        p = _float_point([1e-10, 1e-10, 1e-4, 1e-4], 1.0)
        assert u.contains(p)
        chart = u.chart_coords(p)
        assert [c.value for c in chart.coords] == [ldexp(1e-10, 13)] * 2
        assert u.lift(chart) == p


class TestFloatAnswersIgnorePowersOfTwo:
    """A float point is read at max-norm about one by a power of two, so its
    rescalings by 2**k, k in [-40, 40] even, meet the same bits: contains gives
    one answer and chart_coords the same coordinates, bit for bit.  20 seeded
    float 3-spaces of P^7, with a point of each, combined from the reduced
    rows, and a point 1e-2 off it; the points carry the tolerance 1e-13, so
    every rescaling is a nonzero point."""

    def test_rescaled_points(self):
        tol = 1e-13
        rng = random.Random(707)

        def rescaled(values, k):
            return ProjPoint([ComplexFloat(ldexp(x, k), 0.0, tol) for x in values])

        for _ in range(20):
            u = Subspace.from_rows([[ComplexFloat(rng.uniform(-1, 1)) for _ in range(8)]
                                    for _ in range(4)], 8)
            assert u.dim == 3
            coeffs = [rng.uniform(0.5, 1) * rng.choice((-1, 1)) for _ in range(4)]
            inside = [sum((c * row[j].value.real for c, row in zip(coeffs, u.basis.rows)), 0.0)
                      for j in range(8)]
            off = [x + 1e-2 * rng.uniform(-1, 1) for x in inside]
            chart = u.chart_coords(rescaled(inside, 0))
            assert chart is not None
            for k in range(-40, 41, 2):
                got = u.chart_coords(rescaled(inside, k))
                assert u.contains(rescaled(inside, k)), k
                assert [c.value for c in got.coords] == [c.value for c in chart.coords], k
                assert not u.contains(rescaled(off, k)), k
                assert u.chart_coords(rescaled(off, k)) is None, k


class TestFloatMeetIgnoresPowersOfTwo:
    """A float meet reads each row at max-norm about one by a power of two,
    so projecting x and x rescaled by 2**k from a float centre gives one
    point, bit for bit: a seeded line centre and 5-space target of P^7 and
    30 points, entries in (-1, 1) at tolerance 1e-9.  Compared unscaled,
    the residues gave another point for some of the 30 at k = -27 and for
    most of them at k >= 30."""

    def test_rescaled_points(self):
        tol = 1e-9
        rng = random.Random(7)

        def floats(values, k=0):
            return [ComplexFloat(ldexp(x, k), 0.0, tol) for x in values]

        def rows(n):
            return [floats([rng.uniform(-1, 1) for _ in range(8)]) for _ in range(n)]

        center, target = Subspace.from_rows(rows(2), 8), Subspace.from_rows(rows(6), 8)
        assert center.dim == 1 and target.dim == 5
        for _ in range(30):
            x = [rng.uniform(-1, 1) for _ in range(8)]
            want = [_bits(c) for c in project_from_center(ProjPoint(floats(x)), center,
                                                          target).coords]
            for k in (-27, -10, 10, 30, 36, 40):
                got = project_from_center(ProjPoint(floats(x, k)), center, target)
                assert [_bits(c) for c in got.coords] == want, k


class TestExactPointsInFloatSpaces:
    """An exact point tested against a float subspace is also taken at
    max-norm one: 100 seeded float 3-spaces spanned by floats of small
    fractions, exact points inside scaled by 1e-6..1e6 accepted, exact
    points 1e-3 off scaled by 1e-8..1e6 rejected."""

    IN_SCALES = (Fraction(1, 10**6), Fraction(1), Fraction(10**6))
    OFF_SCALES = (Fraction(1, 10**8), Fraction(1), Fraction(10**6))

    def test_scaled_exact_points(self):
        rng = random.Random(909)
        for _ in range(100):
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
                    for _ in range(4)]
            u = Subspace.from_rows([[ComplexFloat(float(x)) for x in row] for row in rows], 8)
            assert u.dim == 3
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
            inside = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(8)]
            if not any(inside):
                inside = rows[0]
            off = [x + Fraction(rng.choice((-1, 1)), 1000) for x in inside]
            for scale in self.IN_SCALES:
                p = ProjPoint([rational(scale * x) for x in inside])
                assert u.contains(p), scale
                assert u.chart_coords(p) is not None, scale
            for scale in self.OFF_SCALES:
                p = ProjPoint([rational(scale * x) for x in off])
                assert not u.contains(p), scale
                assert u.chart_coords(p) is None, scale


class TestFloatPointEqualityAtLargestCoordinate:
    """Float point equality divides by the coordinate where the first point
    is largest, so it does not depend on the representatives: 200 seeded
    float points of P^7 with a first coordinate near 1e-7 equal their
    copies scaled by 1e-6 and 1e6, and differ from the point moved by 1e-3
    in one coordinate."""

    def test_rescaled_copies(self):
        rng = random.Random(11)
        for _ in range(200):
            values = [rng.uniform(-1, 1) * 1e-7] + [rng.uniform(-1, 1) for _ in range(7)]
            p = _float_point(values, 1.0)
            for scale in (1e-6, 1e6):
                assert _float_point(values, scale) == p, scale
                assert p == _float_point(values, scale), scale
            moved = list(values)
            moved[rng.randrange(8)] += 1e-3
            assert _float_point(moved, 1.0) != p

    def test_zero_where_the_first_is_largest(self):
        p = _float_point([1.0, 0.5, 0, 0, 0, 0, 0, 0], 1.0)
        q = _float_point([0.0, 0.5, 0, 0, 0, 0, 0, 0], 1.0)
        assert p != q and q != p


# --- kept forms -----------------------------------------------------------

def _loop_meet_rows(rows, b):
    """The scalar loop's meet of b with the span of independent rows:
    residues, their kernel, the combinations and their reduced form."""
    residues = [ref_residue(b, row) for row in rows]
    kernel = _loop_kernel(Matrix(list(zip(*residues))))
    if not kernel:
        return []
    combined = [[_loop_dot(c, col) for col in zip(*rows)] for c in kernel]
    reduced, pivots = _loop_rref(Matrix(combined))
    return reduced[:len(pivots)]


def _loop_reduced(rows):
    reduced, pivots = _loop_rref(Matrix(rows))
    return reduced[:len(pivots)]


class TestKeptForms:
    """Exact results are born in the cleared integer form they are computed
    in: the rows of a reduced basis are made from its kept rows on first
    read, and the kept rows equal ``cleared`` of them, kinds masks
    included.  Seeded rational, Gaussian and mixed inputs through from_rows,
    span, join, meet and project_from_center; each result also equals the
    scalar loop's in value and kind."""

    @staticmethod
    def rows(rng, kind, nrows, r):
        if kind == "mixed":
            pairs, kinds = _mixed_exact_matrix(rng, nrows, 8, r)
        else:
            t = GaussianRational if kind == "gaussian" else ExactRational
            pairs = _rank_r_pairs(rng, nrows, 8, r, t is GaussianRational)
            kinds = [[t] * 8 for _ in range(nrows)]
        return [list(row) for row in _matrix(pairs, kinds).rows]

    @staticmethod
    def assert_kept(u, want_rows):
        if u.basis is None:
            assert want_rows == []
            return
        forms = u.basis._row_form  # read before the rows
        assert forms == [cleared(r) for r in u.basis.rows]
        assert _rows_bits(u.basis.rows) == _rows_bits(want_rows)

    @pytest.mark.parametrize("kind", ("rational", "gaussian", "mixed"))
    def test_reduced_bases(self, kind):
        rng = random.Random({"rational": 31, "gaussian": 32, "mixed": 33}[kind])
        seen = {"meets": 0, "gaussian_rows": 0}
        for _ in range(20):
            ra, rb = rng.randint(1, 5), rng.randint(3, 7)
            a_rows = self.rows(rng, kind, ra + rng.randint(0, 2), ra)
            # sharing a row of a, b meets a also where ra + rb <= 8
            b_rows = self.rows(rng, kind, rb, rb) + a_rows[:rng.randint(0, 1)]
            a, b = Subspace.from_rows(a_rows, 8), Subspace.from_rows(b_rows, 8)
            self.assert_kept(a, _loop_reduced(a_rows))
            self.assert_kept(b, _loop_reduced(b_rows))
            points = [ProjPoint(row) for row in a_rows if not vec_is_zero(row)]
            self.assert_kept(span(points), _loop_reduced([p.coords for p in points]))
            self.assert_kept(join(a, b), _loop_reduced(list(a.basis.rows + b.basis.rows)))
            m = meet(a, b)
            self.assert_kept(m, _loop_meet_rows(a.basis.rows, b))
            seen["meets"] += m.dim >= 0
            for form in a.basis._row_form:
                seen["gaussian_rows"] += form[1] is not None
        assert seen["meets"] > 8
        assert (seen["gaussian_rows"] > 0) == (kind != "rational")

    def test_equality_reads_kept_rows(self):
        """Bases with kept rows compare as integers, a rational row equal
        to the same values held as GaussianRational: against entrywise
        scalar equality, on equal, retyped and moved spaces."""
        rng = random.Random(37)
        outcomes = set()
        for _ in range(60):
            rows = self.rows(rng, rng.choice(("rational", "mixed")), 4, 3)
            u = Subspace.from_rows(rows, 8)
            retyped = [[gaussian(c.value, 0) if type(c) is ExactRational else c for c in row]
                       for row in rows]
            moved = [list(row) for row in rows]
            moved[0][rng.randrange(8)] += rng.choice((0, 1))
            for w in (Subspace.from_rows(retyped, 8), Subspace.from_rows(moved, 8)):
                want = u.dim == w.dim and all(a == b for ra, rb in zip(u.basis.rows, w.basis.rows)
                                              for a, b in zip(ra, rb))
                assert type(w.basis._row_form) is list and (u == w) == (w == u) == want
                outcomes.add(want)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("kind", ("rational", "gaussian", "mixed"))
    def test_projections(self, kind):
        rng = random.Random({"rational": 34, "gaussian": 35, "mixed": 36}[kind])
        done = 0
        for _ in range(25):
            d = rng.randint(1, 4)
            center = Subspace.from_rows(self.rows(rng, kind, d, d), 8)
            target = Subspace.from_rows(self.rows(rng, kind, 8 - d, 8 - d), 8)
            x_row = self.rows(rng, kind, 1, 1)[0]
            if vec_is_zero(x_row):
                continue
            x = ProjPoint(x_row)
            if center.dim != d - 1 or target.dim != 7 - d or center.contains(x):
                continue
            want = _loop_meet_rows((x.coords,) + center.basis.rows, target)
            if len(want) != 1:
                continue
            got = project_from_center(x, center, target)
            assert [_bits(c) for c in got.coords] == [_bits(c) for c in want[0]]
            assert got._kept() == cleared(got.coords)
            done += 1
        assert done > 20
