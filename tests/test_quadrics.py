import random
from fractions import Fraction
from math import ldexp, prod

import pytest

from dqkin import quadrics
from dqkin.dyads import DyadKind, build_variety
from dqkin.errors import ExactnessError, GeometryError
from dqkin.kept import scalars_of
from dqkin.linalg import Matrix, rank, solve
from dqkin.polys import Poly, low_degree_roots, poly_gcd, squarefree_part
from dqkin.projgeom import Line, ProjPoint, chi_point, meet, span
from dqkin.quadrics import (
    Handedness,
    QuadricForm,
    _components,
    _first_exact_member,
    _line_sort_key,
    _member_lines,
    _pencil_det,
    common_lines,
    is_null_line,
    null_cone,
    pencil_member,
    quadric_e,
    quadric_y,
    quadric_y8,
    restrict,
    ruling_handedness,
    study_quadric,
)
from dqkin.quaternions import (DQ_ONE, DualQuaternion, Q_I, Q_J, Q_K, Q_ONE, Quaternion,
                               left_mul_matrix, right_mul_matrix)
from dqkin.scalars import ComplexFloat, as_exact_real, gaussian, rational

from helpers import (I, dq, lift_via, point, random_dyad_spec, random_rational_quaternion,
                     random_study_dq)

# 2R fixture: axes h1 = k, h2 = i + eps k; frame [1], [h1], [h2], [h1 h2]
H1 = dq(Q_K)
H2 = dq(Q_I, Q_K)
H1H2 = H1 * H2  # j - eps
FRAME_2R = (DQ_ONE, H1, H2, H1H2)

# frozen restrictions of S and N to that frame (hand expansion)
S_2R = Matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
N_2R = Matrix.identity(4)

# RP fixture with non-orthogonal axis/translation: h = k, p = i + k
H_RP = dq(Q_K)
EPS_P = dq(dual=Q_I + Q_K)
EPS_HP = dq(dual=Q_K * (Q_I + Q_K))  # eps (j - 1)
FRAME_RP = (DQ_ONE, H_RP, EPS_P, EPS_HP)
S_RP = Matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
N_RP = Matrix.diagonal([1, 1, 0, 0])


def chart_line(a, b):
    return Line.through(ProjPoint(a), ProjPoint(b))


class TestPencil:
    def test_members(self):
        assert null_cone().label == "N"
        assert study_quadric().label == "S"
        assert null_cone().rank() == 4
        assert study_quadric().rank() == 8
        third = pencil_member(1, 1)
        assert third.label == "pencil(1/1,1/1)"
        assert third.rank() == 8

    def test_degenerate_parameter(self):
        with pytest.raises(GeometryError, match="degenerate pencil parameter"):
            pencil_member(0, 0)

    def test_values(self):
        # translations sit on S, rotations off eps H sit on N only if null
        t = point(Q_ONE, Q_I)
        assert study_quadric().contains(t)
        assert not null_cone().contains(t)
        assert null_cone().contains(point(dual=Q_I))

    def test_chart_quadrics(self):
        assert quadric_e().gram == Matrix.identity(4)
        assert quadric_y().gram == Matrix.identity(4)
        assert quadric_y8().rank() == 4


def cofactor_det(g1, g2):
    """det(g1 + s*g2) by the scalar loop: cofactor expansion along the first
    row over Poly entries [g1[i, j], g2[i, j]], skipping zero entries."""
    def expand(rows):
        if len(rows) == 1:
            return rows[0][0]
        out = Poly([])
        for j, e in enumerate(rows[0]):
            if e.is_zero():
                continue
            term = e * expand([r[:j] + r[j + 1:] for r in rows[1:]])
            out = out + term if j % 2 == 0 else out - term
        return out
    return expand([[Poly([g1[i, j], g2[i, j]]) for j in range(4)] for i in range(4)])


class TestPencilDet:
    """_pencil_det expands on cleared integers; its coefficients, over the
    product of the two grams' row denominators, equal the scalar loop's in
    value and in kind, which can differ coefficient by coefficient when the
    kinds of the two grams differ."""

    @staticmethod
    def coefficient_bits(coeffs):
        return [(type(c).__name__, c) for c in coeffs]

    @staticmethod
    def random_entry(rng, kinds):
        is_gaussian = kinds == "gaussian" or (kinds == "mixed" and rng.random() < 0.4)
        if rng.random() < 0.45:  # sparse, with Gaussian zeros
            return gaussian(0, 0) if is_gaussian else rational(0)
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if not is_gaussian:
            return rational(re)
        # imaginary parts are often zero: real values of Gaussian kind
        return gaussian(re, Fraction(rng.choice((0, 0, 1, -1, 2)), rng.randint(1, 3)))

    def random_gram(self, rng, kinds):
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                rows[i][j] = rows[j][i] = self.random_entry(rng, kinds)
        return Matrix(rows)

    def assert_same(self, g1, g2):
        want = cofactor_det(g1, g2)
        re, im, kinds = _pencil_det(g1, g2)
        den = prod(d for _, _, d, _ in g1._cleared_rows() + g2._cleared_rows())
        got = scalars_of(re, im, den, kinds)
        assert self.coefficient_bits(got) == self.coefficient_bits(want.coeffs)
        return want

    def test_seeded_pencils(self):
        kinds_seen = set()
        for seed in range(300):
            rng = random.Random(3400 + seed)
            kinds = ("rational", "gaussian", "mixed")
            g1 = self.random_gram(rng, kinds[seed % 3])
            g2 = self.random_gram(rng, rng.choice(kinds))
            want = self.assert_same(g1, g2)
            kinds_seen.add(tuple(sorted({type(c).__name__ for c in want.coeffs})))
        # every kind pattern occurs: none, all rational, all Gaussian, mixed
        assert kinds_seen == {(), ("ExactRational",), ("GaussianRational",),
                              ("ExactRational", "GaussianRational")}

    def test_vanishing_pencil(self):
        # a common kernel vector e3, with a Gaussian zero on it
        g1 = Matrix([[1, 2, 0, 0], [2, I, 0, 0], [0, 0, 3, 0], [0, 0, 0, gaussian(0, 0)]])
        g2 = Matrix.diagonal([1, 0, 2, 0])
        assert self.assert_same(g1, g2).is_zero()

    def test_dyad_pencils(self):
        for seed in range(9):
            rng = random.Random(3500 + seed)
            kind = (DyadKind.RR, DyadKind.RP, DyadKind.PR)[seed % 3]
            u = build_variety(random_dyad_spec(rng, kind)).space
            self.assert_same(restrict(study_quadric(), u).gram, restrict(null_cone(), u).gram)


class TestRestrict:
    def test_2r_space_signature(self):
        u = span([point(Q_ONE), ProjPoint(H1), ProjPoint(H2), ProjPoint(H1H2)])
        got = restrict(study_quadric(), u)
        assert got.rank() == 4
        assert got.signature() == (2, 2, 0)

    def test_frozen_frame_grams(self):
        # restriction in the explicit (unreduced) frame matches hand values
        frame_rows = Matrix([p.coords() for p in FRAME_2R])
        assert frame_rows * study_quadric().gram * frame_rows.transpose() == S_2R
        assert frame_rows * null_cone().gram * frame_rows.transpose() == N_2R
        rp_rows = Matrix([p.coords() for p in FRAME_RP])
        assert rp_rows * study_quadric().gram * rp_rows.transpose() == S_RP
        assert rp_rows * null_cone().gram * rp_rows.transpose() == N_RP

    def test_exceptional_restrictions(self):
        from dqkin.projgeom import exceptional_generator
        eh = exceptional_generator()
        assert restrict(null_cone(), eh).gram.is_zero()
        assert restrict(quadric_y8(), eh).gram == Matrix.identity(4)

    def test_signature_examples(self):
        assert QuadricForm(Matrix.identity(4)).signature() == (4, 0, 0)
        assert QuadricForm(Matrix.diagonal([1, 1, -1, -1])).signature() == (2, 2, 0)
        with pytest.raises(GeometryError, match="real form"):
            QuadricForm(Matrix([[gaussian(0, 1)]] )).signature()


class TestNullLines:
    def test_exceptional_generator_lines(self):
        assert is_null_line(point(dual=Q_I), point(dual=Q_J))

    def test_product_shift_stays_null(self):
        x = point(Quaternion(I, 0, 0, -1))          # i - k, a null point
        y = ProjPoint(x.dq() * (DQ_ONE - H2))
        assert is_null_line(x, y)

    def test_not_null(self):
        assert not is_null_line(point(Q_ONE), point(dual=Q_ONE))

    def test_coincident_error(self):
        with pytest.raises(GeometryError, match="coincident"):
            is_null_line(point(Q_ONE), point(Quaternion(3)))

    def test_equivalent_to_pencil_membership(self):
        rng = random.Random(31)
        x = point(Quaternion(I, 0, 0, -1))
        y = ProjPoint(x.dq() * (DQ_ONE - H2))
        s8, n8 = study_quadric(), null_cone()
        for _ in range(5):
            lam = gaussian(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            mu = gaussian(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
            z = ProjPoint([lam * a + mu * b for a, b in zip(x.coords, y.coords)])
            assert s8.contains(z) and n8.contains(z)


def three_checks(form, a, b):
    """The line through a and b lies on the form: two values and the polar."""
    return all(v.is_zero() for v in (form.value(a), form.value(b), form.polar(a, b)))


def float_point(p, tolerance=1e-9):
    return ProjPoint([ComplexFloat(c.to_complex(), tolerance=tolerance) for c in p.coords])


def float_form(q, tolerance=1e-9):
    return QuadricForm(Matrix([[ComplexFloat(e.to_complex(), tolerance=tolerance)
                                for e in row] for row in q.gram.rows]))


def mixed(rng, coords):
    """Real Gaussian coordinates demoted to rationals at random: mixed kinds."""
    return [as_exact_real(c) if as_exact_real(c) is not None and rng.random() < 0.5 else c
            for c in coords]


def null_quaternion(rng) -> Quaternion:
    """p + i p e with e a unit pure quaternion: |p|^2 - |p e|^2 + 2i p.(p e) = 0."""
    while True:
        p = random_rational_quaternion(rng)
        if not p.is_zero():
            break
    e = rng.choice((Q_I, Q_J, Q_K))
    q = p + (p * e) * I
    assert q.norm().is_zero()
    return Quaternion(*mixed(rng, q.coords()))


def null_dq(rng) -> DualQuaternion:
    """n + eps n r with n null: its dual-number norm eps 2 Re(r) n conj(n) is zero."""
    n = null_quaternion(rng)
    return DualQuaternion(n, n * random_rational_quaternion(rng))


def line_pairs(rng, count):
    """Point pairs on null lines ([x], [x g] with x null), off them, and mixed."""
    pairs = []
    while len(pairs) < count:
        x = null_dq(rng)
        g = random_study_dq(rng, invertible=False)
        candidates = [
            (ProjPoint(x), ProjPoint(x * g)),
            (ProjPoint(x), ProjPoint(random_study_dq(rng))),
            (ProjPoint(random_study_dq(rng)), ProjPoint(random_study_dq(rng))),
            (ProjPoint(x), ProjPoint(DualQuaternion(Quaternion(), x.primal))),
        ]
        for a, b in candidates:
            if not a.dq().is_zero() and not b.dq().is_zero() and a != b:
                pairs.append((a, b))
    return pairs


class TestContainsLine:
    """contains_line and is_null_line against the value/polar definition."""

    def chart_cases(self):
        forms = [QuadricForm(S_2R), QuadricForm(N_2R), QuadricForm(S_RP), QuadricForm(N_RP)]
        on = [tuple(line.points()) for line in TestCommonLines2R().expected_lines()]
        off = [(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0])),
               (ProjPoint([1, 2, 0, -1]), ProjPoint([0, 1, I, 3]))]
        return forms, on + off

    def test_chart_forms(self):
        forms, pairs = self.chart_cases()
        seen = set()
        for form in forms:
            for a, b in pairs:
                want = three_checks(form, a, b)
                seen.add(want)
                assert form.contains_line(a, b) is want
                assert form.contains_line(b, a) is want
                fa, fb, ff = float_point(a), float_point(b), float_form(form)
                assert ff.contains_line(fa, fb) is three_checks(ff, fa, fb) is want
        assert seen == {True, False}

    def test_null_lines_exact_and_float(self):
        rng = random.Random(61)
        s8, n8 = study_quadric(), null_cone()
        verdicts = []
        for a, b in line_pairs(rng, 40):
            want = three_checks(s8, a, b) and three_checks(n8, a, b)
            verdicts.append(want)
            assert is_null_line(a, b) is want
            assert s8.contains_line(a, b) is three_checks(s8, a, b)
            assert n8.contains_line(a, b) is three_checks(n8, a, b)
            fa, fb = float_point(a), float_point(b)
            assert is_null_line(fa, fb) is want
            assert s8.contains_line(fa, fb) is three_checks(s8, fa, fb)
        assert any(verdicts) and not all(verdicts)

    def test_coincident_points_still_raise(self):
        x = ProjPoint(null_dq(random.Random(62)))
        with pytest.raises(GeometryError, match="coincident"):
            is_null_line(x, ProjPoint([gaussian(2, -1) * c for c in x.coords]))


def ref_handedness(a, b):
    """The ruling family by its definition: b = a q or b = q a solvable."""
    for p in (a, b):
        if not all(c.is_zero() for c in p.coords[:4]):
            return Handedness.NotARuling
    da, db = Quaternion(*a.coords[4:]), Quaternion(*b.coords[4:])
    if not (da.norm().is_zero() and db.norm().is_zero()):
        return Handedness.NotARuling
    right = solve(left_mul_matrix(da), db.coords()) is not None
    left = solve(right_mul_matrix(da), db.coords()) is not None
    assert not (right and left)
    if right:
        return Handedness.RightRuling
    if left:
        return Handedness.LeftRuling
    return Handedness.NotARuling


class TestRulingsAgainstSolve:
    def test_seeded_null_pairs(self):
        rng = random.Random(63)
        seen = set()
        for _ in range(30):
            n = null_quaternion(rng)
            q = random_rational_quaternion(rng)
            others = [n * q, q * n, null_quaternion(rng), q, n * q + q * n]
            for m in others:
                a, b = point(dual=n), ProjPoint([0] * 4 + mixed(rng, m.coords()))
                if m.is_zero() or a == b:
                    continue
                want = ref_handedness(a, b)
                seen.add(want)
                assert ruling_handedness(a, b) is want
                assert ruling_handedness(b, a) is want
                # off the exceptional generator nothing is a ruling
                off = ProjPoint(list(q.coords()) + list(m.coords()))
                if not q.is_zero():
                    assert ruling_handedness(a, off) is Handedness.NotARuling
        assert seen == set(Handedness)

    def test_pairs_with_a_point_off_the_cone(self):
        # a quaternion that is not null is invertible, so neither ideal
        # product of a pair with such a point vanishes: the family needs no
        # norm test, and these pairs read NotARuling as the reference says
        def as_float(x):
            return Quaternion(*[ComplexFloat(c.to_complex()) for c in x.coords()])

        rng = random.Random(64)
        kinds = set()
        for _ in range(20):
            n = null_quaternion(rng)
            q = random_rational_quaternion(rng)
            g = q + random_rational_quaternion(rng) * I
            full = [x for x in (q, g) if not x.norm().is_zero()]
            pairs = [(x, y) for x in full for y in (n, x * random_rational_quaternion(rng), *full)]
            pairs += [(as_float(x), as_float(y)) for x, y in pairs]
            for x, y in pairs:
                if y.is_zero():
                    continue
                a, b = point(dual=x), point(dual=y)
                if a == b:
                    continue
                kinds.add(type(x.coords()[0]).__name__)
                assert ref_handedness(a, b) is Handedness.NotARuling
                assert ruling_handedness(a, b) is Handedness.NotARuling
                assert ruling_handedness(b, a) is Handedness.NotARuling
        assert kinds == {"ExactRational", "GaussianRational", "ComplexFloat"}


class TestRulingHandedness:
    def test_left_ruling_from_motion_fibers(self):
        a0, b0, c0 = Fraction(2), Fraction(3), Fraction(5)
        f1 = Quaternion(1, 0, 0, I)                      # 1 + i k
        p = Quaternion(-b0, a0, 0, c0)
        a = point(dual=f1)
        b = point(dual=p * f1)
        assert ruling_handedness(a, b) is Handedness.LeftRuling

    def test_right_ruling(self):
        s = Quaternion(I, 0, 0, -1)                      # i - k
        a = point(dual=s)
        b = point(dual=s * Q_I)
        assert ruling_handedness(a, b) is Handedness.RightRuling

    def test_not_on_y(self):
        assert ruling_handedness(point(dual=Q_ONE),
                                 point(dual=Q_I)) is Handedness.NotARuling
        # off the exceptional generator
        assert ruling_handedness(point(Q_ONE, Q_I),
                                 point(dual=Q_I)) is Handedness.NotARuling

    def test_invariances(self):
        s = Quaternion(I, 0, 0, -1)
        a = point(dual=s)
        b = point(dual=s * Q_I)
        assert ruling_handedness(b, a) is Handedness.RightRuling
        scaled = ProjPoint([gaussian(2, 3) * c for c in a.coords])
        assert ruling_handedness(scaled, b) is Handedness.RightRuling

    def test_chi_swaps_handedness(self):
        s = Quaternion(I, 0, 0, -1)
        pairs = [(point(dual=s), point(dual=s * Q_I)),
                 (point(dual=s), point(dual=s * Quaternion(2, 1, -1, 3)))]
        for a, b in pairs:
            assert ruling_handedness(a, b) is Handedness.RightRuling
            assert ruling_handedness(chi_point(a), chi_point(b)) is Handedness.LeftRuling

    @pytest.mark.parametrize("scale", [1e-8, 1e-5, 1e-2, 1.0, 1e2, 1e5, 1e8])
    def test_float_points_ignore_scale(self, scale):
        # the ideal products are tested at max-norm one, so at the absolute
        # tolerance the answer is the exact one at every scale
        def floated(p):
            return ProjPoint([ComplexFloat(scale * c.to_complex().real,
                                           scale * c.to_complex().imag) for c in p.coords])
        s = Quaternion(I, 0, 0, -1)
        cases = [
            (point(dual=Q_ONE), point(dual=Q_I)),                      # not null
            (point(dual=s), point(dual=s * Q_I)),                      # right
            (point(dual=s), point(dual=s * Quaternion(2, 1, -1, 3))),  # right
            (chi_point(point(dual=s)), chi_point(point(dual=s * Q_I))),  # left
        ]
        for a, b in cases:
            want = ruling_handedness(a, b)
            assert ruling_handedness(floated(a), floated(b)) is want
            assert ruling_handedness(floated(a), b) is want

    def test_float_points_ignore_powers_of_two(self):
        # each point is read at max-norm about one, by a power of two, so its
        # rescalings by 2**k meet the same bits: 10 seeded float null points
        # of Y with a right and a left partner and a point of neither orbit,
        # every pair rescaled by 2**j and 2**k, j and k in [-40, 40]; the
        # tolerance 1e-13 keeps the smallest rescalings nonzero points
        tol = 1e-13

        def rescaled(q, k):
            return ProjPoint([ComplexFloat(0.0, 0.0, tol)] * 4 + [
                ComplexFloat(ldexp(c.value.real, k), ldexp(c.value.imag, k), tol)
                for c in q.coords()])

        def fquat(rng):
            return Quaternion(*[ComplexFloat(rng.uniform(-1, 1), rng.uniform(-1, 1), tol)
                                for _ in range(4)])

        rng = random.Random(53)
        null = Quaternion(ComplexFloat(1.0, 0.0, tol), ComplexFloat(0.0, 1.0, tol), 0, 0)
        for _ in range(10):
            a = null * fquat(rng)
            q = fquat(rng)
            cases = [(a * q, Handedness.RightRuling), (q * a, Handedness.LeftRuling),
                     (fquat(rng) * null * fquat(rng), Handedness.NotARuling)]
            for b, want in cases:
                assert ruling_handedness(rescaled(a, 0), rescaled(b, 0)) is want
                for j in range(-40, 41, 20):
                    for k in range(-40, 41, 4):
                        assert ruling_handedness(rescaled(a, j), rescaled(b, k)) is want, (j, k)

    def test_coincident_error(self):
        s = Quaternion(I, 0, 0, -1)
        with pytest.raises(GeometryError, match="coincident"):
            ruling_handedness(point(dual=s), point(dual=s * rational(2)))


class TestCommonLines2R:
    def expected_lines(self):
        return [
            chart_line([I, -1, 0, 0], [0, 0, -I, 1]),
            chart_line([-I, -1, 0, 0], [0, 0, I, 1]),
            chart_line([I, 0, -1, 0], [0, -I, 0, 1]),
            chart_line([-I, 0, -1, 0], [0, I, 0, 1]),
        ]

    def test_quadrilateral(self):
        got = common_lines(QuadricForm(S_2R), QuadricForm(N_2R))
        assert len(got) == 4
        want = self.expected_lines()
        for w in want:
            assert any(g == w for g in got)
        assert all(not g.approx for g in got)

    def test_quadrilateral_closes(self):
        l1, l2, l3, l4 = self.expected_lines()
        # same-family lines are disjoint, cross-family lines meet in vertices
        assert meet(l1, l2).dim == -1
        assert meet(l3, l4).dim == -1
        for a in (l1, l2):
            for b in (l3, l4):
                assert meet(a, b).dim == 0

    def test_lifted_lines_are_null(self):
        got = common_lines(QuadricForm(S_2R), QuadricForm(N_2R))
        for line in got:
            pts = [lift_via(FRAME_2R, row) for row in line.basis.rows]
            assert is_null_line(pts[0], pts[1])

    def test_float_tier(self):
        # Float copies of the 2R forms give no float lines: common_lines
        # is exact-only and refuses them, while the exact forms still
        # give the quadrilateral.
        def to_cf(m):
            return Matrix([[ComplexFloat(float(e.value), tolerance=1e-6)
                            for e in row] for row in m.rows])
        s_f, n_f = QuadricForm(to_cf(S_2R)), QuadricForm(to_cf(N_2R))
        for q1, q2 in [(s_f, n_f), (s_f, QuadricForm(N_2R)),
                       (QuadricForm(S_2R), n_f)]:
            with pytest.raises(ExactnessError, match="common lines need exact scalars"):
                common_lines(q1, q2)
        assert len(common_lines(QuadricForm(S_2R), QuadricForm(N_2R))) == 4


class TestCommonLinesRP:
    def test_three_lines(self):
        got = common_lines(QuadricForm(S_RP), QuadricForm(N_RP))
        assert len(got) == 3
        e1 = chart_line([0, 0, 1, 0], [0, 0, 0, 1])
        l1 = chart_line([1, -I, 0, 0], [0, 0, 1, -I])
        l2 = chart_line([1, I, 0, 0], [0, 0, 1, I])
        for w in (e1, l1, l2):
            assert any(g == w for g in got)

    def test_real_line_and_conjugate_pair(self):
        got = common_lines(QuadricForm(S_RP), QuadricForm(N_RP))
        real = [g for g in got if g.conjugation_closed()]
        assert len(real) == 1
        others = [g for g in got if not g.conjugation_closed()]
        conj = Line.of(span([ProjPoint([c.conjugate() for c in row])
                             for row in others[0].basis.rows]))
        assert conj == others[1]

    def test_lifted_null_lines(self):
        got = common_lines(QuadricForm(S_RP), QuadricForm(N_RP))
        for line in got:
            pts = [lift_via(FRAME_RP, row) for row in line.basis.rows]
            assert is_null_line(pts[0], pts[1])


class TestCommonLinesEdges:
    def test_singular_anchor(self):
        with pytest.raises(GeometryError, match="pencil anchor must be regular"):
            common_lines(QuadricForm(N_RP), QuadricForm(S_RP))

    def test_identical_quadrics(self):
        with pytest.raises(GeometryError, match="identical quadrics"):
            common_lines(QuadricForm(S_2R), QuadricForm(S_2R.scale(-3)))

    def test_no_common_lines(self):
        # sphere-like and hyperboloid-like quadrics share no lines; the
        # repeated roots of their pencil determinant leave Q(i)
        g1 = Matrix.diagonal([1, 1, 1, -1])
        g2 = Matrix.diagonal([1, 2, 3, -1])
        with pytest.raises(ExactnessError, match="not in Q"):
            common_lines(QuadricForm(g1), QuadricForm(g2))

    def test_irrational_members_rational_line(self):
        # both quadrics contain the line x2 = x3 = 0, yet the degenerate
        # pencil members sit at s = +-sqrt(2), outside the exact tower
        g1 = Matrix([[0, 0, 0, 1], [0, 0, 2, 0], [0, 2, 0, 0], [1, 0, 0, 0]])
        g2 = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        a, b = chart_line([1, 0, 0, 0], [0, 1, 0, 0]).points()
        assert QuadricForm(g1).contains_line(a, b) and QuadricForm(g2).contains_line(a, b)
        with pytest.raises(ExactnessError, match="not in Q"):
            common_lines(QuadricForm(g1), QuadricForm(g2))


class TestFloatTier:
    """common_lines is exact-only: a form with any float entry, on either
    side, is refused with ExactnessError by _float_member_grams, the one
    float branch, before any other check."""

    @pytest.mark.parametrize("kind, count", [
        (DyadKind.RR, 4), (DyadKind.RP, 3), (DyadKind.PR, 3)])
    def test_float_copies_of_dyad_forms(self, monkeypatch, kind, count):
        calls = []
        refuse = quadrics._float_member_grams

        def counted():
            calls.append(None)
            return refuse()

        monkeypatch.setattr(quadrics, "_float_member_grams", counted)
        for seed in range(6):
            u = build_variety(random_dyad_spec(random.Random(seed), kind)).space
            s_u, n_u = restrict(study_quadric(), u), restrict(null_cone(), u)
            assert len(common_lines(s_u, n_u)) == count, seed
            assert calls == []
            one = [list(row) for row in n_u.gram.rows]
            one[0][0] = ComplexFloat(one[0][0].to_complex())
            for q1, q2 in [(float_form(s_u), n_u), (s_u, float_form(n_u)),
                           (float_form(s_u), float_form(n_u)),
                           (s_u, QuadricForm(Matrix(one)))]:
                with pytest.raises(ExactnessError, match="common lines need exact scalars"):
                    common_lines(q1, q2)
                assert len(calls) == 1, seed
                calls.clear()

    def test_refused_before_the_anchor_check(self):
        singular = float_form(QuadricForm(N_RP))
        with pytest.raises(ExactnessError, match="common lines need exact scalars"):
            common_lines(singular, QuadricForm(S_RP))


def as_lines(candidates):
    """Lines spanned by two-row matrices."""
    return [chart_line(*rows.rows) for rows in candidates]


class TestMemberBranches:
    """Degenerate members and conics the seeded dyads never produce."""

    # 2(x0 x3 + x1 x2): regular, through both unit points e2 and e3
    ANCHOR = QuadricForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]))
    E_LINES = [chart_line([0, 0, 1, 0], [0, 0, 0, 1]), chart_line([0, 1, 0, 0], [0, 0, 0, 1])]

    def test_cone_member_vertex_on_anchor(self):
        # x0^2 + 2 x1 x2 has rank 3 and vertex e3, a point of the anchor; the
        # anchor's lines through e3 lie in its polar plane x0 = 0
        cone = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        got = as_lines(_member_lines(cone, self.ANCHOR))
        assert len(got) == 2
        assert all(any(g == w for g in got) for w in self.E_LINES)
        # both lie on the cone too, so the pencil's common lines include them
        found = common_lines(self.ANCHOR, QuadricForm(cone))
        assert all(any(g == w for g in found) for w in self.E_LINES)
        for line in found:
            a, b = line.points()
            assert self.ANCHOR.contains_line(a, b) and QuadricForm(cone).contains_line(a, b)

    def test_cone_member_vertex_off_anchor(self):
        cone = Matrix.diagonal([1, 1, 1, 0])
        anchor = QuadricForm(Matrix.diagonal([1, 1, -1, -1]))
        assert _member_lines(cone, anchor) == []

    def test_double_plane_member(self):
        # rank 1: the plane x0 = 0 counted twice; the anchor cuts it in the
        # two lines through e3
        plane = Matrix.diagonal([1, 0, 0, 0])
        got = as_lines(_member_lines(plane, self.ANCHOR))
        assert len(got) == 2
        assert all(any(g == w for g in got) for w in self.E_LINES)

    @pytest.mark.parametrize("conic, line", [
        (Matrix.diagonal([1, 0, 0]), ([0, 1, 0], [0, 0, 1])),
        (Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 0]]), ([2, -1, 0], [0, 0, 1])),
        (Matrix([[I, 0, I], [0, 0, 0], [I, 0, I]]), ([1, 0, -1], [0, 1, 0])),
    ])
    def test_double_line_conic(self, conic, line):
        components = _components(conic)[1]
        assert len(components) == 1
        assert as_lines(components) == [chart_line(*line)]


def _matrix_bits(m):
    return [[(type(e).__name__, str(e)) for e in row] for row in m.rows]


def _line_bits(line):
    return _matrix_bits(line.basis)


class TestOneMemberSuffices:
    """common_lines reads its lines off the first degenerate member of the
    pencil: each member contains every common line, so the first one's lines
    on the anchor, checked against both forms, are all of them."""

    @staticmethod
    def exact_members(det_poly, g1, g2):
        """Every degenerate member of an exact pencil g1 + s*g2: one at each
        repeated root of the determinant, in root order, then g2 when the far
        member is degenerate."""
        members = []
        if det_poly.degree >= 1:
            g = poly_gcd(det_poly, det_poly.derivative())
            if g.degree >= 1:
                roots = low_degree_roots(squarefree_part(g))
                if roots is None:
                    raise ExactnessError(
                        "the repeated roots of the pencil determinant are not in Q(i)")
                members += [g1 + g2.scale(s0) for s0 in roots]
        if 4 - det_poly.degree >= 2:
            members.append(g2)
        return members

    @classmethod
    def union_over_members(cls, q1, q2):
        """The definition: the checked lines on the anchor of every degenerate
        member, in member order, the first copy of each kept, sorted.  Also
        returns the first member, or None, and how many lines the members
        after the first found."""
        members = cls.exact_members(cofactor_det(q1.gram, q2.gram), q1.gram, q2.gram)
        lines, later = [], 0
        for index, member in enumerate(members):
            for rows in _member_lines(member, q1):
                a, b = (ProjPoint(r) for r in rows.rows)
                if a != b and q1.contains_line(a, b) and q2.contains_line(a, b):
                    later += index > 0
                    line = Line.through(a, b)
                    if not any(line == seen for seen in lines):
                        lines.append(line)
        return sorted(lines, key=_line_sort_key), (members or [None])[0], later

    def assert_same(self, q1, q2):
        """common_lines equals the union in value and kind, and its member
        the first member in value, or it raises the union's error; returns
        the number of lines the later members found."""
        try:
            want, first, later = self.union_over_members(q1, q2)
        except (ExactnessError, GeometryError) as err:
            with pytest.raises(type(err)) as raised:
                common_lines(q1, q2)
            assert str(raised.value) == str(err)
            return 0
        got = common_lines(q1, q2)
        assert [_line_bits(l) for l in got] == [_line_bits(l) for l in want]
        assert self.first_member(q1, q2) == first
        return later

    @staticmethod
    def first_member(q1, q2):
        return _first_exact_member(_pencil_det(q1.gram, q2.gram), q1.gram, q2.gram)

    def seeded_pairs(self):
        """Restricted S and N of seeded dyads, and their images under a
        seeded change of chart with Gaussian entries, each with its kind."""
        for seed in range(12):
            rng = random.Random(3100 + seed)
            kind = (DyadKind.RR, DyadKind.RP, DyadKind.PR)[seed % 3]
            u = build_variety(random_dyad_spec(rng, kind)).space
            s_u, n_u = restrict(study_quadric(), u), restrict(null_cone(), u)
            yield kind, s_u, n_u
            while True:
                p = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             + I * rng.choice((0, 0, 1, -2)) for _ in range(4)]
                            for _ in range(4)])
                if rank(p) == 4:
                    break
            yield (kind, QuadricForm(p * s_u.gram * p.transpose()),
                   QuadricForm(p * n_u.gram * p.transpose()))

    def test_seeded_spans(self):
        for kind, q1, q2 in self.seeded_pairs():
            later = self.assert_same(q1, q2)
            # each RR pencil has a second member that finds the four lines again
            if kind is DyadKind.RR:
                assert later > 0

    # det = (1 + s)^4, so gcd(det, det') is cubic and its derivative gives
    # the one repeated root; det has Gaussian coefficients
    QUADRUPLE = (QuadricForm(Matrix([[2, I, 0, 0], [I, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])),
                 QuadricForm(Matrix.identity(4)))
    # det = (s^2 - 1)^2 with rational coefficients, although q1 has Gaussian
    # zeros
    GAUSSIAN_ZEROS = (QuadricForm(Matrix([[1, gaussian(0, 0), 0, 0], [gaussian(0, 0), 1, 0, 0],
                                          [0, 0, -1, 0], [0, 0, 0, -1]])),
                      QuadricForm(Matrix.identity(4)))

    def test_member_branch_fixtures(self):
        anchor = TestMemberBranches.ANCHOR
        cone_on = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        cases = [
            (anchor, QuadricForm(cone_on)),                         # vertex on the anchor
            (QuadricForm(Matrix.diagonal([1, 1, -1, -1])),
             QuadricForm(Matrix.diagonal([1, 1, 1, 0]))),          # vertex off the anchor
            (anchor, QuadricForm(Matrix.diagonal([1, 0, 0, 0]))),   # the double plane
            self.QUADRUPLE,
            self.GAUSSIAN_ZEROS,
        ]
        for q1, q2 in cases:
            self.assert_same(q1, q2)
            self.assert_same(q1, QuadricForm(q1.gram + q2.gram.scale(3)))

    def test_root_kind(self):
        """The repeated root is Gaussian exactly when a coefficient of the
        determinant is, whatever the kinds of the grams' zeros."""
        for (q1, q2), root, det in ((self.QUADRUPLE, gaussian(-1, 0), [1, 4, 6, 4, 1]),
                                    (self.GAUSSIAN_ZEROS, rational(1), [1, 0, -2, 0, 1])):
            assert cofactor_det(q1.gram, q2.gram) == Poly(det)
            assert common_lines(q1, q2)
            assert _matrix_bits(self.first_member(q1, q2)) == _matrix_bits(
                q1.gram + q2.gram.scale(root))
