import random
from fractions import Fraction

import pytest

from dqkin.dyads import DyadKind, build_variety
from dqkin.errors import ExactnessError, GeometryError
from dqkin.linalg import Matrix, rank, solve
from dqkin.polys import low_degree_roots, poly_gcd, squarefree_part
from dqkin.projgeom import Line, ProjPoint, chi_point, meet, span
from dqkin.quadrics import (
    Handedness,
    QuadricForm,
    _conic_line_pairs,
    _float_member_grams,
    _line_sort_key,
    _member_line_pairs,
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
        def to_cf(m):
            return Matrix([[ComplexFloat(float(e.value), tolerance=1e-6)
                            for e in row] for row in m.rows])
        got = common_lines(QuadricForm(to_cf(S_2R)), QuadricForm(to_cf(N_2R)))
        assert len(got) == 4
        assert all(g.approx for g in got)
        for w in self.expected_lines():
            assert any(g == w for g in got)


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
        assert common_lines(float_form(QuadricForm(g1)), float_form(QuadricForm(g2))) == []

    def test_irrational_members_rational_line(self):
        # both quadrics contain the line x2 = x3 = 0; the degenerate pencil
        # members sit at s = +-sqrt(2), outside the exact tower
        g1 = Matrix([[0, 0, 0, 1], [0, 0, 2, 0], [0, 2, 0, 0], [1, 0, 0, 0]])
        g2 = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(ExactnessError, match="not in Q"):
            common_lines(QuadricForm(g1), QuadricForm(g2))
        got = common_lines(float_form(QuadricForm(g1)), float_form(QuadricForm(g2)))
        shared = chart_line([1, 0, 0, 0], [0, 1, 0, 0])
        assert any(g == shared and g.approx for g in got)


class TestFloatTier:
    @pytest.mark.parametrize("kind, count", [
        (DyadKind.RR, 4), (DyadKind.RP, 3), (DyadKind.PR, 3)])
    def test_float_copies_of_dyad_forms(self, kind, count):
        # the pencil members at double roots come from the roots of p',
        # which Durand-Kerner finds to full precision
        for seed in range(24):
            u = build_variety(random_dyad_spec(random.Random(seed), kind)).space
            s_u, n_u = restrict(study_quadric(), u), restrict(null_cone(), u)
            exact = common_lines(s_u, n_u)
            got = common_lines(float_form(s_u), float_form(n_u))
            assert len(exact) == len(got) == count, seed
            assert all(g.approx and any(g == e for e in exact) for g in got), seed


def as_lines(pairs):
    return [Line.through(a, b) for a, b in pairs]


class TestMemberBranches:
    """Degenerate members and conics the seeded dyads never produce."""

    # 2(x0 x3 + x1 x2): regular, through both unit points e2 and e3
    ANCHOR = QuadricForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]))
    E_LINES = [chart_line([0, 0, 1, 0], [0, 0, 0, 1]), chart_line([0, 1, 0, 0], [0, 0, 0, 1])]

    def test_cone_member_vertex_on_anchor(self):
        # x0^2 + 2 x1 x2 has rank 3 and vertex e3, a point of the anchor; the
        # anchor's lines through e3 lie in its polar plane x0 = 0
        cone = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        got = as_lines(_member_line_pairs(cone, self.ANCHOR))
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
        assert _member_line_pairs(cone, anchor) == []

    def test_double_plane_member(self):
        # rank 1: the plane x0 = 0 counted twice; the anchor cuts it in the
        # two lines through e3
        plane = Matrix.diagonal([1, 0, 0, 0])
        got = as_lines(_member_line_pairs(plane, self.ANCHOR))
        assert len(got) == 2
        assert all(any(g == w for g in got) for w in self.E_LINES)

    @pytest.mark.parametrize("conic, line", [
        (Matrix.diagonal([1, 0, 0]), ([0, 1, 0], [0, 0, 1])),
        (Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 0]]), ([2, -1, 0], [0, 0, 1])),
        (Matrix([[I, 0, I], [0, 0, 0], [I, 0, I]]), ([1, 0, -1], [0, 1, 0])),
    ])
    def test_double_line_conic(self, conic, line):
        pairs = _conic_line_pairs(conic)
        assert len(pairs) == 1
        assert as_lines(pairs) == [chart_line(*line)]


def _line_bits(line):
    return [[(type(e).__name__, str(e)) for e in row] for row in line.basis.rows]


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
        returns how many lines the members after the first found."""
        det_poly = _pencil_det(q1.gram, q2.gram)
        floats = [e.tolerance for g in (q1.gram, q2.gram) for row in g.rows for e in row
                  if type(e) is ComplexFloat]
        if floats:
            members = _float_member_grams(det_poly, q1.gram, q2.gram, max(floats))
        else:
            members = cls.exact_members(det_poly, q1.gram, q2.gram)
        lines, later = [], 0
        for index, member in enumerate(members):
            for a, b in _member_line_pairs(member, q1):
                if a != b and q1.contains_line(a, b) and q2.contains_line(a, b):
                    later += index > 0
                    line = Line.through(a, b)
                    if not any(line == seen for seen in lines):
                        lines.append(line)
        return sorted(lines, key=_line_sort_key), later

    def assert_same(self, q1, q2):
        """common_lines equals the union in value and kind, or raises the
        union's error; returns the number of lines the later members found."""
        try:
            want, later = self.union_over_members(q1, q2)
        except (ExactnessError, GeometryError) as err:
            with pytest.raises(type(err)) as raised:
                common_lines(q1, q2)
            assert str(raised.value) == str(err)
            return 0
        got = common_lines(q1, q2)
        assert [_line_bits(l) for l in got] == [_line_bits(l) for l in want]
        return later

    def seeded_pairs(self):
        """Restricted S and N of seeded dyads, their images under a seeded
        change of chart with Gaussian entries, and float copies."""
        for seed in range(12):
            rng = random.Random(3100 + seed)
            kind = (DyadKind.RR, DyadKind.RP, DyadKind.PR)[seed % 3]
            u = build_variety(random_dyad_spec(rng, kind)).space
            s_u, n_u = restrict(study_quadric(), u), restrict(null_cone(), u)
            yield s_u, n_u
            while True:
                p = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             + I * rng.choice((0, 0, 1, -2)) for _ in range(4)]
                            for _ in range(4)])
                if rank(p) == 4:
                    break
            yield (QuadricForm(p * s_u.gram * p.transpose()),
                   QuadricForm(p * n_u.gram * p.transpose()))
            yield float_form(s_u), float_form(n_u)

    def test_seeded_spans(self):
        later = [self.assert_same(q1, q2) for q1, q2 in self.seeded_pairs()]
        # each RR pencil has a second member that finds the four lines again
        assert sum(n > 0 for n in later) >= 12

    def test_member_branch_fixtures(self):
        anchor = TestMemberBranches.ANCHOR
        cone_on = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        cases = [
            (anchor, QuadricForm(cone_on)),                         # vertex on the anchor
            (QuadricForm(Matrix.diagonal([1, 1, -1, -1])),
             QuadricForm(Matrix.diagonal([1, 1, 1, 0]))),          # vertex off the anchor
            (anchor, QuadricForm(Matrix.diagonal([1, 0, 0, 0]))),   # the double plane
        ]
        for q1, q2 in cases:
            self.assert_same(q1, q2)
            self.assert_same(q1, QuadricForm(q1.gram + q2.gram.scale(3)))
