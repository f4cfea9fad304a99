import itertools
import os
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from dqkin import motions
from dqkin.dyads import Classification, Verdict
from dqkin.errors import ExactnessError, GeometryError, InvariantError
from dqkin.linalg import Matrix
from dqkin.motions import (
    MotionLabel,
    MotionPoly,
    act,
    c_space_from_line,
    chi,
    darboux,
    darboux_invariants,
    is_vertical_darboux,
    mannheim,
    trajectory,
)
from dqkin.projgeom import Line, ProjPoint, meet
from dqkin.quadrics import Handedness, QuadricForm, null_cone, quadric_y8, study_quadric
from dqkin.quaternions import (
    DQ_ONE,
    DualQuaternion,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Quaternion,
)
from dqkin.scalars import ComplexFloat, ExactRational, GaussianRational, scalar
from dqkin.transforms import build_transform

from helpers import (
    I,
    dq,
    point,
    random_rational_quaternion,
    random_study_dq,
    rational_unit_pure,
    reference_trajectory,
)


def p3(*coords):
    return ProjPoint([scalar(c) for c in coords])


def p8(*coords):
    return ProjPoint([scalar(c) for c in coords])


ORIGIN = p3(1, 0, 0, 0)


def random_motion(rng, degree):
    while True:
        coeffs = [DualQuaternion(random_rational_quaternion(rng),
                                 random_rational_quaternion(rng))
                  for _ in range(degree + 1)]
        if not coeffs[0].is_zero() and any(not c.primal.is_zero()
                                           for c in coeffs):
            return MotionPoly(coeffs)


class TestAct:
    def test_identity(self):
        for x in [ORIGIN, p3(1, 2, -3, 5), p3(0, 1, 1, 1)]:
            assert act(DQ_ONE, x) == x

    def test_translation_unit_convention(self):
        half = Quaternion(0, Fraction(1, 2), 0, 0)
        q = DualQuaternion(Q_ONE, half)
        assert act(q, ORIGIN) == p3(1, 1, 0, 0)

    def test_half_turn_about_z(self):
        q = dq(Q_K)
        assert act(q, p3(1, 1, 2, 3)) == p3(1, -1, -2, 3)

    def test_extended_map_ignores_study_condition(self):
        q = DualQuaternion(Q_ONE, Q_ONE + Q_I)
        assert not q.study_condition()
        y = act(q, ORIGIN)
        assert y == p3(1, 2, 0, 0)

    def test_zero_primal(self):
        with pytest.raises(GeometryError, match="no displacement"):
            act(DualQuaternion(Quaternion(), Q_I), ORIGIN)

    def test_fiber_constancy(self):
        rng = random.Random(1)
        for _ in range(20):
            q = DualQuaternion(random_rational_quaternion(rng),
                               random_rational_quaternion(rng))
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            shifted = q + DualQuaternion(Quaternion(), q.primal * lam)
            x = p3(1, rng.randint(-5, 5), rng.randint(-5, 5),
                   rng.randint(-5, 5))
            assert act(q, x) == act(shifted, x)

    def test_homomorphism(self):
        rng = random.Random(2)
        for _ in range(20):
            q = DualQuaternion(random_rational_quaternion(rng),
                               random_rational_quaternion(rng))
            r = DualQuaternion(random_rational_quaternion(rng),
                               random_rational_quaternion(rng))
            x = p3(1, rng.randint(-5, 5), rng.randint(-5, 5),
                   rng.randint(-5, 5))
            assert act(q * r, x) == act(q, act(r, x))

    OVERFLOW = (
        "import sys\n"
        "from dqkin.errors import InvariantError\n"
        "from dqkin.motions import act\n"
        "from dqkin.projgeom import ProjPoint\n"
        "from dqkin.quaternions import DualQuaternion, Quaternion\n"
        "from dqkin.scalars import ComplexFloat as F\n"
        "q = DualQuaternion(Quaternion(F(1e308), F(1e308), F(0.0), F(0.0)),\n"
        "                   Quaternion(F(0.0), F(0.0), F(0.0), F(0.0)))\n"
        "try:\n"
        "    act(q, ProjPoint([F(1.0), F(1.0), F(2.0), F(3.0)]))\n"
        "except InvariantError as exc:\n"
        "    sys.exit(str(exc))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_float_overflow_is_not_a_point(self, flags):
        """The sandwich product of an overflowing float displacement holds
        inf and nan, so it is no point: act raises, also under python -O."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run([sys.executable, *flags, "-c", self.OVERFLOW],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "the displaced point is not a point of three-space\n"


class TestMotionPoly:
    def test_evaluation(self):
        m = darboux(1, 2, 3)
        assert m(0) == DQ_ONE
        v = m(1)
        assert v.primal == (Q_ONE + Q_K) * scalar(2)

    def test_leading_zero_stripped(self):
        m = MotionPoly([DualQuaternion(Quaternion()), DQ_ONE, dq(Q_K)])
        assert m.degree == 1

    def test_zero_rejected(self):
        with pytest.raises(GeometryError, match="zero motion"):
            MotionPoly([DualQuaternion(Quaternion())])

    def test_chi_involution(self):
        m = darboux(1, 2, 3)
        assert chi(chi(m)) == m
        assert chi(chi(m)).label is m.label

    def test_labels(self):
        assert darboux(1, 2, 3).label is MotionLabel.Darboux
        assert mannheim(1, 2, 3).label is MotionLabel.Mannheim
        assert darboux(0, 2, 3).label is MotionLabel.VerticalDarboux
        assert mannheim(0, 2, 3).label is MotionLabel.VerticalDarboux
        assert chi(mannheim(1, 2, 3)).label is MotionLabel.Darboux

    def test_mannheim_matches_conjugated_coefficients(self):
        m = mannheim(1, 2, 3)
        want = [
            DualQuaternion(-Q_K, Quaternion(3)),
            DualQuaternion(Q_ONE, Quaternion(2, 1, 0, 3)),
            DualQuaternion(-Q_K, Quaternion(0, 0, 1, 2)),
            DQ_ONE,
        ]
        assert list(m.coefficients) == want

    def test_darboux_curve_on_study_quadric(self):
        # the dual norm part has degree at most six, so seven zeros suffice
        m = darboux(2, -1, 5)
        for t in range(7):
            assert m(t).study_condition()


class TestTrajectory:
    def test_darboux_degree_two(self):
        m = darboux(1, 2, 3)
        for x in [p3(1, 1, 1, 1), p3(2, 1, -1, 3), ORIGIN]:
            assert trajectory(m, x).degree == 2

    def test_mannheim_degree_four(self):
        m = mannheim(1, 2, 3)
        for x in [p3(1, 1, 1, 1), p3(2, 1, -1, 3), ORIGIN]:
            assert trajectory(m, x).degree == 4

    def test_vertical_darboux_inverse_stays_quadratic(self):
        m = mannheim(0, 2, 3)
        assert trajectory(m, p3(1, 1, 1, 1)).degree == 2

    def test_constant_motion(self):
        rng = random.Random(3)
        m = MotionPoly([random_study_dq(rng)])
        t = trajectory(m, p3(1, 2, 3, 4))
        assert t.degree == 0

    def test_components_match_act_samples(self):
        m = darboux(1, 2, 3)
        x = p3(1, 2, 0, -1)
        t = trajectory(m, x)
        for t0 in (0, 1, -2, Fraction(1, 3)):
            assert t.point_at(t0) == act(m(t0), x)

    def test_degree_doubling_bound(self):
        rng = random.Random(4)
        for _ in range(10):
            m = random_motion(rng, rng.randint(1, 3))
            x = p3(1, rng.randint(-5, 5), rng.randint(-5, 5),
                   rng.randint(-5, 5))
            assert trajectory(m, x).degree <= 2 * m.degree

    def test_gcd_is_cancelled(self):
        from dqkin.polys import poly_gcd
        t = trajectory(mannheim(1, 2, 3), p3(1, 1, 1, 1))
        g = None
        for p in t.components:
            if not p.is_zero():
                g = p if g is None else poly_gcd(g, p)
        assert g.degree == 0

    def test_zero_primal_motion(self):
        m = MotionPoly([DualQuaternion(Quaternion(), Q_I),
                        DualQuaternion(Quaternion(), Q_J)])
        with pytest.raises(GeometryError, match="no displacement"):
            trajectory(m, ORIGIN)

    def test_float_coefficients_refused(self):
        q = DualQuaternion(Quaternion(ComplexFloat(1.0)), Quaternion())
        m = MotionPoly([q, dq(Q_K)])
        with pytest.raises(ExactnessError, match="exact scalars"):
            trajectory(m, ORIGIN)


class TestTrajectoryParity:
    """trajectory on integer polynomials against the scalar loop's product,
    gcd and division (helpers.reference_trajectory): every coefficient the
    same in value and kind, and the same degree."""

    @staticmethod
    def assert_same(m, x):
        got = trajectory(m, x)
        comps, degree = reference_trajectory(m, x)
        assert got.degree == degree
        for p, q in zip(got.components, comps):
            assert [(type(c), c) for c in p.coeffs] == [(type(c), c) for c in q.coeffs]
        return got

    @staticmethod
    def entry(rng, kind):
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if kind == "rational" or (kind == "mixed" and rng.random() < 0.6):
            return r
        roll = rng.random()
        if roll < 0.15:
            return GaussianRational(r, 0)      # Gaussian kind, real value
        if roll < 0.25:
            return GaussianRational(0, 0)
        return GaussianRational(r, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    @pytest.mark.parametrize("kind", ["rational", "gaussian", "mixed"])
    def test_seeded_motions(self, kind):
        rng = random.Random({"rational": 31, "gaussian": 32, "mixed": 33}[kind])
        done = 0
        while done < 60:
            degree = done % 5
            coeffs = [DualQuaternion(Quaternion(*[self.entry(rng, kind) for _ in range(4)]),
                                     Quaternion(*[self.entry(rng, kind) for _ in range(4)]))
                      for _ in range(degree + 1)]
            coords = [self.entry(rng, kind) for _ in range(4)]
            if (coeffs[0].is_zero() or all(c.primal.is_zero() for c in coeffs)
                    or all(scalar(c).is_zero() for c in coords)):
                continue
            m = MotionPoly(coeffs)
            if rng.random() < 0.3:
                # times the real linear factor t - r
                r = scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                cs = list(m.coefficients)
                m = MotionPoly([cs[0]] + [cs[k] - cs[k - 1] * r for k in range(1, len(cs))]
                               + [cs[-1] * (-r)])
            self.assert_same(m, ProjPoint(coords))
            done += 1

    def test_mannheim_and_darboux(self):
        """The gcd is (t^2 + 1) for Mannheim motions, (t^2 + 1)^2 for Darboux
        ones; Gaussian-kind parameters give Gaussian coefficients."""
        rng = random.Random(34)
        for _ in range(10):
            a, b, c = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            x = ProjPoint([Fraction(rng.randint(1, 4))] + [Fraction(rng.randint(-5, 5), 2)
                                                           for _ in range(3)])
            for params in ((a or 1, b, c), (GaussianRational(a or 1, 0), b, c)):
                assert self.assert_same(mannheim(*params), x).degree == 4
                assert self.assert_same(darboux(*params), x).degree == 2

    @pytest.mark.parametrize("unit", [ExactRational(1), GaussianRational(1, 0)])
    def test_lone_component_is_divided_by_itself(self, unit):
        """(2 + 3k) t + 5 fixes the origin: only component 0 is nonzero, and
        it is divided by itself, not made monic, so the path is the constant
        one.  Its kind is the inputs', as for every other path; the scalar
        loop gave it the kind of the component's leading coefficient, which
        is rational here, as the Gaussian coordinate only enters lower terms."""
        m = MotionPoly([dq(Quaternion(2, 0, 0, 3)), dq(Quaternion(5) * unit)])
        got = trajectory(m, p3(3, 0, 0, 0))
        assert (got.components, got.degree) == reference_trajectory(m, p3(3, 0, 0, 0))
        assert [p.coeffs for p in got.components] == [(unit,), (), (), ()]
        assert type(got.components[0].coeffs[0]) is type(unit)
        if type(unit) is ExactRational:
            self.assert_same(m, p3(3, 0, 0, 0))

    SCRIPT = (
        "from dqkin.errors import GeometryError\n"
        "from dqkin.motions import MotionPoly, act, darboux, trajectory\n"
        "from dqkin.projgeom import ProjPoint\n"
        "from dqkin.quaternions import DQ_ONE, DualQuaternion, Quaternion\n"
        "from dqkin.scalars import GaussianRational\n"
        "i = GaussianRational(0, 1)\n"
        "null = MotionPoly([DualQuaternion(Quaternion(1, i, 0, 0))])\n"
        "for make in (lambda: trajectory(darboux(1, 2, 3), ProjPoint([1] * 8)),\n"
        "             lambda: trajectory(darboux(1, 2, 3), ProjPoint([1, 2, 3])),\n"
        "             lambda: act(DQ_ONE, ProjPoint([1] * 8)),\n"
        "             lambda: act(DQ_ONE, ProjPoint([1, 2, 3])),\n"
        "             lambda: trajectory(null, ProjPoint([0, 0, i, 1]))):\n"
        "    try:\n"
        "        print(make())\n"
        "    except GeometryError as exc:\n"
        "        print(exc)\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_points_off_three_space_raise(self, flags):
        """trajectory and act refuse a point with 8 or 3 coordinates, and
        trajectory a point whose image vanishes for every t (a null primal
        part sends (0 : 0 : i : 1) to zero), by GeometryError, also under
        python -O."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["points live in the fiber three-space"] * 4 + [
            "the point's path vanishes identically"]


class TestDarbouxInvariants:
    def test_worked_instance(self):
        r = darboux_invariants(1, 2, 3)
        assert r.p == Quaternion(-2, 1, 0, 3)
        assert r.handedness is Handedness.LeftRuling
        assert not r.vertical
        f1 = Quaternion(1, 0, 0, I)
        f2 = Quaternion(1, 0, 0, -I)
        assert r.f[0] == ProjPoint(DualQuaternion(Quaternion(), f1))
        assert r.f[1] == ProjPoint(DualQuaternion(Quaternion(), f2))
        assert r.d[0] == ProjPoint(DualQuaternion(Quaternion(), r.p * f1))
        assert r.d[1] == ProjPoint(DualQuaternion(Quaternion(), r.p * f2))

    def test_points_on_y(self):
        y8 = quadric_y8()
        r = darboux_invariants(2, -1, 5)
        for pt in r.d + r.f:
            assert y8.contains(pt)

    def test_vertical_degenerates(self):
        r = darboux_invariants(0, 2, 3)
        assert r.vertical
        assert r.handedness is None
        assert r.d[0] == r.f[0] and r.d[1] == r.f[1]

    def test_mirror_gives_right_rulings(self):
        r = darboux_invariants(1, 2, 3, mirror=True)
        assert r.handedness is Handedness.RightRuling
        assert r.mirrored

    def test_random_instances(self):
        rng = random.Random(5)
        for _ in range(10):
            a = rng.randint(1, 9)
            b, c = rng.randint(-9, 9), rng.randint(-9, 9)
            assert darboux_invariants(a, b, c).handedness \
                is Handedness.LeftRuling
            assert darboux_invariants(a, b, c, mirror=True).handedness \
                is Handedness.RightRuling

    def test_zero_parameters(self):
        with pytest.raises(GeometryError, match="nonzero parameter"):
            darboux_invariants(0, 0, 0)


class TestDarbouxCertificates:
    """Each check of darboux_invariants raises InvariantError, also under
    python -O, and CLI darboux exits 1 with the message."""

    def test_curve_misses_y(self, monkeypatch):
        monkeypatch.setattr(motions, "darboux", lambda a, b, c: MotionPoly([DQ_ONE, DQ_ONE]))
        with pytest.raises(InvariantError, match="does not meet Y"):
            darboux_invariants(1, 2, 3)

    def test_point_off_y(self, monkeypatch):
        z = Matrix.zeros(4, 4)
        skewed = QuadricForm(Matrix.block2x2(z, z, z, Matrix.diagonal([2, 1, 1, 1])))
        monkeypatch.setattr(motions, "quadric_y8", lambda: skewed)
        with pytest.raises(InvariantError, match="off Y"):
            darboux_invariants(1, 2, 3)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_curve_point_not_p_times_fiber_point(self, monkeypatch, mirror):
        real = motions.darboux
        monkeypatch.setattr(motions, "darboux", lambda a, b, c: real(a, b + 1, c))
        with pytest.raises(InvariantError, match="not p times its fiber point"):
            darboux_invariants(1, 2, 3, mirror=mirror)

    def test_vertical_points_apart(self, monkeypatch):
        real, calls = motions._eps_point, itertools.count()
        # per root: curve point, fiber point, p times fiber point; the fiber
        # point comes out as its complex conjugate, still on Y
        monkeypatch.setattr(motions, "_eps_point", lambda v: (
            real(v).scalar_conjugate() if next(calls) % 3 == 1 else real(v)))
        with pytest.raises(InvariantError, match="a = 0"):
            darboux_invariants(0, 2, 3)

    def test_handedness_disagreement(self, monkeypatch):
        sides = iter([Handedness.LeftRuling, Handedness.RightRuling])
        monkeypatch.setattr(motions, "ruling_handedness", lambda a, b: next(sides))
        with pytest.raises(InvariantError, match="disagree on handedness"):
            darboux_invariants(1, 2, 3)

    SCRIPT = (
        "import itertools, sys\n"
        "from dqkin import motions\n"
        "from dqkin.cli import main\n"
        "from dqkin.quadrics import Handedness\n"
        "sides = itertools.cycle([Handedness.LeftRuling, Handedness.RightRuling])\n"
        "motions.ruling_handedness = lambda a, b: next(sides)\n"
        "sys.exit(main(['darboux', '--a', '1', '--b', '2', '--c', '3']))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_survive_python_o(self, flags):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "disagree on handedness" in proc.stderr
        assert "Traceback" not in proc.stderr


def exact_random_line(rng):
    """A transported line through a displacement with rational null points."""
    direction = rational_unit_pure(rng)
    reach = Quaternion(rng.randint(-3, 3)) + direction * rng.randint(1, 5)
    w = DualQuaternion(reach, random_rational_quaternion(rng))
    t = build_transform(random_study_dq(rng), random_study_dq(rng))
    a = t.apply(ProjPoint(DQ_ONE))
    b = t.apply(ProjPoint(w))
    return Line.through(a, b)


class TestCSpace:
    def test_coordinate_fixture(self):
        l = Line.through(p8(1, 0, 0, 0, 0, 0, 0, 0),
                         p8(0, 0, 0, 1, 0, 1, 0, 0))
        r = c_space_from_line(l)
        assert r.classification.verdict.value == "C"
        assert not r.f.is_zero()
        assert r.f == scalar(4)
        assert r.g1.is_zero() and r.g2.is_zero()
        want = ProjPoint(DualQuaternion(Q_K, Q_I))
        assert r.space.contains(want)
        assert r.space.contains(ProjPoint(DQ_ONE))

    def test_witness_memberships(self):
        l = Line.through(p8(1, 0, 0, 0, 0, 0, 0, 0),
                         p8(0, 0, 0, 1, 0, 1, 0, 1))
        r = c_space_from_line(l)
        s_form, n_form = study_quadric(), null_cone()
        for key in ("e1", "l1", "l2"):
            line = r.witnesses[key]
            x, y = (ProjPoint(row) for row in line.basis.rows)
            for form in (s_form, n_form):
                assert form.value(x).is_zero()
                assert form.value(y).is_zero()
                assert form.polar(x, y).is_zero()
            assert r.space.contains(x) and r.space.contains(y)
        n1, n2 = r.witnesses["n1"], r.witnesses["n2"]
        assert s_form.value(n1).is_zero() and s_form.value(n2).is_zero()
        assert s_form.polar(n1, n2).is_zero()
        assert meet(r.witnesses["n"], r.witnesses["e1"]).dim == -1
        assert meet(r.witnesses["l1"], r.witnesses["l2"]).dim == -1

    def test_s_points_cut_out_by_e1(self):
        l = Line.through(p8(1, 0, 0, 0, 0, 0, 0, 0),
                         p8(0, 0, 0, 1, 0, 1, 0, 0))
        r = c_space_from_line(l)
        s1, s2 = r.witnesses["s1"], r.witnesses["s2"]
        e1 = r.witnesses["e1"]
        assert e1.contains(s1) and e1.contains(s2)
        cut1 = meet(r.witnesses["l1"], e1)
        assert cut1.dim == 0 and cut1.contains(s1)
        cut2 = meet(r.witnesses["l2"], e1)
        assert cut2.dim == 0 and cut2.contains(s2)

    def test_random_exact_instances(self):
        rng = random.Random(6)
        for _ in range(10):
            r = c_space_from_line(exact_random_line(rng))
            assert r.classification.verdict.value == "C"
            assert not r.f.is_zero()

    def test_exceptional_line(self):
        l = Line.through(point(dual=Q_I), point(dual=Q_J))
        with pytest.raises(GeometryError, match="exceptional generator"):
            c_space_from_line(l)

    def test_translation_line(self):
        l = Line.through(ProjPoint(DQ_ONE), point(dual=Q_I))
        with pytest.raises(GeometryError, match="translation 4-space"):
            c_space_from_line(l)

    def test_line_inside_null_cone(self):
        a = ProjPoint(dq(Quaternion(1, I, 0, 0)))
        b = ProjPoint(dq(Quaternion(0, 0, 1, I)))
        with pytest.raises(GeometryError, match="null cone"):
            c_space_from_line(Line.through(a, b))

    def test_tangent_line(self):
        a = ProjPoint(dq(Quaternion(1, I, 0, 0)))
        b = ProjPoint(dq(Q_J))
        with pytest.raises(GeometryError, match="null cone"):
            c_space_from_line(Line.through(a, b))

    def test_irrational_null_points(self):
        l = Line.through(ProjPoint(DQ_ONE), ProjPoint(dq(Q_I + Q_J)))
        with pytest.raises(GeometryError, match="not rational"):
            c_space_from_line(l)


class TestCSpaceCertificates:
    """The witness checks and the C verdict of c_space_from_line raise
    InvariantError, also under python -O."""

    LINE = Line.through(p8(1, 0, 0, 0, 0, 0, 0, 0), p8(0, 0, 0, 1, 0, 1, 0, 0))

    def test_witness_off_space(self, monkeypatch):
        real = motions.span
        # s2 swapped for a point off the C space: e1 = s1 s2 leaves the span
        monkeypatch.setattr(motions, "span", lambda pts: real(
            pts[:3] + [p8(1, 2, 3, 4, 5, 6, 7, 9)]))
        with pytest.raises(InvariantError, match="witness e1"):
            c_space_from_line(self.LINE)

    def test_ruling_off_study_quadric(self, monkeypatch):
        real, calls = study_quadric(), itertools.count(1)
        # e1, l1, l2 pass; the fourth line tested on S is n
        fake = types.SimpleNamespace(
            contains_line=lambda a, b: next(calls) != 4 and real.contains_line(a, b))
        monkeypatch.setattr(motions, "study_quadric", lambda: fake)
        with pytest.raises(InvariantError, match="witness n is not a ruling"):
            c_space_from_line(self.LINE)

    def test_ruling_meets_e1(self, monkeypatch):
        monkeypatch.setattr(motions, "meet", lambda a, b: a)
        with pytest.raises(InvariantError, match="witness n is misplaced"):
            c_space_from_line(self.LINE)

    def test_verdict_not_c(self, monkeypatch):
        monkeypatch.setattr(motions, "classify",
                            lambda u: Classification(Verdict.TwoR, {}))
        with pytest.raises(InvariantError, match="classifies as TwoR"):
            c_space_from_line(self.LINE)


class TestIsVerticalDarboux:
    def test_generic_line(self):
        l = Line.through(p8(1, 0, 0, 0, 0, 0, 0, 0),
                         p8(0, 0, 0, 1, 0, 1, 0, 0))
        assert is_vertical_darboux(l)

    def test_generic_line_float(self):
        def pf(*coords):
            return ProjPoint([ComplexFloat(c) for c in coords])
        l = Line.through(pf(1, 0, 0, 0, 0, 0, 0, 0), pf(0, 0, 0, 1, 0, 1, 0, 0))
        assert is_vertical_darboux(l)

    def test_rotation_line_in_study_quadric(self):
        l = Line.through(ProjPoint(DQ_ONE), ProjPoint(dq(Q_K)))
        assert is_vertical_darboux(l)

    def test_translation_line_rejected(self):
        l = Line.through(ProjPoint(DQ_ONE), point(dual=Q_I))
        with pytest.raises(GeometryError, match="translation 4-space"):
            is_vertical_darboux(l)

    def test_random_exact_instances(self):
        rng = random.Random(8)
        for _ in range(5):
            assert is_vertical_darboux(exact_random_line(rng))
