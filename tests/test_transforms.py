import os
import random
import subprocess
import sys

import pytest

from dqkin import transforms
from dqkin.errors import GeometryError, InvariantError
from dqkin.linalg import Matrix, scalar_multiple_of
from dqkin.projgeom import ProjPoint, fiber_projectivity
from dqkin.quadrics import null_cone, study_quadric
from dqkin.quaternions import (
    DQ_ONE,
    DualQuaternion,
    Q_I,
    Q_K,
    Q_ONE,
    Quaternion,
    left_mul_matrix,
    left_mul_matrix8,
    right_mul_matrix,
    right_mul_matrix8,
)
from dqkin.scalars import ComplexFloat, GaussianRational
from dqkin.transforms import (
    VerificationReport,
    build_transform,
    conjugation_matrix,
    factor_so4,
    factor_transform,
    verify_admissible,
)

from helpers import dq, point, random_rational_quaternion, random_study_dq


def proportional(p, q) -> bool:
    return scalar_multiple_of(Matrix([p.coords()]), Matrix([q.coords()])) is not None


class TestBuildTransform:
    def test_identity(self):
        t = build_transform(DQ_ONE, DQ_ONE)
        assert t.matrix == Matrix.identity(8)
        assert t.factors == (DQ_ONE, DQ_ONE)

    def test_left_action_is_left_multiplication(self):
        t = build_transform(dq(Q_K), DQ_ONE)
        rng = random.Random(7)
        for _ in range(5):
            q = DualQuaternion(random_rational_quaternion(rng),
                               random_rational_quaternion(rng))
            assert t.apply(ProjPoint(q)) == ProjPoint(dq(Q_K) * q)

    def test_left_right_matrices_commute(self):
        lm = left_mul_matrix8(dq(Q_ONE, Q_I))
        rm = right_mul_matrix8(dq(Q_ONE, -Q_I))
        assert lm * rm == rm * lm
        rng = random.Random(8)
        a = random_study_dq(rng)
        b = random_study_dq(rng)
        assert left_mul_matrix8(a) * right_mul_matrix8(b) \
            == right_mul_matrix8(b) * left_mul_matrix8(a)

    def test_rejects_non_study_factor(self):
        with pytest.raises(GeometryError, match="factor not in SE"):
            build_transform(dq(Q_ONE, Q_ONE), DQ_ONE)

    def test_rejects_zero_primal(self):
        with pytest.raises(GeometryError, match="factor not in SE"):
            build_transform(dq(dual=Q_I), DQ_ONE)


class TestVerifyAdmissible:
    def test_built_transforms_pass(self):
        rng = random.Random(9)
        for _ in range(10):
            t = build_transform(random_study_dq(rng), random_study_dq(rng))
            report = verify_admissible(t.matrix)
            assert report.pencil_fixed
            assert report.shape_ok
            assert report.rulings_preserved
            assert report.overall

    def test_conjugation_map_fails_only_rulings(self):
        report = verify_admissible(conjugation_matrix())
        assert report.pencil_fixed
        assert report.shape_ok
        assert not report.rulings_preserved
        assert not report.overall

    def test_nonzero_upper_right_block(self):
        rows = [list(r) for r in Matrix.identity(8).rows]
        rows[0][4] = 1
        report = verify_admissible(Matrix(rows))
        assert not report.shape_ok

    def test_singular_input(self):
        with pytest.raises(GeometryError, match="singular"):
            verify_admissible(Matrix.zeros(8, 8))

    def test_pencil_needs_one_factor(self):
        # t^T N t = N and t^T S t = 2 S: each member is fixed on its own,
        # but with different factors, so N + S is not and the pencil moves
        t = Matrix.diagonal([1, 1, 1, 1, 2, 2, 2, 2])
        assert scalar_multiple_of(t.transpose() * null_cone().gram * t,
                                  null_cone().gram) == 1
        assert scalar_multiple_of(t.transpose() * study_quadric().gram * t,
                                  study_quadric().gram) == 2
        assert not verify_admissible(t).pencil_fixed

    @pytest.mark.parametrize("scale", [1e-4, 1e3, 1e5])
    def test_float_verdict_ignores_scale(self, scale):
        def float_copy(m):
            return Matrix([[ComplexFloat(scale * e.to_complex().real) for e in row]
                           for row in m.rows])

        def verdict(m):
            report = verify_admissible(float_copy(m))
            return report.pencil_fixed, report.shape_ok, report.rulings_preserved

        rng = random.Random(12)
        for _ in range(12):
            t = build_transform(random_study_dq(rng), random_study_dq(rng))
            assert verdict(t.matrix) == (True, True, True)
        assert verdict(conjugation_matrix()) == (True, True, False)

    def test_group_closure(self):
        rng = random.Random(10)
        for _ in range(5):
            t1 = build_transform(random_study_dq(rng), random_study_dq(rng))
            t2 = build_transform(random_study_dq(rng), random_study_dq(rng))
            assert verify_admissible(t1.matrix * t2.matrix).overall


class TestFactorSo4:
    def test_identity(self):
        l1, r1 = factor_so4(Matrix.identity(4))
        assert l1 == Q_ONE and r1 == Q_ONE

    def test_left_multiplication_matrix(self):
        l1, r1 = factor_so4(left_mul_matrix(Q_K))
        assert l1 == Q_K and r1 == Q_ONE

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            l = random_rational_quaternion(rng)
            r = random_rational_quaternion(rng)
            a = left_mul_matrix(l) * right_mul_matrix(r)
            l1, r1 = factor_so4(a)
            assert left_mul_matrix(l1) * right_mul_matrix(r1) == a
            assert proportional(l1, l) and proportional(r1, r)

    def test_not_scalar_orthogonal(self):
        with pytest.raises(GeometryError, match="not a positive scalar-orthogonal"):
            factor_so4(Matrix.diagonal([1, 1, 1, 2]))

    def test_orientation_reversing(self):
        with pytest.raises(GeometryError, match="orientation-reversing"):
            factor_so4(Matrix.diagonal([1, 1, 1, -1]))


class TestFactorTransform:
    def test_identity(self):
        l, r = factor_transform(Matrix.identity(8))
        assert l == DQ_ONE and r == DQ_ONE

    def test_pure_left_translation(self):
        t = build_transform(dq(Q_ONE, Q_I), DQ_ONE)
        l, r = factor_transform(t.matrix)
        assert l == dq(Q_ONE, Q_I)
        assert r == DQ_ONE

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(100):
            l = random_study_dq(rng)
            r = random_study_dq(rng)
            t = build_transform(l, r)
            l2, r2 = factor_transform(t.matrix)
            assert build_transform(l2, r2).matrix == t.matrix
            assert proportional(l2, l) and proportional(r2, r)

    def test_inadmissible_carries_report(self):
        with pytest.raises(GeometryError, match="not admissible") as exc:
            factor_transform(conjugation_matrix())
        report = exc.value.report
        assert isinstance(report, VerificationReport)
        assert not report.rulings_preserved


class TestGaussianRealEntries:
    """Real matrices whose entries are of Gaussian kind: the positivity and
    sign tests read each entry's real and imaginary parts."""

    @staticmethod
    def gaussian_copy(m):
        return Matrix([[GaussianRational(e.value, 0) for e in row] for row in m.rows])

    def test_verify_and_factor(self):
        rng = random.Random(15)
        for _ in range(3):
            t = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
            g = self.gaussian_copy(t)
            assert verify_admissible(g).overall
            l, r = factor_transform(g)
            assert all(isinstance(c, GaussianRational) for c in l.coords() + r.coords())
            assert (l, r) == factor_transform(t)

    def test_conjugation_map_fails_only_rulings(self):
        report = verify_admissible(self.gaussian_copy(conjugation_matrix()))
        assert (report.pencil_fixed, report.shape_ok, report.rulings_preserved) == (
            True, True, False)


class TestFactorCertificates:
    """factor_so4's product check and the consistency of factor_transform's
    dual-part system are explicit checks: they raise InvariantError, also
    under python -O, and CLI factor-transform exits 1 with the message."""

    def test_so4_product(self, monkeypatch):
        a = left_mul_matrix(Quaternion(1, 2, 0, -1)) * right_mul_matrix(Quaternion(0, 1, 3, 1))
        transforms._unit_matrices(True)  # build the constants before the patch
        real = transforms.right_mul_matrix
        monkeypatch.setattr(transforms, "right_mul_matrix", lambda r: real(r).scale(2))
        with pytest.raises(InvariantError, match="do not reproduce the matrix"):
            factor_so4(a)

    def test_dual_part_system(self, monkeypatch):
        t = build_transform(random_study_dq(random.Random(14)), DQ_ONE)
        monkeypatch.setattr(transforms, "solve", lambda m, b: None)
        with pytest.raises(InvariantError, match="dual-part system"):
            factor_transform(t.matrix)

    SCRIPT = (
        "import sys\n"
        "from dqkin import transforms\n"
        "from dqkin.cli import main\n"
        "from dqkin.errors import InvariantError\n"
        "from dqkin.linalg import Matrix\n"
        "transforms.solve = lambda m, b: None\n"
        "try:\n"
        "    transforms.factor_transform(Matrix.identity(8))\n"
        "except InvariantError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('factor_transform did not raise InvariantError')\n"
        "sys.exit(main(['factor-transform', sys.argv[1]]))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_survive_python_o(self, flags):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        matrix = os.path.join(root, "tests", "data", "cli", "matrix.json")
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT, matrix],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "dual-part system" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGroupAction:
    def test_equivariance(self):
        rng = random.Random(13)
        for _ in range(20):
            l = random_study_dq(rng)
            r = random_study_dq(rng)
            q = random_study_dq(rng)
            t = build_transform(l, r)
            assert t.apply(ProjPoint(q)) == ProjPoint(l * q * r)

    def test_fiber_projectivity_commutes(self):
        rng = random.Random(14)
        for _ in range(20):
            t = build_transform(random_study_dq(rng), random_study_dq(rng))
            x = ProjPoint(DualQuaternion(random_rational_quaternion(rng),
                                         random_rational_quaternion(rng)))
            assert t.apply(fiber_projectivity(x)) == fiber_projectivity(t.apply(x))

    def test_apply_subspace_preserves_dimension(self):
        from dqkin.projgeom import span
        rng = random.Random(15)
        t = build_transform(random_study_dq(rng), random_study_dq(rng))
        u = span([point(Q_ONE), point(Q_K), point(Q_I, Q_K)])
        assert t.apply_subspace(u).dim == u.dim
