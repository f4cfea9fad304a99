import random
from fractions import Fraction

import pytest

from dqkin.errors import GeometryError
from dqkin.linalg import Matrix, _cleared
from dqkin.quaternions import (
    DQ_EPS,
    DQ_ONE,
    DualNumber,
    DualQuaternion,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Quaternion,
    _cleared_product,
    left_mul_matrix,
    left_mul_matrix8,
    right_mul_matrix,
    right_mul_matrix8,
)
from dqkin.scalars import ExactRational, GaussianRational, gaussian, rational

from helpers import scalar_multiple_of


def random_quaternion(rng, lo=-9, hi=9):
    return Quaternion(*[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                        for _ in range(4)])


def random_dq(rng):
    return DualQuaternion(random_quaternion(rng), random_quaternion(rng))


class TestQuaternion:
    def test_basis_relations(self):
        minus_one = Quaternion(-1)
        assert Q_I * Q_I == minus_one
        assert Q_J * Q_J == minus_one
        assert Q_K * Q_K == minus_one
        assert Q_I * Q_J * Q_K == minus_one
        assert Q_I * Q_J == Q_K and Q_J * Q_I == -Q_K
        assert Q_J * Q_K == Q_I and Q_K * Q_J == -Q_I
        assert Q_K * Q_I == Q_J and Q_I * Q_K == -Q_J

    def test_conjugation_antihomomorphism(self):
        rng = random.Random(2)
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    def test_norm(self):
        q = Quaternion(1, 2, 3, 4)
        assert q.norm() == rational(30)
        assert (q * q.conjugate()) == Quaternion(30)

    def test_inverse(self):
        q = Quaternion(1, -1, 2, 0)
        assert q * q.inverse() == Q_ONE
        with pytest.raises(GeometryError):
            Quaternion().inverse()
        # null quaternion over the Gaussians: norm zero but nonzero entries
        n = Quaternion(gaussian(0, 1), 1, 0, 0)
        assert n.norm() == rational(0)
        with pytest.raises(GeometryError):
            n.inverse()


class TestDualQuaternion:
    def test_identity(self):
        rng = random.Random(3)
        q = random_dq(rng)
        assert DQ_ONE * q == q
        assert q * DQ_ONE == q

    def test_hand_product(self):
        # k times (i + eps k) is j - eps
        a = DualQuaternion(Q_K)
        b = DualQuaternion(Q_I, Q_K)
        assert a * b == DualQuaternion(Q_J, Quaternion(-1))

    def test_zero_dual_norm_part(self):
        q = DualQuaternion(Q_I, Q_J)
        assert q * q.conjugate() == DualQuaternion(Q_ONE, Quaternion())

    def test_eps_squared_zero(self):
        assert DQ_EPS * DQ_EPS == DualQuaternion(Quaternion(), Quaternion())

    def test_associativity(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = random_dq(rng), random_dq(rng), random_dq(rng)
            assert (a * b) * c == a * (b * c)

    def test_norm_examples(self):
        assert DQ_ONE.norm() == DualNumber(1, 0)
        assert DualQuaternion(Q_I, Q_K).norm() == DualNumber(1, 0)
        # Gaussian-scalar null point: i + quaternion i
        n = DualQuaternion(Quaternion(gaussian(0, 1), 1, 0, 0))
        assert n.norm() == DualNumber(gaussian(0, 0), gaussian(0, 0))

    def test_norm_is_dual_number(self):
        rng = random.Random(7)
        for _ in range(50):
            q = random_dq(rng)
            n = q.norm()
            full = q * q.conjugate()
            assert full.primal == Quaternion(n.re)
            assert full.dual == Quaternion(n.du)

    def test_primal_norm_multiplicative(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = random_dq(rng), random_dq(rng)
            assert (a * b).norm().re == a.norm().re * b.norm().re

    def test_study_condition(self):
        assert DualQuaternion(Q_ONE, Q_I).study_condition()
        assert not DualQuaternion(Q_ONE, Q_ONE).study_condition()
        assert DualQuaternion(Q_J, Quaternion(-1)).study_condition()

    def test_conjugation_antihomomorphism(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = random_dq(rng), random_dq(rng)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    def test_inverse(self):
        rng = random.Random(17)
        for _ in range(20):
            q = random_dq(rng)
            if q.primal.norm().is_zero():
                continue
            assert q * q.inverse() == DQ_ONE
            assert q.inverse() * q == DQ_ONE
        with pytest.raises(GeometryError):
            DQ_EPS.inverse()


class TestMultiplicationMatrices:
    def test_identity_maps(self):
        assert left_mul_matrix(Q_ONE) == Matrix.identity(4)
        assert right_mul_matrix(Q_ONE) == Matrix.identity(4)
        assert left_mul_matrix8(DQ_ONE) == Matrix.identity(8)
        assert right_mul_matrix8(DQ_ONE) == Matrix.identity(8)

    def test_hand_examples(self):
        assert left_mul_matrix(Q_I).apply(Q_J.coords()) == Q_K.coords()
        assert right_mul_matrix(Q_I).apply(Q_J.coords()) == (-Q_K).coords()

    def test_eps_matrix_is_block_nilpotent(self):
        m = left_mul_matrix8(DQ_EPS)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == rational(0)
                assert m[i + 4, j + 4] == rational(0)
                assert m[i + 4, j] == (rational(1) if i == j else rational(0))

    def test_matrix_action_equals_product(self):
        rng = random.Random(19)
        for _ in range(30):
            h, q = random_dq(rng), random_dq(rng)
            assert left_mul_matrix8(h).apply(q.coords()) == (h * q).coords()
            assert right_mul_matrix8(h).apply(q.coords()) == (q * h).coords()

    def test_block_structure(self):
        rng = random.Random(23)
        for _ in range(20):
            h = random_dq(rng)
            m = left_mul_matrix8(h)
            prim = left_mul_matrix(h.primal)
            du = left_mul_matrix(h.dual)
            for i in range(4):
                for j in range(4):
                    assert m[i, j] == prim[i, j]
                    assert m[i + 4, j + 4] == prim[i, j]
                    assert m[i + 4, j] == du[i, j]
                    assert m[i, j + 4] == rational(0)

    def test_scaled_orthogonality(self):
        rng = random.Random(29)
        for _ in range(30):
            p = random_quaternion(rng)
            for mat in (left_mul_matrix(p), right_mul_matrix(p)):
                gram = mat.transpose() * mat
                c = scalar_multiple_of(gram, Matrix.identity(4))
                if p.is_zero():
                    assert gram.is_zero()
                else:
                    assert c == p.norm()

    def test_left_right_commute(self):
        rng = random.Random(31)
        for _ in range(30):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert (left_mul_matrix(p) * right_mul_matrix(q) ==
                    right_mul_matrix(q) * left_mul_matrix(p))


def test_conjugation_antihomomorphism_bulk():
    # large randomized sweep over exact scalars
    rng = random.Random(37)
    for _ in range(10 ** 4):
        a = DualQuaternion(
            Quaternion(*[rng.randint(-5, 5) for _ in range(4)]),
            Quaternion(*[rng.randint(-5, 5) for _ in range(4)]))
        b = DualQuaternion(
            Quaternion(*[rng.randint(-5, 5) for _ in range(4)]),
            Quaternion(*[rng.randint(-5, 5) for _ in range(4)]))
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


# --- the integer Hamilton product against the scalar loop ---------------

def random_mixed_quaternion(rng):
    """Coordinates drawn independently: rational, Gaussian, zeros of both kinds."""
    def coord():
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
        if rng.random() < 0.5:
            return rational(q)
        return gaussian(q, Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if q else 0)
    return Quaternion(*[coord() for _ in range(4)])


def ref_product(a, b):
    return (a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)


def assert_same(got, want):
    """Equal entry by entry and of the same scalar kind entry by entry."""
    assert [type(x) for x in got] == [type(x) for x in want], (got, want)
    assert all(x == y for x, y in zip(got, want)), (got, want)


class TestIntegerProductKeepsKinds:
    def test_cleared_product_masks(self):
        """Both masks of the integer product: all four coordinates rational
        when both inputs are, all four Gaussian when either has a Gaussian
        coordinate, each equal to the scalar Hamilton formula."""
        rng = random.Random(63)
        masks = []
        for _ in range(300):
            a, b = random_mixed_quaternion(rng), random_mixed_quaternion(rng)
            if rng.random() < 0.3:
                a, b = [Quaternion(*[c if type(c) is ExactRational else rational(c.re)
                                     for c in q.coords()]) for q in (a, b)]
            got = _cleared_product(_cleared(a.coords()), _cleared(b.coords())).coords()
            assert_same(got, ref_product(a, b))
            gaussian_input = any(type(c) is GaussianRational for c in a.coords() + b.coords())
            assert {type(c) for c in got} == {GaussianRational if gaussian_input
                                              else ExactRational}
            masks.append(gaussian_input)
        assert sum(masks) > 50 and len(masks) - sum(masks) > 50

    def test_product(self):
        rng = random.Random(61)
        seen = set()
        for _ in range(400):
            a, b = random_mixed_quaternion(rng), random_mixed_quaternion(rng)
            got = (a * b).coords()
            assert_same(got, ref_product(a, b))
            seen.add(type(got[0]))
        assert seen == {ExactRational, GaussianRational}

    def test_multiplication_matrices(self):
        rng = random.Random(62)
        for _ in range(100):
            p = random_mixed_quaternion(rng)
            left = Matrix.from_columns([ref_product(p, e) for e in (Q_ONE, Q_I, Q_J, Q_K)])
            right = Matrix.from_columns([ref_product(e, p) for e in (Q_ONE, Q_I, Q_J, Q_K)])
            for got, want in ((left_mul_matrix(p), left), (right_mul_matrix(p), right)):
                for g, w in zip(got.rows, want.rows):
                    assert_same(g, w)
