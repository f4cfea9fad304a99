import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dqkin import transforms
from dqkin.errors import GeometryError, InvariantError
from dqkin.linalg import Matrix, det
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
from dqkin.scalars import ComplexFloat, GaussianRational, _unit_scale, gaussian, rational
from dqkin.transforms import (
    VerificationReport,
    build_transform,
    conjugation_matrix,
    factor_so4,
    factor_transform,
    verify_admissible,
)

from helpers import (
    associate_by_traces,
    dq,
    dual_part_columns,
    point,
    random_rational_quaternion,
    random_study_dq,
    scalar_multiple_of,
)


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
        def verdict(m):
            report = verify_admissible(float_copy(m, scale))
            return report.pencil_fixed, report.shape_ok, report.rulings_preserved

        rng = random.Random(12)
        for _ in range(12):
            t = build_transform(random_study_dq(rng), random_study_dq(rng))
            assert verdict(t.matrix) == (True, True, True)
        assert verdict(conjugation_matrix()) == (True, True, False)

    @pytest.mark.parametrize("length", [30, 1000])
    def test_float_long_translation(self, length):
        # at max-norm one the diagonal block of a long translation is small
        # and det(t) is its eighth power, below the float tolerance; the
        # pencil is fixed, so the matrix is regular and no det is taken
        l = DualQuaternion(Q_ONE, Quaternion(0, length, 0, 0))
        t = build_transform(l, DQ_ONE).matrix
        f = Matrix([[ComplexFloat(e.to_complex().real) for e in row] for row in t.rows])
        assert verify_admissible(f).overall
        l2, r2 = factor_transform(f)
        assert left_mul_matrix8(l2) * right_mul_matrix8(r2) == f

    @pytest.mark.parametrize("small", [Fraction(1, 1000), Fraction(1, 10 ** 5)])
    def test_float_small_block_is_regular(self, small):
        # t moves the pencil, so its regularity is tested: det(t) = small^4
        # falls below the float tolerance, its rank does not
        exact = Matrix.diagonal([small] * 4 + [1] * 4)
        f = Matrix.diagonal([ComplexFloat(float(small))] * 4 + [ComplexFloat(1.0)] * 4)
        assert verify_admissible(f) == verify_admissible(exact)
        assert not verify_admissible(exact).pencil_fixed
        singular = Matrix.diagonal([ComplexFloat(1.0)] * 7 + [ComplexFloat(0.0)])
        with pytest.raises(GeometryError, match="singular"):
            verify_admissible(singular)

    def test_group_closure(self):
        rng = random.Random(10)
        for _ in range(5):
            t1 = build_transform(random_study_dq(rng), random_study_dq(rng))
            t2 = build_transform(random_study_dq(rng), random_study_dq(rng))
            assert verify_admissible(t1.matrix * t2.matrix).overall


def block_shape(t):
    """shape_ok by its definition on the 4x4 blocks t = [[a, b], [c, d]]:
    b = 0, d = a, a^T a = lam I with lam > 0 (read on a over its first
    nonzero entry), and a^T c + c^T a = 0; a singular t raises first."""
    if det(t).is_zero():
        raise GeometryError("singular transform")
    a, b, c, d = (Matrix([list(row[j:j + 4]) for row in t.rows[i:i + 4]])
                  for i in (0, 4) for j in (0, 4))
    p = next((e for row in a.rows for e in row if not e.is_zero()), None)
    if p is None:
        return False
    n = a.scale(1 / p)
    lam = (n.transpose() * n)[0, 0]
    positive = lam.to_complex().imag == 0 and lam.to_complex().real > 0
    return (positive and n.transpose() * n == Matrix.identity(4).scale(lam)
            and b.is_zero() and d == a and (a.transpose() * c + c.transpose() * a).is_zero())


def pencil_by_congruence(t):
    """pencil_fixed by the paper's definition: congruence by t maps N and S
    to one nonzero multiple of themselves.  Float input is read at max-norm
    one, where the absolute tolerance means the same at every scale."""
    if not t.is_exact():
        t = t.scale(_unit_scale([e for row in t.rows for e in row]))
    n, s = null_cone().gram, study_quadric().gram
    factor = scalar_multiple_of(t.transpose() * n * t, n)
    return (factor is not None and not factor.is_zero()
            and scalar_multiple_of(t.transpose() * s * t, s) == factor)


def float_copy(m, scale=1.0):
    return Matrix([[ComplexFloat(scale * e.to_complex().real, scale * e.to_complex().imag)
                    for e in row] for row in m.rows])


class TestShapeFromPencil:
    """On exact input shape_ok is pencil_fixed with a positive scalar-
    orthogonal diagonal block: the report agrees with the block definition,
    and only singular matrices raise.  pencil_fixed, read on the blocks,
    agrees with the congruences that define it."""

    @staticmethod
    def near_misses(t, rng):
        # one entry changed in each block
        for i0, j0 in ((0, 0), (0, 4), (4, 0), (4, 4)):
            rows = [list(row) for row in t.rows]
            i, j = i0 + rng.randrange(4), j0 + rng.randrange(4)
            rows[i][j] = rows[i][j] + rng.choice((1, -1, Fraction(1, 2)))
            yield Matrix(rows)

    @classmethod
    def cases(cls):
        """Admissible matrices, near misses, moved pencils and singular ones,
        real and complex, before their nonzero rescalings."""
        rng = random.Random(19)
        # diag(I, 0) fixes N exactly, but not S, and is singular
        cases = [Matrix.diagonal([1, 1, 1, 1, 2, 2, 2, 2]), conjugation_matrix(),
                 Matrix.diagonal([1, 1, 1, 1, 0, 0, 0, 0]), Matrix.zeros(8, 8)]
        for _ in range(8):
            t = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
            g = Matrix([[GaussianRational(e.value, 0) for e in row] for row in t.rows])
            cases += [t, g, *cls.near_misses(t, rng), *cls.near_misses(g, rng)]
        # Gaussian factors: complex matrices whose a^T a is no positive multiple
        primal = Quaternion(gaussian(1, 2), 3, gaussian(0, -1), 1)
        complex_t = build_transform(DualQuaternion(primal, primal * Quaternion(0, 1, 2, -1)),
                                    random_study_dq(rng)).matrix
        return cases + [complex_t, *cls.near_misses(complex_t, rng)]

    RESCALINGS = (gaussian(0, 1), gaussian(2, 1), rational(-3))

    def test_report_matches_block_definition(self):
        fixes_n = Matrix.diagonal([1, 1, 1, 1, 0, 0, 0, 0])
        assert scalar_multiple_of(fixes_n.transpose() * null_cone().gram * fixes_n,
                                  null_cone().gram) == 1
        cases = self.cases()
        cases += [m.scale(c) for m in cases for c in self.RESCALINGS]
        seen = set()
        for m in cases:
            try:
                want = block_shape(m)
            except GeometryError:
                with pytest.raises(GeometryError, match="singular"):
                    verify_admissible(m)
                seen.add("singular")
                continue
            assert verify_admissible(m).shape_ok is want
            seen.add(want)
        assert seen == {True, False, "singular"}

    def test_pencil_matches_congruences(self):
        cases = self.cases()
        cases += [m.scale(c) for m in cases for c in self.RESCALINGS]
        cases += [float_copy(m, scale) for m in self.cases()
                  for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8)]
        seen = set()
        for m in cases:
            want = pencil_by_congruence(m)
            try:
                got = verify_admissible(m).pencil_fixed
            except GeometryError:
                # t^T S t = lam S with lam != 0 makes t regular, as S is
                assert not want
                seen.add("singular")
                continue
            assert got is want
            seen.add((m.is_exact(), want))
        assert seen == {(True, True), (True, False), (False, True), (False, False),
                        "singular"}


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

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e5, 1e6])
    def test_float_factors_ignore_scale(self, scale):
        # the diagonal block, the product of its factors and the dual-part
        # system are read at max-norm one, as verify_admissible reads t, so a
        # verified float transform factors at every scale
        for seed in range(20):
            rng = random.Random(seed)
            t = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
            f = Matrix([[ComplexFloat(scale * e.to_complex().real) for e in row]
                        for row in t.rows])
            assert verify_admissible(f).overall
            l, r = factor_transform(f)
            unit = _unit_scale([e for row in f.rows for e in row])
            assert (left_mul_matrix8(l) * right_mul_matrix8(r)).scale(unit) == f.scale(unit), seed

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


nonzero_scalars = st.one_of(
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)).map(rational),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda t: gaussian(*t)))


class TestRescaledRepresentatives:
    """A transform is a projective map: each nonzero multiple c t, c in Q or
    Q(i), gets the report of t, and factors that rebuild c t exactly."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 16), nonzero_scalars)
    @example(0, rational(-3))
    @example(0, gaussian(0, 1))
    @example(0, gaussian(2, 1))
    @example(0, gaussian(-1, 0))
    def test_verify_and_factor(self, seed, c):
        rng = random.Random(seed)
        t = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
        for m in (t, conjugation_matrix()):
            assert verify_admissible(m.scale(c)) == verify_admissible(m)
        l, r = factor_transform(t.scale(c))
        assert left_mul_matrix8(l) * right_mul_matrix8(r) == t.scale(c)


def float_bits(q):
    return [(c.value.real.hex(), c.value.imag.hex(), c.tolerance) for c in q.coords()]


class TestPowerOfTwoScaling:
    """Float input is read at max-norm about one by a power of two, which
    changes no mantissa: a float transform rescaled by 2**k gets the same
    report, and its diagonal block factors into l times exactly 2**k and
    the same r."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(-40, 40))
    @example(0, -40)
    @example(0, 40)
    def test_verify_and_factor(self, seed, k):
        rng = random.Random(seed)
        power = rational(Fraction(2) ** k)
        f = float_copy(build_transform(random_study_dq(rng), random_study_dq(rng)).matrix)
        for m in (f, float_copy(conjugation_matrix())):
            assert verify_admissible(m.scale(power)) == verify_admissible(m)
        l0, r0 = factor_so4(transforms._block(f, 0, 0))
        l, r = factor_so4(transforms._block(f.scale(power), 0, 0))
        assert float_bits(l) == float_bits(l0 * power)
        assert float_bits(r) == float_bits(r0)
        # the primal parts of factor_transform are these factors; its dual
        # parts come from a solve that pivots on magnitude, so they are only
        # checked to rebuild the matrix (test_float_factors_ignore_scale)
        lt, rt = factor_transform(f.scale(power))
        assert float_bits(lt.primal) == float_bits(l) and float_bits(rt.primal) == float_bits(r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(-40, 40))
    def test_factor_matrices(self, seed, k):
        """The L(l) and R(r) that factor_transform reuses from factor_so4's
        product check are those of the factors returned, bit for bit: a
        float block is checked at its power-of-two scale, and L(l) read
        back from there."""
        rng = random.Random(seed)
        m = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
        for t in (m, m.scale(gaussian(1, 2)), float_copy(m).scale(rational(Fraction(2) ** k))):
            l, r, left, right = transforms._so4_factors(transforms._block(t, 0, 0))
            for got, want in ((left, left_mul_matrix(l)), (right, right_mul_matrix(r))):
                assert [entry_bits(e) for e in transforms._flatten(got)] == \
                    [entry_bits(e) for e in transforms._flatten(want)]


def entry_bits(e):
    """An entry's kind and value, float parts by their bits, and tolerance."""
    if type(e) is ComplexFloat:
        return ComplexFloat, e.value.real.hex(), e.value.imag.hex(), e.tolerance
    if type(e) is GaussianRational:
        return GaussianRational, e.re, e.im
    return type(e), e.value


def random_entry(rng, kind):
    """A rational, Gaussian or float entry, zeros included; "mixed" picks
    one of the three, floats at one of two tolerances."""
    if kind == "mixed":
        kind = rng.choice(["rational", "gaussian", "float"])
    frac = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if kind == "rational":
        return rational(frac())
    if kind == "gaussian":
        return gaussian(frac(), frac())
    part = lambda: rng.choice([0.0, rng.uniform(-3, 3)])
    return ComplexFloat(part(), part(), rng.choice([1e-9, 1e-6]))


KINDS = ("rational", "gaussian", "float", "mixed")


class TestIndexTablesAgainstProducts:
    """The associate matrix and the dual-part columns, read off index
    tables of signed permutations, equal their definitions on matrix
    products entry for entry, in value and kind, float bits and tolerances
    included.  Both are linear in their input, so this holds on blocks that
    are not orthogonal and on quaternions of any kind too."""

    def test_associate(self):
        rng = random.Random(31)
        blocks = []
        for _ in range(10):
            a = (left_mul_matrix(random_rational_quaternion(rng))
                 * right_mul_matrix(random_rational_quaternion(rng)))
            blocks += [a, a.scale(gaussian(rng.randint(-3, 3), rng.randint(1, 3))),
                       float_copy(a, 2.0 ** rng.randint(-20, 7)),
                       float_copy(a.scale(gaussian(1, 2)))]
            blocks += [Matrix([[random_entry(rng, kind) for _ in range(4)] for _ in range(4)])
                       for kind in KINDS]
        for a in blocks:
            got, want = transforms._associate(a), associate_by_traces(a)
            assert [entry_bits(e) for e in transforms._flatten(got)] == \
                [entry_bits(e) for e in transforms._flatten(want)]

    def test_dual_part_columns(self):
        rng = random.Random(32)
        for _ in range(10):
            for kind in KINDS:
                l, r = (Quaternion(*[random_entry(rng, kind) for _ in range(4)]) for _ in "lr")
                got = transforms._dual_part_columns(l, r, left_mul_matrix(l), right_mul_matrix(r))
                want = dual_part_columns(l, r)
                assert [[entry_bits(e) for e in col] for col in got] == \
                    [[entry_bits(e) for e in col] for col in want]


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

    def test_associate_sign(self, monkeypatch):
        """One sign flipped in the associate table, in any term of an entry
        of the pivot's row or column, which factor_so4 reads, breaks the
        product check."""
        a = left_mul_matrix(Quaternion(1, 2, 3, -1)) * right_mul_matrix(Quaternion(3, 1, 2, -5))
        assert all(not e.is_zero() for e in transforms._flatten(a))
        assoc = transforms._associate(a)
        i0, j0 = max(((i, j) for i in range(4) for j in range(4)),
                     key=lambda ij: abs(assoc[ij].to_complex()))
        table = transforms._associate_table()
        read = [4 * i + j for i in range(4) for j in range(4) if i == i0 or j == j0]
        for entry in read:
            for m in range(4):
                terms = list(table[entry])
                sign, k = terms[m]
                terms[m] = (-sign, k)
                flipped = table[:entry] + (tuple(terms),) + table[entry + 1:]
                monkeypatch.setattr(transforms, "_associate_table", lambda: flipped)
                with pytest.raises(InvariantError, match="do not reproduce the matrix"):
                    factor_so4(a)

    @pytest.mark.parametrize("seed", range(5))
    def test_dual_part_row_sign(self, monkeypatch, seed):
        """One row of one moved block with its sign flipped makes the
        dual-part system inconsistent, when that block's unknown is not 0."""
        rng = random.Random(seed)
        t = build_transform(random_study_dq(rng), random_study_dq(rng)).matrix
        l, r = factor_transform(t)
        assert all(not c.is_zero() for c in l.dual.coords() + r.dual.coords())
        tables = transforms._dual_part_tables()
        for block in range(8):
            for row in range(4):
                table = tuple((-s, k) if n // 4 == row else (s, k)
                              for n, (s, k) in enumerate(tables[block]))
                flipped = tables[:block] + (table,) + tables[block + 1:]
                monkeypatch.setattr(transforms, "_dual_part_tables", lambda: flipped)
                with pytest.raises(InvariantError, match="dual-part system"):
                    factor_transform(t)

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
