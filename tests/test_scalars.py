import operator
import random
from fractions import Fraction

import pytest

from dqkin.errors import ParseError
from dqkin.scalars import (
    ComplexFloat,
    ExactRational,
    GaussianRational,
    as_exact_real,
    gaussian,
    parse_scalar,
    rational,
    scalar_to_json,
)


class TestExactRational:
    def test_lowest_terms(self):
        r = ExactRational(6, -4)
        assert r.numerator == -3 and r.denominator == 2

    def test_arithmetic(self):
        a, b = rational(1, 3), rational(1, 6)
        assert a + b == rational(1, 2)
        assert a - b == rational(1, 6)
        assert a * b == rational(1, 18)
        assert a / b == rational(2)
        assert -a == rational(-1, 3)
        assert a ** 3 == rational(1, 27)
        assert rational(2) ** -2 == rational(1, 4)

    def test_int_interop(self):
        assert rational(1, 2) + 1 == rational(3, 2)
        assert 2 * rational(1, 2) == 1
        assert 1 - rational(1, 4) == rational(3, 4)
        assert 1 / rational(4) == rational(1, 4)

    def test_no_implicit_floats(self):
        with pytest.raises(TypeError):
            ExactRational(0.5)
        with pytest.raises(TypeError):
            rational(1, 2) + 0.5

    def test_ordering_and_sign(self):
        assert rational(1, 3) < rational(1, 2)
        assert rational(-1).sign() == -1
        assert rational(0).sign() == 0
        assert rational(5, 7).sign() == 1

    def test_sqrt(self):
        assert rational(9, 4).sqrt() == rational(3, 2)
        assert rational(0).sqrt() == rational(0)
        assert rational(2).sqrt() is None
        r = rational(-4).sqrt()
        assert isinstance(r, GaussianRational)
        assert r == gaussian(0, 2)

    def test_hash_matches_equality(self):
        assert hash(rational(1, 2)) == hash(Fraction(1, 2))
        assert hash(gaussian(1, 0)) == hash(rational(1))

    def test_constructors_reduce_to_lowest_terms(self):
        # Fraction arguments are kept as they are, everything else is normalised
        for r, (n, d) in ((ExactRational(2, 4), (1, 2)),
                          (ExactRational(Fraction(2, 4)), (1, 2)),
                          (ExactRational(-6, -8), (3, 4)),
                          (ExactRational("6/8"), (3, 4)),
                          (ExactRational("-10"), (-10, 1)),
                          (parse_scalar("6/8"), (3, 4)),
                          (parse_scalar("-10"), (-10, 1))):
            assert isinstance(r, ExactRational)
            assert (r.numerator, r.denominator) == (n, d)
            assert hash(r) == hash(Fraction(n, d))
        g = GaussianRational(2, 4)
        assert (g.re, g.im) == (Fraction(2), Fraction(4)) and g.im.denominator == 1
        assert hash(g) == hash((Fraction(2), Fraction(4)))
        for g, re, im in ((GaussianRational(Fraction(2, 4), "6/8"), Fraction(1, 2), Fraction(3, 4)),
                          (GaussianRational("6/8", 0), Fraction(3, 4), Fraction(0)),
                          (parse_scalar("2/4-6/8*i"), Fraction(1, 2), Fraction(-3, 4))):
            assert isinstance(g, GaussianRational)
            assert (g.re.numerator, g.re.denominator) == (re.numerator, re.denominator)
            assert (g.im.numerator, g.im.denominator) == (im.numerator, im.denominator)
        assert hash(GaussianRational("6/8", 0)) == hash(Fraction(3, 4))


class TestGaussianRational:
    def test_arithmetic(self):
        i = gaussian(0, 1)
        assert i * i == rational(-1)
        assert (gaussian(1, 2) * gaussian(3, -1)) == gaussian(5, 5)
        assert gaussian(5, 5) / gaussian(3, -1) == gaussian(1, 2)
        assert gaussian(1, 1).conjugate() == gaussian(1, -1)

    def test_promotion_from_rational(self):
        s = rational(1, 2) + gaussian(0, 1)
        assert isinstance(s, GaussianRational)
        assert s == gaussian(Fraction(1, 2), 1)

    def test_conjugation_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            s = gaussian(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert s.conjugate().conjugate() == s
            assert (s * s.conjugate()).im == 0

    def test_sqrt(self):
        # (2+i)^2 = 3+4i
        assert gaussian(3, 4).sqrt() == gaussian(2, 1)
        assert gaussian(-4, 0).sqrt() == gaussian(0, 2)
        assert gaussian(9, 0).sqrt() == gaussian(3, 0)
        assert gaussian(0, 1).sqrt() is None
        assert gaussian(2, 0).sqrt() is None
        rng = random.Random(11)
        for _ in range(50):
            s = gaussian(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            sq = (s * s).sqrt()
            assert sq is not None and sq * sq == s * s

    def test_no_ordering(self):
        with pytest.raises(TypeError):
            gaussian(0, 1) < gaussian(1, 0)

    def test_as_exact_real(self):
        assert as_exact_real(gaussian(3, 0)) == rational(3)
        assert as_exact_real(gaussian(3, 1)) is None
        assert as_exact_real(rational(2, 7)) == rational(2, 7)
        assert as_exact_real(ComplexFloat(1.0)) is None


class TestComplexFloat:
    def test_tolerant_equality(self):
        a = ComplexFloat(1.0, tolerance=1e-6)
        assert a == ComplexFloat(1.0 + 1e-8)
        assert a != ComplexFloat(1.01)
        assert ComplexFloat(1e-12).is_zero()
        assert not ComplexFloat(1e-3).is_zero()

    def test_tolerance_propagates(self):
        a = ComplexFloat(1.0, tolerance=1e-3)
        b = ComplexFloat(2.0, tolerance=1e-9)
        assert (a + b).tolerance == 1e-3
        assert (rational(1, 2) * a).tolerance == 1e-3
        # float arithmetic carries the larger tolerance whatever the operand
        # order, also when both operands are floats and skip the coercion
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert op(a, b).tolerance == 1e-3 and op(b, a).tolerance == 1e-3
            for exact in (rational(1, 2), gaussian(1, -2)):
                assert op(exact, a).tolerance == 1e-3 and op(a, exact).tolerance == 1e-3
                assert op(exact, b).tolerance == 1e-9 and op(b, exact).tolerance == 1e-9
        near = ComplexFloat(2.0 + 1e-6, tolerance=1e-9)
        loose = ComplexFloat(2.0, tolerance=1e-3)
        assert near == loose and loose == near
        assert near != b and b != near

    def test_mixed_arithmetic_promotes(self):
        s = rational(1, 2) + ComplexFloat(0.5)
        assert isinstance(s, ComplexFloat)
        assert s.to_complex() == 1.0
        g = gaussian(0, 1) * ComplexFloat(0.0, 1.0)
        assert g == ComplexFloat(-1.0)

    def test_sqrt_always_exists(self):
        s = ComplexFloat(-4.0).sqrt()
        assert s == ComplexFloat(0.0, 2.0)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ComplexFloat(1.0))


class TestSerialization:
    def test_exact_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            r = rational(rng.randint(-99, 99), rng.randint(1, 99))
            assert parse_scalar(scalar_to_json(r)) == r
            g = gaussian(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
            back = parse_scalar(scalar_to_json(g))
            assert isinstance(back, GaussianRational) and back == g

    def test_canonical_strings(self):
        assert scalar_to_json(rational(-3, 2)) == "-3/2"
        assert scalar_to_json(rational(4)) == "4/1"
        assert scalar_to_json(gaussian(1, Fraction(-2, 5))) == "1/1-2/5*i"
        assert scalar_to_json(gaussian(Fraction(1, 2), 0)) == "1/2+0/1*i"

    def test_float_is_json_number(self):
        v = scalar_to_json(ComplexFloat(1.5))
        assert isinstance(v, float) and v == 1.5
        s = parse_scalar(1.5)
        assert isinstance(s, ComplexFloat)

    def test_int_parses_exact(self):
        s = parse_scalar(7)
        assert isinstance(s, ExactRational) and s == rational(7)
        s = parse_scalar("-12")
        assert isinstance(s, ExactRational) and s == rational(-12)

    def test_complex_float_literal(self):
        s = parse_scalar("1.5-0.25*i")
        assert isinstance(s, ComplexFloat)
        assert s.to_complex() == complex(1.5, -0.25)
        back = parse_scalar(scalar_to_json(s))
        assert back.to_complex() == s.to_complex()

    def test_gaussian_keeps_type_on_zero_imag(self):
        s = parse_scalar("1/2+0/1*i")
        assert isinstance(s, GaussianRational)

    def test_bad_literals(self):
        for text in ["", "1/2/3", "i", "1+i", "2*i", "1..5", "1/0x2", None, True]:
            with pytest.raises(ParseError):
                parse_scalar(text)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rational(1) / rational(0)
        with pytest.raises(ZeroDivisionError):
            gaussian(1, 1) / gaussian(0, 0)
