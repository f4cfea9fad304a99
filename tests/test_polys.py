import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from dqkin.errors import ExactnessError
from dqkin.polys import (
    Poly,
    _int_gcd,
    _poly_product,
    _pseudo_divmod,
    _stripped,
    exact_div,
    low_degree_roots,
    monic,
    poly_divmod,
    poly_gcd,
    split_quadratic,
    squarefree_part,
)
from dqkin.quaternions import Q_I, Q_J, Q_K, Quaternion
from dqkin.scalars import ComplexFloat, GaussianRational, gaussian, rational


def lin(root):
    # t - root
    return Poly([-rational(*root) if isinstance(root, tuple) else -root, 1])


class TestPolyRing:
    def test_trim_and_degree(self):
        assert Poly([1, 2, 0, 0]).degree == 1
        assert Poly([0]).degree == -1
        assert Poly([]).is_zero()

    def test_arithmetic(self):
        p = Poly([1, 1])      # 1 + t
        q = Poly([-1, 1])     # -1 + t
        assert p * q == Poly([-1, 0, 1])
        assert p + q == Poly([0, 2])
        assert p - p == Poly([])
        assert (p * q)(rational(3)) == rational(8)

    def test_eval_matches_expansion(self):
        rng = random.Random(3)
        for _ in range(30):
            cs = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
            p = Poly(cs)
            t = rational(rng.randint(-5, 5), rng.randint(1, 5))
            direct = sum((c * t ** k for k, c in enumerate(p.coeffs)),
                         start=rational(0))
            assert p(t) == direct

    def test_derivative(self):
        p = Poly([5, 3, 0, 2])  # 5 + 3t + 2t^3
        assert p.derivative() == Poly([3, 0, 6])
        assert Poly([7]).derivative().is_zero()

    def test_noncommutative_coefficients(self):
        p = Poly([Quaternion(1), Q_I])   # 1 + i t
        q = Poly([Quaternion(1), Q_J])   # 1 + j t
        pq = p * q
        qp = q * p
        assert pq.coeffs[2] == Q_K
        assert qp.coeffs[2] == -Q_K
        assert pq.coeffs[1] == Q_I + Q_J == qp.coeffs[1]


class TestDivisionAndGcd:
    def test_divmod_identity(self):
        rng = random.Random(5)
        for _ in range(30):
            a = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 6))])
            b = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 4))])
            if b.is_zero():
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_gcd_of_constructed_product(self):
        a = lin(1) * lin(1) * lin(-2)
        b = lin(1) * lin(3)
        assert poly_gcd(a, b) == lin(1)
        assert poly_gcd(a, Poly([])) == monic(a)
        assert poly_gcd(lin(2), lin(3)).degree == 0

    def test_exact_div(self):
        a = lin(1) * lin(2)
        assert exact_div(a, lin(2)) == lin(1)
        with pytest.raises(ExactnessError):
            exact_div(lin(1), lin(2))
        # x^2 + 1 = (x - 1)(x + 1) + 2: the remainder is never dropped
        with pytest.raises(ExactnessError):
            exact_div(Poly([1, 0, 1]), Poly([1, 1]))

    def test_squarefree_part(self):
        p = lin(1) * lin(1) * lin(-2)
        assert squarefree_part(p) == lin(1) * lin(-2)
        q = lin(0) * lin(0) * lin(0)
        assert squarefree_part(q) == lin(0)
        assert squarefree_part(lin(5) * lin(7)) == lin(5) * lin(7)

    def test_gcd_over_gaussians(self):
        i = gaussian(0, 1)
        a = Poly([-i, 1]) * Poly([i, 1])          # (t-i)(t+i) = t^2+1
        assert a == Poly([1, 0, 1])
        assert poly_gcd(a, Poly([-i, 1])) == Poly([-i, 1])

    def test_refuses_floats(self):
        f = Poly([ComplexFloat(1.0), ComplexFloat(2.0)])
        with pytest.raises(ExactnessError):
            poly_gcd(f, f)
        with pytest.raises(ExactnessError):
            poly_divmod(f, f)


class TestZeroPolynomial:
    SCRIPT = (
        "from dqkin.errors import GeometryError\n"
        "from dqkin.polys import (Poly, exact_div, low_degree_roots, monic, poly_divmod,\n"
        "                         split_quadratic, squarefree_part)\n"
        "from dqkin.scalars import rational\n"
        "zero, p = Poly([]), Poly([1, 1])\n"
        "for make in (lambda: zero.leading(),\n"
        "             lambda: poly_divmod(p, zero),\n"
        "             lambda: exact_div(p, zero),\n"
        "             lambda: monic(zero),\n"
        "             lambda: squarefree_part(zero),\n"
        "             lambda: low_degree_roots(zero),\n"
        "             lambda: split_quadratic(rational(0), rational(0), rational(0))):\n"
        "    try:\n"
        "        print(make())\n"
        "    except GeometryError as exc:\n"
        "        print(exc)\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_preconditions_raise(self, flags):
        """The leading coefficient, a division by, the monic multiple, the
        squarefree part and the roots of the zero polynomial, and the roots
        of the zero binary form, raise GeometryError, also under python -O,
        where an assert would leave an IndexError or a silent answer."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "the zero polynomial has no leading coefficient"] * 5 + [
            "every scalar is a root of the zero polynomial",
            "the zero form vanishes at every point"]


class TestRoots:
    def test_rational_quadratic(self):
        p = lin(2) * lin(3)
        roots = low_degree_roots(p)
        assert roots is not None and set(r.value for r in roots) == {2, 3}

    def test_double_root_listed_once(self):
        assert low_degree_roots(lin(2) * lin(2)) == [rational(2)]

    def test_gaussian_roots(self):
        roots = low_degree_roots(Poly([1, 0, 1]))
        assert roots is not None
        assert set((r.re, r.im) for r in roots) == {(0, 1), (0, -1)}
        assert all(isinstance(r, GaussianRational) for r in roots)

    def test_irrational_gives_none(self):
        assert low_degree_roots(Poly([-2, 0, 1])) is None
        assert low_degree_roots(Poly([0, 0, 0, 1])) is None

    def test_linear_and_constant(self):
        assert low_degree_roots(Poly([1, 2])) == [rational(-1, 2)]
        assert low_degree_roots(Poly([5])) == []

    def test_float_input_refused(self):
        with pytest.raises(ExactnessError, match="exact root extraction"):
            low_degree_roots(Poly([ComplexFloat(1.0), 0, 1]))


class TestSplitQuadratic:
    """Root pairs (alpha, beta) of a alpha^2 + 2 b alpha beta + c beta^2."""

    @staticmethod
    def vanishes(a, b, c, pair):
        alpha, beta = pair
        return (a * alpha * alpha + 2 * b * alpha * beta + c * beta * beta).is_zero()

    def test_exact_pairs(self):
        one, zero = rational(1), rational(0)
        for a, b, c in [(1, 0, 1), (1, 0, -4), (2, 3, 4), (0, 1, 5), (0, 0, 3),
                        (1, -1, 1), (gaussian(0, 2), 0, 1)]:
            a, b, c = (x if not isinstance(x, int) else rational(x) for x in (a, b, c))
            pairs = split_quadratic(a, b, c)
            assert pairs and all(self.vanishes(a, b, c, pq) for pq in pairs)
        assert split_quadratic(zero, zero, one) == [(one, zero)]
        assert split_quadratic(one, -one, one) == [(one, one)]
        assert split_quadratic(one, zero, one) == [(gaussian(0, 1), one), (gaussian(0, -1), one)]

    def test_message(self):
        with pytest.raises(ExactnessError, match=r"the square root of 2/1 is not in Q\(i\)"):
            split_quadratic(rational(1), rational(0), rational(-2))

    def test_float_coefficients_take_the_float_root(self):
        a, b, c = ComplexFloat(2.0), ComplexFloat(3.0), ComplexFloat(4.0)
        pairs = split_quadratic(a, b, c)
        assert len(pairs) == 2
        assert all(isinstance(x, ComplexFloat) for pq in pairs for x in pq)
        assert all(self.vanishes(a, b, c, pq) for pq in pairs)

    def test_low_degree_roots_dehomogenised(self):
        rng = random.Random(17)
        for _ in range(100):
            cs = [rational(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            if all(c.is_zero() for c in cs):
                continue
            p = Poly(cs)
            roots = low_degree_roots(p)
            if roots is None:
                with pytest.raises(ExactnessError):
                    split_quadratic(cs[2], cs[1] / 2, cs[0])
                continue
            assert all(p(r).is_zero() for r in roots)
            assert len(roots) == len(set(str(r) for r in roots))


def int_poly(coeffs, over_gaussians):
    """The integer polynomial of ascending (re, im) pairs, over Z or Z[i]."""
    return _stripped([x for x, _ in coeffs],
                     [y for _, y in coeffs] if over_gaussians else None, 0)


def as_poly(p):
    re, im, _ = p
    return Poly([gaussian(x, y) for x, y in zip(re, im)] if im is not None else re)


def times(over_gaussians, *factors):
    out = Poly([1])
    for f in factors:
        out = out * as_poly(f)
    return int_poly([(c.re.numerator, c.im.numerator) if isinstance(c, GaussianRational)
                     else (c.numerator, 0) for c in out.coeffs], over_gaussians)


class TestIntegerPolynomials:
    """The integer gcd and pseudo-division that trajectories run on, against
    poly_gcd, poly_divmod and exact_div over the Scalars."""

    @staticmethod
    def assert_divmod(a, b):
        """lc(b)^n a = q b + r: q and r over lc(b)^n are poly_divmod's."""
        q, r, n = _pseudo_divmod(a, b)
        scale = as_poly(b).leading() ** n
        want = poly_divmod(as_poly(a), as_poly(b))
        assert (as_poly(q), as_poly(r)) == (want[0].scale(scale), want[1].scale(scale))
        return as_poly(q).scale(1 / scale)

    @pytest.mark.parametrize("over_gaussians", [False, True])
    def test_seeded_gcds_and_quotients(self, over_gaussians):
        """Common factors, repeated roots and contents: monic(gcd) is
        poly_gcd, primitive over Z, and each operand over the gcd is
        exact_div."""
        rng = random.Random(23 if over_gaussians else 22)
        content = int_poly([(6, 3 if over_gaussians else 0)], over_gaussians)

        def factor():
            while True:
                cs = [(rng.randint(-3, 3), rng.randint(-3, 3) if over_gaussians else 0)
                      for _ in range(rng.randint(1, 3))]
                if cs[-1] != (0, 0):
                    return int_poly(cs, over_gaussians)

        for _ in range(60):
            f = [factor() for _ in range(4)]
            common = [f[0], f[0]] if rng.random() < 0.5 else [f[0]]
            a = times(over_gaussians, *common, f[1], *[content] * rng.randint(0, 1))
            b = times(over_gaussians, *common, f[2], f[3], *[content] * rng.randint(0, 1))
            g = _int_gcd(a, b)
            assert monic(as_poly(g)) == poly_gcd(as_poly(a), as_poly(b))
            assert over_gaussians or gcd(*g[0]) == 1
            for p in (a, b):
                assert self.assert_divmod(p, g) == exact_div(as_poly(p), as_poly(g))
            self.assert_divmod(a, b)
            self.assert_divmod(b, f[1])

    def test_products_across_rings(self):
        """A factor over Z times one over Z[i]: the missing im reads as
        zeros on either side."""
        over_z, over_gaussians = ([1, 1], None, 0), ([0, 1], [1, 0], 0)   # 1 + t, i + t
        assert _poly_product(over_z, over_gaussians) == ([0, 1, 1], [1, 1, 0], 0)
        for a in (over_z, over_gaussians):
            for b in (over_z, over_gaussians):
                assert as_poly(_poly_product(a, b)) == as_poly(a) * as_poly(b)

    @pytest.mark.parametrize("over_gaussians", [False, True])
    def test_zero_constant_and_inexact_operands(self, over_gaussians):
        i = 1 if over_gaussians else 0
        zero = int_poly([], over_gaussians)
        two, seven = int_poly([(2, 0)], over_gaussians), int_poly([(7, 7 * i)], over_gaussians)
        p = int_poly([(-4, 2 * i), (0, 0), (6, 0)], over_gaussians)   # content 2
        for a, b in ((p, zero), (zero, p), (p, seven), (seven, p), (p, p)):
            g = _int_gcd(a, b)
            assert monic(as_poly(g)) == poly_gcd(as_poly(a), as_poly(b))
        assert as_poly(_int_gcd(zero, zero)).is_zero()
        assert self.assert_divmod(zero, p).is_zero()
        for d in (two, seven, _int_gcd(p, p)):
            assert self.assert_divmod(p, d) == exact_div(as_poly(p), as_poly(d))
        # a remainder is left where exact_div refuses
        a, b = int_poly([(1, 0), (0, 0), (1, 0)], over_gaussians), int_poly([(1, 0), (1, 0)],
                                                                            over_gaussians)
        assert not as_poly(_pseudo_divmod(a, b)[1]).is_zero()
        with pytest.raises(ExactnessError):
            exact_div(as_poly(a), as_poly(b))
