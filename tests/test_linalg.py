import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dqkin.errors import GeometryError
from dqkin.linalg import (
    Matrix,
    _cancelling,
    _cleared,
    _cleared_image,
    _first_nonzero,
    _kinds,
    _normalized,
    _residue,
    _scalars,
    _transposed,
    det,
    inverse,
    nullspace,
    rank,
    rref,
    signature,
    solve,
    vec_dot,
    vec_is_zero,
)
from dqkin.scalars import (ZERO, ComplexFloat, ExactRational, GaussianRational, gaussian,
                           rational)

from helpers import dual_part_system, scalar_multiple_of


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return Matrix([[Fraction(rng.randint(lo, hi), rng.randint(1, 4))
                    for _ in range(ncols)] for _ in range(nrows)])


class TestMatrixBasics:
    def test_product_against_hand_value(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a * b == Matrix([[2, 1], [4, 3]])
        assert a.apply([1, 1]) == (rational(3), rational(7))

    def test_transpose_and_blocks(self):
        a = Matrix([[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == Matrix([[1, 4], [2, 5], [3, 6]])
        eye = Matrix.identity(2)
        z = Matrix.zeros(2, 2)
        blk = Matrix.block2x2(eye, z, z, eye)
        assert blk == Matrix.identity(4)

    def test_trace_and_symmetry(self):
        s = Matrix([[1, 2], [2, -1]])
        assert s.trace() == rational(0)
        assert s.is_symmetric()
        assert not Matrix([[1, 2], [3, 4]]).is_symmetric()


class TestElimination:
    def test_rref_hand_example(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        red, pivots = rref(m)
        assert pivots == (0, 1)
        assert red.rows[0] == (rational(1), rational(0), rational(-1))
        assert red.rows[1] == (rational(0), rational(1), rational(2))
        assert vec_is_zero(red.rows[2])

    def test_rank_and_det(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1
        assert det(Matrix([[1, 2], [3, 4]])) == rational(-2)
        assert det(Matrix([[2, 0, 0], [0, 3, 0], [0, 0, 4]])) == rational(24)
        assert det(Matrix([[1, 2], [2, 4]])) == rational(0)

    def test_det_multiplicative(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_matrix(rng, 4, 4)
            b = random_matrix(rng, 4, 4)
            assert det(a * b) == det(a) * det(b)

    def test_nullspace(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        basis = nullspace(m)
        assert len(basis) == 1
        assert vec_is_zero(m.apply(basis[0]))
        assert nullspace(Matrix.identity(3)) == []

    def test_solve(self):
        m = Matrix([[1, 1], [1, -1]])
        x = solve(m, [3, 1])
        assert x == (rational(2), rational(1))
        assert solve(Matrix([[1, 1], [2, 2]]), [1, 3]) is None

    def test_solve_underdetermined(self):
        m = Matrix([[1, 2, 3]])
        x = solve(m, [6])
        assert x is not None and vec_dot(m.rows[0], x) == rational(6)

    def test_inverse(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(20):
            a = random_matrix(rng, 3, 3)
            inv = inverse(a)
            if det(a) == 0:
                assert inv is None
            else:
                hits += 1
                assert a * inv == Matrix.identity(3)
        assert hits > 10

    def test_float_pivoting(self):
        m = Matrix([[ComplexFloat(1e-13), ComplexFloat(1.0)],
                    [ComplexFloat(1.0), ComplexFloat(1.0)]])
        # the tiny entry is below tolerance, so the matrix acts rank 2 via row swap
        red, pivots = rref(m)
        assert pivots == (0, 1)

    def test_gaussian_entries(self):
        i = gaussian(0, 1)
        m = Matrix([[i, 1], [1, i]])
        assert det(m) == rational(-2)
        assert rank(m) == 2


@st.composite
def sylvester_cases(draw):
    """(diagonal entries, hyperbolic blocks, seed, c, kind, identity) of
    test_sylvester, for forms of size 1 to 8."""
    n = draw(st.integers(1, 8))
    nblocks = draw(st.integers(0, n // 2))
    diag = draw(st.lists(st.integers(-3, 3), min_size=n - 2 * nblocks, max_size=n - 2 * nblocks))
    blocks = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=nblocks, max_size=nblocks))
    c = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return (diag, blocks, draw(st.integers(0, 2 ** 32)), c,
            draw(st.sampled_from(["rational", "gaussian", "mixed"])), draw(st.booleans()))


class TestSignature:
    def test_diagonal(self):
        assert signature(Matrix.diagonal([2, -3, 0, 5])) == (2, 1, 1)

    def test_hyperbolic_plane(self):
        # x·y form has eigenvalues ±1/2
        assert signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_pencil_like_block(self):
        z = Matrix.zeros(4, 4)
        eye = Matrix.identity(4)
        study = Matrix.block2x2(z, eye, eye, z)
        assert signature(study) == (4, 4, 0)

    def test_congruence_invariance(self):
        rng = random.Random(21)
        base = Matrix.diagonal([1, 1, -1, 0])
        for _ in range(20):
            t = random_matrix(rng, 4, 4)
            if det(t) == 0:
                continue
            g = t.transpose() * base * t
            assert signature(g) == (2, 1, 1)

    def test_rejects_non_real(self):
        with pytest.raises(GeometryError, match="real form"):
            signature(Matrix([[gaussian(0, 1), 0], [0, 1]]))
        with pytest.raises(GeometryError, match="real form"):
            signature(Matrix([[ComplexFloat(1.0)]]))

    def test_real_gaussian_entries_demote(self):
        m = Matrix([[gaussian(2, 0), 0], [0, gaussian(-1, 0)]])
        assert signature(m) == (1, 1, 0)

    def test_rows_with_other_denominators(self):
        # the rows clear over 6 and 3, the form over 6
        m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])
        assert signature(m) == (2, 0, 0)
        assert signature(m.scale(-1)) == (0, 2, 0)

    @settings(max_examples=200, deadline=None)
    @given(sylvester_cases())
    @example(([-1, -1], [], 0, 1, "rational", True))
    @example(([2, -3, 0, 5], [], 0, 1, "rational", True))
    @example(([0], [3, -2], 0, Fraction(1, 6), "gaussian", True))
    @example(([1, -2, 3], [2], 5, Fraction(7, 3), "mixed", False))
    def test_sylvester(self, case):
        """signature(c P^T B P) counts the signs of B for an invertible
        integer P and c > 0: B is block diagonal, a diagonal D with entries
        in -3..3 and hyperbolic blocks [[0, a], [a, 0]] (one positive and one
        negative eigenvalue each); P is unit lower triangular times upper
        triangular with nonzero diagonal, its rows permuted, or the
        identity, which leaves the zero diagonal of the blocks in place."""
        diag, blocks, seed, c, kind, identity = case
        rng = random.Random(seed)
        n = len(diag) + 2 * len(blocks)
        b = [[0] * n for _ in range(n)]
        for k, d in enumerate(diag):
            b[k][k] = d
        for k, a in enumerate(blocks):
            i = len(diag) + 2 * k
            b[i][i + 1] = b[i + 1][i] = a
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        if not identity:
            low = [[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)]
                   for i in range(n)]
            up = [[rng.choice([-2, -1, 1, 2]) if i == j else rng.randint(-2, 2) if i < j else 0
                   for j in range(n)] for i in range(n)]
            order = rng.sample(range(n), n)
            p = [[sum(low[order[i]][k] * up[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        g = [[c * sum(p[k][i] * b[k][m] * p[m][j] for k in range(n) for m in range(n))
              for j in range(n)] for i in range(n)]

        def entry(x):
            if kind == "gaussian" or kind == "mixed" and rng.random() < 0.5:
                return gaussian(x, 0)
            return rational(x)

        form = Matrix([[entry(x) for x in row] for row in g])
        pos = sum(d > 0 for d in diag) + len(blocks)
        neg = sum(d < 0 for d in diag) + len(blocks)
        assert signature(form) == (pos, neg, n - pos - neg)

    FORM_SCRIPT = (
        "from dqkin.errors import GeometryError\n"
        "from dqkin.linalg import Matrix, signature\n"
        "from dqkin.quadrics import QuadricForm\n"
        "for rows in ([[1, 2], [0, 1]], [[1, 2]], [[0, 1], [0, 0]]):\n"
        "    for make in (signature, QuadricForm):\n"
        "        try:\n"
        "            make(Matrix(rows))\n"
        "        except GeometryError as exc:\n"
        "            print(exc)\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_refuses_a_gram_that_is_not_square_and_symmetric(self, flags):
        """signature and QuadricForm refuse a form that is not square and
        symmetric by an explicit check, also under python -O."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, *flags, "-c", self.FORM_SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["signature requires a square symmetric form",
                                            "a quadric form needs a square symmetric gram"] * 3


class TestShapeChecks:
    SCRIPT = (
        "from dqkin.errors import GeometryError\n"
        "from dqkin.linalg import (Matrix, as_vector, det, inverse, solve, vec_add, vec_dot,\n"
        "                          vec_sub)\n"
        "from dqkin.projgeom import ProjPoint, Subspace\n"
        "u = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)\n"
        "wide = Matrix([[1, 2, 3], [4, 5, 6]])\n"
        "one = Matrix([[1]])\n"
        "for make in (lambda: Matrix([[1, 2], [3, 4]]) * Matrix([[1, 2, 3]]),\n"
        "             lambda: u.lift(ProjPoint([1, 2, 3, 4, 5])),\n"
        "             lambda: Matrix([[1, 2], [3, 4]]).apply([1, 2, 3]),\n"
        "             lambda: vec_dot(as_vector([1, 2]), as_vector([1, 2, 3])),\n"
        "             lambda: Matrix([[1, 2], [3, 4]]) + Matrix([[1, 2, 3], [4, 5, 6]]),\n"
        "             lambda: det(wide),\n"
        "             lambda: inverse(wide),\n"
        "             lambda: solve(Matrix([[1, 2], [3, 4]]), [1, 2, 3]),\n"
        "             lambda: vec_add(as_vector([1, 2]), as_vector([1])),\n"
        "             lambda: vec_sub(as_vector([1, 2]), as_vector([1])),\n"
        "             lambda: wide.trace(),\n"
        "             lambda: Matrix.block2x2(Matrix([[1, 2]]), one, one, one),\n"
        "             lambda: Matrix([[1, 2], [3]]),\n"
        "             lambda: ProjPoint([1])):\n"
        "    try:\n"
        "        print(make())\n"
        "    except GeometryError as exc:\n"
        "        print(exc)\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_mismatched_shapes_raise(self, flags):
        """A product, an ``apply``, a dot product, a sum, a vector sum or
        difference, a ``solve`` or a ``block2x2`` of mismatched shapes, the
        trace, determinant or inverse of a matrix that is not square, ragged
        rows, a one-coordinate point and the lift of a chart point with too
        many coordinates raise GeometryError, also under python -O, where an
        assert would let the integer kernel or a zip truncate silently."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "a product needs as many columns on the left as rows on the right",
            "a chart point has one coordinate per basis row",
            "a matrix applies to vectors with one coordinate per column",
            "a dot product needs two vectors of one length",
            "a sum needs two matrices of one shape",
            "a trace, a determinant or an inverse needs a square matrix",
            "a trace, a determinant or an inverse needs a square matrix",
            "a right-hand side has one entry per row",
            "a sum needs two vectors of one length",
            "a difference needs two vectors of one length",
            "a trace, a determinant or an inverse needs a square matrix",
            "blocks side by side need one row count, stacked one column count",
            "a matrix needs rows of one nonzero length",
            "a projective point needs at least two coordinates"]


class TestScalarMultiple:
    def test_detects_multiples(self):
        a = Matrix([[2, 4], [6, 8]])
        b = Matrix([[1, 2], [3, 4]])
        assert scalar_multiple_of(a, b) == rational(2)
        assert scalar_multiple_of(b, a) == rational(1, 2)
        assert scalar_multiple_of(a, Matrix([[1, 2], [3, 5]])) is None

    def test_zero_pattern_must_match(self):
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[1, 0], [0, 0]])
        assert scalar_multiple_of(a, b) is None


# --- differential test of the exact kernels ---------------------------------
#
# A reference on pairs (re, im) of plain Fractions: a rational is a pair with
# im == 0.  Kinds are tracked apart from values: ExactRational input must come
# back ExactRational and Gaussian input Gaussian, entry by entry.

def _pair(s):
    return (s.value, Fraction(0)) if isinstance(s, ExactRational) else (s.re, s.im)


def _padd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _pmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _pneg(a):
    return (-a[0], -a[1])


PZERO, PONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def _pdot(u, v):
    out = PZERO
    for a, b in zip(u, v):
        out = _padd(out, _pmul(a, b))
    return out


def _ref_rref(rows):
    """Gauss-Jordan on pairs: (reduced rows, pivot columns, det if square)."""
    rows = [list(r) for r in rows]
    n, ncols = len(rows), len(rows[0])
    pivots, d = [], PONE
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][col] != PZERO), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            d = _pneg(d)
        d = _pmul(d, rows[r][col])
        inv = _pdiv(PONE, rows[r][col])
        rows[r] = [_pmul(inv, e) for e in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != PZERO:
                f = rows[i][col]
                rows[i] = [_padd(a, _pneg(_pmul(f, b))) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    if len(pivots) < n:
        d = PZERO
    return rows, tuple(pivots), d


def _rand_pair(rng, gaussian_entry):
    re = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    im = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if gaussian_entry else Fraction(0)
    return (re, im)


def _rank_r_pairs(rng, nrows, ncols, r, gaussian_entries):
    """Pairs of an nrows x ncols product of random nrows x r and r x ncols factors."""
    b = [[_rand_pair(rng, gaussian_entries) for _ in range(r)] for _ in range(nrows)]
    c = [[_rand_pair(rng, gaussian_entries) for _ in range(ncols)] for _ in range(r)]
    return [[_pdot(row, [c[k][j] for k in range(r)]) for j in range(ncols)] for row in b]


def _to_scalar(p, kind):
    return rational(p[0]) if kind is ExactRational else gaussian(*p)


def _matrix(pairs, kinds):
    return Matrix([[_to_scalar(p, k) for p, k in zip(row, krow)]
                   for row, krow in zip(pairs, kinds)])


def _assert_same(got, pairs, kinds):
    """got (a vector) has exactly the expected values and scalar kinds."""
    assert len(got) == len(pairs)
    for g, p, k in zip(got, pairs, kinds):
        assert type(g) is k and _pair(g) == p, (g, p, k)


SHAPES = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 7), (4, 4), (5, 8), (8, 5), (8, 8),
          (6, 10), (10, 6), (18, 9), (18, 10)]


def _differential_cases(rng, kind):
    """Seeded matrices of the given uniform kind: every rank of the small
    shapes, the lowest and highest three of the larger ones."""
    for nrows, ncols in SHAPES:
        top = min(nrows, ncols)
        for r in sorted({r for r in range(top + 1) if top <= 5 or r < 3 or r > top - 3}):
            pairs = _rank_r_pairs(rng, nrows, ncols, r, kind is GaussianRational)
            yield pairs, [[kind] * ncols for _ in range(nrows)]
            if r == nrows == ncols > 1:
                # a zero corner makes elimination swap rows, which flips det
                pairs[0][0] = PZERO
                yield pairs, [[kind] * ncols for _ in range(nrows)]


class TestExactKernelsAgainstReference:
    @pytest.mark.parametrize("kind", [ExactRational, GaussianRational])
    def test_elimination(self, kind):
        rng = random.Random(41 if kind is ExactRational else 42)
        cases = list(_differential_cases(rng, kind))
        if kind is ExactRational:
            system = dual_part_system(random.Random(43))
            assert (system.nrows, system.ncols) == (18, 9)
            cases.append(([[_pair(e) for e in row] for row in system.rows],
                          [[ExactRational] * 9 for _ in range(18)]))
        for pairs, kinds in cases:
            m = _matrix(pairs, kinds)
            assert all(type(e) is kind for row in m.rows for e in row)
            n, ncols = m.nrows, m.ncols
            ref_rows, ref_pivots, ref_det = _ref_rref(pairs)
            red, pivots = rref(m)
            assert pivots == ref_pivots
            for got, want in zip(red.rows, ref_rows):
                _assert_same(got, want, [kind] * ncols)
            if n == ncols:
                _assert_same([det(m)], [ref_det], [kind])
            # the kernel and solve put exact zeros and ones at free columns
            free = [j for j in range(ncols) if j not in ref_pivots]
            basis = nullspace(m)
            assert len(basis) == len(free)
            for j, v in zip(free, basis):
                want = [PONE if c == j else PZERO for c in range(ncols)]
                for row, pc in zip(ref_rows, ref_pivots):
                    want[pc] = _pneg(row[j])
                _assert_same(v, want, [kind if c in ref_pivots else ExactRational
                                       for c in range(ncols)])
            for rhs in ([_rand_pair(rng, kind is GaussianRational) for _ in range(n)],
                        [_pdot(row, [_rand_pair(rng, False) for _ in range(ncols)])
                         for row in pairs]):
                aug_rows, aug_pivots, _ = _ref_rref([row + [b] for row, b in zip(pairs, rhs)])
                x = solve(m, [_to_scalar(b, kind) for b in rhs])
                if ncols in aug_pivots:
                    assert x is None
                    continue
                want = [PZERO] * ncols
                for row, pc in zip(aug_rows, aug_pivots):
                    want[pc] = row[ncols]
                _assert_same(x, want, [kind if c in aug_pivots else ExactRational
                                       for c in range(ncols)])
            if n == ncols:
                inv = inverse(m)
                eye = [[PONE if i == j else PZERO for j in range(n)] for i in range(n)]
                aug_rows, aug_pivots, _ = _ref_rref([row + e for row, e in zip(pairs, eye)])
                if len(ref_pivots) < n:
                    assert inv is None
                else:
                    for got, want in zip(inv.rows, aug_rows):
                        _assert_same(got, want[n:], [kind] * n)

    def test_products(self):
        rng = random.Random(44)
        for nrows, inner in SHAPES:
            ncols = rng.randint(1, 10)
            for a_kind, b_kind in ((ExactRational, ExactRational),
                                   (ExactRational, GaussianRational),
                                   (GaussianRational, ExactRational),
                                   (GaussianRational, GaussianRational)):
                a_pairs = _rank_r_pairs(rng, nrows, inner, rng.randint(0, min(nrows, inner)),
                                        a_kind is GaussianRational)
                b_pairs = [[_rand_pair(rng, b_kind is GaussianRational) for _ in range(ncols)]
                           for _ in range(inner)]
                a_kinds = [[a_kind] * inner for _ in range(nrows)]
                b_kinds = [[b_kind] * ncols for _ in range(inner)]
                # a Gaussian entry in one row of a and one column of b makes
                # exactly the entries in that row or column Gaussian
                if a_kind is b_kind is ExactRational:
                    i, j = rng.randrange(nrows), rng.randrange(ncols)
                    a_kinds[i][rng.randrange(inner)] = GaussianRational
                    b_kinds[rng.randrange(inner)][j] = GaussianRational
                a, b = _matrix(a_pairs, a_kinds), _matrix(b_pairs, b_kinds)
                a_gauss = [GaussianRational in row for row in a_kinds]
                b_gauss = [any(b_kinds[k][j] is GaussianRational for k in range(inner))
                           for j in range(ncols)]
                product = a * b
                assert (product.nrows, product.ncols) == (nrows, ncols)
                for i, got in enumerate(product.rows):
                    want = [_pdot(a_pairs[i], [b_pairs[k][j] for k in range(inner)])
                            for j in range(ncols)]
                    _assert_same(got, want, [GaussianRational if a_gauss[i] or b_gauss[j]
                                             else ExactRational for j in range(ncols)])
                for j in range(ncols):
                    column = b.column(j)
                    col_pairs = [b_pairs[k][j] for k in range(inner)]
                    _assert_same(a.apply(column), [_pdot(row, col_pairs) for row in a_pairs],
                                 [GaussianRational if a_gauss[i] or b_gauss[j]
                                  else ExactRational for i in range(nrows)])
                    for i in range(nrows):
                        _assert_same([vec_dot(a.rows[i], column)], [_pdot(a_pairs[i], col_pairs)],
                                     [GaussianRational if a_gauss[i] or b_gauss[j]
                                      else ExactRational])


# --- differential test of the float kernels ---------------------------------
#
# The references are the scalar loops the kernels replace, run on Scalars:
# every operation goes through ComplexFloat's own arithmetic.  Results
# must agree bit for bit: value (signed zeros included), kind, tolerance.

def _bits(s):
    if type(s) is ComplexFloat:
        return ("float", s.value.real.hex(), s.value.imag.hex(), s.tolerance.hex())
    if type(s) is GaussianRational:
        return ("gaussian", s.re, s.im)
    assert type(s) is ExactRational
    return ("rational", s.value)


def _rows_bits(rows):
    return [[_bits(e) for e in r] for r in rows]


def _loop_dot(u, v):
    out = rational(0)
    for a, b in zip(u, v):
        out = out + a * b
    return out


def _loop_pivot(rows, col, start):
    best, best_mag = None, 0.0
    for i in range(start, len(rows)):
        e = rows[i][col]
        if e.is_zero():
            continue
        if e.is_exact:
            return i
        mag = abs(e.to_complex())
        if mag > best_mag:
            best, best_mag = i, mag
    return best


def _loop_rref(m):
    one = rational(1)
    rows = [list(r) for r in m.rows]
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = _loop_pivot(rows, col, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = one / rows[r][col]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, tuple(pivots)


def _loop_det(m):
    one = rational(1)
    rows = [list(r) for r in m.rows]
    sign, out = 1, one
    for col in range(len(rows)):
        p = _loop_pivot(rows, col, col)
        if p is None:
            return rational(0) * rows[0][0]
        if p != col:
            rows[col], rows[p] = rows[p], rows[col]
            sign = -sign
        pivot = rows[col][col]
        out = out * pivot
        inv = one / pivot
        for i in range(col + 1, len(rows)):
            if rows[i][col].is_zero():
                continue
            f = rows[i][col] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return out if sign > 0 else -out


def _float_entry(rng, tolerance):
    """A float with zero, -0.0, integer or fractional parts."""
    def part():
        roll = rng.random()
        if roll < 0.15:
            return 0.0
        if roll < 0.3:
            return -0.0
        if roll < 0.6:
            return float(rng.randint(-4, 4))
        return rng.uniform(-3, 3)
    return ComplexFloat(part(), part() if rng.random() < 0.5 else 0.0, tolerance)


def _mixed_entry(rng, kinds, tolerance):
    kind = rng.choice(kinds)
    if kind == "float":
        return _float_entry(rng, tolerance)
    q = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.75 else Fraction(0)
    if kind == "rational":
        return rational(q)
    return gaussian(q, rng.randint(-2, 2))


def _row_kinds(rng):
    """Mostly mixed, sometimes all exact or all float, so products meet terms
    of two exact factors, all-exact entries and all-float entries."""
    roll = rng.random()
    if roll < 0.2:
        return ("rational", "gaussian")
    if roll < 0.4:
        return ("float",)
    return ("rational", "gaussian", "float")


def _float_matrix(rng, nrows, ncols, tolerance):
    """An all-float matrix, often singular or nearly so."""
    roll = rng.random()
    if roll < 0.4:
        rows = [[_float_entry(rng, tolerance) for _ in range(ncols)] for _ in range(nrows)]
    else:
        # a low-rank product of small integer factors, exact in floats, so
        # elimination meets exact cancellation; some entries nudged past
        # or below the tolerance
        r = rng.randint(0, min(nrows, ncols))
        b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nrows)]
        c = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(r)]
        rows = []
        for i in range(nrows):
            row = []
            for j in range(ncols):
                x = float(sum(b[i][k] * c[k][j] for k in range(r)))
                if roll > 0.8 and rng.random() < 0.2:
                    x += rng.choice((1e-12, -1e-12, 1e-4)) * rng.random()
                elif not x and rng.random() < 0.3:
                    x = rng.choice((tolerance, -tolerance))  # zero, just
                row.append(ComplexFloat(x if x or rng.random() < 0.5 else -0.0, 0.0, tolerance))
            rows.append(row)
    return Matrix(rows)


class TestFloatKernelsAgainstScalarLoop:
    def test_products_apply_vec_dot(self):
        rng = random.Random(61)
        kernel_entries = 0
        for n in range(1, 9):
            for _ in range(6):
                inner, ncols = rng.randint(1, 8), rng.randint(1, 8)
                tols = (1e-9, 1e-6)
                a = Matrix([[_mixed_entry(rng, kinds, rng.choice(tols)) for _ in range(inner)]
                            for kinds in [_row_kinds(rng) for _ in range(n)]])
                cols = [[_mixed_entry(rng, kinds, rng.choice(tols)) for _ in range(inner)]
                        for kinds in [_row_kinds(rng) for _ in range(ncols)]]
                b = Matrix.from_columns(cols)
                want = [[_loop_dot(r, b.column(j)) for j in range(ncols)] for r in a.rows]
                kernel_entries += sum(type(e) is ComplexFloat for r in want for e in r)
                assert _rows_bits((a * b).rows) == _rows_bits(want)
                for j in range(ncols):
                    col = b.column(j)
                    assert [_bits(e) for e in a.apply(col)] == [_bits(r[j]) for r in want]
                    for i in range(n):
                        assert _bits(vec_dot(a.rows[i], col)) == _bits(want[i][j])
        assert kernel_entries > 500

    def test_det_and_rref(self):
        rng = random.Random(62)
        nullities = set()
        for n in range(1, 9):
            for _ in range(12):
                tolerance = rng.choice((1e-9, 1e-6))
                m = _float_matrix(rng, n, n, tolerance)
                assert _bits(det(m)) == _bits(_loop_det(m))
                for ncols in (n, rng.randint(1, 8)):
                    m = _float_matrix(rng, n, ncols, tolerance)
                    red, pivots = rref(m)
                    want_rows, want_pivots = _loop_rref(m)
                    assert pivots == want_pivots
                    assert _rows_bits(red.rows) == _rows_bits(want_rows)
                    nullities.add(min(n, ncols) - len(pivots))
        # singular and rank-deficient matrices are among the cases
        assert {0, 1, 2, 3} <= nullities

    # 1e-7 is nonzero at its own tolerance 1e-9 but zero at 1e-6
    MIXED_ROW = [ComplexFloat(1e-7, 0.0, 1e-9), ComplexFloat(1.0, 0.0, 1e-6)]

    def test_mixed_tolerances_compare_each_at_its_own(self):
        # det and rref both run the scalar loop, which compares each entry
        # at its own tolerance, so 1e-7 is a pivot at its 1e-9
        m = Matrix([[ComplexFloat(1e-7, 0.0, 1e-9), ComplexFloat(0.0, 0.0, 1e-6)],
                    [ComplexFloat(0.0, 0.0, 1e-6), ComplexFloat(1.0, 0.0, 1e-6)]])
        assert _bits(det(m)) == _bits(_loop_det(m))
        assert det(m).value == 1e-7 and det(m).tolerance == 1e-6
        row = Matrix([self.MIXED_ROW])
        red, pivots = rref(row)
        want_rows, want_pivots = _loop_rref(row)
        assert (pivots, _rows_bits(red.rows)) == (want_pivots, _rows_bits(want_rows))
        assert pivots == (0,)

    def test_rref_pivots_do_not_depend_on_an_exact_entry(self):
        # one rule for every matrix with a float entry, exact entries or not
        floats = rref(Matrix([self.MIXED_ROW]))[1]
        assert floats == rref(Matrix([self.MIXED_ROW + [ZERO]]))[1] == (0,)


# --- differential test of mixed exact kinds ----------------------------------
#
# A matrix that mixes ExactRational and GaussianRational entries runs the
# fraction-free kernel over Z[i] with a kind mask.  The references are the
# scalar loops rref and det ran on such input, _loop_rref and _loop_det
# above: value and kind of every entry must agree, zeros of both kinds
# included.

MIXED_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (3, 5), (4, 4), (5, 3),
                (5, 8), (6, 6), (8, 5), (8, 8), (8, 10)]


def _mixed_exact_matrix(rng, nrows, ncols, r):
    """A rank-r product of factors with some complex rows and columns.  Real
    values take either kind, so zeros come as both; complex ones are Gaussian."""
    b = [[_rand_pair(rng, gaussian_row) for _ in range(r)]
         for gaussian_row in [rng.random() < 0.3 for _ in range(nrows)]]
    c = [[_rand_pair(rng, rng.random() < 0.3) for _ in range(ncols)] for _ in range(r)]
    pairs = [[_pdot(row, [c[k][j] for k in range(r)]) for j in range(ncols)] for row in b]
    return pairs, [[GaussianRational if p[1] or rng.random() < 0.3 else ExactRational
                    for p in row] for row in pairs]


def _mixed_exact_cases(rng):
    """Every rank of every shape, three times; square matrices also with a
    zero corner, which makes elimination swap rows, and with a zero column 0,
    and upper triangular ones whose pivots, the diagonal, are all rational."""
    for nrows, ncols in MIXED_SHAPES:
        for r in range(min(nrows, ncols) + 1):
            for _ in range(3):
                pairs, kinds = _mixed_exact_matrix(rng, nrows, ncols, r)
                yield _matrix(pairs, kinds)
                if nrows == ncols:
                    yield _matrix([[_rand_pair(rng, j > i) if j >= i else PZERO
                                    for j in range(ncols)] for i in range(nrows)],
                                  [[GaussianRational if j > i or (j < i and rng.random() < 0.5)
                                    else ExactRational for j in range(ncols)]
                                   for i in range(nrows)])
                if nrows == ncols > 1:
                    pairs[0][0] = PZERO
                    yield _matrix(pairs, kinds)
                    for row in pairs:
                        row[0] = PZERO
                    yield _matrix(pairs, kinds)


def _loop_kernel(m):
    """nullspace read off the scalar loop's reduced form."""
    rows, pivots = _loop_rref(m)
    basis = []
    for j in (j for j in range(m.ncols) if j not in pivots):
        v = [rational(0)] * m.ncols
        v[j] = rational(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[j]
        basis.append(v)
    return basis


def _loop_solve(m, rhs):
    rows, pivots = _loop_rref(Matrix([row + (b,) for row, b in zip(m.rows, rhs)]))
    if m.ncols in pivots:
        return None
    x = [rational(0)] * m.ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[m.ncols]
    return x


def _loop_inverse(m):
    n = m.nrows
    eye = Matrix.identity(n)
    rows, pivots = _loop_rref(Matrix([m.rows[i] + eye.rows[i] for i in range(n)]))
    return [row[n:] for row in rows] if pivots == tuple(range(n)) else None


class TestMixedExactKindsAgainstScalarLoop:
    def test_elimination(self):
        rng = random.Random(71)
        seen = {"ranks": set(), "swaps": 0, "zero_column": 0, "mixed_rref": 0,
                "det_kinds": set(), "zero_kinds": set(), "rational_mixed_det": 0}
        for m in _mixed_exact_cases(rng):
            n, ncols = m.nrows, m.ncols
            red, pivots = rref(m)
            want_rows, want_pivots = _loop_rref(m)
            assert pivots == want_pivots
            assert _rows_bits(red.rows) == _rows_bits(want_rows)  # padding rows too
            seen["ranks"].add((n, ncols, len(pivots)))
            kinds = {type(e) for row in red.rows for e in row}
            seen["mixed_rref"] += kinds == {ExactRational, GaussianRational}
            seen["zero_kinds"] |= {type(e) for row in red.rows for e in row if e.is_zero()}
            if n == ncols:
                got = det(m)
                assert _bits(got) == _bits(_loop_det(m))
                seen["det_kinds"].add((type(got), got.is_zero()))
                seen["rational_mixed_det"] += (type(got) is ExactRational and GaussianRational
                                               in {type(e) for row in m.rows for e in row})
                zeros = [e.is_zero() for e in m.column(0)]
                seen["swaps"] += zeros[0] and not all(zeros)
                seen["zero_column"] += all(zeros)
                inv, want = inverse(m), _loop_inverse(m)
                assert (inv is None) == (want is None)
                if inv is not None:
                    assert _rows_bits(inv.rows) == _rows_bits(want)
            assert [[_bits(e) for e in v] for v in nullspace(m)] == _rows_bits(_loop_kernel(m))
            rhs = [_to_scalar(_rand_pair(rng, k is GaussianRational), k)
                   for k in rng.choices((ExactRational, GaussianRational), k=n)]
            sums = [_pdot([_pair(e) for e in row], [PONE] * ncols) for row in m.rows]
            consistent = [_to_scalar(p, GaussianRational if p[1] or rng.random() < 0.5
                                     else ExactRational) for p in sums]
            for b in (rhs, consistent):
                x, want = solve(m, b), _loop_solve(m, b)
                assert (x is None) == (want is None)
                if x is not None:
                    assert [_bits(e) for e in x] == [_bits(e) for e in want]
        # every rank of every shape, zeros and results of both kinds
        assert seen["ranks"] >= {(n, c, r) for n, c in MIXED_SHAPES
                                 for r in range(min(n, c) + 1)}
        assert seen["swaps"] > 20 and seen["zero_column"] > 20 and seen["mixed_rref"] > 50
        assert seen["rational_mixed_det"] > 20
        assert seen["zero_kinds"] == {ExactRational, GaussianRational}
        assert seen["det_kinds"] == {(k, z) for k in (ExactRational, GaussianRational)
                                     for z in (False, True)}

    def test_det_with_floats_runs_the_scalar_loop(self):
        # exact entries among floats stay exact and are pivoted on first, as
        # in rref, so det is the scalar loop's bit for bit, an exact value
        # where every pivot and product was exact
        rng = random.Random(72)
        exact_loop_results = 0
        for n in range(1, 7):
            for _ in range(40):
                tols = [rng.choice((1e-9, 1e-6)) for _ in range(n)]
                m = Matrix([[_mixed_entry(rng, ("rational", "gaussian", "float"), t)
                             for _ in range(n)] for t in tols])
                if m.is_exact():
                    continue
                got = det(m)
                assert _bits(got) == _bits(_loop_det(m))
                exact_loop_results += got.is_exact
        assert exact_loop_results > 0


def _form_vectors(rng, count=400):
    """Vectors of mixed rational and Gaussian entries, with zero vectors
    (zeros of both kinds), leading zeros, and Gaussian entries with a zero
    imaginary part or a zero real part, also as the first nonzero entry."""
    for _ in range(count):
        n = rng.randint(1, 8)
        kinds = rng.choice([("rational",), ("gaussian",), ("rational", "gaussian")])
        v = [_mixed_entry(rng, kinds, 1e-9) for _ in range(n)]
        lead = rng.choice((0, 0, 1, n // 2, n))
        v[:lead] = [rng.choice((rational(0), gaussian(0, 0))) for _ in range(lead)]
        if lead < n and rng.random() < 0.3:
            q = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            v[lead] = rng.choice((gaussian(q, 0), gaussian(0, q)))
        yield v


def _loop_first_nonzero(v):
    return next((k for k, e in enumerate(v) if not e.is_zero()), None)


class TestFormOperationsAgainstScalarLoop:
    """The operations other modules call on kept forms, in value and kind
    against the scalar loop they stand for.  ``_residue`` is checked so in
    ``test_projgeom.py`` (``TestIntegerKernelsKeepKinds``), through
    ``Subspace._residue_of``."""

    def test_first_nonzero_and_normalized(self):
        rng = random.Random(91)
        seen = {"zero": 0, "imaginary_pivot": 0, "real_gaussian_pivot": 0}
        for v in _form_vectors(rng):
            form = _cleared(v)
            p = _loop_first_nonzero(v)
            assert _first_nonzero(form) == p
            if p is None:
                seen["zero"] += 1
                assert _normalized(form) is None
                continue
            pivot = v[p]
            want = [e / pivot for e in v]
            got = _normalized(form)
            assert [_bits(e) for e in _scalars(*got)] == [_bits(e) for e in want]
            assert got == _cleared(want)  # reduced: the form _cleared gives
            if type(pivot) is GaussianRational and any(type(e) is ExactRational for e in v):
                seen["imaginary_pivot"] += pivot.re == 0
                seen["real_gaussian_pivot"] += pivot.im == 0
        assert all(n > 20 for n in seen.values()), seen

    def test_transposed(self):
        """The kept rows of the transpose of a matrix with kept rows: each row
        is its own cleared form, reduced, equal to the scalar loop's
        transpose entry by entry and kind by kind."""
        rng = random.Random(93)
        gaussian_rows = 0
        for m in _mixed_exact_cases(rng):
            red, pivots = rref(m)
            vectors = [_cleared(v) for v in (
                (next(_form_vectors(rng, 1)) * m.ncols)[:m.ncols] for _ in range(3))]
            # forms over their own denominators, and their residues modulo
            # the reduced rows
            cases = [vectors, m._cleared_rows()]
            if pivots:
                forms = red._slice(0, len(pivots))._cleared_rows()
                cases.append([_residue(v, forms, pivots) for v in vectors])
            for cols in cases:
                rows = _transposed(cols)
                want = [_scalars(*c) for c in cols]
                for j, row in enumerate(rows):
                    entries = _scalars(*row)
                    assert [_bits(e) for e in entries] == [_bits(col[j]) for col in want]
                    assert row == _cleared(entries)
                    gaussian_rows += row[3] != 0
        assert gaussian_rows > 300

    def test_cancelling(self):
        """The coefficients (b[k], -a[k]), each of the kind of the scalar
        loop's c = -a[k]/b[k], so their combination of a and b has the kinds
        of a + c*b and vanishes at k."""
        rng = random.Random(94)
        seen = set()
        for a in _form_vectors(rng):
            b = [_mixed_entry(rng, ("rational", "gaussian"), 1e-9) for _ in a]
            k = _loop_first_nonzero(b)
            if k is None:
                continue
            c = -a[k] / b[k]
            coeffs = _cancelling(_cleared(a), _cleared(b), k)
            got = _scalars(*coeffs)
            assert got[0] == b[k] and got[1] == -a[k]
            assert [type(e) for e in got] == [type(c)] * 2
            image = _scalars(*_cleared_image([_cleared(a), _cleared(b)], coeffs))
            assert [type(e) for e in image] == [type(x + c * y) for x, y in zip(a, b)]
            assert list(image) == [b[k] * x - a[k] * y for x, y in zip(a, b)]
            assert image[k].is_zero()
            seen.add((type(a[k]), type(b[k])))
        assert len(seen) == 4


class TestCachedClearedForm:
    """Each matrix keeps its rows and its columns cleared (``_cleared``), built
    on first use; products and ``apply`` read them."""

    @staticmethod
    def mixed_matrix(rng, nrows, ncols, kinds=("rational", "gaussian")):
        return Matrix([[_mixed_entry(rng, kinds, 1e-9) for _ in range(ncols)]
                       for _ in range(nrows)])

    def test_cache_equals_cleared(self):
        rng = random.Random(81)
        gaussian_rows = 0
        for m in _mixed_exact_cases(rng):
            rows = m._cleared_rows()
            assert rows == [_cleared(r) for r in m.rows]
            assert m._cleared_columns() == [_cleared(c) for c in zip(*m.rows)]
            assert m._cleared_rows() is rows
            t = m.transpose()
            assert t._cleared_rows() == [_cleared(r) for r in t.rows]
            assert t._cleared_columns() == rows
            gaussian_rows += sum(im is not None for _, im, _, _ in rows)
        assert gaussian_rows > 100

    def test_rref_keeps_its_rows_cleared(self):
        """rref of an exact matrix returns its eliminated rows in their kept
        form, reduced: equal to ``_cleared`` of the rows it makes from them on
        first read, kinds mask included.  Those rows are checked against the
        scalar loop and the pair reference by the elimination tests."""
        rng = random.Random(84)
        cases = [_matrix(pairs, kinds) for kind in (ExactRational, GaussianRational)
                 for pairs, kinds in _differential_cases(rng, kind)
                 if len(pairs) <= 8 and len(pairs[0]) <= 8]
        cases += list(_mixed_exact_cases(rng))
        reduced_dens = 0
        for m in cases:
            red, pivots = rref(m)
            forms = red._row_form  # read before the rows
            assert forms == [_cleared(r) for r in red.rows]
            reduced_dens += any(d > 1 for _, _, d, _ in forms)
        assert reduced_dens > 100

    def test_float_entry_has_no_cleared_form(self):
        rng = random.Random(82)
        for _ in range(50):
            m = self.mixed_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
            rows = [list(r) for r in m.rows]
            rows[i][j] = ComplexFloat(rng.uniform(-2, 2), tolerance=1e-9)
            f = Matrix(rows)
            assert f._cleared_rows() is None and f._cleared_columns() is None
            assert f.transpose()._cleared_rows() is None

    def test_products_and_apply_read_the_cache(self):
        rng = random.Random(83)
        floats = 0
        for _ in range(150):
            kinds = rng.choice([("rational",), ("rational", "gaussian"),
                                ("rational", "gaussian", "float")])
            nrows, inner, ncols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = self.mixed_matrix(rng, nrows, inner, kinds)
            b = self.mixed_matrix(rng, inner, ncols, kinds)
            v = [_mixed_entry(rng, kinds, 1e-9) for _ in range(inner)]
            want = _rows_bits([[_loop_dot(r, c) for c in zip(*b.rows)] for r in a.rows])
            want_apply = [_bits(_loop_dot(r, v)) for r in a.rows]
            want_t = _rows_bits([[_loop_dot(c, r) for r in a.rows] for c in zip(*b.rows)])
            for _ in range(2):  # the second pass reads the kept forms
                assert _rows_bits((a * b).rows) == want
                assert [_bits(e) for e in a.apply(v)] == want_apply
                # transposes start from the forms a and b have kept, swapped
                assert _rows_bits((b.transpose() * a.transpose()).rows) == want_t
            floats += a._cleared_rows() is None
        assert floats > 10

    @staticmethod
    def assert_born_kept(m, want_rows):
        """m has kept rows, read here before its rows: each equals ``_cleared``
        of the row it then makes, kinds mask included, and those rows are
        the scalar loop's, entry by entry and kind by kind."""
        forms = m._row_form
        assert type(forms) is list
        assert _rows_bits(m.rows) == _rows_bits(want_rows)
        assert forms == [_cleared(r) for r in m.rows]

    def test_exact_results_are_born_kept(self):
        """Exact products, and transposes, sums and scalings of matrices with
        kept rows, come as kept rows; ``is_zero`` reads them."""
        rng = random.Random(85)
        seen = {"gaussian_product_rows": 0, "zero_sums": 0}
        for m in _mixed_exact_cases(rng):
            other = self.mixed_matrix(rng, m.ncols, rng.randint(1, 6))
            same = self.mixed_matrix(rng, m.nrows, m.ncols)
            c = _mixed_entry(rng, ("rational", "gaussian"), 1e-9)
            product = m * other
            self.assert_born_kept(product, [[_loop_dot(r, col) for col in zip(*other.rows)]
                                            for r in m.rows])
            seen["gaussian_product_rows"] += sum(k != 0 for _, _, _, k in product._row_form)

            def kept(x):  # a copy of x born from its kept rows, with no Scalar row
                return Matrix._of_cleared(x._cleared_rows())

            self.assert_born_kept(kept(m).transpose(), list(zip(*m.rows)))
            sums = [[a + b for a, b in zip(r, s)] for r, s in zip(m.rows, same.rows)]
            self.assert_born_kept(kept(m) + kept(same), sums)
            self.assert_born_kept(m + same, sums)  # exact rows of Scalars too
            self.assert_born_kept(kept(m).scale(c), [[c * a for a in r] for r in m.rows])
            for x in (kept(m), kept(m) + kept(m).scale(-1)):
                assert x.is_zero() == all(e.is_zero() for r in x.rows for e in r)
            seen["zero_sums"] += (kept(m) + kept(m).scale(-1)).is_zero()
        assert seen["gaussian_product_rows"] > 300 and seen["zero_sums"] > 300, seen

    def test_is_symmetric_is_the_entrywise_comparison(self):
        """On exact, kept and float matrices alike, ``is_symmetric`` is the
        scalars' own comparison of each entry with its mirror."""
        rng = random.Random(87)
        seen = set()
        for _ in range(200):
            kinds = rng.choice([("rational", "gaussian"), ("rational", "gaussian", "float")])
            n = rng.randint(1, 5)
            m = self.mixed_matrix(rng, n, n, kinds)
            rows = [list(r) for r in (m + m.transpose()).rows]
            if n > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(n), 2)
                rows[i][j] = _mixed_entry(rng, kinds, 1e-9)
            for x in (Matrix._of(rows), Matrix._of(rows) * Matrix.identity(n)):
                want = all(x.rows[i][j] == x.rows[j][i] for i in range(n) for j in range(n))
                assert x.is_symmetric() == want
                seen.add((want, x.is_exact()))
        assert not Matrix([[1, 0]]).is_symmetric()
        assert len(seen) == 4, seen

    def test_exact_product_makes_no_scalar_row_until_read(self):
        """An exact a * b, and what its kept rows are read by here, make no
        Scalar row; the rows are made when ``rows`` is first read."""
        rng = random.Random(86)
        slot = Matrix.__dict__["rows"]
        for _ in range(30):
            a, b = self.mixed_matrix(rng, 4, 3), self.mixed_matrix(rng, 3, 4)
            p = a * b
            p.transpose(), p + p, p.scale(2), p.is_zero(), p.is_symmetric(), p.is_exact()
            assert p == p and p[1, 2] == _loop_dot(a.rows[1], b.column(2))
            with pytest.raises(AttributeError):
                slot.__get__(p, Matrix)
            assert _rows_bits(p.rows) == _rows_bits(
                [[_loop_dot(r, col) for col in zip(*b.rows)] for r in a.rows])
            assert slot.__get__(p, Matrix) is p.rows

    def test_public_constructor_refuses_raw_floats(self):
        with pytest.raises(TypeError):
            Matrix([[1, 2.5], [0, 1]])
        with pytest.raises(TypeError):
            Matrix([[complex(1, 1)]])


class TestKindReaderAndWriter:
    """``_kinds`` reads the Gaussian positions of a vector into ``_cleared``'s
    kinds mask, and ``_scalars`` writes a cleared form back as scalars,
    undoing ``_cleared``."""

    @staticmethod
    def mixed_vector(rng, n):
        """Rational and Gaussian entries, zeros of both kinds and Gaussian
        entries with a zero imaginary part."""
        def entry():
            q = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.7 else 0
            if rng.random() < 0.5:
                return rational(q)
            return gaussian(q, rng.choice((0, 0, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))))
        return tuple(entry() for _ in range(n))

    def test_kinds_marks_gaussian_positions(self):
        u = (ZERO, gaussian(0, 0), rational(3), gaussian(2, 0), gaussian(0, 1))
        assert _kinds(u) == 0b11010
        assert _kinds(u[:1] + u[2:3]) == 0

    def test_round_trip_keeps_value_kind_and_shared_zeros(self):
        rng = random.Random(91)
        seen, gaussian_zeros = set(), set()
        for _ in range(300):
            u = self.mixed_vector(rng, rng.randint(1, 8))
            got = _scalars(*_cleared(u))
            assert [_bits(e) for e in got] == [_bits(e) for e in u]
            zeros = [e for e in got if e.is_zero()]
            assert all(z is ZERO for z in zeros if type(z) is ExactRational)
            gaussian_zeros.update(id(z) for z in zeros if type(z) is GaussianRational)
            seen.update((type(e), e.is_zero()) for e in u)
        assert len(seen) == 4 and len(gaussian_zeros) == 1

    def test_mask_alone_sets_the_kind(self):
        """im None stands for zero imaginary parts; the mask decides each kind."""
        assert [_bits(e) for e in _scalars([0, 2, -4], None, 4, 0b101)] == [
            ("gaussian", 0, 0), ("rational", Fraction(1, 2)), ("gaussian", -1, 0)]
        assert [_bits(e) for e in _scalars([3, 0], [1, 0], 6, 0b11)] == [
            ("gaussian", Fraction(1, 2), Fraction(1, 6)), ("gaussian", 0, 0)]
