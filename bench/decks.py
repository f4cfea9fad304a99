"""Seeded inputs of the four workloads.

A deck is a list of ``Item``s drawn once from ``random.Random(seed)``.
One pass runs every item once, in deck order, so every pass does the
same work.  The answer an item must produce is known by construction
and stored in ``expect``; ``checks.py`` compares against it.

Coefficients are fractions n/d with |n| <= 5 and 1 <= d <= 3 (the
height of the test-suite generators).  ``SIZES`` fixes how many items
of each kind a deck holds; the tests pass smaller sizes.
"""

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import exact as X

# The shares of the kinds in each deck are those of the acceptance suite
# (tests/test_acceptance.py), the end-to-end traffic the project names:
# criterion 2 classifies RR, RP, PR and C dyads 1:1:1:1 with a chi image
# of every RP span; criterion 4 verifies and factors each transform once
# and verifies chi once (the float copy, one per transform, is the float
# tier's share); criteria 7, 8, 1 and 9 run 1000 cycles, 40
# reconstructions, 100 trajectories and 20 invariants, 50:2:5:1.
SIZES = {
    # per pass: this many RR, RP, PR and C spans, a chi image per RP span,
    # and the three fixed non-unit dyads
    "dyads": {"per_kind": 12},
    # Study pairs; each transform is verified, factored and verified as
    # floats, and chi is verified once
    "frames": {"transforms": 12},
    # cycles x starts run_cycle calls, problems x 2 reconstructions,
    # motions x points x 2 trajectories (Darboux and Mannheim) and
    # motions x 2 invariants: 200:8:20:4
    "cycles": {"cycles": 10, "starts": 20, "problems": 4, "motions": 2, "points": 5},
}


@dataclass
class Item:
    kind: str
    args: tuple
    expect: object


def frac(rng, nonzero=False):
    while True:
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if f or not nonzero:
            return f


def _re(v):
    assert all(c[1] == 0 for c in v)
    return tuple(c[0] for c in v)


def _quat(rng):
    while True:
        q = X.vec(frac(rng) for _ in range(4))
        if any(not X.is_zero(c) for c in q):
            return q


def _pure(rng):
    while True:
        q = X.vec([0] + [frac(rng) for _ in range(3)])
        if any(not X.is_zero(c) for c in q):
            return q


def unit_pure(rng):
    """Rational pure quaternion of unit norm, q k conj(q) / |q|^2."""
    q = _quat(rng)
    n = X.dot(q, q)
    u = X.qmul(X.qmul(q, X.vec((0, 0, 0, 1))), X.qconj(q))
    return tuple(X.div(c, n) for c in u)


def half_turn(rng, u=None):
    """Half-turn about a rational line with unit direction u."""
    u = u if u is not None else unit_pure(rng)
    w = _pure(rng)
    uw, wu = X.qmul(u, w), X.qmul(w, u)
    moment = tuple(X.mul(X.sub(a, b), X.pair(Fraction(1, 2))) for a, b in zip(uw, wu))
    return tuple(u) + (X.Z,) + moment[1:]


def _commute(a, b):
    return X.qmul(a, b) == X.qmul(b, a)


ONE8 = X.vec((1, 0, 0, 0, 0, 0, 0, 0))


def dyad_points(kind, h1, h2):
    """The four construction points of a dyad span, as 8-tuples of pairs."""
    if kind == "RR":
        return [ONE8, h1, h2, X.dqmul(h1, h2)]
    p = h2[4:]
    u = h1[:4]
    fourth = X.qmul(p, u) if kind == "PR" else X.qmul(u, p)
    return [ONE8, h1, X.eps(p), X.eps(fourth)]


def dyad_joints(rng, kind):
    """Joint data (h1, h2) of a random dyad of the given kind."""
    while True:
        if kind == "RR":
            h1, h2 = half_turn(rng), half_turn(rng)
            skew = not X.is_zero(X.dqmul(h1, h2)[4])
            if skew and not _commute(h1[:4], h2[:4]):
                return h1, h2
            continue
        if kind == "C":
            u = unit_pure(rng)
            lam = X.pair(frac(rng, nonzero=True))
            return half_turn(rng, u), X.eps(tuple(X.mul(lam, c) for c in u))
        h, p = half_turn(rng), _pure(rng)
        if _commute(h[:4], p) or X.is_zero(X.dot(h[:4], p)):
            continue
        return h, X.eps(p)


# Dyads whose axis direction has irrational length (normalized=False):
# fixed, so the share of these operations is the same for every seed.
NONUNIT = (
    ("RR", (0, 1, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, -1, 0)),
    ("RP", (0, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 1)),
    ("PR", (0, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 1)),
)

VERDICT = {"RR": "TwoR", "RP": "RP", "PR": "PR", "C": "C"}


def _span(dq, points):
    return dq.projgeom.span([dq.projgeom.ProjPoint(_re(p)) for p in points])


def dyads(dq, seed, sizes=None):
    sizes = sizes or SIZES["dyads"]
    rng = random.Random(seed)
    deck = []
    for kind, op in (("RR", "classify_2r"), ("RP", "classify_rp"),
                     ("PR", "classify_pr"), ("C", "classify_c")):
        for _ in range(sizes["per_kind"]):
            pts = dyad_points(kind, *dyad_joints(rng, kind))
            assert X.rank(pts) == 4
            deck.append(Item(op, (_span(dq, pts),), VERDICT[kind]))
            if kind == "RP":
                # chi (quaternion conjugation) swaps the rulings: RP -> PR
                chi = [X.dqconj(p) for p in pts]
                deck.append(Item("classify_chi", (_span(dq, chi),), "PR"))
    for kind, h1, h2 in NONUNIT:
        pts = dyad_points(kind, X.vec(h1), X.vec(h2))
        deck.append(Item("classify_nonunit", (_span(dq, pts),), VERDICT[kind]))
    random.Random(seed + 1).shuffle(deck)
    return deck


# --- frames --------------------------------------------------------------

def study_dq(rng):
    """Random rational dual quaternion on the Study quadric, primal != 0."""
    p = _quat(rng)
    d0 = _quat(rng)
    lam = X.div(X.dot(p, d0), X.dot(p, p))
    d = tuple(X.sub(a, X.mul(lam, b)) for a, b in zip(d0, p))
    return p + d


def transform_rows(l, r):
    """Rows of the 8x8 matrix of x -> l x r, column j = l e_j r."""
    cols = []
    for j in range(8):
        e = tuple(X.ONE if k == j else X.Z for k in range(8))
        cols.append(X.dqmul(X.dqmul(l, e), r))
    return [[_re(cols[j])[i] for j in range(8)] for i in range(8)]


CHI_DIAG = (1, -1, -1, -1, 1, -1, -1, -1)


def chi_rows():
    return [[CHI_DIAG[i] if i == j else 0 for j in range(8)] for i in range(8)]


def frames(dq, seed, sizes=None):
    sizes = sizes or SIZES["frames"]
    rng = random.Random(seed)
    Matrix, ComplexFloat = dq.linalg.Matrix, dq.scalars.ComplexFloat
    deck = []
    for _ in range(sizes["transforms"]):
        l, r = study_dq(rng), study_dq(rng)
        rows = transform_rows(l, r)
        m = Matrix(rows)
        floats = Matrix([[ComplexFloat(float(e)) for e in row] for row in rows])
        deck.append(Item("verify", (m,), (True, True, True)))
        deck.append(Item("factor", (m,), (l, r)))
        deck.append(Item("verify_float", (floats,), (True, True, True)))
    chi = Matrix(chi_rows())
    deck.append(Item("verify_chi", (chi,), (True, True, False)))
    random.Random(seed + 1).shuffle(deck)
    return deck


# --- cycles --------------------------------------------------------------

def _frame(rng):
    while True:
        rows = [X.vec(frac(rng) for _ in range(8)) for _ in range(8)]
        if X.rank(rows) == 8:
            return rows


def cycle_data(rng):
    """Fixed space e, image points and centres of a random closing cycle."""
    rows = _frame(rng)
    e = rows[4:]
    ecomb = lambda: X.combo([frac(rng) for _ in range(4)], e)
    alpha, beta, gamma = (frac(rng, nonzero=True) for _ in range(3))
    m1 = X.combo((1, alpha, 1), (rows[0], rows[1], ecomb()))
    n1 = X.combo((1, beta, 1), (rows[1], rows[2], ecomb()))
    m2 = X.combo((1, gamma, 1), (rows[2], rows[3], ecomb()))
    n2 = X.combo((1, -alpha, alpha * beta), (m1, n1, m2))
    return rows, e, rows[:4], (m1, n1, m2, n2)


def forward_problem(rng):
    """A quadric and cycle built around a hidden quadrilateral (frame rows 0-3).

    In the frame basis the Gram matrix is [[A, B], [B^T, 0]] with A zero on
    the four side pairs, so every side joins conjugate vertices and the
    centres on the sides lie on the quadric.
    """
    while True:
        rows = _frame(rng)
        b = [X.vec(frac(rng) for _ in range(4)) for _ in range(4)]
        if X.rank(b) == 4:
            break
    s, t = X.pair(frac(rng)), X.pair(frac(rng))
    z = X.Z
    a = [(z, z, s, z), (z, z, z, t), (s, z, z, z), (z, t, z, z)]
    gram_frame = [list(a[i]) + list(b[i]) for i in range(4)]
    gram_frame += [[b[j][i] for j in range(4)] + [z] * 4 for i in range(4)]
    alpha, beta, gamma = (frac(rng, nonzero=True) for _ in range(3))
    centers = (X.combo((1, alpha), rows[0:2]), X.combo((1, beta), rows[1:3]),
               X.combo((1, gamma), rows[2:4]),
               X.combo((1, alpha * beta * gamma), (rows[0], rows[3])))
    f_points = tuple(X.add_vec(rows[i], X.combo([frac(rng) for _ in range(4)], rows[4:]))
                     for i in range(4))
    return rows, gram_frame, centers, f_points


def omega_gram(rows, gram_frame):
    """Gram matrix in standard coordinates: inv(F) G_frame inv(F)^T."""
    inv = X.inverse(rows)
    left = X.matmul(inv, gram_frame)
    return X.matmul(left, [list(r) for r in zip(*inv)])


E_MIX = ((1, 1, 0, 0), (0, 1, 2, 0), (0, 0, 1, -1), (3, 0, 0, 1))


def cycles(dq, seed, sizes=None):
    sizes = sizes or SIZES["cycles"]
    rng = random.Random(seed)
    pg, qr = dq.projgeom, dq.quadrecon
    P = lambda v: pg.ProjPoint(_re(v))
    deck = []
    for _ in range(sizes["cycles"]):
        rows, e, f_points, centers = cycle_data(rng)
        cycle = qr.ProjectionCycle(pg.span([P(v) for v in e]),
                                   tuple(P(v) for v in f_points),
                                   tuple(P(v) for v in centers))
        for _ in range(sizes["starts"]):
            start = X.combo([frac(rng, nonzero=True)] + [frac(rng) for _ in range(4)],
                            [rows[0]] + e)
            spaces = [list(e) + [f] for f in f_points[1:] + f_points[:1]]
            deck.append(Item("run_cycle", (cycle, P(start)), (start, centers, spaces)))
    for _ in range(sizes["problems"]):
        rows, gram_frame, centers, f_points = forward_problem(rng)
        gram = omega_gram(rows, gram_frame)
        omega = dq.quadrics.QuadricForm(dq.linalg.Matrix([_re(r) for r in gram]), "forward")
        cycle = qr.ProjectionCycle(pg.span([P(v) for v in rows[4:]]),
                                   tuple(P(v) for v in f_points),
                                   tuple(P(v) for v in centers))
        problem = qr.ReconstructionProblem(omega, cycle)
        expect = (rows[:4], gram)
        deck.append(Item("reconstruct", (problem, None), expect))
        mixed = [P(X.combo(c, rows[4:])) for c in E_MIX]
        deck.append(Item("reconstruct_ebasis", (problem, mixed), expect))
    mo = dq.motions
    for _ in range(sizes["motions"]):
        a, b, c = frac(rng, nonzero=True), frac(rng), frac(rng)
        dar, man = mo.darboux(a, b, c), mo.mannheim(a, b, c)
        for _ in range(sizes["points"]):
            x = X.vec([1] + [frac(rng) for _ in range(3)])
            px = pg.ProjPoint(_re(x))
            deck.append(Item("trajectory_darboux", (dar, px), (2, dar, x)))
            deck.append(Item("trajectory_mannheim", (man, px), (4, man, x)))
        deck.append(Item("invariants", ((a, b, c), False), (a, b, c, False)))
        deck.append(Item("invariants", ((a, b, c), True), (a, b, c, True)))
    random.Random(seed + 1).shuffle(deck)
    return deck


# --- cli -----------------------------------------------------------------

def _s(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _dq_json(v):
    v = _re(v)
    return {"primal": [_s(c) for c in v[:4]], "dual": [_s(c) for c in v[4:]]}


def darboux_coefficients(a, b, c):
    """Darboux motion C3 t^3 + C2 t^2 + C1 t + C0, highest degree first."""
    return [X.vec((0, 0, 0, 1, c, 0, 0, 0)), X.vec((1, 0, 0, 0, b, -a, 0, -c)),
            X.vec((0, 0, 0, 1, 0, 0, -a, -b)), X.vec((1, 0, 0, 0, 0, 0, 0, 0))]


LIGHT = ("darboux", "dyad", "trace", "example2")
SAMPLES = 6


# The cli input files are the same for every seed: with one invocation of
# each subcommand per pass, inputs drawn per seed would make each median
# the cost of one random input.  The seed orders the script.
CLI_INPUT_SEED = 0


def cli(seed, workdir):
    """Write the input files of the cli script; return the script as items.

    Each item's args are the argv after ``python -m dqkin.cli``.
    """
    rng = random.Random(CLI_INPUT_SEED)

    def put(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    rr = dyad_points("RR", *dyad_joints(rng, "RR"))
    h, eps_p = dyad_joints(rng, "RP")
    rp = dyad_points("RP", h, eps_p)
    l, r = study_dq(rng), study_dq(rng)
    rows = transform_rows(l, r)
    a, b, c = frac(rng, nonzero=True), frac(rng), frac(rng)
    x = X.vec([1] + [frac(rng) for _ in range(3)])
    frame, gram_frame, centers, f_points = forward_problem(rng)
    gram = omega_gram(frame, gram_frame)

    matrix = put("matrix.json", [[_s(e) for e in row] for row in rows])
    script = [
        Item("classify", ("classify", put("points.json", [_dq_json(p) for p in rr])),
             "TwoR"),
        Item("dyad", ("dyad", "--kind", "RP",
                      put("joints.json", {"h1": _dq_json(h), "h2": _dq_json(eps_p)})),
             rp),
        Item("verify-transform", ("verify-transform", matrix), (True, True, True)),
        Item("factor-transform", ("factor-transform", matrix), (l, r)),
        Item("trace", ("trace", "--samples", str(SAMPLES),
                       put("motion.json", {"coefficients": [_dq_json(q) for q in
                                                            darboux_coefficients(a, b, c)],
                                           "point": [_s(v[0]) for v in x]})),
             (2, darboux_coefficients(a, b, c), x)),
        Item("darboux", ("darboux", "--a=" + _s(a), "--b=" + _s(b), "--c=" + _s(c)),
             (a, b, c, False)),
        Item("reconstruct", ("reconstruct", put("problem.json", {
            "quadric": [[_s(e[0]) for e in row] for row in gram],
            "e": [_dq_json(v) for v in frame[4:]],
            "f_points": [_dq_json(v) for v in f_points],
            "centers": [_dq_json(v) for v in centers]})),
             (frame[:4], gram)),
        Item("example2", ("example2",), None),
    ]
    random.Random(seed).shuffle(script)
    return script
