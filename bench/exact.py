"""Exact arithmetic for the benchmark's own checks, independent of dqkin.

Every value is a Gaussian pair ``(re, im)`` of Fractions; rationals have
``im == 0``.  Quaternion products, the Study and null-cone forms, ranks
and projective equality are written out here, so a check never relies
on the code it checks.
"""

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)
Z = (F0, F0)
ONE = (F1, F0)


def pair(x):
    """A Fraction, int or dqkin exact scalar as a Gaussian pair."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, (int, Fraction)):
        return (Fraction(x), F0)
    im = getattr(x, "im", None)
    if im is not None:
        return (x.re, im)
    value = getattr(x, "value", None)
    if not isinstance(value, Fraction):
        raise TypeError("not an exact scalar: %r" % (x,))
    return (value, F0)


def vec(xs):
    return tuple(pair(x) for x in xs)


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def neg(a):
    return (-a[0], -a[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def is_zero(a):
    return a[0] == 0 and a[1] == 0


def dot(u, v):
    out = Z
    for a, b in zip(u, v):
        out = add(out, mul(a, b))
    return out


def combo(coeffs, rows):
    """sum_k coeffs[k] * rows[k]."""
    out = [Z] * len(rows[0])
    for c, row in zip(coeffs, rows):
        c = pair(c)
        out = [add(o, mul(c, r)) for o, r in zip(out, row)]
    return tuple(out)


# --- quaternions (w, x, y, z) and dual quaternions (primal, dual) -------

def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        sub(sub(sub(mul(aw, bw), mul(ax, bx)), mul(ay, by)), mul(az, bz)),
        sub(add(add(mul(aw, bx), mul(ax, bw)), mul(ay, bz)), mul(az, by)),
        add(add(sub(mul(aw, by), mul(ax, bz)), mul(ay, bw)), mul(az, bx)),
        add(sub(add(mul(aw, bz), mul(ax, by)), mul(ay, bx)), mul(az, bw)),
    )


def qconj(a):
    return (a[0], neg(a[1]), neg(a[2]), neg(a[3]))


def dqmul(a, b):
    """(p + eps d)(p' + eps d') = pp' + eps(pd' + dp') on 8-tuples."""
    p, d, p2, d2 = a[:4], a[4:], b[:4], b[4:]
    dual = tuple(add(x, y) for x, y in zip(qmul(p, d2), qmul(d, p2)))
    return qmul(p, p2) + dual


def dqconj(a):
    return qconj(a[:4]) + qconj(a[4:])


def eps(q):
    """The purely dual element eps*q."""
    return (Z,) * 4 + tuple(q)


def act(q, x):
    """Displace the point x = [w, x, y, z] of P^3 by the dual quaternion q."""
    w, px, py, pz = x
    embedded = (w, Z, Z, Z, Z, px, py, pz)
    q_act = qconj(q[:4]) + tuple(neg(c) for c in qconj(q[4:]))
    y = dqmul(dqmul(q, embedded), q_act)
    return (y[0], y[5], y[6], y[7])


# --- the two quadrics of the absolute pencil, as bilinear forms ---------

def study_form(x, y):
    """Polar form of the Study quadric: Gram [[0, I], [I, 0]]."""
    out = Z
    for k in range(4):
        out = add(out, add(mul(x[k], y[k + 4]), mul(x[k + 4], y[k])))
    return out


def null_form(x, y):
    """Polar form of the null cone: Gram [[I, 0], [0, 0]]."""
    return dot(x[:4], y[:4])


def line_on_form(form, a, b):
    return all(is_zero(v) for v in (form(a, a), form(b, b), form(a, b)))


def gram_form(gram, x, y):
    out = Z
    for xi, row in zip(x, gram):
        out = add(out, mul(xi, dot(row, y)))
    return out


# --- linear algebra over Q(i) -------------------------------------------

def rank(rows):
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = div(ONE, rows[r][col])
        rows[r] = [mul(inv, e) for e in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if not is_zero(f):
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def add_vec(u, v):
    return tuple(add(a, b) for a, b in zip(u, v))


def matmul(a, b):
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def inverse(rows):
    """Inverse of a regular square matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else Z for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if not is_zero(aug[i][col]))
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = div(ONE, aug[col][col])
        aug[col] = [mul(inv, e) for e in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and not is_zero(f):
                aug[i] = [sub(a, mul(f, b)) for a, b in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def in_span(rows, p):
    return rank(list(rows) + [p]) == rank(rows)


def same_point(u, v):
    """Whether two nonzero vectors are proportional (projectively equal)."""
    if len(u) != len(v):
        return False
    i = next((k for k, a in enumerate(u) if not is_zero(a)), None)
    if i is None or is_zero(v[i]):
        return False
    return all(mul(a, v[i]) == mul(b, u[i]) for a, b in zip(u, v))
