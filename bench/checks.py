"""Checks of every output against its known answer.

A checker takes the deck item and what the operation returned (the
result, or the ``DqkinError`` it raised) and returns ``OK``, ``FAILED``
for the one known fault the benchmark keeps (a non-unit dyad declared
``NotADyadSpace``), or a string that says what is wrong.  All geometry
is recomputed with ``exact.py``; nothing here calls dqkin.
"""

import json
import re
from fractions import Fraction

import exact as X

OK = None
FAILED = "failed"


def _rows(sub):
    return [X.vec(r) for r in sub.basis.rows]


def _lines_on_both_forms(lines):
    for line in lines:
        a, b = line
        if not (X.line_on_form(X.study_form, a, b) and X.line_on_form(X.null_form, a, b)):
            return "a null line is off the Study quadric or the null cone"
    return OK


def classify(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    verdict = res.verdict.value
    if item.kind == "classify_nonunit" and verdict == "NotADyadSpace":
        return FAILED
    if verdict != item.expect:
        return "verdict %s, expected %s" % (verdict, item.expect)
    if verdict == "C":
        e1 = _rows(res.evidence["e1"])
        if any(not X.is_zero(c) for row in e1 for c in row[:4]):
            return "C evidence line e1 leaves the exceptional generator"
        return OK
    lines = [_rows(l) for l in res.evidence["null_lines"]]
    if len(lines) != (4 if verdict == "TwoR" else 3):
        return "%d null lines for %s" % (len(lines), verdict)
    if verdict == "TwoR" and res.evidence["quadrilateral"] is None:
        return "TwoR without a null quadrilateral"
    return _lines_on_both_forms(lines)


def _report(res):
    return (res.pencil_fixed, res.shape_ok, res.rulings_preserved)


def verify(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    got = _report(res)
    return OK if got == item.expect else "report %s, expected %s" % (got, item.expect)


def factor(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    left, right = res
    l, r = item.expect
    if not X.same_point(X.vec(left.coords()), l):
        return "left factor does not match the construction"
    if not X.same_point(X.vec(right.coords()), r):
        return "right factor does not match the construction"
    return OK


def run_cycle(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    start, centers, spaces = item.expect
    pts = [X.vec(p.coords) for p in res]
    if len(pts) != 4 or not X.same_point(pts[3], start):
        return "cycle does not close"
    prev = start
    for p, center, space in zip(pts, centers, spaces):
        # the target spaces are 4-spaces (5 independent rows) by construction
        if X.rank(list(space) + [p]) != len(space):
            return "projection left its target space"
        if X.rank([prev, center, p]) != 2:
            return "projection is not through its centre"
        prev = p
    return OK


def _quadrilateral(points, hidden, gram):
    if len(points) != 4:
        return "%d vertices" % len(points)
    for p, h in zip(points, hidden):
        if not X.same_point(p, h):
            return "vertex differs from the hidden quadrilateral"
        if not X.is_zero(X.gram_form(gram, p, p)):
            return "vertex off the quadric"
    for i in range(4):
        if not X.is_zero(X.gram_form(gram, points[i], points[(i + 1) % 4])):
            return "side joins non-conjugate vertices"
    return OK


def reconstruct(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    hidden, gram = item.expect
    return _quadrilateral([X.vec(p.coords) for p in res], hidden, gram)


def _eval_motion(coefficients, t):
    out = coefficients[0]
    for c in coefficients[1:]:
        out = X.add_vec(tuple(X.mul(v, t) for v in out), c)
    return out


def _horner(coeffs_ascending, t):
    out = X.Z
    for c in reversed(coeffs_ascending):
        out = X.add(X.mul(out, t), c)
    return out


SAMPLE_T = (0, 1, 2, -1)


def _path_matches(coefficients, x, point_at, ts):
    for t in ts:
        want = X.act(_eval_motion(coefficients, X.pair(t)), x)
        if not X.same_point(point_at(t), want):
            return False
    return True


def trajectory(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    degree, motion, x = item.expect
    if res.degree != degree:
        return "trajectory degree %d, expected %d" % (res.degree, degree)
    comps = [X.vec(p.coeffs) for p in res.components]
    coeffs = [X.vec(c.coords()) for c in motion.coefficients]
    at = lambda t: tuple(_horner(c, X.pair(t)) for c in comps)
    if not _path_matches(coeffs, x, at, SAMPLE_T):
        return "trajectory is not the path of the point"
    return OK


def _invariants(a, b, c, mirror, p, ds, fs, handedness, vertical, mirrored):
    p_want = X.vec((-b, a, 0, c))
    if tuple(p) != p_want:
        return "p differs from (-b, a, 0, c)"
    if vertical or mirrored != mirror:
        return "wrong vertical or mirrored flag"
    if handedness != ("RightRuling" if mirror else "LeftRuling"):
        return "handedness %s" % handedness
    for d, f in zip(ds, fs):
        if any(not X.is_zero(v) for v in d[:4] + f[:4]):
            return "curve or fiber point off the exceptional generator"
        if not (X.is_zero(X.dot(d[4:], d[4:])) and X.is_zero(X.dot(f[4:], f[4:]))):
            return "curve or fiber point off Y"
        related = X.qmul(f[4:], X.qconj(p)) if mirror else X.qmul(p, f[4:])
        if not X.same_point(d[4:], related):
            return "d is not p*f" if not mirror else "d is not f*conj(p)"
    return OK


def invariants(item, res):
    if isinstance(res, Exception):
        return "raised %s" % res
    a, b, c, mirror = item.expect
    hand = res.handedness.value if res.handedness is not None else None
    return _invariants(a, b, c, mirror, X.vec(res.p.coords()),
                       [X.vec(d.coords) for d in res.d], [X.vec(f.coords) for f in res.f],
                       hand, res.vertical, res.mirrored)


# --- cli -----------------------------------------------------------------

_GAUSS = re.compile(r"([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)\*i\Z")


def scalar(text):
    """A dqkin JSON scalar ("a/b" or "a/b+c/d*i") as a Gaussian pair."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError("not an exact scalar: %r" % (text,))
    m = _GAUSS.match(text) if isinstance(text, str) else None
    if m:
        return (Fraction(m.group(1)), Fraction(m.group(2)))
    return (Fraction(text), X.F0)


def _point(doc):
    return tuple(scalar(v) for v in doc["primal"] + doc["dual"])


def cli(item, res):
    """res is (exit code, stdout, stderr, first stdout for the same argv)."""
    code, out, err, first = res
    if code != 0:
        return "exit code %d: %s" % (code, err.decode(errors="replace").strip())
    if out != first:
        return "stdout differs across repeats"
    name = item.kind
    if name == "trace":
        return _cli_trace(item, out.decode(), err.decode())
    doc = json.loads(out)
    if name == "classify":
        if doc["verdict"] != item.expect:
            return "verdict %s" % doc["verdict"]
        lines = [[_point(p) for p in l] for l in doc["evidence"]["null_lines"]]
        if len(lines) != 4:
            return "%d null lines" % len(lines)
        return _lines_on_both_forms(lines)
    if name == "dyad":
        space = [_point(p) for p in doc["space"]]
        if doc["kind"] != "RP" or X.rank(space) != 4:
            return "dyad space is not an RP three-space"
        if not all(X.in_span(space, p) for p in item.expect):
            return "dyad space misses a construction point"
        return OK
    if name == "verify-transform":
        got = (doc["pencil_fixed"], doc["shape_ok"], doc["rulings_preserved"])
        return OK if got == item.expect and doc["overall"] else "report %s" % (got,)
    if name == "factor-transform":
        l, r = item.expect
        if not (X.same_point(_point(doc["left"]), l) and X.same_point(_point(doc["right"]), r)):
            return "factors do not match the construction"
        return OK
    if name == "darboux":
        a, b, c, mirror = item.expect
        return _invariants(a, b, c, mirror, tuple(scalar(v) for v in doc["p"]),
                           [_point(d) for d in doc["d"]], [_point(f) for f in doc["f"]],
                           doc["handedness"], doc["vertical"], doc["mirrored"])
    if name == "reconstruct":
        hidden, gram = item.expect
        return _quadrilateral([_point(v) for v in doc["vertices"]], hidden, gram)
    if name == "example2":
        want = {"null_line_in_exceptional", "conjugate_pair_off_exceptional",
                "quadric_not_contained", "substituted_span_contains", "samples_on_study"}
        if set(doc) != want or not all(v is True for v in doc.values()):
            return "example2 checks %s" % doc
        return OK
    return "unknown subcommand %s" % name


def _cli_trace(item, out, err):
    degree, coefficients, x = item.expect
    if err.strip() != "trajectory degree: %d" % degree:
        return "stderr %r" % err.strip()
    lines = out.splitlines()
    if lines[0] != "t,x0,x1,x2,x3" or len(lines) < 2:
        return "bad CSV header"
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[int(cells[0])] = tuple(scalar(c) for c in cells[1:])
    if not _path_matches(coefficients, x, lambda t: rows[t], sorted(rows)):
        return "CSV rows are not the path of the point"
    return OK


CHECKERS = {
    "classify_2r": classify, "classify_rp": classify, "classify_pr": classify,
    "classify_chi": classify, "classify_c": classify, "classify_nonunit": classify,
    "verify": verify, "verify_float": verify, "verify_chi": verify,
    "factor": factor,
    "run_cycle": run_cycle, "reconstruct": reconstruct, "reconstruct_ebasis": reconstruct,
    "trajectory_darboux": trajectory, "trajectory_mannheim": trajectory,
    "invariants": invariants,
}


def check(item, res):
    return CHECKERS[item.kind](item, res)
