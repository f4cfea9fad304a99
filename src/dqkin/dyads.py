"""Constraint varieties of two-joint chains and their classification.

A dyad is a serial pair of one-parameter joints: revolute-revolute,
revolute-prismatic, prismatic-revolute, or the coaxial (cylindrical)
pair.  The displacements it can reach sweep a quadric surface in the
displacement model whose projective span is a three-space.  This module
constructs those spans from joint data, classifies an arbitrary real
three-space by joint type, and recovers the joints from a span.

The classifier works on canonical (RREF) bases and reads what they
already show instead of reducing again: a conjugation-closed space has
a real canonical basis, so its real form is that basis with rational
entries, and the conjugate of a line's canonical basis is the canonical
basis of the conjugate line.

The null lines are found in the 4-coordinate chart of the space
(``quadrics.common_lines`` on the restricted forms), and an RR span's
quadrilateral among those chart lines (``null_quadrilateral``, so every
meet it takes is on 4-vectors).  Only then are the lines and
the four vertices lifted to P^7.  A lift is linear and injective, so
incidence, meets and distinct vertices carry over, and it needs no
reduction: with canonical bases C of a chart line and U of the space,
C U is the canonical basis of the lifted line (``_lift_line``), and a
canonical chart vertex lifts to the canonical row of its ambient meet.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Callable, Dict, List, Optional, Tuple, Union

from .errors import ExactnessError, GeometryError, InvariantError
from .linalg import Matrix, vec_scale
from .projgeom import (
    Line,
    ProjPoint,
    Subspace,
    exceptional_generator,
    fiber_image,
    meet,
    span,
)
from .quadrics import (
    Handedness,
    QuadricForm,
    _lines_through,
    common_lines,
    is_null_line,
    null_cone,
    restrict,
    ruling_handedness,
    study_quadric,
)
from .quaternions import DQ_ONE, DualQuaternion, Q_I, Quaternion
from .scalars import ComplexFloat, _power_of_two_scale, _unit_scale, as_exact_real, gaussian


class DyadKind(Enum):
    RR = "RR"
    RP = "RP"
    PR = "PR"
    C = "C"


class Verdict(Enum):
    TwoR = "TwoR"
    RP = "RP"
    PR = "PR"
    C = "C"
    NotADyadSpace = "NotADyadSpace"


@dataclass(frozen=True)
class DyadSpec:
    """Joint data of a dyad.

    For RR both fields are half-turns about the two axes.  For RP, PR
    and C the first field is the half-turn about the rotation axis and
    the second holds the translation as a purely dual element eps*p.
    normalized is False when an exact unit representative of a half-turn
    does not exist over the rationals.
    """

    kind: DyadKind
    h1: DualQuaternion
    h2: DualQuaternion
    normalized: bool = True


@dataclass
class ConstraintVariety:
    kind: DyadKind
    space: Subspace
    quadric: QuadricForm
    parametrization: Callable
    witnesses: Dict[str, object]


@dataclass
class Classification:
    verdict: Verdict
    evidence: Dict[str, object]


@dataclass(frozen=True)
class Quadrilateral:
    lines: Tuple[Line, Line, Line, Line]
    vertices: Tuple[ProjPoint, ProjPoint, ProjPoint, ProjPoint]


def _pure(q: Quaternion) -> bool:
    return q.scalar_part().is_zero()


def _proportional(a: Quaternion, b: Quaternion) -> bool:
    """Whether two nonzero quaternions are points of one line through the
    origin; float ones are first scaled by a power of two to max-norm about
    one, so no representative reads as zero."""
    return _scaled_point(a.coords()) == _scaled_point(b.coords())


def _scaled_point(coords) -> ProjPoint:
    """The point of coords, scaled by a power of two to max-norm about one
    when a coordinate is a float."""
    if ComplexFloat in map(type, coords):
        coords = vec_scale(_power_of_two_scale(coords), coords)
    return ProjPoint(coords)


def _check_half_turn(h: DualQuaternion, require_unit: bool) -> None:
    if not (_pure(h.primal) and _pure(h.dual)):
        raise GeometryError("half-turn has a scalar part")
    if h.primal.is_zero():
        raise GeometryError("half-turn has no rotation part")
    if not h.study_condition():
        raise GeometryError("half-turn violates the Study condition")
    if require_unit and h.primal.norm() != 1:
        raise GeometryError("half-turn axis direction is not unit")


def _translation_vector(spec: DyadSpec) -> Quaternion:
    t = spec.h2
    if not t.primal.is_zero():
        raise GeometryError("translation must be purely dual")
    p = t.dual
    if p.is_zero():
        raise GeometryError("translation is zero")
    if not _pure(p):
        raise GeometryError("translation has a scalar part")
    return p


def validate_spec(spec: DyadSpec) -> None:
    if spec.kind is DyadKind.RR:
        _check_half_turn(spec.h1, spec.normalized)
        _check_half_turn(spec.h2, spec.normalized)
        if _proportional(spec.h1.primal, spec.h2.primal):
            raise GeometryError("parallel axes")
        prod = spec.h1 * spec.h2
        if prod == spec.h2 * spec.h1 or prod.dual.scalar_part().is_zero():
            raise GeometryError("coplanar axes")
        return
    _check_half_turn(spec.h1, spec.normalized)
    p = _translation_vector(spec)
    along_axis = _proportional(spec.h1.primal.vector_part(), p)
    if spec.kind is DyadKind.C:
        if not along_axis:
            raise GeometryError("cylindrical dyad needs translation along its axis")
    elif along_axis:
        raise GeometryError("translation parallel to the axis gives a C dyad")


def _scalar_dq(t) -> DualQuaternion:
    return DualQuaternion(Quaternion(t))


def build_variety(spec: DyadSpec) -> ConstraintVariety:
    """Span, quadric, parametrization and witnesses of a dyad's motions."""
    validate_spec(spec)
    one = ProjPoint(DQ_ONE)
    if spec.kind is DyadKind.RR:
        h1, h2 = spec.h1, spec.h2
        prod = h1 * h2
        pts = [one, ProjPoint(h1), ProjPoint(h2), ProjPoint(prod)]
        witnesses = {"h1": pts[1], "h2": pts[2], "h1h2": pts[3]}
        param = lambda t1, t2: (_scalar_dq(t1) - h1) * (_scalar_dq(t2) - h2)
    else:
        h = spec.h1
        p = spec.h2.dual
        eps_p = DualQuaternion(Quaternion(), p)
        if spec.kind is DyadKind.PR:
            fourth = DualQuaternion(Quaternion(), p * h.primal)
            param = lambda t1, t2: (_scalar_dq(t1) - eps_p) * (_scalar_dq(t2) - h)
        else:
            fourth = DualQuaternion(Quaternion(), h.primal * p)
            param = lambda t1, t2: (_scalar_dq(t1) - h) * (_scalar_dq(t2) - eps_p)
        pts = [one, ProjPoint(h), ProjPoint(eps_p), ProjPoint(fourth)]
        witnesses = {
            "h": pts[1],
            "eps_p": pts[2],
            "eps_hp": pts[3],
            "e1": Line.through(pts[2], pts[3]),
        }
    space = span(pts)
    if space.dim != 3:
        raise InvariantError("dyad span degenerated despite valid joints")
    expected = -1 if spec.kind is DyadKind.RR else 1
    if meet(space, exceptional_generator()).dim != expected:
        raise InvariantError("dyad span meets the exceptional generator in the wrong dimension")
    quadric = restrict(study_quadric(), space)
    return ConstraintVariety(spec.kind, space, quadric, param, witnesses)


def null_quadrilateral(lines) -> Optional[Quadrilateral]:
    """Order four null lines into a closed quadrilateral, if they form one.

    Each pair of lines is met once; two lines are incident when they meet
    in a point.  The cycles starting at the first line are tried in the
    order of the permutations of the other three, and the first one whose
    consecutive lines all meet, in four distinct vertices, is the
    quadrilateral.
    """
    lines = list(lines)
    if len(lines) != 4:
        return None
    cuts = {frozenset((i, j)): meet(lines[i], lines[j]) for i, j in combinations(range(4), 2)}
    for rest in permutations(range(1, 4)):
        order = (0,) + rest
        edges = [cuts[frozenset((order[i], order[(i + 1) % 4]))] for i in range(4)]
        if any(cut.dim != 0 for cut in edges):
            continue
        vertices = tuple(cut.points()[0] for cut in edges)
        if all(vertices[i] != vertices[j] for i in range(4) for j in range(i + 1, 4)):
            return Quadrilateral(tuple(lines[k] for k in order), vertices)
    return None


def _real_form(u: Subspace) -> Subspace:
    """u with its real canonical basis demoted to ExactRational entries."""
    # conjugation_closed has shown every entry of the canonical basis real
    return Subspace._of(u.basis.real_part(), u._pivots, u.ambient)


def _lift_line(u: Subspace, chart: Line) -> Line:
    """The lift of a chart line into u, reduced already: row r of C U, for
    canonical bases C and U, has its leading one at U's pivot at C's pivot
    r, and U's pivot columns carry C's entries, zero at C's other pivots."""
    return Line._of(chart.basis * u.basis, tuple(u._pivots[c] for c in chart._pivots),
                    u.ambient)


def _conjugate_line(l: Line) -> Line:
    # conjugating a canonical basis gives the canonical basis of the conjugate
    return Line._of(Matrix._of([[c.conjugate() for c in row] for row in l.basis.rows]),
                    l._pivots, l.ambient)


def _single_point(sub: Subspace) -> ProjPoint:
    assert sub.dim == 0
    return sub.points()[0]


def _null_lines(u: Subspace, s_u: QuadricForm,
                evidence: Dict[str, object]) -> Optional[List[Line]]:
    """The common null lines of u in its chart, on s_u and N restricted to u
    (built here only); their lifts are recorded in the evidence, in order.

    None, with the reason under "inexact", where they leave Q(i).
    """
    try:
        chart_lines = common_lines(s_u, restrict(null_cone(), u))
    except ExactnessError as err:
        evidence["inexact"] = str(err)
        return None
    evidence["null_lines"] = [_lift_line(u, l) for l in chart_lines]
    return chart_lines


def classify(u: Subspace) -> Classification:
    """Decide which dyad, if any, a real three-space belongs to.

    The decision reads off projective invariants only: the inertia of
    the restricted Study form, the intersection with the exceptional
    generator, the common null lines, and the ruling family their fiber
    images select.  Where the null lines need a square root outside the
    Gaussian rationals the verdict is NotADyadSpace, with the reason under
    the evidence key "inexact" and no "null_lines".
    """
    if u.ambient != 8 or u.dim != 3 or not u.conjugation_closed():
        raise GeometryError("classification needs a real three-space")
    if not u.basis.is_exact():
        raise ExactnessError("classification needs exact scalars")
    u = _real_form(u)
    evidence: Dict[str, object] = {}

    s_u = restrict(study_quadric(), u)
    sig = s_u.signature()
    evidence["signature"] = sig
    if sig != (2, 2, 0):
        return Classification(Verdict.NotADyadSpace, evidence)

    inter = meet(u, exceptional_generator())
    evidence["exceptional_meet_dim"] = inter.dim

    if inter.dim == -1:
        chart = _null_lines(u, s_u, evidence)
        if chart is None:
            return Classification(Verdict.NotADyadSpace, evidence)
        quad = null_quadrilateral(chart)
        if quad is not None:
            # a lift is linear and injective, so it keeps incidence, meets and
            # distinct vertices: the chart's cycle, lifted, is the ambient one,
            # and a reduced vertex lifts to the reduced row of its meet
            lifted = {id(l): m for l, m in zip(chart, evidence["null_lines"])}
            quad = Quadrilateral(tuple(lifted[id(l)] for l in quad.lines),
                                 tuple(u.lift(v) for v in quad.vertices))
        evidence["quadrilateral"] = quad
        if quad is None:
            return Classification(Verdict.NotADyadSpace, evidence)
        return Classification(Verdict.TwoR, evidence)

    if inter.dim == 1:
        e1 = Line.of(inter)
        evidence["e1"] = e1
        fib = fiber_image(u)
        evidence["fiber_image"] = fib
        if fib == inter:
            return Classification(Verdict.C, evidence)
        if _null_lines(u, s_u, evidence) is None:
            return Classification(Verdict.NotADyadSpace, evidence)
        lines = evidence["null_lines"]
        # S_u is regular and N_u is the conjugate pair of planes through e1.
        # Each plane cuts S_u in e1 and one other line; that line is not real,
        # for it would lie in both planes and so be e1.  So the null lines are
        # always e1 and one conjugate pair.
        pair = [l for l in lines if not l.conjugation_closed()]
        if len(lines) != 3 or len(pair) != 2 or _conjugate_line(pair[0]) != pair[1]:
            raise InvariantError("the null lines through e1 are not e1 and a conjugate pair")
        l1, l2 = pair
        s1 = _single_point(meet(l1, e1))
        s2 = _single_point(meet(l2, e1))
        f1 = _single_point(fiber_image(l1))
        f2 = _single_point(fiber_image(l2))
        evidence["conjugate_pair"] = (l1, l2)
        evidence["ruling_points"] = {"s1": s1, "s2": s2, "f1": f1, "f2": f2}
        handed = ruling_handedness(f1, s1)
        if handed is not ruling_handedness(f2, s2):
            raise InvariantError("the ruling points of the conjugate pair disagree on handedness")
        evidence["handedness"] = handed
        if handed is Handedness.RightRuling:
            return Classification(Verdict.RP, evidence)
        if handed is Handedness.LeftRuling:
            return Classification(Verdict.PR, evidence)
        return Classification(Verdict.NotADyadSpace, evidence)

    return Classification(Verdict.NotADyadSpace, evidence)


def _half_turn_from_ruling(w: DualQuaternion) -> Tuple[DualQuaternion, bool]:
    h = w - w.conjugate()
    assert not h.primal.is_zero()
    n = h.primal.norm()
    root = n.sqrt()
    r = as_exact_real(root) if root is not None else None
    if r is not None and not r.is_zero():
        return h * (1 / r.value), True
    return h, False


def recover_axes(v: Union[ConstraintVariety, Subspace], base: ProjPoint) -> DyadSpec:
    """Joint data of the dyad whose span passes through base.

    The base point is moved to the identity by the group action, the two
    rulings of the quadric through it are split off the tangent-plane
    conic, and each ruling yields one joint: a rotation axis if it misses
    the exceptional generator, a translation if it meets it.  A float
    base is read at max-norm about one, by a power of two, so its scale
    does not matter.
    """
    u = v.space if isinstance(v, ConstraintVariety) else v
    if u.dim != 3:
        raise GeometryError("axis recovery needs a three-space")
    base = _scaled_point(base.coords)
    b = base.dq()
    if b.primal.is_zero():
        raise GeometryError("base has no displacement")
    if not u.contains(base):
        raise GeometryError("base is not in the space")
    if not study_quadric().contains(base):
        raise GeometryError("base is not on the quadric")
    binv = b.inverse()
    u2 = Subspace.from_rows(
        [(binv * DualQuaternion.from_coords(row)).coords() for row in u.basis.rows], 8
    )

    e = u2.chart_coords(ProjPoint(DQ_ONE))
    assert e is not None
    try:
        rulings = _lines_through(restrict(study_quadric(), u2), e)
    except ExactnessError:
        raise GeometryError("axes are not rational over the scalar field")
    if len(rulings) != 2:
        raise GeometryError("quadric has no two rulings through the base")

    rotations = []
    translations = []
    for _, chart in rulings:
        w = DualQuaternion.from_coords(u2.lift(chart).coords)
        if ComplexFloat in map(type, w.coords()):  # the tolerant split, at max-norm one
            w = w * _unit_scale(w.coords())
        if w.primal.vector_part().is_zero():
            trans = w - _scalar_dq(w.primal.scalar_part())
            assert trans.primal.is_zero() and _pure(trans.dual)
            translations.append(trans)
        else:
            rotations.append(_half_turn_from_ruling(w))

    if len(rotations) == 2:
        (ha, na), (hb, nb) = rotations
        normalized = na and nb
        if u2.contains(ProjPoint(ha * hb)):
            return DyadSpec(DyadKind.RR, ha, hb, normalized)
        if not u2.contains(ProjPoint(hb * ha)):
            raise GeometryError("neither product of the recovered axes lies in the space")
        return DyadSpec(DyadKind.RR, hb, ha, normalized)
    if len(rotations) == 1 and len(translations) == 1:
        h, normalized = rotations[0]
        eps_p = translations[0]
        p = eps_p.dual
        if _proportional(h.primal.vector_part(), p):
            return DyadSpec(DyadKind.C, h, eps_p, normalized)
        if u2.contains(ProjPoint(DualQuaternion(Quaternion(), h.primal * p))):
            return DyadSpec(DyadKind.RP, h, eps_p, normalized)
        if not u2.contains(ProjPoint(DualQuaternion(Quaternion(), p * h.primal))):
            raise GeometryError("neither product of the recovered joints lies in the space")
        return DyadSpec(DyadKind.PR, h, eps_p, normalized)
    raise GeometryError("no rotation ruling through the base")


def example2_checks() -> Dict[str, bool]:
    """Predicate checks on a fixed complex three-space fixture.

    The fixture is a genuinely complex span: a purely dual point, a null
    point with Gaussian scalar part, and a purely dual point with
    Gaussian coordinates.  It certifies that the predicate layer works
    over the Gaussian rationals where the classifier itself declines.
    """
    i = gaussian(0, 1)
    one = ProjPoint(DQ_ONE)
    m1 = DualQuaternion(Quaternion(), Q_I)
    n1 = DualQuaternion(Quaternion(i, 1, 0, 0))
    s1 = DualQuaternion(Quaternion(), Quaternion(i, 1, 1, i))
    eh = exceptional_generator()

    pm, pn, ps = ProjPoint(m1), ProjPoint(n1), ProjPoint(s1)
    inner = is_null_line(pm, ps) and eh.contains(pm) and eh.contains(ps)

    outer_line = Line.through(pn, ps)
    conj = _conjugate_line(outer_line)
    ca, cb = conj.points()
    outer = (
        is_null_line(pn, ps)
        and not eh.contains_subspace(outer_line)
        and is_null_line(ca, cb)
        and not eh.contains_subspace(conj)
    )

    axis = DualQuaternion(Q_I)
    trans = DualQuaternion(Quaternion(), Q_I)
    sample_pairs = [(1, 1), (2, 1), (1, 2), (3, 2), (0, 1)]
    samples = [
        (_scalar_dq(a) - axis) * (_scalar_dq(b) - trans) for a, b in sample_pairs
    ]
    u = span([one, pm, pn, ps])
    not_contained = any(not u.contains(ProjPoint(s)) for s in samples)

    u_sub = span([one, pm, pn, ProjPoint(m1 * n1)])
    substituted = all(u_sub.contains(ProjPoint(s)) for s in samples)

    on_study = all(s.study_condition() for s in samples)

    return {
        "null_line_in_exceptional": inner,
        "conjugate_pair_off_exceptional": outer,
        "quadric_not_contained": not_contained,
        "substituted_span_contains": substituted,
        "samples_on_study": on_study,
    }
