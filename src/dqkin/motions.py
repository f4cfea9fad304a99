"""Motion polynomials and the kinematic action on points.

The extended kinematic map assigns a displacement of projective
three-space to every dual quaternion with nonzero primal part, whether
or not it satisfies the Study condition.  Motion polynomials package a
one-parameter family of such displacements; trajectories are exact
rational curves, multiplied out and freed of their common factor on
integer polynomials (``polys``), their degree reported after that.  The
Darboux and Mannheim cubics are the worked family, and generic straight
lines in the model space are recognised as vertical Darboux motions by
exhibiting the surrounding cylindrical space.
"""

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Dict, Optional, Tuple

from .dyads import Classification, Verdict, classify
from .errors import ExactnessError, GeometryError, InvariantError
from .kept import cleared, int_gcd, poly_product, poly_sum, pseudo_divmod, scalars_of, stripped
from .linalg import Matrix, rank
from .polys import Poly, split_quadratic
from .projgeom import Line, ProjPoint, Subspace, meet, span
from .quadrics import (
    Handedness,
    null_cone,
    quadric_y8,
    ruling_handedness,
    study_quadric,
)
from .quaternions import DQ_ONE, DualQuaternion, Q_K, Q_ONE, Quaternion
from .scalars import I_UNIT, ONE, Scalar, ZERO, _power_of_two_scale, scalar


class MotionLabel(Enum):
    Darboux = "Darboux"
    Mannheim = "Mannheim"
    VerticalDarboux = "VerticalDarboux"
    Line = "Line"
    Generic = "Generic"


class MotionPoly:
    """Polynomial in one real parameter with dual quaternion coefficients.

    Coefficients are stored highest degree first.  Evaluation at a
    central scalar parameter is exact.
    """

    __slots__ = ("coefficients", "label", "params")

    def __init__(self, coefficients, label: MotionLabel = MotionLabel.Generic,
                 params: Optional[Tuple[Scalar, ...]] = None):
        coeffs = list(coefficients)
        if not all(isinstance(c, DualQuaternion) for c in coeffs):
            raise GeometryError("a motion polynomial has dual quaternion coefficients")
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
        if not coeffs:
            raise GeometryError("zero motion polynomial")
        self.coefficients = tuple(coeffs)
        self.label = label
        self.params = params

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t) -> DualQuaternion:
        t = scalar(t)
        out = self.coefficients[0]
        for c in self.coefficients[1:]:
            out = out * t + c
        return out

    def __eq__(self, other):
        if not isinstance(other, MotionPoly):
            return NotImplemented
        return self.coefficients == other.coefficients

    __hash__ = None

    def __repr__(self):
        return "MotionPoly(%s, degree=%d)" % (self.label.value, self.degree)


@dataclass(frozen=True)
class Trajectory:
    """Homogeneous point path [w(t), x(t), y(t), z(t)] with gcd one."""

    components: Tuple[Poly, Poly, Poly, Poly]
    degree: int

    def point_at(self, t) -> ProjPoint:
        return ProjPoint([p(t) for p in self.components])


def _require_space_point(x: ProjPoint):
    if x.ambient != 4:
        raise GeometryError("points live in the fiber three-space")


def act(q: DualQuaternion, x: ProjPoint) -> ProjPoint:
    """Displace the point x by q through the extended kinematic map.

    Defined for every q with nonzero primal part; the Study condition is
    not required.  With q = 1 + eps(u/2) the origin moves by the
    vector u.
    """
    if q.primal.is_zero():
        raise GeometryError("exceptional generator has no displacement")
    _require_space_point(x)
    w, px, py, pz = x.coords
    # p + eps d sends the point w + eps u to (p + eps d)(w + eps u)(conj(p) - eps conj(d))
    y = (q * DualQuaternion(Quaternion(w), Quaternion(ZERO, px, py, pz))
         * DualQuaternion(q.primal.conjugate(), -q.dual.conjugate()))
    if not (y.primal.vector_part().is_zero() and y.dual.scalar_part().is_zero()):
        raise InvariantError("the displaced point is not a point of three-space")
    d = y.dual.coords()
    return ProjPoint([y.primal.scalar_part(), d[1], d[2], d[3]])


def trajectory(m: MotionPoly, x: ProjPoint) -> Trajectory:
    """The exact rational path of x under the motion m: the components 0, 5,
    6 and 7 of m(t) x conj(m(t)) over their monic gcd, a lone nonzero one
    over itself, on integer polynomials over Z or Z[i].  The gcd is a
    primitive remainder sequence, Gaussian-primitive over Z[i]; each
    component is pseudo-divided by it in place, on rational input directly
    and over Z[i] as P conj(G) by the integer-led G conj(G), so there is no
    conjugate product on rational input.  Scalars are made once per
    coefficient: a zero is ZERO, any other Gaussian exactly when a
    coordinate of m or x is."""
    _require_space_point(x)
    if all(c.primal.is_zero() for c in m.coefficients):
        raise GeometryError("exceptional generator has no displacement")
    cm = cleared([c for q in reversed(m.coefficients) for c in q.coords()])
    cx = None if cm is None else x._kept()
    if cx is None:
        raise ExactnessError("trajectory degree needs exact scalars")
    (mr, mi, dm, mk), (xr, xi, dx, xk) = cm, cx
    gaussian = any(mi or ()) or any(xi or ())
    mi, xi = (mi or [0] * len(mr), xi or [0] * 4) if gaussian else (None, None)
    # coordinate k of m, ascending in t, and of x
    a, p1, p2, p3, d0, e1, e2, e3 = (stripped(mr[k::8], mi and mi[k::8], 0) for k in range(8))
    w, x1, x2, x3 = (stripped([xr[k]], xi and [xi[k]], 0) for k in range(4))
    mul, add = poly_product, poly_sum

    # with m = (a + v) + eps (d0 + e) and x = w + eps u, v, e and u vectors:
    # component 0 is w (a^2 + v.v), and 5, 6, 7 are the rotated u,
    # (a^2 - v.v) u + 2 (v.u) v + 2 a v x u, plus 2 w (a e - d0 v + v x e)
    v, u = (p1, p2, p3), (x1, x2, x3)
    aa, vv = mul(a, a), add(add(mul(p1, p1), mul(p2, p2)), mul(p3, p3))
    c = add(add(add(mul(x1, p1), mul(x2, p2)), mul(x3, p3)), mul(w, d0), -1)
    we = [mul(w, f) for f in (e1, e2, e3)]
    y = [add(mul(a, f), g) for f, g in zip(u, we)]
    comps = [mul(w, add(aa, vv))]
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        twice = add(add(mul(c, v[i]), add(mul(v[j], y[k]), mul(v[k], y[j]), -1)), mul(a, we[i]))
        comps.append(add(mul(add(aa, vv, -1), u[i]), add(twice, twice)))

    nonzero = [f for f in comps if f[0]]
    if not nonzero:
        raise GeometryError("the point's path vanishes identically")
    g = reduce(int_gcd, nonzero)
    if len(nonzero) > 1:
        lead, den = ([g[0][-1]], g[1] and [g[1][-1]], 0), dm * dm * dx
    else:
        lead, den = stripped([1], xi and [0], 0), 1
    # p / monic(g) = lead P / (G den); over Z[i], P / G = P conj(G) / N for the
    # integer-led N = G conj(G): lc(N)^n P conj(G) = Q N by pseudo-division
    norm = g
    if gaussian:
        bar = (g[0], [-y for y in g[1]], 0)
        norm, comps = mul(g, bar), [mul(f, bar) for f in comps]
    out = []
    for f in comps:
        q, _, n = pseudo_divmod(f, norm)
        re, im, _ = mul(q, lead)
        mask = sum(1 << k for k in range(len(re)) if re[k] or im and im[k]) if mk or xk else 0
        out.append(Poly(scalars_of(re, im, den * norm[0][-1] ** n, mask)))
    return Trajectory(tuple(out), max(f.degree for f in out))


def darboux(a, b, c) -> MotionPoly:
    """The cubic motion with planar deg-2 trajectories, parameters a, b, c."""
    a, b, c = scalar(a), scalar(b), scalar(c)
    coeffs = [
        DualQuaternion(Q_K, Quaternion(c)),
        DualQuaternion(Q_ONE, Quaternion(b, -a, ZERO, -c)),
        DualQuaternion(Q_K, Quaternion(ZERO, ZERO, -a, -b)),
        DQ_ONE,
    ]
    if a.is_zero():
        return MotionPoly(coeffs, MotionLabel.VerticalDarboux, (b, c))
    return MotionPoly(coeffs, MotionLabel.Darboux, (a, b, c))


_CHI_LABEL = {MotionLabel.Darboux: MotionLabel.Mannheim,
              MotionLabel.Mannheim: MotionLabel.Darboux}


def chi(m: MotionPoly) -> MotionPoly:
    """Coefficient-wise quaternion conjugation: the inverse motion."""
    coeffs = [c.conjugate() for c in m.coefficients]
    return MotionPoly(coeffs, _CHI_LABEL.get(m.label, m.label), m.params)


def mannheim(a, b, c) -> MotionPoly:
    return chi(darboux(a, b, c))


@dataclass(frozen=True)
class DarbouxReport:
    """Intersections of a Darboux curve and its fiber line with Y."""

    p: Quaternion
    d: Tuple[ProjPoint, ProjPoint]
    f: Tuple[ProjPoint, ProjPoint]
    handedness: Optional[Handedness]
    vertical: bool
    mirrored: bool


def _eps_point(v: Quaternion) -> ProjPoint:
    return ProjPoint(DualQuaternion(Quaternion(), v))


def darboux_invariants(a, b, c, mirror: bool = False) -> DarbouxReport:
    """Where the (a,b,c) curve and its fiber projection pierce Y.

    The two curve points are left multiples of the two fiber points by
    the same quaternion, so the connecting lines are left rulings of Y;
    for the mirrored (Mannheim) curve they are right multiples and right
    rulings.  With a = 0 curve and fiber points coincide and the
    distinction vanishes.
    """
    a, b, c = scalar(a), scalar(b), scalar(c)
    if a.is_zero() and b.is_zero() and c.is_zero():
        raise GeometryError("invariants need a nonzero parameter")
    m = mannheim(a, b, c) if mirror else darboux(a, b, c)

    # the primal part is (t^2 + 1)(1 + k t) for every (a, b, c), with k
    # conjugated for the Mannheim curve: the curve meets Y at t = +-i, and
    # its fiber points there are 1 + k t (1 - k t)
    y8 = quadric_y8()
    p_quat = Quaternion(-b, a, ZERO, c)
    ds, fs = [], []
    for t0 in (I_UNIT, -I_UNIT):
        value = m(t0)
        if not value.primal.is_zero():
            raise InvariantError("the curve does not meet Y at t = %s" % t0)
        d_pt = _eps_point(value.dual)
        f_vec = Quaternion(ONE, ZERO, ZERO, -t0 if mirror else t0)
        f_pt = _eps_point(f_vec)
        if not (y8.contains(d_pt) and y8.contains(f_pt)):
            raise InvariantError("a curve or fiber point at t = %s is off Y" % t0)
        related = f_vec * p_quat.conjugate() if mirror else p_quat * f_vec
        if _eps_point(related) != d_pt:
            raise InvariantError("the curve point at t = %s is not p times its fiber point" % t0)
        ds.append(d_pt)
        fs.append(f_pt)

    if a.is_zero():
        if ds != fs:
            raise InvariantError("with a = 0 the curve points differ from their fiber points")
        handed = None
    else:
        handed = ruling_handedness(fs[0], ds[0])
        if ruling_handedness(fs[1], ds[1]) is not handed:
            raise InvariantError("the two connecting lines disagree on handedness")
    return DarbouxReport(p_quat, tuple(ds), tuple(fs), handed,
                         a.is_zero(), mirror)


@dataclass(frozen=True)
class CSpaceReport:
    """A line's surrounding cylindrical space with proof witnesses."""

    space: Subspace
    classification: Classification
    f: Scalar
    g1: Scalar
    g2: Scalar
    witnesses: Dict[str, object]


def c_space_from_line(l: Line) -> CSpaceReport:
    """Span a line with its fiber projection and certify the C space.

    The line must contain a displacement, leave the null cone, and
    leave the translation four-space through its points.  Both null
    points of the line are computed exactly; scaled so their sum is a
    point of the line, all witness formulas of the proof apply verbatim.
    """
    if l.ambient != 8 or l.dim != 1:
        raise GeometryError("a C space is spanned from a line of P^7, got a subspace "
                            "of dimension %d in %d coordinates" % (l.dim, l.ambient))
    p0, p1 = (DualQuaternion.from_coords(row) for row in l.basis.rows)
    if not l.basis.is_exact():
        # the witness formulas are homogeneous; representatives at max-norm
        # about one keep the residuals commensurate with the absolute tolerance
        p0, p1 = (p * _power_of_two_scale(p.coords()) for p in (p0, p1))
    if p0.primal.is_zero() and p1.primal.is_zero():
        raise GeometryError("line inside exceptional generator")
    prim = Matrix([list(p0.primal.coords()), list(p1.primal.coords())])
    if rank(prim) < 2:
        raise GeometryError("line inside translation 4-space")

    qa = p0.primal.norm()
    qb = (p0.primal * p1.primal.conjugate()).scalar_part()
    qc = p1.primal.norm()
    if qa.is_zero() and qb.is_zero() and qc.is_zero():
        raise GeometryError("line inside null cone")
    try:
        roots = split_quadratic(qa, qb, qc)
    except ExactnessError:
        raise GeometryError("null points are not rational over the scalar field")
    if len(roots) < 2:
        # a double contact point: the line touches the cone
        raise GeometryError("line inside null cone")

    a_dq = p0 * roots[0][0] + p1 * roots[0][1]
    b_dq = p0 * roots[1][0] + p1 * roots[1][1]
    ap, bp = a_dq.primal, b_dq.primal

    f = (ap * bp.conjugate() + bp * ap.conjugate()).scalar_part()
    assert not f.is_zero(), "independent null directions have nonzero pairing"
    g1 = (ap * a_dq.dual.conjugate() + a_dq.dual * ap.conjugate()).scalar_part()
    g2 = -(bp * b_dq.dual.conjugate() + b_dq.dual * bp.conjugate()).scalar_part()

    a_pt, b_pt = ProjPoint(a_dq), ProjPoint(b_dq)
    s1, s2 = _eps_point(ap), _eps_point(bp)
    eps_ap = DualQuaternion(Quaternion(), ap)
    eps_bp = DualQuaternion(Quaternion(), bp)
    e1 = Line.through(s1, s2)
    l1 = Line.through(ProjPoint(a_dq * (-f) + eps_bp * g1), s1)
    l2 = Line.through(ProjPoint(b_dq * f + eps_ap * g2), s2)
    # fourth ruling: anchored at the gamma = g2 point of l1; its partner on
    # l2 shifts by twice the base point's Study value, which vanishes when
    # the base point a + b is itself a displacement
    base = a_dq + b_dq
    h = (base.primal * base.dual.conjugate()
         + base.dual * base.primal.conjugate()).scalar_part()
    n1 = ProjPoint(a_dq * (-f) + eps_ap * g2 + eps_bp * g1)
    n2 = ProjPoint(b_dq * f + eps_ap * g2 + eps_bp * (g1 - h))
    n = Line.through(n1, n2)

    space = span([a_pt, b_pt, s1, s2])
    assert space.dim == 3

    s_form, n_form = study_quadric(), null_cone()
    for name, witness in (("e1", e1), ("l1", l1), ("l2", l2)):
        wa, wb = witness.points()
        if not (space.contains(wa) and space.contains(wb)
                and s_form.contains_line(wa, wb) and n_form.contains_line(wa, wb)):
            raise InvariantError("witness %s is not a null line of the C space" % name)
    if not (space.contains(n1) and space.contains(n2) and s_form.contains_line(n1, n2)):
        raise InvariantError("witness n is not a ruling of the C space")
    if h.is_zero() != n.contains(ProjPoint(base)) or meet(n, e1).dim != -1:
        raise InvariantError("witness n is misplaced against the base point or e1")

    if space.basis.is_exact():
        classification = classify(space)
        if classification.verdict is not Verdict.C:
            raise InvariantError("the C space classifies as %s" % classification.verdict.value)
    else:
        # float input: the witness checks above already certified the
        # structure at tolerance, the exact classifier does not apply
        classification = Classification(Verdict.C, {"approx": True})
    witnesses = {"a": a_pt, "b": b_pt, "s1": s1, "s2": s2,
                 "e1": e1, "l1": l1, "l2": l2, "n1": n1, "n2": n2, "n": n}
    return CSpaceReport(space, classification, f, g1, g2, witnesses)


def is_vertical_darboux(l: Line) -> bool:
    """Whether the line's motion is a vertical Darboux motion.

    The line is a motion polynomial of degree one, so its trajectories
    have degree at most two; certifying the C space around it is the
    proof.
    """
    c_space_from_line(l)
    return True
