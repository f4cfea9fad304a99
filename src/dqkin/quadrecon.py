"""Projection cycles and quadrilateral reconstruction on a quadric.

A spatial quadrilateral can be walked around by four central
projections between the 4-spaces spanned by a fixed 3-space and the
vertices of its image quadrilateral; under mild position assumptions
the composition is the identity.  Reconstruction inverts the picture:
given the image quadrilateral, the projection centres and a regular
quadric through the fixed 3-space, the spatial quadrilateral on the
quadric whose sides pass through the centres is unique and drops out of
a linear system.

Each object is built once: ``ProjectionCycle.spaces`` is the one
definition of the four 4-spaces, joined from image-point spans the cycle
builds once, and reconstruction inverts its frame once, since rescaling
a frame row only divides the centres' coordinate for that row.  The
steps of ``run_cycle`` need no elimination: from a point centre m onto a
4-space T the image of x is x - lambda*m, with lambda read off the
residues of x and m modulo T.  A cycle stores each centre's kept form
and its residue once, so a step is one integer residue, one
proportionality test and the image x*r_m[k] - r_x[k]*m on integers, by
``kept``'s form operations; Scalars are made once per output point,
normalized so its first nonzero coordinate is one, of the kinds the
scalar loop gives it.  The four 4-spaces are joined again on every
call, from kept rows and with no Scalar made: a cache of them waits on
the benchmark's pin of four joins per cycle
(``quadrecon.joins_per_cycle`` in ``bench/tests/test_bench.py``).  The closure of a cycle, the plane of a
reconstruction's centres and its postconditions are certificates: a
failure raises ``errors.InvariantError``, also under ``python -O``.

Everything here is exact; float scalars are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import ExactnessError, GeometryError, InvariantError
from .kept import Cleared, cancelling, cleared_image, first_nonzero, normalized, proportional
from .linalg import Matrix, inverse, rank, solve, vec_add, vec_dot, vec_scale, vec_sub
from .projgeom import (
    ProjPoint,
    Subspace,
    join,
    meet,
    project_from_center,
    span,
)
from .quadrics import QuadricForm
from .scalars import Scalar, scalar, ONE, ZERO

HALF = scalar(1) / scalar(2)


def _project(x: ProjPoint, step: Tuple[Cleared, Cleared], target: Subspace) -> ProjPoint:
    """x projected from the step's centre m onto target; the step holds m's
    kept form and its residue modulo target.

    On the line through x and m only x - lambda*m, lambda = r_x[k]/r_m[k]
    at k where r_m is nonzero, can lie in target: it does exactly when
    x's residue r_x is lambda times m's residue r_m, and it is a point
    unless x is m.  The image, r_m[k]*x - r_x[k]*m on kept forms, is
    divided by its first nonzero coordinate, the reduced row a meet
    returns, and made Scalars of the scalar loop's kinds: that coordinate
    is at a pivot column of target, so where x or m is Gaussian there its
    residue is Gaussian throughout, and so is lambda.
    """
    center, rm = step
    xf = x._kept()
    rx = target._residue_of(xf)
    if not proportional(rm, rx):
        raise GeometryError("projection not well defined")
    form = normalized(cleared_image([xf, center], cancelling(rx, rm, first_nonzero(rm))))
    if form is None:
        raise GeometryError("projection not well defined")
    return ProjPoint._of(Matrix._of_cleared([form]))


@dataclass(frozen=True)
class ProjectionCycle:
    """A fixed 3-space, four image points and four projection centres.

    The centres must be pairwise distinct, span a plane, and that plane
    must stay clear of each 4-space joining the fixed space with one of
    the image points.  Those conditions make the four projections of
    ``run_cycle`` single valued and force the composition to close up.
    """

    e: Subspace
    f_points: Tuple[ProjPoint, ProjPoint, ProjPoint, ProjPoint]
    centers: Tuple[ProjPoint, ProjPoint, ProjPoint, ProjPoint]
    _f_spans: Tuple[Subspace, ...] = field(init=False, repr=False, compare=False)
    _steps: Tuple[Tuple[Cleared, Cleared], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "f_points", tuple(self.f_points))
        object.__setattr__(self, "centers", tuple(self.centers))
        if len(self.f_points) != 4 or len(self.centers) != 4:
            raise GeometryError("a projection cycle has four image points and four centres, "
                                "got %d and %d" % (len(self.f_points), len(self.centers)))
        for x in (self.e,) + self.f_points + self.centers:
            if x.ambient != 8:
                raise GeometryError("a projection cycle lies in P^7, 8 coordinates, got %d"
                                    % x.ambient)
        exact = self.e.basis is not None and self.e.basis.is_exact()
        if not (exact and all(p._kept() is not None
                              for p in self.f_points + self.centers)):
            raise ExactnessError("projection cycles need exact scalars")
        if self.e.dim != 3:
            raise GeometryError("fixed space must be a three-space")
        f = span(self.f_points)
        if f.dim != 3:
            raise GeometryError("image points must span a three-space")
        if meet(self.e, f).dim != -1:
            raise GeometryError("fixed space meets the image space")
        for i in range(4):
            for j in range(i + 1, 4):
                if self.centers[i] == self.centers[j]:
                    raise GeometryError(
                        "projection centres must be pairwise distinct")
        plane = span(self.centers)
        if plane.dim != 2:
            raise GeometryError("projection centres must span a plane")
        object.__setattr__(self, "_f_spans", tuple(span([p]) for p in self.f_points))
        spaces = self.spaces()
        for space in spaces:
            if meet(plane, space).dim != -1:
                raise GeometryError("centre plane meets a projection space")
        # each centre's kept coordinates and their residue modulo its target,
        # nonzero since the centre plane misses every projection space
        object.__setattr__(self, "_steps", tuple(
            (m._kept(), target._residue_of(m._kept()))
            for m, target in zip(self.centers, _targets(spaces))))

    def spaces(self) -> Tuple[Subspace, Subspace, Subspace, Subspace]:
        """The four 4-spaces joining the fixed space with an image point."""
        return tuple(join(self.e, f) for f in self._f_spans)


def _targets(spaces):
    """The target of each step: the centres m1, n1, m2, n2 project onto
    the spaces of v1, u2, v2 and back onto u1's."""
    return spaces[1:] + spaces[:1]


def run_cycle(c: ProjectionCycle, start: ProjPoint) -> List[ProjPoint]:
    """Chase a point around the four projections; the last point is start."""
    if start.ambient != 8:
        raise GeometryError("a projection cycle starts at a point of P^7, 8 coordinates, got %d"
                            % start.ambient)
    if start._kept() is None:
        raise ExactnessError("projection cycles need exact scalars")
    spaces = c.spaces()
    if c.e.contains(start):
        raise GeometryError("start point lies in the fixed space")
    if not spaces[0].contains(start):
        raise GeometryError("start point outside the first projection space")
    points, x = [], start
    for step, target in zip(c._steps, _targets(spaces)):
        x = _project(x, step, target)
        points.append(x)
    if x != start:
        raise InvariantError("projection cycle does not close up at its start point")
    return points


@dataclass(frozen=True)
class ReconstructionProblem:
    omega: QuadricForm
    cycle: ProjectionCycle

    def __post_init__(self):
        if self.omega.n != 8:
            raise GeometryError("reconstruction needs a quadric of P^7, an 8x8 gram, got %dx%d"
                                % (self.omega.n, self.omega.n))
        if not self.omega.gram.is_exact():
            raise ExactnessError("reconstruction needs exact scalars")
        if self.omega.rank() != 8:
            raise GeometryError("quadric must be regular")
        for center in self.cycle.centers:
            if not self.omega.contains(center):
                raise GeometryError(
                    "projection centres must lie on the quadric")


def _block(m: Matrix, rows, cols) -> Matrix:
    return Matrix._of([[m[i, j] for j in cols] for i in rows])


def _center_coords(to_frame: Matrix, centers, slots) -> List[List[Scalar]]:
    """Frame coordinates of the centres, checked against the side pattern.

    Each centre must project into the side of the image quadrilateral it
    belongs to, so outside its two slots the leading block vanishes.
    """
    out = []
    for center, (i, j) in zip(centers, slots):
        cs = list(to_frame.apply(center.coords))
        for k in range(4):
            if k in (i, j):
                continue
            if not cs[k].is_zero():
                raise GeometryError(
                    "projection centre outside the join of its spaces")
        # the slot entries cannot vanish once the cycle invariants hold
        assert not cs[i].is_zero() and not cs[j].is_zero()
        out.append(cs)
    return out


def reconstruct_quadrilateral(
        p: ReconstructionProblem,
        e_basis: Optional[Sequence[ProjPoint]] = None) -> List[ProjPoint]:
    """The unique quadrilateral on the quadric over the given image.

    Solves for the fixed-space components of the first vertex; the other
    three follow by chasing the projection centres.  The choice of basis
    for the fixed space and of the unit point only moves coordinates
    around, the reconstructed points do not depend on it.
    """
    cycle = p.cycle
    if e_basis is None:
        e_reps = [list(row) for row in cycle.e.basis.rows]
    else:
        e_basis = list(e_basis)
        if len(e_basis) != 4 or span(e_basis) != cycle.e:
            raise GeometryError(
                "alternative basis does not span the fixed space")
        if not all(q._kept() is not None for q in e_basis):
            raise ExactnessError("reconstruction needs exact scalars")
        e_reps = [list(q.coords) for q in e_basis]

    f_reps = [list(pt.coords) for pt in cycle.f_points]
    frame = Matrix._of(f_reps + e_reps)
    to_frame = inverse(frame)
    assert to_frame is not None
    slots = ((0, 1), (1, 2), (2, 3), (3, 0))
    raw = _center_coords(to_frame.transpose(), cycle.centers, slots)

    # pin the unit point: rescale the image base points so every centre
    # sits at the diagonal pattern (1,1,0,0), (0,1,1,0), (0,0,1,1), (1,0,0,1)
    sigma = [raw[0][0], raw[0][1], ZERO, ZERO]
    sigma[2] = sigma[1] * raw[1][2] / raw[1][1]
    sigma[3] = sigma[2] * raw[2][3] / raw[2][2]
    frame = Matrix._of([vec_scale(sigma[i], f_reps[i]) for i in range(4)] + e_reps)
    # scaling frame row k by sigma[k] divides each centre's coordinate k by it
    m1c, n1c, m2c, n2c = [[c / s for c, s in zip(cs, sigma)] + cs[4:] for cs in raw]
    m1c = vec_scale(ONE / m1c[0], m1c)
    n1c = vec_scale(ONE / n1c[1], n1c)
    m2c = vec_scale(ONE / m2c[2], m2c)
    n2c = vec_scale(ONE / n2c[0], n2c)
    # the centres span a plane, which closes the cycle exactly
    if n2c != vec_sub(vec_add(m1c, m2c), n1c):
        raise InvariantError("the projection centres do not close up in a plane")

    adapted = frame * p.omega.gram * frame.transpose()
    a_block = _block(adapted, range(4), range(4))
    b_block = _block(adapted, range(4), range(4, 8))
    o_block = _block(adapted, range(4, 8), range(4, 8))
    if not o_block.is_zero() or rank(b_block) != 4:
        raise GeometryError("quadric not in admissible position")

    zeta1 = -(ONE / m1c[0])
    beta = zeta1 * m1c[1]
    eta1 = -(beta / n1c[1])
    gamma = eta1 * n1c[2]
    zeta2 = -(gamma / m2c[2])
    delta = zeta2 * m2c[3]
    weights = (ONE, beta, gamma, delta)

    shift1 = vec_scale(zeta1, m1c[4:])
    shift2 = vec_add(shift1, vec_scale(eta1, n1c[4:]))
    shift3 = vec_add(shift2, vec_scale(zeta2, m2c[4:]))
    shifts = ((ZERO,) * 4, shift1, shift2, shift3)

    rhs = [-(weights[k] * a_block[k, k] * HALF) - vec_dot(b_block.row(k), shifts[k])
           for k in range(4)]
    x = solve(b_block, rhs)
    assert x is not None

    u1c = (ONE, ZERO, ZERO, ZERO) + tuple(x)
    v1c = vec_add(u1c, vec_scale(zeta1, m1c))
    u2c = vec_add(v1c, vec_scale(eta1, n1c))
    v2c = vec_add(u2c, vec_scale(zeta2, m2c))
    back = frame.transpose()
    points = [ProjPoint(back.apply(cs)) for cs in (u1c, v1c, u2c, v2c)]

    u1, v1, u2, v2 = points
    if not all(p.omega.contains(pt) for pt in points):
        raise InvariantError("reconstructed vertex off the quadric")
    sides = ((u1, v1), (v1, u2), (u2, v2), (v2, u1))
    if not all(p.omega.polar(a, b).is_zero() for a, b in sides):
        raise InvariantError("consecutive reconstructed vertices not polar")
    if not all(span([a, b]).contains(c) for (a, b), c in zip(sides, cycle.centers)):
        raise InvariantError("reconstructed side misses its projection centre")
    f = span(cycle.f_points)
    if not all(project_from_center(pt, cycle.e, f) == prime
               for pt, prime in zip(points, cycle.f_points)):
        raise InvariantError("reconstructed vertex does not project to its image point")
    return points
