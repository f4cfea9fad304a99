import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dqkin import quadrecon

from dqkin.dyads import DyadKind, DyadSpec, build_variety, classify
from dqkin.errors import ExactnessError, GeometryError, InvariantError
from dqkin.linalg import Matrix, _cleared, inverse, rank, vec_add, vec_scale
from dqkin.projgeom import (
    Line,
    ProjPoint,
    exceptional_generator,
    project_from_center,
    span,
)
from dqkin.quadrecon import (
    ProjectionCycle,
    ReconstructionProblem,
    reconstruct_quadrilateral,
    run_cycle,
)
from dqkin.quadrics import QuadricForm, null_cone, study_quadric
from dqkin.quaternions import Q_I, Q_K
from dqkin.scalars import ComplexFloat, ExactRational, GaussianRational

from helpers import dq


def pt(*coords):
    return ProjPoint(list(coords))


def unit(k):
    coords = [0] * 8
    coords[k] = 1
    return pt(*coords)


def coordinate_cycle(centers=None):
    e = span([unit(4), unit(5), unit(6), unit(7)])
    f_points = (unit(0), unit(1), unit(2), unit(3))
    if centers is None:
        centers = (pt(1, 1, 0, 0, 0, 0, 0, 0), pt(0, 1, 1, 0, 0, 0, 0, 0),
                   pt(0, 0, 1, 1, 0, 0, 0, 0), pt(1, 0, 0, 1, 0, 0, 0, 0))
    return ProjectionCycle(e, f_points, centers)


def rand_frac(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def nonzero_frac(rng):
    while True:
        f = rand_frac(rng)
        if f != 0:
            return f


def random_frame(rng):
    while True:
        m = Matrix([[rand_frac(rng) for _ in range(8)] for _ in range(8)])
        if inverse(m) is not None:
            return m


def combo(rows, coeffs):
    out = vec_scale(coeffs[0], rows[0])
    for c, r in zip(coeffs[1:], rows[1:]):
        out = vec_add(out, vec_scale(c, r))
    return out


def random_cycle(rng):
    """Centres on the sides of a hidden quadrilateral given by frame rows."""
    rows = random_frame(rng).rows
    e = span([ProjPoint(rows[i]) for i in range(4, 8)])
    f_points = tuple(ProjPoint(rows[i]) for i in range(4))
    alpha, beta = nonzero_frac(rng), nonzero_frac(rng)
    m1 = vec_add(combo(rows, (1, alpha, 0, 0)),
                 combo(rows[4:], (rand_frac(rng),) * 4))
    n1 = vec_add(combo(rows, (0, 1, beta, 0)),
                 combo(rows[4:], (rand_frac(rng),) * 4))
    m2 = vec_add(combo(rows, (0, 0, 1, nonzero_frac(rng))),
                 combo(rows[4:], (rand_frac(rng),) * 4))
    n2 = vec_add(vec_add(m1, vec_scale(-alpha, n1)),
                 vec_scale(alpha * beta, m2))
    centers = tuple(ProjPoint(v) for v in (m1, n1, m2, n2))
    return ProjectionCycle(e, f_points, centers), rows


class TestProjectionCycle:
    def test_coordinate_fixture(self):
        c = coordinate_cycle()
        dims = [s.dim for s in c.spaces()]
        assert dims == [4, 4, 4, 4]

    def test_fixed_space_dimension(self):
        e = span([unit(4), unit(5), unit(6)])
        with pytest.raises(GeometryError, match="three-space"):
            ProjectionCycle(e, (unit(0), unit(1), unit(2), unit(3)),
                            coordinate_cycle().centers)

    def test_image_points_dependent(self):
        e = span([unit(4), unit(5), unit(6), unit(7)])
        dep = ProjPoint([1, 1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(GeometryError, match="three-space"):
            ProjectionCycle(e, (unit(0), unit(1), unit(2), dep),
                            coordinate_cycle().centers)

    def test_fixed_meets_image(self):
        e = span([unit(4), unit(5), unit(6), unit(7)])
        with pytest.raises(GeometryError, match="meets the image"):
            ProjectionCycle(e, (unit(0), unit(1), unit(2), unit(4)),
                            coordinate_cycle().centers)

    def test_duplicate_centers(self):
        centers = (pt(1, 1, 0, 0, 0, 0, 0, 0), pt(0, 1, 1, 0, 0, 0, 0, 0),
                   pt(0, 0, 1, 1, 0, 0, 0, 0), pt(2, 2, 0, 0, 0, 0, 0, 0))
        with pytest.raises(GeometryError, match="pairwise distinct"):
            coordinate_cycle(centers)

    def test_centers_off_plane(self):
        centers = (pt(1, 1, 0, 0, 0, 0, 0, 0), pt(0, 1, 1, 0, 0, 0, 0, 0),
                   pt(0, 0, 1, 1, 0, 0, 0, 0), pt(1, 0, 0, 1, 1, 0, 0, 0))
        with pytest.raises(GeometryError, match="span a plane"):
            coordinate_cycle(centers)

    def test_complementarity_violated(self):
        m1 = pt(1, 0, 0, 0, 1, 0, 0, 0)
        n1 = pt(0, 1, 1, 0, 0, 0, 0, 0)
        m2 = pt(0, 0, 1, 1, 0, 0, 0, 0)
        n2 = ProjPoint(vec_add(combo([m1.coords, n1.coords], (1, -1)),
                               m2.coords))
        with pytest.raises(GeometryError, match="centre plane meets"):
            coordinate_cycle((m1, n1, m2, n2))

    def test_refuses_floats(self):
        centers = (pt(ComplexFloat(1.0), 1, 0, 0, 0, 0, 0, 0),
                   pt(0, 1, 1, 0, 0, 0, 0, 0),
                   pt(0, 0, 1, 1, 0, 0, 0, 0), pt(1, 0, 0, 1, 0, 0, 0, 0))
        with pytest.raises(ExactnessError, match="exact scalars"):
            coordinate_cycle(centers)


class TestRunCycle:
    def test_coordinate_chain(self):
        c = coordinate_cycle()
        start = pt(2, 0, 0, 0, 3, -1, 5, 7)
        out = run_cycle(c, start)
        assert out[0] == pt(0, -2, 0, 0, 3, -1, 5, 7)
        assert out[1] == pt(0, 0, 2, 0, 3, -1, 5, 7)
        assert out[2] == pt(0, 0, 0, -2, 3, -1, 5, 7)
        assert out[3] == start

    def test_start_in_fixed_space(self):
        c = coordinate_cycle()
        with pytest.raises(GeometryError, match="fixed space"):
            run_cycle(c, pt(0, 0, 0, 0, 1, 2, 3, 4))

    def test_start_outside_first_space(self):
        c = coordinate_cycle()
        with pytest.raises(GeometryError, match="first projection space"):
            run_cycle(c, pt(0, 1, 0, 0, 1, 0, 0, 0))

    def test_ill_defined_projection(self):
        centers = (pt(1, 0, 1, 0, 0, 0, 0, 0), pt(0, 1, 0, 1, 0, 0, 0, 0),
                   pt(1, 2, 3, 4, 0, 0, 0, 0), pt(2, 1, 4, 3, 0, 0, 0, 0))
        c = coordinate_cycle(centers)
        with pytest.raises(GeometryError, match="not well defined"):
            run_cycle(c, pt(1, 0, 0, 0, 2, 0, 0, 0))

    def test_random_cycles_identity(self):
        rng = random.Random(21)
        for _ in range(3):
            cycle, rows = random_cycle(rng)
            for _ in range(7):
                coeffs = (nonzero_frac(rng),) + tuple(
                    rand_frac(rng) for _ in range(4))
                start = ProjPoint(vec_add(
                    vec_scale(coeffs[0], rows[0]),
                    combo(rows[4:], coeffs[1:])))
                out = run_cycle(cycle, start)
                assert out[3] == start

    def test_images_land_in_their_spaces(self):
        c = coordinate_cycle()
        start = pt(1, 0, 0, 0, 2, 0, 0, 0)
        out = run_cycle(c, start)
        _, v1_space, u2_space, v2_space = c.spaces()
        for space, point in zip((v1_space, u2_space, v2_space), out):
            assert space.contains(point)
            assert not c.e.contains(point)


def meet_chain(cycle, start):
    """run_cycle by general meets: each step projects from span([m]), with
    the start checks of run_cycle and without its closure check."""
    spaces = cycle.spaces()
    if cycle.e.contains(start):
        raise GeometryError("start point lies in the fixed space")
    if not spaces[0].contains(start):
        raise GeometryError("start point outside the first projection space")
    x, out = start, []
    for m, target in zip(cycle.centers, spaces[1:] + spaces[:1]):
        x = project_from_center(x, span([m]), target)
        out.append(x)
    return out


def mixed_transform(rng):
    """An invertible 8x8 matrix, about a third of its entries Gaussian."""
    while True:
        m = Matrix([[GaussianRational(rand_frac(rng), nonzero_frac(rng))
                     if rng.random() < 0.3 else rand_frac(rng) for _ in range(8)]
                    for _ in range(8)])
        if inverse(m) is not None:
            return m


def sided_cycle(rng, generic):
    """A random cycle whose centres m1, n1, m2 sit on the sides of the hidden
    quadrilateral, except the ones indexed in generic, which are random
    points.  n2 closes the plane as in random_cycle, or is a random
    combination of the other three when 3 is in generic.  With a generic
    centre the step from it is undefined for every start that reaches it."""
    while True:
        rows = random_frame(rng).rows
        e_part = lambda: combo(rows[4:], tuple(rand_frac(rng) for _ in range(4)))
        alpha, beta = nonzero_frac(rng), nonzero_frac(rng)
        sides = [(1, alpha, 0, 0), (0, 1, beta, 0), (0, 0, 1, nonzero_frac(rng))]
        m1, n1, m2 = (tuple(rand_frac(rng) for _ in range(8)) if i in generic
                      else vec_add(combo(rows, side), e_part())
                      for i, side in enumerate(sides))
        if 3 in generic:
            weights = tuple(nonzero_frac(rng) for _ in range(3))
        else:
            weights = (1, -alpha, alpha * beta)
        n2 = combo([m1, n1, m2], weights)
        try:
            cycle = ProjectionCycle(
                span([ProjPoint(rows[i]) for i in range(4, 8)]),
                tuple(ProjPoint(rows[i]) for i in range(4)),
                tuple(ProjPoint(v) for v in (m1, n1, m2, n2)))
        except GeometryError:
            continue
        return cycle, rows


def transformed(cycle, m):
    """The cycle moved by the matrix m, which keeps every incidence."""
    move = lambda p: ProjPoint(m.apply(p.coords))
    return ProjectionCycle(span([move(p) for p in cycle.e.points()]),
                           tuple(move(p) for p in cycle.f_points),
                           tuple(move(p) for p in cycle.centers)), move


def retyped(p, rng, columns):
    """p with its real coordinates in the columns given held as
    GaussianRational, each about a third of the time."""
    return ProjPoint([GaussianRational(c.value, 0) if j in columns and rng.random() < 0.3
                      else c for j, c in enumerate(p.coords)])


def typed(p):
    return [(type(c), c) for c in p.coords]


def outcome(run, cycle, start):
    """The points in value and kind, each with whether its kept cleared form
    is that of its coordinates, or the GeometryError raised."""
    try:
        points = run(cycle, start)
    except GeometryError as exc:
        return "GeometryError: %s" % exc
    return [(typed(p), p._kept() == _cleared(p.coords)) for p in points]


def closed_form_mismatches(seed, count):
    """Starts on seeded cycles where run_cycle and meet_chain differ.

    Each round draws a closing cycle or one with a generic centre (so one
    step is undefined), and the same cycle under a mixed rational/Gaussian
    transform.  Starts lie in the first space, in the fixed space (no
    weight on the first image point) or off the first space.  Returns the
    mismatches, and how many starts ran and raised.
    """
    rng = random.Random(seed)
    mismatches, runs, raised = [], 0, 0
    for _ in range(count):
        generic = () if rng.random() < 0.5 else (rng.randrange(4),)
        cycle, rows = sided_cycle(rng, generic)
        moved, move = transformed(cycle, mixed_transform(rng))
        for _ in range(5):
            head = 0 if rng.random() < 0.1 else nonzero_frac(rng)
            coords = vec_add(vec_scale(head, rows[0]),
                             combo(rows[4:], tuple(nonzero_frac(rng) for _ in range(4))))
            if rng.random() < 0.1:
                coords = vec_add(coords, rows[1 + rng.randrange(3)])
            start = ProjPoint(coords)
            for c, s in ((cycle, start), (moved, move(start))):
                got, want = outcome(run_cycle, c, s), outcome(meet_chain, c, s)
                runs += 1
                raised += isinstance(want, str)
                if got != want:
                    mismatches.append((generic, s, got, want))
    return mismatches, runs, raised


class TestClosedFormAgainstMeets:
    """run_cycle's closed-form steps against the chain of general meets:
    the same points, coordinate by coordinate in value and kind, and a
    GeometryError with the same message exactly where the chain raises."""

    def test_same_points_and_errors(self):
        mismatches, runs, raised = closed_form_mismatches(61, 12)
        assert mismatches == []
        assert runs == 120 and 0 < raised < runs

    def test_same_points_and_errors_second_seed(self):
        mismatches, runs, raised = closed_form_mismatches(65, 12)
        assert mismatches == []
        assert runs == 120 and 0 < raised < runs

    def test_kinds_on_some_coordinates_only(self):
        """Rational cycles whose centres and starts hold some real coordinates
        as GaussianRational, so the kinds masks cover some coordinates only:
        run_cycle against the chain of meets, in value and kind.  A Gaussian
        coordinate at a pivot column of the projection spaces (here columns
        0 to 4) makes every later coordinate Gaussian, so most are put past
        them."""
        rng = random.Random(67)
        mismatches, partial, full = [], 0, 0
        for _ in range(12):
            cycle, rows = random_cycle(rng)
            assert all(s._pivots == (0, 1, 2, 3, 4) for s in cycle.spaces())
            columns = (5, 6, 7) if rng.random() < 0.8 else range(8)
            cycle = ProjectionCycle(cycle.e, cycle.f_points,
                                    tuple(retyped(p, rng, columns) for p in cycle.centers))
            for _ in range(5):
                start = retyped(ProjPoint(vec_add(
                    vec_scale(nonzero_frac(rng), rows[0]),
                    combo(rows[4:], tuple(nonzero_frac(rng) for _ in range(4))))), rng, columns)
                got, want = outcome(run_cycle, cycle, start), outcome(meet_chain, cycle, start)
                if got != want:
                    mismatches.append((start, got, want))
                kinds = [{k for k, _ in point} for point, _ in got]
                partial += sum(len(k) == 2 for k in kinds)
                full += sum(k == {GaussianRational} for k in kinds)
        assert mismatches == []
        assert partial > 40 and full > 40

    def test_gaussian_coordinates_reach_the_output(self):
        cycle, rows = random_cycle(random.Random(62))
        moved, move = transformed(cycle, mixed_transform(random.Random(63)))
        start = move(ProjPoint(vec_add(rows[0], rows[5])))
        out = run_cycle(moved, start)
        assert any(type(c) is GaussianRational for p in out for c in p.coords)
        assert [typed(p) for p in out] == [typed(p) for p in meet_chain(moved, start)]

    def test_start_at_a_centre(self):
        """A step from m is undefined at m itself.  run_cycle never reaches
        it, since each point lies in a space the centre plane misses, so
        the step is called directly, at m and at a multiple of m."""
        for c in (coordinate_cycle(), random_cycle(random.Random(64))[0]):
            spaces = c.spaces()
            for step, m, target in zip(c._steps, c.centers, spaces[1:] + spaces[:1]):
                for x in (m, ProjPoint(vec_scale(Fraction(-3, 2), m.coords))):
                    with pytest.raises(GeometryError, match="not well defined"):
                        project_from_center(x, span([m]), target)
                    with pytest.raises(GeometryError, match="not well defined"):
                        quadrecon._project(x, step, target)

    def test_under_python_o(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = ("import sys\n"
                  "from test_quadrecon import closed_form_mismatches\n"
                  "mismatches, runs, raised = closed_form_mismatches(61, 12)\n"
                  "sys.exit('%d mismatches' % len(mismatches) if mismatches else 0)\n")
        path = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "tests")])
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr


def forward_instance(rng, identity_config=False):
    """A quadric, a cycle and the quadrilateral the cycle was built from."""
    frame = random_frame(rng)
    rows = frame.rows
    vertices = [ProjPoint(rows[i]) for i in range(4)]
    e = span([ProjPoint(rows[i]) for i in range(4, 8)])
    s, t = rand_frac(rng), rand_frac(rng)
    a_prime = Matrix([[0, 0, s, 0], [0, 0, 0, t],
                      [s, 0, 0, 0], [0, t, 0, 0]])
    while True:
        b_prime = Matrix([[rand_frac(rng) for _ in range(4)]
                          for _ in range(4)])
        if rank(b_prime) == 4:
            break
    gram_frame = Matrix.block2x2(a_prime, b_prime,
                                 b_prime.transpose(), Matrix.zeros(4, 4))
    inv = inverse(frame)
    omega = QuadricForm(inv * gram_frame * inv.transpose(), "forward")
    alpha, beta, gamma = (nonzero_frac(rng) for _ in range(3))
    m1 = combo(rows, (1, alpha, 0, 0))
    n1 = combo(rows, (0, 1, beta, 0))
    m2 = combo(rows, (0, 0, 1, gamma))
    n2 = combo(rows, (1, 0, 0, alpha * beta * gamma))
    centers = tuple(ProjPoint(v) for v in (m1, n1, m2, n2))
    if identity_config:
        f_points = tuple(vertices)
    else:
        f_points = tuple(
            ProjPoint(vec_add(rows[i],
                              combo(rows[4:], tuple(rand_frac(rng)
                                                    for _ in range(4)))))
            for i in range(4))
    cycle = ProjectionCycle(e, f_points, centers)
    return ReconstructionProblem(omega, cycle), vertices


class TestReconstructionProblem:
    def test_singular_quadric_rejected(self):
        with pytest.raises(GeometryError, match="regular"):
            ReconstructionProblem(null_cone(), coordinate_cycle())

    def test_center_off_quadric_rejected(self):
        rng = random.Random(31)
        while True:
            problem, _ = forward_instance(rng)
            rows = None
            omega, cycle = problem.omega, problem.cycle
            lifted = ProjPoint(vec_add(cycle.centers[0].coords,
                                       cycle.e.basis.rows[0]))
            if not omega.contains(lifted):
                break
        centers = (lifted,) + cycle.centers[1:]
        bad = ProjPoint(vec_add(vec_add(centers[0].coords,
                                        vec_scale(-1, centers[1].coords)),
                                centers[2].coords))
        with pytest.raises(GeometryError, match="lie on the quadric"):
            ReconstructionProblem(
                omega, ProjectionCycle(cycle.e, cycle.f_points,
                                       centers[:3] + (bad,)))

    def test_refuses_floats(self):
        gram = [[ComplexFloat(0.0)] * 8 for _ in range(8)]
        for k in range(4):
            gram[k][4 + k] = ComplexFloat(1.0)
            gram[4 + k][k] = ComplexFloat(1.0)
        with pytest.raises(ExactnessError, match="exact scalars"):
            ReconstructionProblem(QuadricForm(Matrix(gram), "float"),
                                  coordinate_cycle())


class TestReconstruct:
    def test_identity_configuration(self):
        rng = random.Random(41)
        problem, vertices = forward_instance(rng, identity_config=True)
        assert reconstruct_quadrilateral(problem) == vertices

    def test_forward_instances_match(self):
        rng = random.Random(42)
        for _ in range(8):
            problem, vertices = forward_instance(rng)
            assert reconstruct_quadrilateral(problem) == vertices

    def test_postconditions(self):
        rng = random.Random(43)
        problem, _ = forward_instance(rng)
        out = reconstruct_quadrilateral(problem)
        omega, cycle = problem.omega, problem.cycle
        for p in out:
            assert omega.contains(p)
        pairs = [(out[i], out[(i + 1) % 4]) for i in range(4)]
        for (a, b), center in zip(pairs, cycle.centers):
            assert omega.polar(a, b).is_zero()
            assert Line.through(a, b).contains(center)
        f = span(cycle.f_points)
        for p, prime in zip(out, cycle.f_points):
            assert project_from_center(p, cycle.e, f) == prime

    def test_remaining_conditions_redundant(self):
        # only the four vertex conditions are solved for; the cross terms
        # follow from the centres sitting on the quadric
        rng = random.Random(44)
        for _ in range(3):
            problem, _ = forward_instance(rng)
            u1, v1, u2, v2 = reconstruct_quadrilateral(problem)
            omega = problem.omega
            assert omega.polar(u1, v2).is_zero()
            assert omega.polar(u2, v1).is_zero()

    def test_uniqueness_under_basis_change(self):
        rng = random.Random(45)
        problem, vertices = forward_instance(rng)
        rows = problem.cycle.e.basis.rows
        mixed = [
            ProjPoint(combo(rows, (1, 1, 0, 0))),
            ProjPoint(combo(rows, (0, 1, 2, 0))),
            ProjPoint(combo(rows, (0, 0, 1, -1))),
            ProjPoint(combo(rows, (3, 0, 0, 1))),
        ]
        assert span(mixed) == problem.cycle.e
        first = reconstruct_quadrilateral(problem)
        second = reconstruct_quadrilateral(problem, e_basis=mixed)
        assert first == second == vertices

    def test_bad_alternative_basis(self):
        rng = random.Random(46)
        problem, _ = forward_instance(rng)
        with pytest.raises(GeometryError, match="alternative basis"):
            reconstruct_quadrilateral(
                problem, e_basis=[unit(4), unit(5), unit(6), unit(7)])

    def test_cycle_agrees_with_reconstruction(self):
        rng = random.Random(47)
        problem, _ = forward_instance(rng)
        u1, v1, u2, v2 = reconstruct_quadrilateral(problem)
        assert run_cycle(problem.cycle, u1) == [v1, u2, v2, u1]

    def test_perturbed_quadric_not_admissible(self):
        rng = random.Random(48)
        problem, _ = forward_instance(rng, identity_config=True)
        frame = Matrix([list(p.coords) for p in problem.cycle.f_points]
                       + [list(r) for r in problem.cycle.e.basis.rows])
        inv = inverse(frame)
        bump = Matrix.zeros(8, 8).rows
        bump = [list(r) for r in bump]
        bump[4][4] = 1
        perturbed = problem.omega.gram + inv * Matrix(bump) * inv.transpose()
        assert rank(perturbed) == 8
        bad = ReconstructionProblem(QuadricForm(perturbed, "perturbed"),
                                    problem.cycle)
        with pytest.raises(GeometryError, match="admissible position"):
            reconstruct_quadrilateral(bad)

    def test_two_r_quadrilateral(self):
        spec = DyadSpec(DyadKind.RR, dq(Q_K), dq(Q_I, Q_K))
        classification = classify(build_variety(spec).space)
        quad = classification.evidence["quadrilateral"]
        vertices = list(quad.vertices)
        f_points = tuple(
            ProjPoint(list(v.coords[:4]) + [0, 0, 0, 0]) for v in vertices)
        centers = tuple(
            ProjPoint(vec_add(vertices[i].coords,
                              vertices[(i + 1) % 4].coords))
            for i in range(4))
        cycle = ProjectionCycle(exceptional_generator(), f_points, centers)
        problem = ReconstructionProblem(study_quadric(), cycle)
        assert reconstruct_quadrilateral(problem) == vertices


def shifted(p, k=4):
    """p moved along the k-th coordinate axis: a different point."""
    return ProjPoint(vec_add(p.coords, unit(k).coords))


class TestCertificates:
    """The closure of run_cycle, the plane of the centres and the
    postconditions of reconstruct_quadrilateral are explicit checks: a
    wrong projection, centre or solution raises InvariantError, also under
    python -O, and CLI reconstruct exits 1 with the message."""

    def test_cycle_closure(self, monkeypatch):
        real, calls = quadrecon._project, itertools.count(1)
        # the fourth step, back onto the first space, comes out wrong
        monkeypatch.setattr(quadrecon, "_project", lambda x, s, t: (
            shifted(real(x, s, t)) if next(calls) == 4 else real(x, s, t)))
        with pytest.raises(InvariantError, match="does not close up"):
            run_cycle(coordinate_cycle(), pt(2, 0, 0, 0, 3, -1, 5, 7))

    def test_centres_off_their_plane(self, monkeypatch):
        # m1 + m2 - n1 comes out shifted, so n2 is off the plane of the others
        monkeypatch.setattr(quadrecon, "vec_sub",
                            lambda u, v: tuple(a - b + 1 for a, b in zip(u, v)))
        problem, _ = forward_instance(random.Random(49))
        with pytest.raises(InvariantError, match="do not close up in a plane"):
            reconstruct_quadrilateral(problem)

    def test_vertex_off_quadric(self, monkeypatch):
        real = quadrecon.solve
        monkeypatch.setattr(quadrecon, "solve",
                            lambda m, b: tuple(x + 1 for x in real(m, b)))
        problem, _ = forward_instance(random.Random(49))
        with pytest.raises(InvariantError, match="off the quadric"):
            reconstruct_quadrilateral(problem)

    def test_vertices_not_polar(self, monkeypatch):
        real = quadrecon.solve
        monkeypatch.setattr(quadrecon, "solve",
                            lambda m, b: tuple(x + 1 for x in real(m, b)))
        monkeypatch.setattr(QuadricForm, "contains", lambda self, p: True)
        problem, _ = forward_instance(random.Random(49))
        with pytest.raises(InvariantError, match="not polar"):
            reconstruct_quadrilateral(problem)

    def test_side_misses_centre(self, monkeypatch):
        real = quadrecon.span
        monkeypatch.setattr(quadrecon, "span",
                            lambda pts: real(pts[:1] if len(pts) == 2 else pts))
        problem, _ = forward_instance(random.Random(49))
        with pytest.raises(InvariantError, match="misses its projection centre"):
            reconstruct_quadrilateral(problem)

    def test_wrong_image_point(self, monkeypatch):
        real = quadrecon.project_from_center
        monkeypatch.setattr(quadrecon, "project_from_center",
                            lambda x, c, t: shifted(real(x, c, t), 0))
        problem, _ = forward_instance(random.Random(49))
        with pytest.raises(InvariantError, match="does not project to its image point"):
            reconstruct_quadrilateral(problem)

    SCRIPT = (
        "import itertools, sys\n"
        "from dqkin import quadrecon\n"
        "from dqkin.cli import main\n"
        "from dqkin.errors import InvariantError\n"
        "from dqkin.linalg import vec_add\n"
        "from dqkin.projgeom import ProjPoint, span\n"
        "unit = lambda k: ProjPoint([int(j == k) for j in range(8)])\n"
        "cycle = quadrecon.ProjectionCycle(\n"
        "    span([unit(k) for k in range(4, 8)]), tuple(unit(k) for k in range(4)),\n"
        "    tuple(ProjPoint([int(j in (k, (k + 1) % 4)) for j in range(8)]) for k in range(4)))\n"
        "project, calls = quadrecon._project, itertools.count(1)\n"
        "def wrong(x, s, t):\n"
        "    y = project(x, s, t)\n"
        "    return ProjPoint(vec_add(y.coords, unit(4).coords)) if next(calls) == 4 else y\n"
        "quadrecon._project = wrong\n"
        "try:\n"
        "    quadrecon.run_cycle(cycle, ProjPoint([2, 0, 0, 0, 3, -1, 5, 7]))\n"
        "except InvariantError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('run_cycle did not raise InvariantError')\n"
        "quadrecon._project = project\n"
        "solve = quadrecon.solve\n"
        "quadrecon.solve = lambda m, b: tuple(x + 1 for x in solve(m, b))\n"
        "sys.exit(main(['reconstruct', sys.argv[1]]))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_survive_python_o(self, flags):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        problem = os.path.join(root, "tests", "data", "cli", "problem.json")
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT, problem],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "off the quadric" in proc.stderr
        assert "Traceback" not in proc.stderr
