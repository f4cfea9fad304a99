import json
import os
import random
import subprocess
import sys
from itertools import permutations

import pytest

from dqkin import dyads
from dqkin.dyads import (
    DyadKind,
    DyadSpec,
    Verdict,
    build_variety,
    classify,
    example2_checks,
    null_quadrilateral,
    recover_axes,
)
from dqkin import quadrics
from dqkin.errors import ExactnessError, GeometryError, InvariantError
from dqkin.jsonio import matrix_to_json, point_to_json
from dqkin.linalg import Matrix, rank
from dqkin.projgeom import Line, ProjPoint, Subspace, chi_subspace, meet, span
from dqkin.quadrics import Handedness
from dqkin.quaternions import DQ_ONE, DualQuaternion, Q_I, Q_J, Q_K, Q_ONE, Quaternion
from dqkin.scalars import ComplexFloat, scalar_to_json
from dqkin.transforms import build_transform

from helpers import (dq, half_turn_about, point, random_dyad_spec, random_study_dq,
                     rational_unit_pure)

RR_SPEC = DyadSpec(DyadKind.RR, dq(Q_K), dq(Q_I, Q_K))
RP_SPEC = DyadSpec(DyadKind.RP, dq(Q_K), dq(dual=Q_I + Q_K))
PR_SPEC = DyadSpec(DyadKind.PR, dq(Q_K), dq(dual=Q_I + Q_K))
C_SPEC = DyadSpec(DyadKind.C, dq(Q_I), dq(dual=Q_I))


class TestBuildVariety:
    def test_rr_span(self):
        v = build_variety(RR_SPEC)
        want = span([point(Q_ONE), point(Q_K), point(Q_I, Q_K),
                     point(Q_J, -Q_ONE)])
        assert v.space == want
        assert v.quadric.signature() == (2, 2, 0)

    def test_rr_parametrization_samples(self):
        v = build_variety(RR_SPEC)
        for t1, t2 in [(0, 0), (1, 2), (-1, 3), (2, -2), (5, 1)]:
            s = v.parametrization(t1, t2)
            assert s.study_condition()
            assert v.space.contains(ProjPoint(s))

    def test_rp_span_matches_direct_expansion(self):
        v = build_variety(RP_SPEC)
        # eps k(i+k) = eps(j - 1)
        want = span([point(Q_ONE), point(Q_K), point(dual=Q_I + Q_K),
                     point(dual=Q_J - Q_ONE)])
        assert v.space == want
        assert "e1" in v.witnesses

    def test_orthogonal_rp_is_constructible(self):
        # degenerate variant: translation orthogonal to the axis; the span
        # exists but its Study restriction collapses, so see TestClassify
        v = build_variety(DyadSpec(DyadKind.RP, dq(Q_K), dq(dual=Q_I)))
        want = span([point(Q_ONE), point(Q_K), point(dual=Q_I),
                     point(dual=Q_J)])
        assert v.space == want
        assert v.quadric.gram.is_zero()

    def test_pr_span_uses_reversed_product(self):
        v = build_variety(PR_SPEC)
        # eps (i+k)k = eps(-j - 1)
        want = span([point(Q_ONE), point(Q_K), point(dual=Q_I + Q_K),
                     point(dual=-Q_J - Q_ONE)])
        assert v.space == want

    def test_c_span(self):
        v = build_variety(C_SPEC)
        want = span([point(Q_ONE), point(Q_I), point(dual=Q_ONE),
                     point(dual=Q_I)])
        assert v.space == want
        for t1, t2 in [(1, 1), (2, -1), (0, 3)]:
            s = v.parametrization(t1, t2)
            assert s.study_condition()
            assert v.space.contains(ProjPoint(s))

    def test_variety_samples_for_all_kinds(self):
        rng = random.Random(41)
        for kind in DyadKind:
            for _ in range(3):
                v = build_variety(random_dyad_spec(rng, kind))
                s = v.parametrization(2, 3)
                assert s.study_condition()
                assert v.space.contains(ProjPoint(s))


class TestBuildVarietyErrors:
    def test_parallel_axes(self):
        spec = DyadSpec(DyadKind.RR, dq(Q_K), dq(Q_K, Q_I))
        with pytest.raises(GeometryError, match="parallel axes"):
            build_variety(spec)

    def test_coplanar_axes(self):
        spec = DyadSpec(DyadKind.RR, dq(Q_K), dq(Q_I))
        with pytest.raises(GeometryError, match="coplanar axes"):
            build_variety(spec)

    def test_half_turn_with_scalar_part(self):
        spec = DyadSpec(DyadKind.RR, dq(Quaternion(1, 0, 0, 1)), dq(Q_I))
        with pytest.raises(GeometryError, match="scalar part"):
            build_variety(spec)

    def test_half_turn_not_unit(self):
        spec = DyadSpec(DyadKind.RR, dq(Quaternion(0, 0, 0, 2)), dq(Q_I))
        with pytest.raises(GeometryError, match="not unit"):
            build_variety(spec)

    def test_rp_translation_along_axis(self):
        spec = DyadSpec(DyadKind.RP, dq(Q_K), dq(dual=Q_K))
        with pytest.raises(GeometryError, match="C dyad"):
            build_variety(spec)

    def test_c_translation_off_axis(self):
        spec = DyadSpec(DyadKind.C, dq(Q_K), dq(dual=Q_I))
        with pytest.raises(GeometryError, match="along its axis"):
            build_variety(spec)

    def test_zero_translation(self):
        spec = DyadSpec(DyadKind.RP, dq(Q_K), dq())
        with pytest.raises(GeometryError, match="translation is zero"):
            build_variety(spec)

    def test_translation_with_primal(self):
        spec = DyadSpec(DyadKind.RP, dq(Q_K), dq(Q_I, Q_I))
        with pytest.raises(GeometryError, match="purely dual"):
            build_variety(spec)


class TestClassify:
    def test_rr_fixture(self):
        c = classify(build_variety(RR_SPEC).space)
        assert c.verdict is Verdict.TwoR
        assert c.evidence["signature"] == (2, 2, 0)
        assert c.evidence["exceptional_meet_dim"] == -1
        assert len(c.evidence["null_lines"]) == 4
        assert c.evidence["quadrilateral"] is not None

    def test_rp_fixture(self):
        c = classify(build_variety(RP_SPEC).space)
        assert c.verdict is Verdict.RP
        assert c.evidence["handedness"] is Handedness.RightRuling
        assert c.evidence["exceptional_meet_dim"] == 1

    def test_pr_fixture(self):
        c = classify(build_variety(PR_SPEC).space)
        assert c.verdict is Verdict.PR
        assert c.evidence["handedness"] is Handedness.LeftRuling

    def test_c_fixture(self):
        c = classify(build_variety(C_SPEC).space)
        assert c.verdict is Verdict.C
        assert c.evidence["fiber_image"] == meet(
            build_variety(C_SPEC).space,
            span([point(dual=Q_ONE), point(dual=Q_I), point(dual=Q_J),
                  point(dual=Q_K)]))

    def test_orthogonal_rp_is_not_a_dyad_space(self):
        # Study form collapses on this span, so no dyad verdict is possible
        u = span([point(Q_ONE), point(Q_K), point(dual=Q_I), point(dual=Q_J)])
        c = classify(u)
        assert c.verdict is Verdict.NotADyadSpace
        assert c.evidence["signature"] == (0, 0, 4)

    def test_chi_swaps_rp_and_pr(self):
        u_rp = build_variety(RP_SPEC).space
        assert classify(chi_subspace(u_rp)).verdict is Verdict.PR
        u_pr = build_variety(PR_SPEC).space
        assert classify(chi_subspace(u_pr)).verdict is Verdict.RP

    def test_chi_fixes_rr_and_c(self):
        assert classify(chi_subspace(build_variety(RR_SPEC).space)).verdict \
            is Verdict.TwoR
        assert classify(chi_subspace(build_variety(C_SPEC).space)).verdict \
            is Verdict.C

    def test_primal_four_space_is_rejected(self):
        u = span([point(Q_ONE), point(Q_I), point(Q_J), point(Q_K)])
        assert classify(u).verdict is Verdict.NotADyadSpace

    def test_wrong_dimension(self):
        u = span([point(Q_ONE), point(Q_K)])
        with pytest.raises(GeometryError, match="real three-space"):
            classify(u)

    def test_non_real_input(self):
        from helpers import I
        u = span([point(Q_ONE), point(Quaternion(0, I, 1, 0)),
                  point(dual=Q_I), point(dual=Q_J)])
        with pytest.raises(GeometryError, match="real three-space"):
            classify(u)

    def test_float_input_is_refused(self):
        rows = build_variety(RR_SPEC).space.basis.rows
        u = span([ProjPoint([ComplexFloat(c.to_complex()) for c in row]) for row in rows])
        with pytest.raises(ExactnessError, match="classification needs exact scalars"):
            classify(u)

    def test_conjugation_closed_complex_span_is_accepted(self):
        from helpers import I
        v = build_variety(RR_SPEC)
        rows = [DualQuaternion.from_coords(r) for r in v.space.basis.rows]
        mixed = span([ProjPoint(rows[0] + I * rows[1]),
                      ProjPoint(rows[0] - I * rows[1]),
                      ProjPoint(rows[2]), ProjPoint(rows[3])])
        assert classify(mixed).verdict is Verdict.TwoR

    def test_soundness_sweep(self):
        rng = random.Random(42)
        verdicts = {DyadKind.RR: Verdict.TwoR, DyadKind.RP: Verdict.RP,
                    DyadKind.PR: Verdict.PR, DyadKind.C: Verdict.C}
        for kind in DyadKind:
            for _ in range(10):
                spec = random_dyad_spec(rng, kind)
                got = classify(build_variety(spec).space)
                assert got.verdict is verdicts[kind], (kind, spec)

    def test_equivariance(self):
        rng = random.Random(43)
        for space, verdict in [
            (build_variety(RR_SPEC).space, Verdict.TwoR),
            (build_variety(RP_SPEC).space, Verdict.RP),
        ]:
            for _ in range(3):
                t = build_transform(random_study_dq(rng), random_study_dq(rng))
                assert classify(t.apply_subspace(space)).verdict is verdict

    def test_nonunit_axes_are_inexact(self, monkeypatch):
        # the axis i + j has length sqrt(2): the null lines leave Q(i), and
        # classify says so instead of retrying in floats
        def float_tier(*args):
            raise AssertionError("classify reached the float tier")

        monkeypatch.setattr(quadrics, "_float_member_grams", float_tier)
        u = Q_I + Q_J
        h1, h2 = dq(u), dq(Q_I, -Q_J)
        p = Q_I + Q_K
        spans = [
            span([point(Q_ONE), ProjPoint(h1), ProjPoint(h2), ProjPoint(h1 * h2)]),
            span([point(Q_ONE), ProjPoint(h1), point(dual=p), point(dual=u * p)]),
            span([point(Q_ONE), ProjPoint(h1), point(dual=p), point(dual=p * u)]),
        ]
        for space in spans:
            got = classify(space)
            assert got.verdict is Verdict.NotADyadSpace
            assert "not in Q(i)" in got.evidence["inexact"]
            assert "null_lines" not in got.evidence


def small_pure(rng) -> Quaternion:
    while True:
        p = Quaternion(0, *[rng.randint(-3, 3) for _ in range(3)])
        if not p.is_zero():
            return p


def near_miss_span(rng) -> Subspace:
    """span(1, h, eps p, eps (u p + q)), h a half turn about an axis along u.

    With q = 0 it is the RP span of h and the translation p.  Here the dual
    plane of p and u p + q is closed under neither left nor right
    multiplication by u, so it is no RP, PR or C span about that axis; in
    general it still holds a conjugate pair of null lines and a real one."""
    u = rational_unit_pure(rng)
    h = half_turn_about(rng, axis_dir=u)
    while True:
        p, q = small_pure(rng), small_pure(rng)
        plane = [p.coords(), (u * p + q).coords()]
        if all(rank(Matrix(plane + [w.coords()])) == 3 for w in (u * p, p * u)):
            return span([point(Q_ONE), ProjPoint(h), point(dual=p), point(dual=u * p + q)])


def point_meet_span(rng) -> Subspace:
    """Rows [1,0,0,0|*], [*|*], [*|*], [0,0,0,0|*]: in general a three-space
    meeting the exceptional generator in one point."""
    def r():
        return rng.randint(-3, 3)
    rows = [[1, 0, 0, 0] + [r() for _ in range(4)],
            [r() for _ in range(8)],
            [r() for _ in range(8)],
            [0, 0, 0, 0] + [r() for _ in range(4)]]
    return Subspace.from_rows(rows, 8)


class TestNearMissSpaces:
    """A conjugate pair of null lines plus a real line does not make an RP or
    PR space: the ruling family the pair selects decides.  Seeded spaces that
    miss it, or that meet the exceptional generator in a point, are no dyad
    spaces."""

    SEEDS = range(4100, 4120)

    def test_conjugate_pair_and_real_line_do_not_suffice(self):
        reached = 0
        for seed in self.SEEDS:
            c = classify(near_miss_span(random.Random(seed)))
            assert c.verdict is Verdict.NotADyadSpace, seed
            if "handedness" in c.evidence:
                assert c.evidence["exceptional_meet_dim"] == 1
                assert len(c.evidence["null_lines"]) == 3
                assert c.evidence["handedness"] is Handedness.NotARuling, seed
                reached += 1
        assert reached >= 18

    def test_point_meet_with_exceptional_generator(self):
        reached = 0
        for seed in self.SEEDS:
            u = point_meet_span(random.Random(seed))
            if u.dim != 3:
                continue
            c = classify(u)
            assert c.verdict is Verdict.NotADyadSpace, seed
            if c.evidence["signature"] == (2, 2, 0) and c.evidence["exceptional_meet_dim"] == 0:
                assert "null_lines" not in c.evidence
                reached += 1
        assert reached >= 15

    def test_recover_axes_refuses_them(self):
        messages = []
        for seed in self.SEEDS:
            with pytest.raises(GeometryError) as info:
                recover_axes(near_miss_span(random.Random(seed)), ProjPoint(DQ_ONE))
            messages.append(str(info.value))
        assert sum("neither product" in m for m in messages) >= 18


class TestHandednessCertificate:
    """The two ruling points of an RP/PR conjugate pair must agree on their
    handedness; a disagreement raises InvariantError, also under -O."""

    def test_disagreement_raises(self, monkeypatch):
        answers = iter([Handedness.RightRuling, Handedness.LeftRuling])
        monkeypatch.setattr(dyads, "ruling_handedness", lambda a, b: next(answers))
        with pytest.raises(InvariantError, match="disagree on handedness"):
            classify(build_variety(RP_SPEC).space)

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_cli_exits_1_without_traceback(self, flags, tmp_path):
        path = tmp_path / "rp.json"
        path.write_text(json.dumps([point_to_json(p)
                                    for p in build_variety(RP_SPEC).space.points()]))
        script = (
            "import itertools, json, sys\n"
            "from dqkin import dyads\n"
            "from dqkin.cli import main\n"
            "from dqkin.errors import InvariantError\n"
            "from dqkin.quadrics import Handedness\n"
            "answers = itertools.cycle([Handedness.RightRuling, Handedness.LeftRuling])\n"
            "dyads.ruling_handedness = lambda a, b: next(answers)\n"
            "from dqkin.jsonio import parse_points\n"
            "from dqkin.projgeom import span\n"
            "doc = json.load(open(sys.argv[1]))\n"
            "try:\n"
            "    dyads.classify(span(parse_points(doc, '$', 'rational', 1e-9)))\n"
            "except InvariantError:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit('classify did not raise InvariantError')\n"
            "sys.exit(main(['classify', sys.argv[1]]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, *flags, "-c", script, str(path)],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "disagree on handedness" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBuildVarietyCertificates:
    """The dimension of a dyad's span and of its meet with the exceptional
    generator are explicit checks: a failure raises InvariantError, also
    under python -O, and CLI dyad exits 1 with the message."""

    def test_span_dimension(self, monkeypatch):
        real = dyads.span
        monkeypatch.setattr(dyads, "span", lambda pts: real(pts[:3]))
        with pytest.raises(InvariantError, match="span degenerated"):
            build_variety(RR_SPEC)

    @pytest.mark.parametrize("spec", [RR_SPEC, RP_SPEC])
    def test_exceptional_meet(self, monkeypatch, spec):
        monkeypatch.setattr(dyads, "meet", lambda a, b: a)
        with pytest.raises(InvariantError, match="exceptional generator"):
            build_variety(spec)

    SCRIPT = (
        "import sys\n"
        "from dqkin import dyads\n"
        "from dqkin.cli import main\n"
        "from dqkin.errors import InvariantError\n"
        "from dqkin.quaternions import DualQuaternion, Q_I, Q_K\n"
        "span = dyads.span\n"
        "dyads.span = lambda pts: span(pts[:3])\n"
        "spec = dyads.DyadSpec(dyads.DyadKind.RR, DualQuaternion(Q_K), DualQuaternion(Q_I, Q_K))\n"
        "try:\n"
        "    dyads.build_variety(spec)\n"
        "except InvariantError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('build_variety did not raise InvariantError')\n"
        "sys.exit(main(['dyad', '--kind', 'RP', sys.argv[1]]))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_survive_python_o(self, flags):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        joints = os.path.join(root, "tests", "data", "cli", "joints.json")
        proc = subprocess.run([sys.executable, *flags, "-c", self.SCRIPT, joints],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "span degenerated" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestNullQuadrilateral:
    def test_rr_lines_close_up(self):
        c = classify(build_variety(RR_SPEC).space)
        quad = null_quadrilateral(c.evidence["null_lines"])
        assert quad is not None
        for i in range(4):
            cut = meet(quad.lines[i], quad.lines[(i + 1) % 4])
            assert cut.dim == 0
        assert len(set(id(v) for v in quad.vertices)) == 4

    def test_three_lines(self):
        c = classify(build_variety(RR_SPEC).space)
        assert null_quadrilateral(c.evidence["null_lines"][:3]) is None

    def test_skew_lines(self):
        lines = []
        for j in range(4):
            a = [0] * 8
            b = [0] * 8
            a[2 * j] = 1
            b[2 * j + 1] = 1
            lines.append(Line.through(ProjPoint(a), ProjPoint(b)))
        for i in range(4):
            for j in range(i + 1, 4):
                assert meet(lines[i], lines[j]).dim == -1
        assert null_quadrilateral(lines) is None

    @staticmethod
    def meet_search(lines):
        """The definition: the first cycle from lines[0], over the permutations
        of the rest, whose consecutive lines meet in four distinct points."""
        lines = list(lines)
        if len(lines) != 4:
            return None
        for rest in permutations(lines[1:]):
            cycle = (lines[0],) + rest
            cuts = [meet(cycle[i], cycle[(i + 1) % 4]) for i in range(4)]
            if any(cut.dim != 0 for cut in cuts):
                continue
            vertices = [ProjPoint(cut.basis.row(0)) for cut in cuts]
            if all(vertices[i] != vertices[j] for i in range(4) for j in range(i + 1, 4)):
                return cycle, vertices
        return None

    def assert_matches_meet_search(self, lines):
        got, want = null_quadrilateral(lines), self.meet_search(lines)
        if want is None:
            assert got is None
            return
        assert all(g is w for g, w in zip(got.lines, want[0]))
        assert [[(type(c), c) for c in v.coords] for v in got.vertices] == \
            [[(type(c), c) for c in v.coords] for v in want[1]]

    def test_every_order_of_seeded_rr_lines(self):
        for seed in range(3):
            u = build_variety(random_dyad_spec(random.Random(3200 + seed), DyadKind.RR)).space
            lines = classify(u).evidence["null_lines"]
            for order in permutations(lines):
                self.assert_matches_meet_search(order)

    @staticmethod
    def unit_line(j, k):
        e = [[1 if i == c else 0 for i in range(8)] for c in (j, k)]
        return Line.through(ProjPoint(e[0]), ProjPoint(e[1]))

    def test_three_concurrent_lines(self):
        # three lines through e0 and one through e1 and e3: every closed
        # cycle repeats the vertex e0
        lines = [self.unit_line(0, 1), self.unit_line(0, 2), self.unit_line(0, 3),
                 self.unit_line(1, 3)]
        for order in permutations(lines):
            assert null_quadrilateral(order) is None
            self.assert_matches_meet_search(order)

    def test_two_disjoint_pairs(self):
        lines = [self.unit_line(0, 1), self.unit_line(0, 2), self.unit_line(4, 5),
                 self.unit_line(4, 6)]
        for order in permutations(lines):
            assert null_quadrilateral(order) is None
            self.assert_matches_meet_search(order)


class TestRecoverAxes:
    def test_rr_fixture(self):
        rec = recover_axes(build_variety(RR_SPEC), ProjPoint(DQ_ONE))
        assert rec.kind is DyadKind.RR
        assert rec.normalized
        assert ProjPoint(rec.h1) == point(Q_K)
        assert ProjPoint(rec.h2) == point(Q_I, Q_K)

    def test_rp_fixture(self):
        rec = recover_axes(build_variety(RP_SPEC), ProjPoint(DQ_ONE))
        assert rec.kind is DyadKind.RP
        assert ProjPoint(rec.h1) == point(Q_K)
        assert ProjPoint(rec.h2) == point(dual=Q_I + Q_K)

    def test_c_fixture(self):
        rec = recover_axes(build_variety(C_SPEC), ProjPoint(DQ_ONE))
        assert rec.kind is DyadKind.C

    def test_round_trips(self):
        rng = random.Random(44)
        base = ProjPoint(DQ_ONE)
        for kind in DyadKind:
            for _ in range(5):
                spec = random_dyad_spec(rng, kind)
                v = build_variety(spec)
                rec = recover_axes(v, base)
                assert rec.kind is kind
                assert build_variety(rec).space == v.space

    def test_base_off_identity(self):
        v = build_variety(RR_SPEC)
        rec = recover_axes(v, point(Q_K))
        # recovered joints describe the left-translated space
        shifted = span(
            [ProjPoint(dq(Q_K).inverse() * DualQuaternion.from_coords(r))
             for r in v.space.basis.rows])
        assert build_variety(rec).space == shifted

    def test_base_without_displacement(self):
        with pytest.raises(GeometryError, match="no displacement"):
            recover_axes(build_variety(RP_SPEC), point(dual=Q_I + Q_K))

    def test_base_outside_space(self):
        with pytest.raises(GeometryError, match="not in the space"):
            recover_axes(build_variety(RR_SPEC), point(Q_I))

    def test_base_off_quadric(self):
        v = build_variety(RR_SPEC)
        off = point(Q_ONE + Q_J, -Q_ONE)
        assert v.space.contains(off)
        with pytest.raises(GeometryError, match="not on the quadric"):
            recover_axes(v, off)

    def test_singular_base(self):
        u = span([point(Q_ONE), point(Q_K), point(dual=Q_I), point(dual=Q_J)])
        with pytest.raises(GeometryError, match="singular"):
            recover_axes(u, ProjPoint(DQ_ONE))


class TestRecoverAxesCertificates:
    """The joint order of a recovered RR, RP or PR dyad rests on one of two
    products lying in the space; that neither does marks a space that is no
    dyad space, a GeometryError from an explicit check, also under python -O."""

    @pytest.mark.parametrize("spec", [RR_SPEC, RP_SPEC])
    def test_neither_product_in_space(self, monkeypatch, spec):
        v, base = build_variety(spec), ProjPoint(DQ_ONE)
        real = Subspace.contains
        # only the base is found in the space
        monkeypatch.setattr(Subspace, "contains",
                            lambda self, p: p == base and real(self, p))
        with pytest.raises(GeometryError, match="neither product"):
            recover_axes(v, base)


class TestExample2:
    def test_all_checks_pass(self):
        report = example2_checks()
        assert report == {
            "null_line_in_exceptional": True,
            "conjugate_pair_off_exceptional": True,
            "quadric_not_contained": True,
            "substituted_span_contains": True,
            "samples_on_study": True,
        }


CLASSIFY_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "classify", "expected.json")


def golden_spans():
    """Seeded spans of every kind, and chi images of the RP ones, from seeds
    no other test draws."""
    spans = []
    for offset, kind in enumerate((DyadKind.RR, DyadKind.RP, DyadKind.PR, DyadKind.C)):
        for k in range(4):
            seed = 3300 + 10 * offset + k
            u = build_variety(random_dyad_spec(random.Random(seed), kind)).space
            spans.append(("%s-%d" % (kind.value, seed), u))
            if kind is DyadKind.RP:
                spans.append(("chi-%d" % seed, chi_subspace(u)))
    return spans


def classify_record(u):
    """The verdict, the null lines' canonical bases and the quadrilateral (its
    cycle as indices into the null lines, and its vertices) of classify(u),
    every scalar in its jsonio encoding, which shows its kind."""
    c = classify(u)
    lines = c.evidence.get("null_lines")
    quad = c.evidence.get("quadrilateral")
    return {
        "span": matrix_to_json(u.basis),
        "verdict": c.verdict.value,
        "null_lines": None if lines is None else [matrix_to_json(l.basis) for l in lines],
        "quadrilateral": None if quad is None else {
            "cycle": [next(i for i, l in enumerate(lines) if l is q) for q in quad.lines],
            "vertices": [[scalar_to_json(x) for x in v.coords] for v in quad.vertices]},
    }


class TestClassifyGolden:
    """classify's evidence on seeded spans, recorded in
    tests/data/classify/expected.json by ``classify_record`` before
    common_lines and null_quadrilateral took their current shape."""

    def test_evidence_matches_recording(self):
        with open(CLASSIFY_GOLDEN) as fh:
            expected = json.load(fh)
        spans = golden_spans()
        assert [name for name, _ in spans] == list(expected)
        verdicts = set()
        for name, u in spans:
            assert classify_record(u) == expected[name], name
            verdicts.add(expected[name]["verdict"])
        assert verdicts == {"TwoR", "RP", "PR", "C"}
