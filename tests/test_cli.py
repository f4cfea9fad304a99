"""End-to-end tests of the command line front end."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback

import pytest

from dqkin.cli import main
from dqkin.jsonio import (dq_to_json, matrix_to_json, parse_dq, parse_point,
                          parse_scalar_at, point_to_json)
from dqkin.motions import darboux, darboux_invariants
from dqkin.projgeom import ProjPoint, span
from dqkin.transforms import build_transform, conjugation_matrix
from helpers import dq, pt8, quat, random_study_dq


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return str(target)


def rr_fixture_doc():
    h1 = dq(quat(0, 0, 0, 1))
    h2 = dq(quat(0, 1, 0, 0), quat(0, 0, 0, 1))
    pts = [dq(quat(1)), h1, h2, h1 * h2]
    return [dq_to_json(q) for q in pts]


class TestClassify:
    def test_two_r_fixture(self, capsys, tmp_path):
        path = write_json(tmp_path, "rr.json", rr_fixture_doc())
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "TwoR"
        quad = doc["evidence"]["quadrilateral"]
        assert len(quad["lines"]) == 4 and len(quad["vertices"]) == 4

    def test_witness_points_reparse_into_span(self, capsys, tmp_path):
        fixture = rr_fixture_doc()
        path = write_json(tmp_path, "rr.json", fixture)
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        doc = json.loads(out)
        space = span([parse_point(p, "$", "gaussian", 1e-9) for p in fixture])
        for vertex in doc["evidence"]["quadrilateral"]["vertices"]:
            assert space.contains(parse_point(vertex, "$", "gaussian", 1e-9))

    def test_degenerate_span_is_domain_error(self, capsys, tmp_path):
        one = dq_to_json(dq(quat(1)))
        path = write_json(tmp_path, "deg.json", [one, one, one, one])
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 1
        assert "three-space" in err

    def test_zero_point_is_parse_error(self, capsys, tmp_path):
        zero = {"primal": ["0", "0", "0", "0"], "dual": ["0", "0", "0", "0"]}
        path = write_json(tmp_path, "zero.json", [zero] * 4)
        code, _, err = run_cli(capsys, "classify", path)
        assert code == 2
        assert "$[0]" in err


class TestExitCodes:
    def test_malformed_json(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"h1": [,]}')
        code, _, err = run_cli(capsys, "classify", str(target))
        assert code == 2
        assert "malformed JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "/nonexistent/input.json")
        assert code == 2

    def test_missing_field_carries_pointer(self, capsys, tmp_path):
        path = write_json(tmp_path, "dyad.json", {"h1": dq_to_json(dq(quat(1)))})
        code, _, err = run_cli(capsys, "dyad", "--kind", "RR", path)
        assert code == 2
        assert "h2" in err

    def test_bad_scalar_carries_pointer(self, capsys, tmp_path):
        doc = rr_fixture_doc()
        doc[2]["primal"][1] = "one half"
        path = write_json(tmp_path, "bad.json", doc)
        code, _, err = run_cli(capsys, "classify", path)
        assert code == 2
        assert "$[2].primal[1]" in err

    @pytest.mark.parametrize("literal", ["1/0", "-3/00", "1/2+1/0*i"])
    def test_zero_denominator_is_parse_error(self, capsys, tmp_path, literal):
        doc = rr_fixture_doc()
        doc[2]["primal"][1] = literal
        path = write_json(tmp_path, "bad.json", doc)
        code, out, err = run_cli(capsys, "classify", "--scalar", "gaussian", path)
        assert (code, out) == (2, "")
        assert "$[2].primal[1]" in err and "bad scalar literal" in err

    def test_overflowing_float_trace_is_refused(self, capsys, tmp_path):
        with open(os.path.join(GOLDEN_DIR, "motion.json")) as fh:
            doc = json.load(fh)
        doc["coefficients"][0]["primal"][0] = 1e308
        path = write_json(tmp_path, "motion.json", doc)
        code, out, err = run_cli(capsys, "trace", "--scalar", "float", path)
        assert (code, out, err) == (1, "", "trajectory degree needs exact scalars\n")

    BEYOND_FLOAT = "1" + "0" * 400  # an exact integer no float can hold

    @pytest.mark.parametrize("token", ['"%s"' % BEYOND_FLOAT, "NaN", "1e999", '"1e999"'],
                             ids=["beyond_range", "nan", "number_1e999", "literal_1e999"])
    def test_non_finite_float_entry_is_parse_error(self, capsys, tmp_path, token):
        """Float mode refuses a matrix entry that is no finite float: an exact
        literal beyond the float range, JSON NaN, the JSON number 1e999 and
        the literal "1e999" each exit 2 at the entry's pointer."""
        with open(os.path.join(GOLDEN_DIR, "matrix.json")) as fh:
            doc = json.load(fh)
        doc[1][2] = "@"
        target = tmp_path / "matrix.json"
        target.write_text(json.dumps(doc).replace('"@"', token))
        code, out, err = run_cli(capsys, "verify-transform", "--scalar", "float", str(target))
        assert (code, out) == (2, "")
        assert err == "$[1][2]: float scalar must be finite\n"

    @pytest.mark.parametrize("literal", [BEYOND_FLOAT, "1e999"],
                             ids=["beyond_range", "literal_1e999"])
    def test_non_finite_float_parameter_is_parse_error(self, capsys, literal):
        code, out, err = run_cli(capsys, "darboux", "--a", literal, "--b", "1", "--c", "1",
                                 "--scalar", "float")
        assert (code, out, err) == (2, "", "--a: float scalar must be finite\n")

    def test_domain_error_verbatim(self, capsys, tmp_path):
        path = write_json(tmp_path, "chi.json",
                          matrix_to_json(conjugation_matrix()))
        code, _, err = run_cli(capsys, "factor-transform", path)
        assert code == 1
        assert err.strip() != ""

    def test_unknown_kind_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "dyad.json", {})
        with pytest.raises(SystemExit) as info:
            main(["dyad", "--kind", "XX", path])
        assert info.value.code == 2

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command, name", [("trace", "motion.json"),
                                               ("verify-transform", "matrix.json")])
    def test_bad_tolerance_is_parse_error(self, capsys, command, name, tolerance):
        path = os.path.join(os.path.dirname(__file__), "data", "cli", name)
        code, out, err = run_cli(capsys, command, path, "--scalar", "float",
                                 "--tolerance", tolerance)
        assert (code, out) == (2, "")
        assert "--tolerance" in err

    def test_zero_tolerance_accepted(self, capsys):
        path = os.path.join(os.path.dirname(__file__), "data", "cli", "matrix.json")
        code, out, _ = run_cli(capsys, "verify-transform", path, "--scalar", "float",
                               "--tolerance", "0")
        assert code == 0 and "overall" in json.loads(out)


class TestScalarModes:
    def test_rational_mode_rejects_complex(self, capsys, tmp_path):
        doc = rr_fixture_doc()
        doc[0]["primal"][0] = "1/2+1/3*i"
        path = write_json(tmp_path, "cx.json", doc)
        code, _, err = run_cli(capsys, "classify", path)
        assert code == 2
        assert "rational mode" in err

    def test_gaussian_mode_accepts_complex(self, capsys, tmp_path):
        doc = rr_fixture_doc()
        doc[3] = {"primal": ["0", "0", "1", "0"],
                  "dual": ["0/1+1/1*i", "0", "0", "0"]}
        path = write_json(tmp_path, "cx.json", doc)
        code, _, err = run_cli(capsys, "classify", "--scalar", "gaussian", path)
        # parsing succeeds; the genuinely complex span is then rejected
        assert code == 1
        assert "real three-space" in err

    def test_float_mode_verifies_transform(self, capsys, tmp_path):
        rng = random.Random(7)
        t = build_transform(random_study_dq(rng), random_study_dq(rng))
        floats = [[c.to_complex().real for c in row] for row in t.matrix.rows]
        path = write_json(tmp_path, "t.json", floats)
        code, out, _ = run_cli(capsys, "verify-transform", "--scalar", "float",
                               path)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"pencil_fixed": True, "shape_ok": True,
                       "rulings_preserved": True, "overall": True}

    def test_float_mode_reports_exactness_errors(self, capsys, tmp_path):
        path = write_json(tmp_path, "rr.json", rr_fixture_doc())
        code, _, err = run_cli(capsys, "classify", "--scalar", "float", path)
        assert code == 1
        assert "exact" in err


class TestTransforms:
    def test_factor_recovers_pair(self, capsys, tmp_path):
        rng = random.Random(11)
        l, r = random_study_dq(rng), random_study_dq(rng)
        t = build_transform(l, r)
        path = write_json(tmp_path, "t.json", matrix_to_json(t.matrix))
        code, out, _ = run_cli(capsys, "factor-transform", path)
        assert code == 0
        doc = json.loads(out)
        left = parse_dq(doc["left"], "$", "rational", 1e-9)
        right = parse_dq(doc["right"], "$", "rational", 1e-9)
        assert ProjPoint(left) == ProjPoint(l)
        assert ProjPoint(right) == ProjPoint(r)

    def test_verify_flags_conjugation(self, capsys, tmp_path):
        path = write_json(tmp_path, "chi.json",
                          matrix_to_json(conjugation_matrix()))
        code, out, _ = run_cli(capsys, "verify-transform", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["pencil_fixed"] and doc["shape_ok"]
        assert not doc["rulings_preserved"] and not doc["overall"]


class TestTrace:
    def trace_doc(self):
        m = darboux(1, 2, 3)
        return {"coefficients": [dq_to_json(c) for c in m.coefficients],
                "point": ["1", "0", "0", "0"]}

    def test_csv_shape_and_degree(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", self.trace_doc())
        code, out, err = run_cli(capsys, "trace", path, "--samples", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x0,x1,x2,x3"
        assert len(lines) == 5
        assert "degree: 2" in err

    def test_rows_are_exact_scalars(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", self.trace_doc())
        code, out, _ = run_cli(capsys, "trace", path, "--samples", "3")
        assert code == 0
        for row in out.strip().split("\n")[1:]:
            cells = row.split(",")
            assert len(cells) == 5
            for cell in cells[1:]:
                assert parse_scalar_at(cell, "$", "rational", 1e-9).is_exact

    def test_bad_sample_count(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", self.trace_doc())
        code, _, err = run_cli(capsys, "trace", path, "--samples", "0")
        assert code == 2


class TestDarboux:
    def test_vertical_flag(self, capsys):
        code, out, _ = run_cli(capsys, "darboux", "--a", "0", "--b", "1",
                               "--c", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertical"] is True
        assert doc["handedness"] is None

    def test_generic_report_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "darboux", "--a", "1", "--b", "2",
                               "--c", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertical"] is False
        assert doc["handedness"] == "LeftRuling"
        report = darboux_invariants(1, 2, 3)
        assert doc["p"] == ["-2/1", "1/1", "0/1", "3/1"]
        for got, expected in zip(doc["d"], report.d):
            assert parse_point(got, "$", "gaussian", 1e-9) == expected
        for got, expected in zip(doc["f"], report.f):
            assert parse_point(got, "$", "gaussian", 1e-9) == expected

    def test_fraction_and_negative_args(self, capsys):
        code, out, _ = run_cli(capsys, "darboux", "--a", "1/2", "--b", "-2",
                               "--c", "3")
        assert code == 0
        assert json.loads(out)["vertical"] is False

    @pytest.mark.parametrize("a", ["-3/2", "-1/2+1/3*i", "-.5"])
    def test_signed_literal_as_separate_value(self, capsys, a):
        scalar = "float" if "." in a else "gaussian"
        code, joined, _ = run_cli(capsys, "darboux", "--scalar", scalar,
                                  "--a=" + a, "--b=-1", "--c=-2/3")
        assert code == 0
        code, spaced, _ = run_cli(capsys, "darboux", "--scalar", scalar,
                                  "--a", a, "--b", "-1", "--c", "-2/3")
        assert code == 0
        assert spaced == joined

    def test_all_zero_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "darboux", "--a", "0", "--b", "0",
                               "--c", "0")
        assert code == 1
        assert "nonzero" in err


class TestReconstruct:
    def problem_doc(self):
        e = [point_to_json(pt8(*([0] * (4 + k) + [1] + [0] * (3 - k))))
             for k in range(4)]
        f = [point_to_json(pt8(*([0] * k + [1] + [0] * (7 - k))))
             for k in range(4)]
        centers = [point_to_json(pt8(1, 1, 0, 0, 0, 0, 0, 0)),
                   point_to_json(pt8(0, 1, 1, 0, 0, 0, 0, 0)),
                   point_to_json(pt8(0, 0, 1, 1, 0, 0, 0, 0)),
                   point_to_json(pt8(1, 0, 0, 1, 0, 0, 0, 0))]
        a = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        gram = []
        for k in range(4):
            gram.append([str(a[k][j]) for j in range(4)]
                        + [str(int(j == k)) for j in range(4)])
        for k in range(4):
            gram.append([str(int(j == k)) for j in range(4)] + ["0"] * 4)
        return {"quadric": gram, "e": e, "f_points": f, "centers": centers}

    def test_identity_configuration(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", self.problem_doc())
        code, out, _ = run_cli(capsys, "reconstruct", path)
        assert code == 0
        doc = json.loads(out)
        got = [parse_point(v, "$", "rational", 1e-9)
               for v in doc["vertices"]]
        expected = [pt8(*([0] * k + [1] + [0] * (7 - k))) for k in range(4)]
        assert got == expected

    def test_named_quadric_label(self, capsys, tmp_path):
        doc = self.problem_doc()
        doc["quadric"] = "S"
        path = write_json(tmp_path, "p.json", doc)
        code, out, _ = run_cli(capsys, "reconstruct", path)
        # purely primal centers lie on the Study quadric, so this runs
        assert code == 0
        got = [parse_point(v, "$", "rational", 1e-9)
               for v in json.loads(out)["vertices"]]
        expected = [pt8(*([0] * k + [1] + [0] * (7 - k))) for k in range(4)]
        assert got == expected

    def test_unknown_label(self, capsys, tmp_path):
        doc = self.problem_doc()
        doc["quadric"] = "Q"
        path = write_json(tmp_path, "p.json", doc)
        code, _, err = run_cli(capsys, "reconstruct", path)
        assert code == 2
        assert "unknown quadric label" in err

    def test_four_by_four_label_rejected(self, capsys, tmp_path):
        doc = self.problem_doc()
        doc["quadric"] = "pencil(1,1)"
        path = write_json(tmp_path, "p.json", doc)
        code, _, err = run_cli(capsys, "reconstruct", path)
        assert code == 1  # regular pencil member, but centers off it
        doc["quadric"] = [["1"] * 3] * 3
        path = write_json(tmp_path, "q.json", doc)
        code, _, err = run_cli(capsys, "reconstruct", path)
        assert code == 2


class TestDyadAndExample:
    def test_dyad_output(self, capsys, tmp_path):
        doc = {"h1": dq_to_json(dq(quat(0, 0, 0, 1))),
               "h2": dq_to_json(dq(quat(0, 1, 0, 0), quat(0, 0, 0, 1)))}
        path = write_json(tmp_path, "dyad.json", doc)
        code, out, _ = run_cli(capsys, "dyad", "--kind", "RR", path)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["kind"] == "RR"
        space = span([parse_point(p, "$", "rational", 1e-9)
                      for p in parsed["space"]])
        assert space.dim == 3
        for name in ("h1", "h2", "h1h2"):
            w = parse_point(parsed["witnesses"][name], "$", "rational", 1e-9)
            assert space.contains(w)

    def test_example2_all_true(self, capsys):
        code, out, _ = run_cli(capsys, "example2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 5
        assert all(doc.values())


class TestDeterminismAndOut:
    def test_byte_identical_runs(self, capsys, tmp_path):
        path = write_json(tmp_path, "rr.json", rr_fixture_doc())
        _, first, _ = run_cli(capsys, "classify", path)
        _, second, _ = run_cli(capsys, "classify", path)
        assert first == second
        _, third, _ = run_cli(capsys, "darboux", "--a", "1", "--b", "2",
                              "--c", "3")
        _, fourth, _ = run_cli(capsys, "darboux", "--a", "1", "--b", "2",
                               "--c", "3")
        assert third == fourth

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "example2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "cli")
with open(os.path.join(GOLDEN_DIR, "expected.json")) as _fh:
    GOLDEN_CASES = json.load(_fh)


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=["%s-%s" % (c["argv"][0], c["argv"][2]) for c in GOLDEN_CASES])
def test_golden_output(capsys, case):
    """All eight subcommands on the benchmark's cli input files, in rational,
    gaussian and float modes: stdout, stderr and the exit code must match the
    recorded ones byte for byte.  The input files in tests/data/cli are those
    that bench/decks.py's ``cli`` writes; expected.json holds the outputs
    recorded when this test was written, so changing it changes what the CLI
    promises to print."""
    argv = [os.path.join(GOLDEN_DIR, a) if a.endswith(".json") else a
            for a in case["argv"]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


# --- fuzz: one perturbed entry per case, exit codes 0/1/2 and no traceback

def run_case(argv):
    """Exit code and stderr of main(argv); what escapes main leaves its
    traceback on stderr and no exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, err.getvalue()


FUZZ_SCRIPT = (
    "import json, sys\n"
    "from test_cli import run_case\n"
    "with open(sys.argv[1]) as fh:\n"
    "    print(json.dumps([run_case(argv) for argv in json.load(fh)]))\n"
)


def _fuzz_value(rng):
    """One replacement entry: a valid literal of some scalar kind, or junk."""
    pick = rng.randrange(12)
    if pick < 3:
        return "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 5))
    if pick < 5:
        return "%d/%d%+d/%d*i" % (rng.randint(-9, 9), rng.randint(1, 5),
                                  rng.randint(-9, 9), rng.randint(1, 5))
    if pick < 7:
        return round(rng.uniform(-10, 10), 3)
    return rng.choice(["0/1", 0, "1/0", "", "x", None, [], {}, True,
                       1e308, "1e999", "nan", "-0.0", "3/4*i", "1" + "0" * 400])


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _leaf_paths(doc[k], path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


def _perturbed_argv(rng, template, workdir, index):
    """The golden argv with one entry of its input changed."""
    value = _fuzz_value(rng)
    argv = list(template)
    files = [k for k, a in enumerate(argv) if a.endswith(".json")]
    if files:
        with open(os.path.join(GOLDEN_DIR, argv[files[0]])) as fh:
            doc = json.load(fh)
        path = rng.choice(list(_leaf_paths(doc)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = os.path.join(workdir, "case%03d.json" % index)
        with open(target, "w") as fh:
            json.dump(doc, fh)
        argv[files[0]] = target
        return argv
    text = value if isinstance(value, str) else json.dumps(value)
    params = [k for k, a in enumerate(argv) if a.startswith(("--a=", "--b=", "--c="))]
    if params:
        k = rng.choice(params)
        argv[k] = argv[k][:4] + text
    else:
        argv.append("--tolerance=" + text)
    return argv


def test_cli_fuzz(tmp_path):
    """200 seeded cases over the golden inputs: every subcommand in every
    scalar mode, with one input entry (or darboux parameter, or example2's
    tolerance) replaced by another literal or by junk.  Each exits 0, 1 or
    2 with no traceback, and python -O gives the same exit codes."""
    rng = random.Random(2024)
    templates = [c["argv"] for c in GOLDEN_CASES]
    cases = [_perturbed_argv(rng, templates[k % len(templates)], str(tmp_path), k)
             for k in range(200)]
    results = [run_case(argv) for argv in cases]
    for argv, (code, err) in zip(cases, results):
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    case_file = tmp_path / "cases.json"
    case_file.write_text(json.dumps(cases))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    proc = subprocess.run([sys.executable, "-O", "-c", FUZZ_SCRIPT, str(case_file)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    for argv, (code, _), (o_code, o_err) in zip(cases, results, optimized):
        assert "Traceback" not in o_err, (argv, o_err)
        assert o_code == code, (argv, code, o_code, o_err)
