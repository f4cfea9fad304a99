"""The package root's API: every public name and submodule, loaded on first use."""

import ast
import glob
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tokenize

import pytest

import dqkin

# the names the package root has always exported, by defining module
EXPORTED = {
    "errors": ("DqkinError", "ExactnessError", "GeometryError", "InvariantError",
               "ParseError"),
    "scalars": ("ComplexFloat", "ExactRational", "GaussianRational", "Scalar", "gaussian",
                "parse_scalar", "rational", "scalar", "scalar_to_json"),
    "quaternions": ("DualQuaternion", "Quaternion"),
    "polys": ("Poly", "exact_div", "low_degree_roots", "poly_gcd"),
    "linalg": ("Matrix",),
    "projgeom": ("Line", "ProjPoint", "Subspace", "chi_point", "chi_subspace",
                 "exceptional_generator", "fiber_image", "fiber_line", "join", "meet",
                 "project_from_center", "span"),
    "quadrics": ("Handedness", "QuadricForm", "common_lines", "is_null_line", "null_cone",
                 "pencil_member", "quadric_e", "quadric_y", "quadric_y8", "restrict",
                 "ruling_handedness", "study_quadric"),
    "transforms": ("AdmissibleTransform", "VerificationReport", "build_transform",
                   "conjugation_matrix", "factor_transform", "verify_admissible"),
    "dyads": ("Classification", "ConstraintVariety", "DyadKind", "DyadSpec", "Quadrilateral",
              "Verdict", "build_variety", "classify", "example2_checks",
              "null_quadrilateral"),
    "motions": ("CSpaceReport", "DarbouxReport", "MotionPoly", "Trajectory", "act",
                "c_space_from_line", "chi", "darboux", "darboux_invariants",
                "is_vertical_darboux", "mannheim", "trajectory"),
    "quadrecon": ("ProjectionCycle", "ReconstructionProblem", "reconstruct_quadrilateral",
                  "run_cycle"),
}

SUBMODULES = tuple(EXPORTED) + ("jsonio", "cli")

PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_exported_name_is_the_defining_object(module, name):
    defined = getattr(importlib.import_module("dqkin." + module), name)
    assert getattr(dqkin, name) is defined
    namespace = {}
    exec("from dqkin import %s" % name, namespace)
    assert namespace[name] is defined


def test_star_import_yields_every_name():
    namespace = {}
    exec("from dqkin import *", namespace)
    for module, name in PAIRS:
        assert namespace[name] is getattr(importlib.import_module("dqkin." + module), name)


def test_version_and_unknown_name():
    assert dqkin.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        dqkin.no_such_name


def test_dir_lists_names_and_submodules():
    listed = dir(dqkin)
    assert {name for _, name in PAIRS} <= set(listed)
    assert set(SUBMODULES) <= set(listed)


SCRIPT = (
    "import json, sys\n"
    "import dqkin\n"
    "bare = sorted(m for m in sys.modules if m.startswith('dqkin'))\n"
    "names = [getattr(dqkin, m).__name__ for m in json.loads(sys.argv[1])]\n"
    "print(json.dumps([bare, names]))\n"
)


def test_submodules_after_bare_import():
    """``import dqkin`` loads no submodule; ``dqkin.<submodule>`` then
    loads it, as bench/decks.py reads ``dq.linalg`` after ``import dqkin``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(SUBMODULES)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    bare, names = json.loads(proc.stdout)
    assert bare == ["dqkin"]
    assert names == ["dqkin." + m for m in SUBMODULES]


def load_bench_tracing():
    """bench/tracing.py, loaded from its file without changing it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_bench_tracer_binds_exist():
    """A traced benchmark run (``bench/run.py --trace 1``) replaces these by
    name, so deleting one breaks it even where no caller in dqkin is left."""
    tracing = load_bench_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module("dqkin." + layer)
    for layer, names in tracing.PRIVATE.items():
        module = importlib.import_module("dqkin." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module("dqkin." + layer)
        for cls_name, methods in classes.items():
            for method in methods:
                assert method in vars(getattr(module, cls_name)), (layer, cls_name, method)
    # read or counted by name outside METHODS
    scalars = importlib.import_module("dqkin.scalars")
    for cls in (scalars.ExactRational, scalars.GaussianRational, scalars.ComplexFloat):
        for worker in tracing.SCALAR_WORKERS:
            assert worker in vars(cls), (cls.__name__, worker)
    assert "__mul__" in vars(importlib.import_module("dqkin.quaternions").DualQuaternion)
    assert isinstance(vars(importlib.import_module("dqkin.projgeom").Line).get("approx"), property)


def unused_imports(path):
    """The names a module's top-level imports bind and no other line of it reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def source_paths():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "src", "dqkin", "*.py")))
    assert paths
    return paths


def test_no_unused_imports():
    """A deletion leaves no import behind in dqkin."""
    unused = {os.path.basename(p): unused_imports(p) for p in source_paths()}
    assert {name: found for name, found in unused.items() if found} == {}


# what each module imports from a sibling that is not public API: every name
# it imports from kept, the one home of the integer forms (the cleared
# vectors, the integer polynomials and their kernels), and every underscore
# name it imports from another module
SIBLING_IMPORTS = {
    "dyads.py": {"quadrics": ("_lines_through",),
                 "scalars": ("_power_of_two_scale", "_unit_scale")},
    "linalg.py": {"kept": ("Cleared", "all_cleared", "cleared", "cleared_image",
                           "cleared_products", "exact_elimination", "first_nonzero",
                           "int_step", "kernel_forms", "kinds_of", "reduced_form",
                           "scalars_of", "transposed"),
                  "scalars": ("_float_of",)},
    "motions.py": {"kept": ("cleared", "int_gcd", "poly_product", "poly_sum", "pseudo_divmod",
                            "scalars_of", "stripped"),
                   "scalars": ("_power_of_two_scale",)},
    "projgeom.py": {"kept": ("Cleared", "cleared_image", "first_nonzero", "kernel_forms",
                             "proportional", "reduced_form", "residue", "transposed"),
                    "scalars": ("_power_of_two_scale",)},
    "quadrecon.py": {"kept": ("Cleared", "cancelling", "cleared_image", "first_nonzero",
                              "normalized", "proportional")},
    "quadrics.py": {"kept": ("IntPoly", "NO_POLY", "cleared_image", "derivative",
                             "dot_numerator", "flat_cleared", "int_gcd", "poly_product",
                             "poly_sum", "proportional", "scalars_of", "stripped"),
                    "linalg": ("_kernel",),
                    "scalars": ("_power_of_two_scale",)},
    "quaternions.py": {"kept": ("cleared", "scalars_of")},
    "transforms.py": {"kept": ("flat_cleared", "scalars_of"),
                      "scalars": ("_power_of_two_scale",)},
}


def sibling_imports(path, keep=lambda module, name: True):
    """The names a source file imports from sibling modules, at any depth,
    by module, for the pairs ``keep`` accepts."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [a.name for a in node.names if keep(node.module, a.name)]
            if names:
                found[node.module] = tuple(sorted(found.get(node.module, ()) + tuple(names)))
    return found


def test_sibling_import_surface():
    """Only the listed modules reach into kept or import underscore names
    from a sibling, and only the listed names: a new reach into the integer
    forms or a private name is a change to this list, not a silent one."""
    found = {}
    for path in source_paths():
        imports = sibling_imports(path, lambda module, name: module == "kept"
                                  or name.startswith("_"))
        if imports:
            found[os.path.basename(path)] = imports
    assert found == SIBLING_IMPORTS


def private_imports(module):
    """Each source file's underscore names imported from the sibling
    ``module``, at any depth, for the files that import any."""
    found = {}
    for path in source_paths():
        names = sibling_imports(path, lambda m, name: m == module and name.startswith("_"))
        if names:
            found[os.path.basename(path)] = names[module]
    return found


def test_private_linalg_surface():
    """Outside linalg, only quadrics imports a private linalg name, the
    kernel of a Matrix; the kept forms it once lent out live in kept."""
    assert private_imports("linalg") == {"quadrics.py": ("_kernel",)}


def test_private_polys_surface():
    """No module imports a private polys name: the integer polynomials it
    once lent out live in kept."""
    assert private_imports("polys") == {}


def test_kept_imports_only_errors_and_scalars():
    """kept sits below linalg and polys: of the package it reads only the
    errors and the scalars, so no Matrix or Poly internals."""
    path = next(p for p in source_paths() if os.path.basename(p) == "kept.py")
    assert set(sibling_imports(path)) == {"errors", "scalars"}


# CPython 3.11's parser allocates every token of a module up front and
# doubles its token array at 8,192 tokens, so a module past that step
# compiles at about twice the peak memory; the largest compile peak of an
# import sets the benchmark's peak_rss_mb when no bytecode is written
TOKEN_BUDGET = 8000
UNCOUNTED_TOKENS = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def test_modules_stay_under_the_parser_step():
    """Every module of dqkin has fewer than TOKEN_BUDGET tokens, not counting
    comments, blank lines and the encoding."""
    sizes = {}
    for path in source_paths():
        with open(path, "rb") as fh:
            tokens = tokenize.tokenize(fh.readline)
            sizes[os.path.basename(path)] = sum(t.type not in UNCOUNTED_TOKENS for t in tokens)
    assert {name: n for name, n in sizes.items() if n >= TOKEN_BUDGET} == {}


# every assert left in dqkin, by file and enclosing function: each states an
# invariant that the module's own code keeps.  A guard on a caller's input
# must raise instead, so that it holds under python -O, which drops asserts
ASSERTS = {
    "dyads.py": ("_single_point", "_half_turn_from_ruling", "recover_axes", "recover_axes"),
    "motions.py": ("c_space_from_line", "c_space_from_line"),
    "quadrecon.py": ("_center_coords", "reconstruct_quadrilateral",
                     "reconstruct_quadrilateral"),
    "quadrics.py": ("common_lines",),
    "scalars.py": ("GaussianRational.sqrt", "ComplexFloat._promote"),
}


def assert_sites(path):
    """The enclosing function of each assert of a source file, qualified by
    its class, in source order."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Assert):
            found.append(".".join(scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return tuple(found)


def test_assert_surface():
    sites = {os.path.basename(p): assert_sites(p) for p in source_paths()}
    assert {name: found for name, found in sites.items() if found} == ASSERTS


CALLER_INPUT_SCRIPT = (
    "from dqkin.errors import DqkinError\n"
    "from dqkin.jsonio import parse_scalar_at\n"
    "from dqkin.linalg import Matrix\n"
    "from dqkin.motions import MotionPoly, c_space_from_line\n"
    "from dqkin.projgeom import Line, ProjPoint, span\n"
    "from dqkin.quadrecon import ProjectionCycle, ReconstructionProblem, run_cycle\n"
    "from dqkin.quadrics import QuadricForm\n"
    "from dqkin.quaternions import DualQuaternion, Quaternion\n"
    "from dqkin.scalars import scalar_to_json\n"
    "def unit(k, n=8):\n"
    "    return ProjPoint([int(j == k) for j in range(n)])\n"
    "e, f = span([unit(k) for k in range(4, 8)]), [unit(k) for k in range(4)]\n"
    "centers = [ProjPoint([1, 1, 0, 0, 0, 0, 0, 0]), ProjPoint([0, 1, 1, 0, 0, 0, 0, 0]),\n"
    "           ProjPoint([0, 0, 1, 1, 0, 0, 0, 0]), ProjPoint([1, 0, 0, 1, 0, 0, 0, 0])]\n"
    "cycle = ProjectionCycle(e, f, centers)\n"
    "p3 = [unit(k, 4) for k in range(4)]\n"
    "for make in (lambda: MotionPoly([Quaternion(1), Quaternion(0, 1)]),\n"
    "             lambda: MotionPoly([1, 2]),\n"
    "             lambda: DualQuaternion(1),\n"
    "             lambda: DualQuaternion(Quaternion(1), 2),\n"
    "             lambda: c_space_from_line(Line.through(p3[0], p3[1])),\n"
    "             lambda: c_space_from_line(span(f[:3])),\n"
    "             lambda: run_cycle(cycle, p3[0]),\n"
    "             lambda: ProjectionCycle(e, f, p3),\n"
    "             lambda: ProjectionCycle(e, f, centers[:3]),\n"
    "             lambda: ReconstructionProblem(QuadricForm(Matrix.identity(4)), cycle),\n"
    "             lambda: parse_scalar_at('1+2*i', '$', mode='xyz'),\n"
    "             lambda: scalar_to_json(3)):\n"
    "    try:\n"
    "        print(make())\n"
    "    except (DqkinError, TypeError) as exc:\n"
    "        print('%s: %s' % (type(exc).__name__, exc))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_caller_input_raises(flags):
    """Motion polynomials of non-dual-quaternions, dual quaternions of
    non-quaternions, a C space from anything but a line of P^7, projection
    cycles and their starts outside P^7 or with other than four centres, a
    reconstruction on a form that is not 8x8, an unknown scalar mode and
    the JSON of a non-scalar raise the error that names the expected
    shape, also under python -O, where an assert would leave a silent
    answer or another exception."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, *flags, "-c", CALLER_INPUT_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    in_p7 = ("GeometryError: a C space is spanned from a line of P^7, got a subspace "
             "of dimension %d in %d coordinates")
    parts = "GeometryError: a dual quaternion has two quaternion parts, got %s and %s"
    assert proc.stdout.splitlines() == [
        "GeometryError: a motion polynomial has dual quaternion coefficients",
        "GeometryError: a motion polynomial has dual quaternion coefficients",
        parts % ("int", "Quaternion"),
        parts % ("Quaternion", "int"),
        in_p7 % (1, 4),
        in_p7 % (2, 8),
        "GeometryError: a projection cycle starts at a point of P^7, 8 coordinates, got 4",
        "GeometryError: a projection cycle lies in P^7, 8 coordinates, got 4",
        "GeometryError: a projection cycle has four image points and four centres, got 4 and 3",
        "GeometryError: reconstruction needs a quadric of P^7, an 8x8 gram, got 4x4",
        "ParseError: unknown scalar mode 'xyz', expected one of rational, gaussian, float",
        "TypeError: not usable as a scalar: 3",
    ]
