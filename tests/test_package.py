"""The package root's API: every public name and submodule, loaded on first use."""

import ast
import glob
import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


# the private linalg names each module imports: the kept form's type and
# operations, and the integer readers of motions, quaternions, quadrics and
# transforms
PRIVATE_LINALG_IMPORTS = {
    "motions.py": ("_cleared", "_scalars"),
    "projgeom.py": ("_Cleared", "_cleared_image", "_first_nonzero", "_kernel_forms",
                    "_proportional", "_reduced_form", "_residue", "_transposed"),
    "quadrecon.py": ("_Cleared", "_cancelling", "_cleared_image", "_first_nonzero",
                     "_normalized", "_proportional"),
    "quadrics.py": ("_cleared_image", "_dot_numerator", "_flat_cleared", "_kernel",
                    "_proportional", "_scalars"),
    "quaternions.py": ("_cleared", "_scalars"),
    "transforms.py": ("_flat_cleared", "_scalars"),
}


# the private polys names each module imports: the integer polynomials that
# quadrics expands and splits the pencil determinant on, and motions forms
# trajectories on
PRIVATE_POLYS_IMPORTS = {
    "motions.py": ("_int_gcd", "_lead_term", "_poly_product", "_poly_sum", "_pseudo_divmod",
                   "_stripped"),
    "quadrics.py": ("_IntPoly", "_NO_POLY", "_derivative", "_int_gcd", "_poly_product",
                    "_poly_sum", "_stripped"),
}


def private_imports(module):
    """Each source file's underscore names imported from the sibling
    ``module``, at any depth, for the files that import any."""
    found = {}
    for path in source_paths():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        names = tuple(sorted(alias.name for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) and node.level == 1
                             and node.module == module
                             for alias in node.names if alias.name.startswith("_")))
        if names:
            found[os.path.basename(path)] = names
    return found


def test_private_linalg_surface():
    """Outside linalg, only the listed modules import private linalg names,
    and only the listed ones: a new reach into the kept form is a change to
    this list, not a silent one."""
    assert private_imports("linalg") == PRIVATE_LINALG_IMPORTS


def test_private_polys_surface():
    """Outside polys, only the listed modules import private polys names,
    and only the listed ones."""
    assert private_imports("polys") == PRIVATE_POLYS_IMPORTS
