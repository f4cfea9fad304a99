"""Exact projective kinematics of rigid body displacements.

Submodules load on first use (PEP 562): ``import dqkin`` runs no
submodule, and ``dqkin.classify`` or ``dqkin.dyads`` imports the owning
module when first read.  A process that needs one module, such as one
CLI subcommand, so skips compiling the others when no bytecode cache can
be written.
"""

import importlib

_EXPORTS_BY_MODULE = {
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

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

_SUBMODULES = frozenset(_EXPORTS_BY_MODULE) | {"jsonio", "cli"}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it on the package as well
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
