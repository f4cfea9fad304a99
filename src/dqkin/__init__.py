"""Exact projective kinematics of rigid body displacements."""

from .errors import DqkinError, ExactnessError, GeometryError, InvariantError, ParseError
from .scalars import (
    ComplexFloat,
    ExactRational,
    GaussianRational,
    Scalar,
    gaussian,
    parse_scalar,
    rational,
    scalar,
    scalar_to_json,
)
from .quaternions import DualQuaternion, Quaternion
from .polys import Poly, exact_div, low_degree_roots, poly_gcd
from .linalg import Matrix
from .projgeom import (
    Line,
    ProjPoint,
    Subspace,
    chi_point,
    chi_subspace,
    exceptional_generator,
    fiber_image,
    fiber_line,
    join,
    meet,
    project_from_center,
    span,
)
from .quadrics import (
    Handedness,
    QuadricForm,
    common_lines,
    is_null_line,
    null_cone,
    pencil_member,
    quadric_e,
    quadric_y,
    quadric_y8,
    restrict,
    ruling_handedness,
    study_quadric,
)
from .transforms import (
    AdmissibleTransform,
    VerificationReport,
    build_transform,
    conjugation_matrix,
    factor_transform,
    verify_admissible,
)
from .dyads import (
    Classification,
    ConstraintVariety,
    DyadKind,
    DyadSpec,
    Quadrilateral,
    Verdict,
    build_variety,
    classify,
    example2_checks,
    null_quadrilateral,
)
from .motions import (
    CSpaceReport,
    DarbouxReport,
    MotionPoly,
    Trajectory,
    act,
    c_space_from_line,
    chi,
    darboux,
    darboux_invariants,
    is_vertical_darboux,
    mannheim,
    trajectory,
)
from .quadrecon import (
    ProjectionCycle,
    ReconstructionProblem,
    reconstruct_quadrilateral,
    run_cycle,
)

__version__ = "0.1.0"
