"""Exception hierarchy shared by every module in the package."""


class DqkinError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DqkinError):
    """Malformed textual input (scalar literals, JSON payloads, CLI args)."""


class ExactnessError(DqkinError):
    """An exact-only operation received inexact (float) data, or found no exact answer.

    ``polys.exact_div`` raises it for a division that leaves a remainder,
    ``polys.split_quadratic`` (so ``quadrics.common_lines``) for a square
    root outside the Gaussian rationals, ``dyads.classify`` for float input.
    """


class GeometryError(DqkinError):
    """Input violates a geometric precondition of the requested operation.

    ``dyads.recover_axes`` raises it for a space that is not a dyad space
    (neither product of the recovered joints lies in it).
    """


class InvariantError(DqkinError):
    """A certificate the theory guarantees failed to hold.

    Raised by explicit checks, not asserts, so it survives ``python -O``:
    ``quadrics.ruling_handedness`` (a point in both ruling families),
    ``dyads.classify`` (ruling points that disagree on handedness),
    ``dyads.build_variety`` (a dyad span of the wrong shape),
    ``transforms.factor_so4`` and ``factor_transform`` (wrong factors),
    ``quadrecon.run_cycle`` and ``reconstruct_quadrilateral`` (postconditions),
    ``motions.darboux_invariants`` and ``motions.c_space_from_line`` (their
    witnesses), ``motions.act`` (a displaced point that is not a point, as
    float overflow gives).
    """
