"""Command line front end.

One binary with subcommands; JSON files in, JSON or CSV on stdout.
Exact scalars stay exact end to end.  Exit codes: 0 on success, 1 on a
domain error (the library message goes to stderr verbatim), 2 on a
parse error (the message carries a JSON pointer to the offending
element), on an input file that cannot be read or is not UTF-8 JSON,
and on an ``--out`` file that cannot be written.

Each subcommand imports the library modules it uses when it runs, so a
process loads only those beyond what every subcommand needs: at module
level this file imports ``jsonio``, ``errors`` and ``scalars``, and
``jsonio`` in turn imports ``linalg``, ``projgeom`` and ``quaternions``;
``quadrics`` (with ``polys``) loads with the subcommands that use it, not
with ``verify-transform`` or ``factor-transform``.  Start-up then
compiles only those sources when no bytecode cache can be written.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import jsonio
from .errors import DqkinError, ParseError
from .scalars import DEFAULT_TOLERANCE, scalar_to_json


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path: str):
    """The JSON document in the file at path, read as UTF-8 (RFC 8259)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError("cannot read %s: %s" % (path, err))
    except UnicodeDecodeError as err:
        raise ParseError("%s: malformed JSON: %s" % (path, err))
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError("%s: malformed JSON: %s" % (path, err))


def _write_out(path: str, payload: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as err:
        raise ParseError("cannot write %s: %s" % (path, err))


def _field(doc, key: str, path: str = "$"):
    if not isinstance(doc, dict):
        raise ParseError("%s: expected an object" % path)
    if key not in doc:
        raise ParseError("%s: missing field %r" % (path, key))
    return doc[key]


def _csv_cell(value) -> str:
    v = scalar_to_json(value)
    return v if isinstance(v, str) else repr(v)


def cmd_classify(args) -> str:
    from .dyads import classify
    from .projgeom import span

    doc = _load_json(args.file)
    pts = jsonio.parse_points(doc, "$", args.scalar, args.tolerance, count=4)
    result = classify(span(pts))
    return _dumps({"verdict": result.verdict.value,
                   "evidence": jsonio.encode(result.evidence)})


def cmd_dyad(args) -> str:
    from .dyads import DyadKind, DyadSpec, build_variety

    doc = _load_json(args.file)
    h1 = jsonio.parse_dq(_field(doc, "h1"), "$.h1", args.scalar, args.tolerance)
    h2 = jsonio.parse_dq(_field(doc, "h2"), "$.h2", args.scalar, args.tolerance)
    variety = build_variety(DyadSpec(DyadKind(args.kind), h1, h2))
    return _dumps({"kind": variety.kind.value,
                   "space": jsonio.subspace_to_json(variety.space),
                   "quadric": jsonio.quadric_to_json(variety.quadric),
                   "witnesses": jsonio.encode(variety.witnesses)})


def cmd_factor_transform(args) -> str:
    from .transforms import factor_transform

    doc = _load_json(args.file)
    matrix = jsonio.parse_matrix(doc, "$", 8, args.scalar, args.tolerance)
    left, right = factor_transform(matrix)
    return _dumps({"left": jsonio.dq_to_json(left),
                   "right": jsonio.dq_to_json(right)})


def cmd_verify_transform(args) -> str:
    from .transforms import verify_admissible

    doc = _load_json(args.file)
    matrix = jsonio.parse_matrix(doc, "$", 8, args.scalar, args.tolerance)
    return _dumps(verify_admissible(matrix).as_dict())


def cmd_trace(args) -> str:
    from .motions import MotionPoly, trajectory
    from .projgeom import ProjPoint

    doc = _load_json(args.file)
    raw = _field(doc, "coefficients")
    if not isinstance(raw, list) or not raw:
        raise ParseError("$.coefficients: expected a nonempty array")
    coeffs = [jsonio.parse_dq(c, "$.coefficients[%d]" % k, args.scalar,
                              args.tolerance)
              for k, c in enumerate(raw)]
    point = jsonio.parse_vector(_field(doc, "point"), "$.point", 4,
                                args.scalar, args.tolerance)
    if args.samples < 1:
        raise ParseError("--samples: expected a positive count")
    path = trajectory(MotionPoly(coeffs), ProjPoint(point))
    lines = ["t,x0,x1,x2,x3"]
    for k in range(args.samples):
        t = Fraction(k)
        cells = [_csv_cell(p(t)) for p in path.components]
        lines.append(",".join([str(k)] + cells))
    print("trajectory degree: %d" % path.degree, file=sys.stderr)
    return "\n".join(lines) + "\n"


def cmd_darboux(args) -> str:
    from .motions import darboux_invariants

    a = jsonio.parse_scalar_at(args.a, "--a", args.scalar, args.tolerance)
    b = jsonio.parse_scalar_at(args.b, "--b", args.scalar, args.tolerance)
    c = jsonio.parse_scalar_at(args.c, "--c", args.scalar, args.tolerance)
    report = darboux_invariants(a, b, c)
    return _dumps({"p": jsonio.encode(report.p),
                   "d": jsonio.encode(report.d),
                   "f": jsonio.encode(report.f),
                   "handedness": jsonio.encode(report.handedness),
                   "vertical": report.vertical,
                   "mirrored": report.mirrored})


def cmd_reconstruct(args) -> str:
    from .quadrecon import ProjectionCycle, ReconstructionProblem, reconstruct_quadrilateral

    doc = _load_json(args.file)
    quadric = jsonio.parse_quadric(_field(doc, "quadric"), "$.quadric",
                                   args.scalar, args.tolerance)
    if quadric.n != 8:
        raise ParseError("$.quadric: reconstruction needs an 8x8 form")
    fixed = jsonio.parse_subspace(_field(doc, "e"), "$.e", args.scalar,
                                  args.tolerance)
    f_points = jsonio.parse_points(_field(doc, "f_points"), "$.f_points",
                                   args.scalar, args.tolerance, count=4)
    centers = jsonio.parse_points(_field(doc, "centers"), "$.centers",
                                  args.scalar, args.tolerance, count=4)
    cycle = ProjectionCycle(fixed, tuple(f_points), tuple(centers))
    vertices = reconstruct_quadrilateral(ReconstructionProblem(quadric, cycle))
    return _dumps({"vertices": [jsonio.point_to_json(v) for v in vertices]})


def cmd_example2(args) -> str:
    from .dyads import example2_checks

    return _dumps(example2_checks())


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scalar", choices=jsonio.SCALAR_MODES,
                        default="rational",
                        help="scalar domain accepted in inputs")
    shared.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="comparison tolerance for float scalars")
    shared.add_argument("--out", default=None,
                        help="write the payload to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="dqkin",
        description="Exact projective kinematics of rigid body displacements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[shared],
                       help="classify the span of four points")
    p.add_argument("file", help="JSON array of 4 points")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dyad", parents=[shared],
                       help="constraint variety of a dyad")
    # dyads.DyadKind's values, spelled out so the parser loads no dyads
    p.add_argument("--kind", required=True, choices=("RR", "RP", "PR", "C"))
    p.add_argument("file", help='JSON object {"h1": ..., "h2": ...}')
    p.set_defaults(func=cmd_dyad)

    p = sub.add_parser("factor-transform", parents=[shared],
                       help="split an admissible transform into factors")
    p.add_argument("file", help="row-major 8x8 matrix of scalars")
    p.set_defaults(func=cmd_factor_transform)

    p = sub.add_parser("verify-transform", parents=[shared],
                       help="admissibility report for a transform")
    p.add_argument("file", help="row-major 8x8 matrix of scalars")
    p.set_defaults(func=cmd_verify_transform)

    p = sub.add_parser("trace", parents=[shared],
                       help="CSV trajectory of a point under a motion")
    p.add_argument("file",
                   help='JSON object {"coefficients": [...], "point": [...]}')
    p.add_argument("--samples", type=int, default=5,
                   help="number of parameter values, starting at t = 0")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("darboux", parents=[shared],
                       help="invariants of the Darboux motion for (a, b, c)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=cmd_darboux)

    p = sub.add_parser("reconstruct", parents=[shared],
                       help="quadrilateral from a projection cycle on a quadric")
    p.add_argument("file",
                   help='JSON object {"quadric", "e", "f_points", "centers"}')
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("example2", parents=[shared],
                       help="checks on the complex three-space fixture")
    p.set_defaults(func=cmd_example2)
    return parser


_SIGNED_VALUE = re.compile(r"-[\d.]")


def _attach_signed_values(argv):
    """Rewrite '--a -3/2' as '--a=-3/2' for the darboux parameters.

    argparse takes a token that starts with '-' for an option unless it
    is a plain negative number, so signed fractions and Gaussian
    literals would not reach --a, --b and --c as their values.
    """
    out = []
    for token in argv:
        if out and out[-1] in ("--a", "--b", "--c") and _SIGNED_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_signed_values(argv))
    try:
        if not 0 <= args.tolerance < float("inf"):  # false for nan too
            raise ParseError("--tolerance: expected a finite number >= 0")
        payload = args.func(args)
        if args.out:
            _write_out(args.out, payload)
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return 2
    except DqkinError as err:
        print(str(err), file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
