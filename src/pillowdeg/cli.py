"""Command-line front end: it only parses arguments and renders the
reports of the library's verifiers.

Subcommands:

* ``characters`` -- branch-curve characters of a surface family member
  (or custom intersection numbers), with the identity checks.
* ``pillow`` -- build a pillow configuration, optionally verify it and
  export it as JSON or DOT.
* ``table`` -- the singularity-distribution table with conservation checks.
* ``verify`` -- sweep the full property suite over ranges of (a, b).

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
parameters or usage, 3 file I/O failure.  Every package error ends with
``error: ...`` on stderr: MalformedComplex (a structural invariant of a
built complex failed, which is a failed check) exits 1, every other
PillowDegError exits 2.

Size limits (exit 2 with ``error: ...``): ``pillow`` and ``table`` accept
a*b up to ``pillow.MAX_PILLOW_CELLS`` = 16384 cells, where the build and
one linear-time export, written to ``--out`` or stdout in pieces, take
0.5-1.1 s and peak at 44-69 MB of RSS; ``pillow --verify`` and every
configuration of ``verify`` accept a*b up to ``pillow.MAX_VERIFY_CELLS`` =
1024, since the brute-force pair oracle they run is O(E^2) in time and in
memory, bit-parallel as it is; at that limit ``pillow --verify`` takes
about 0.3 s end to end.  ``verify`` checks its largest corner before it
starts.
"""
from __future__ import annotations

import argparse
import sys

from . import degeneration, pillow, surfaces
from .checks import Check
from .errors import InvalidParameter, MalformedComplex, PillowDegError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _finish(args, parameters: dict, payload: dict, checks: list[Check],
            artifacts: tuple[str, ...] = ()) -> int:
    """The exit code of one invocation: 0 when every check passed, else 1.
    Under ``--format json`` it also writes the invocation's one JSON
    document: command, parameters, the payload's keys, checks, all_passed,
    artifacts and exit_code, in that order."""
    passed = all(c.passed for c in checks)
    code = EXIT_OK if passed else EXIT_CHECK_FAILED
    if args.format == "json":
        import json

        doc = {"command": args.command, "parameters": parameters, **payload,
               "checks": [c.as_dict() for c in checks], "all_passed": passed,
               "artifacts": list(artifacts), "exit_code": code}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return code


def _print_checks(checks: list[Check]) -> None:
    for c in checks:
        print(f"  {c}")


# ---------------------------------------------------------------------------
# characters


# each family: the argument that picks its member, and its constructor
FAMILIES = {
    "veronese": ("r", surfaces.veronese),
    "scroll": ("r", surfaces.scroll_p1p1),
    "delpezzo": ("deg", surfaces.del_pezzo),
    "k3": ("g", surfaces.k3),
}


def _surface_for(args) -> surfaces.SurfaceClasses:
    if args.family in FAMILIES:
        name, member = FAMILIES[args.family]
        if getattr(args, name) is None:
            raise InvalidParameter(f"--family {args.family} requires --{name}")
        return member(getattr(args, name))
    # custom
    missing = [flag for flag, val in (("--d", args.d), ("--kh", args.kh),
                                      ("--k2", args.k2), ("--euler", args.euler))
               if val is None]
    if missing:
        raise InvalidParameter(f"--family custom requires {' '.join(missing)}")
    return surfaces.SurfaceClasses(args.d, args.kh, args.k2, args.euler, label="custom")


def cmd_characters(args) -> int:
    s = _surface_for(args)
    chars = surfaces.branch_characters(s)
    checks = surfaces.verify_character_identities(s, chars).checks
    code = _finish(
        args,
        _parameters(args, ("family", "r", "deg", "g", "d", "kh", "k2", "euler")),
        {
            "surface": {
                "d": s.d, "kh": s.kh, "k2": s.k2, "euler": s.euler, "label": s.label,
            },
            "characters": chars._asdict(),
        },
        checks,
    )
    if args.format == "text":
        print(f"surface: {s.label} (d={s.d}, kh={s.kh}, k2={s.k2}, euler={s.euler})")
        print(f"characters: {chars}")
        print("identity checks:")
        _print_checks(checks)
    return code


# ---------------------------------------------------------------------------
# pillow


def cmd_pillow(args) -> int:
    if args.out is not None and args.export is None:
        raise InvalidParameter("--out requires --export")
    c = pillow.build_pillow(args.a, args.b)
    checks = pillow.verify_pillow(c).checks if args.verify else []
    payload = {
        "summary": {
            "a": c.a, "b": c.b, "g": c.g,
            "vertices": len(c.vertices),
            "lines": len(c.lines),
            "triangles": len(c.triangles),
        }
    }
    artifacts = ()

    # the pieces functions raise MalformedComplex before returning, so a
    # malformed complex is reported before --out is opened
    pieces = None
    if args.export == "json":
        pieces = pillow.config_json_pieces(c)
    elif args.export == "dot":
        if args.dot_graph == "lines":
            pieces = pillow.dot_line_pieces(c)
        else:
            pieces = pillow.dot_face_pieces(c)
    if pieces is not None:
        if args.out is not None:
            with open(args.out, "w") as f:
                f.writelines(pieces)
            artifacts = (args.out,)
        elif args.format == "json":
            # keep stdout a single JSON document
            payload["export"] = "".join(pieces)
        else:
            sys.stdout.writelines(pieces)

    code = _finish(
        args,
        _parameters(args, ("a", "b", "verify", "export", "dot_graph", "out")),
        payload,
        checks,
        artifacts,
    )
    if args.format == "text" and (args.export is None or args.out is not None):
        print(
            f"pillow ({c.a}, {c.b}): V={len(c.vertices)} E={len(c.lines)} "
            f"F={len(c.triangles)} g={c.g}"
        )
        if args.verify:
            _print_checks(checks)
            print("all checks passed" if code == EXIT_OK else "CHECKS FAILED")
        for path in artifacts:
            print(f"wrote {path}")
    return code


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    c = pillow.build_pillow(args.a, args.b)
    table = degeneration.build_table(c)
    checks = degeneration.verify_conservation(c, table).checks
    code = _finish(args, _parameters(args, ("a", "b")),
                   {"table": degeneration.table_to_dict(table)}, checks)
    if args.format == "text":
        sys.stdout.write(degeneration.render_table(table))
        print("conservation checks:")
        _print_checks(checks)
    return code


# ---------------------------------------------------------------------------
# verify sweep


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse range {text!r}; expected N or N..M") from exc
    if lo > hi:
        raise InvalidParameter(f"empty range {text!r}")
    return lo, hi


def cmd_verify(args) -> int:
    a_lo, a_hi = _parse_range(args.a)
    b_lo, b_hi = _parse_range(args.b)
    limit = args.limit
    for lo, hi, flag in ((a_lo, a_hi, "--a"), (b_lo, b_hi, "--b")):
        if lo < 2 or hi > limit:
            raise InvalidParameter(
                f"{flag} range {lo}..{hi} outside [2, {limit}] (raise --limit to widen)"
            )
    if a_hi * b_hi > pillow.MAX_VERIFY_CELLS:
        raise InvalidParameter(
            f"--a {args.a} --b {args.b} reaches a*b = {a_hi * b_hi}, "
            f"above the verify limit {pillow.MAX_VERIFY_CELLS}"
        )

    sections = [surfaces.verify_families()] + [
        degeneration.verify_configuration(pillow.build_pillow(a, b))
        for a in range(a_lo, a_hi + 1)
        for b in range(b_lo, b_hi + 1)
    ]

    checks = [
        Check(f"{section.title}: {c.name}", c.lhs, c.rhs)
        for section in sections
        for c in section.checks
    ]
    code = _finish(
        args,
        {"a": args.a, "b": args.b, "limit": limit},
        {"configurations": (a_hi - a_lo + 1) * (b_hi - b_lo + 1)},
        checks,
    )
    if args.format == "text":
        for section in sections:
            status = "PASS" if section.all_passed else "FAIL"
            print(f"{status}  {section.title} ({len(section.checks)} checks)")
            for c in section.failures:
                print(f"      FAIL {c.name}: {c.lhs} != {c.rhs}")
        print(f"overall: {'PASS' if code == EXIT_OK else 'FAIL'} ({len(checks)} checks)")
    return code


# ---------------------------------------------------------------------------
# parser


def _parameters(args, names) -> dict:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillowdeg",
        description="Pillow plane configurations and branch-curve invariants, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chars = sub.add_parser("characters", help="branch-curve characters of a surface")
    p_chars.add_argument("--family", required=True,
                         choices=[*FAMILIES, "custom"])
    p_chars.add_argument("--r", type=int, help="parameter for veronese/scroll")
    p_chars.add_argument("--deg", type=int, help="degree for delpezzo (3..9)")
    p_chars.add_argument("--g", type=int, help="genus for k3 (>= 3)")
    p_chars.add_argument("--d", type=int, help="surface degree H^2 (custom)")
    p_chars.add_argument("--kh", type=int, help="K.H (custom)")
    p_chars.add_argument("--k2", type=int, help="K^2 (custom)")
    p_chars.add_argument("--euler", type=int, help="Euler number e(S) (custom)")
    p_chars.add_argument("--format", choices=["text", "json"], default="text")
    p_chars.set_defaults(func=cmd_characters)

    p_pillow = sub.add_parser("pillow", help="build (and verify/export) a pillow configuration")
    p_pillow.add_argument("--a", type=int, required=True)
    p_pillow.add_argument("--b", type=int, required=True)
    p_pillow.add_argument("--verify", action="store_true",
                          help="run the sphere-triangulation and pair-count checks")
    p_pillow.add_argument("--export", choices=["json", "dot"])
    p_pillow.add_argument("--dot-graph", dest="dot_graph", choices=["faces", "lines"],
                          default="faces",
                          help="which graph --export dot writes (default: faces)")
    p_pillow.add_argument("--out", help="write the export here instead of stdout")
    p_pillow.add_argument("--format", choices=["text", "json"], default="text")
    p_pillow.set_defaults(func=cmd_pillow)

    p_table = sub.add_parser("table", help="singularity-distribution table for (a, b)")
    p_table.add_argument("--a", type=int, required=True)
    p_table.add_argument("--b", type=int, required=True)
    p_table.add_argument("--format", choices=["text", "json"], default="text")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="sweep all invariants over (a, b) ranges")
    p_verify.add_argument("--a", required=True, help="range, e.g. 2..4 or 3")
    p_verify.add_argument("--b", required=True, help="range, e.g. 2..4 or 3")
    p_verify.add_argument("--limit", type=int, default=6,
                          help="upper bound allowed for the ranges (default 6)")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except PillowDegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED if isinstance(exc, MalformedComplex) else EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
