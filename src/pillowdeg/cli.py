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
``error: ...`` on stderr and exits 2.  Every failed write to stdout, the
last one of a buffered stdout included, and a closed stdout end with one
``i/o error: ...`` line on stderr and exit 3.  The arguments are parsed
under Python's limit on int digits, and no integer computed from them is.

Size limits (exit 2 with ``error: ...``): every subcommand, ``pillow
--verify`` and each ``verify`` configuration included, accepts a*b up to
``pillow.MAX_PILLOW_CELLS`` = 16384 cells, and every export is written in
pieces, to ``--out``, to text stdout or inside a ``--format json``
document alike.  Before it starts, ``verify`` checks its largest corner
against that limit and the total cells of its box, sum(a) * sum(b), against
``_MAX_BOX_CELLS``, so that no box runs for hours.  README gives the
measured times and peaks at these limits.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterable

from . import degeneration, pillow, surfaces
from .checks import Check
from .errors import InvalidParameter, PillowDegError

# sets Python's limit on the digits of an int in str conversions, if it has one
_set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# the most cells of one verify box, sum(a) * sum(b); 2..256 x 2..4 takes 296,055
_MAX_BOX_CELLS = 1 << 19


# stands in for the export in a rendered document: no argument can hold a
# NUL and JSON doubles every backslash, so the mark's escaped text appears
# only where _finish put it
_EXPORT_MARK = "\0export\0"


def _finish(args, payload: dict, checks: list[Check],
            artifacts: tuple[str, ...] = (), export: Iterable[str] | None = None) -> int:
    """The exit code of one invocation: 0 when every check passed, else 1.
    Under ``--format json`` it also writes the invocation's one JSON
    document: command, ``_parameters(args)``, the payload's keys, the text
    of the ``export`` pieces if given, checks, all_passed, artifacts and
    exit_code, in that order.

    The export is written as it is rendered: the document is rendered with
    a mark in its place and split there, and each piece is written between
    the two halves as the content of its own JSON string.  JSON escapes
    each character on its own, so the bytes are those of the document that
    holds the whole export, which is never held."""
    passed = all(c.passed for c in checks)
    code = EXIT_OK if passed else EXIT_CHECK_FAILED
    if args.format == "json":
        import json

        doc = {"command": args.command, "parameters": _parameters(args), **payload}
        if export is not None:
            doc["export"] = _EXPORT_MARK
        doc.update({"checks": [c.as_dict() for c in checks], "all_passed": passed,
                    "artifacts": list(artifacts), "exit_code": code})
        # without an export the mark is absent and the head is the whole text
        head, _, tail = (json.dumps(doc, indent=2) + "\n").partition(
            json.dumps(_EXPORT_MARK)[1:-1])
        sys.stdout.write(head)
        sys.stdout.writelines(json.dumps(piece)[1:-1] for piece in export or ())
        sys.stdout.write(tail)
    return code


def _print_checks(checks: list[Check]) -> None:
    for c in checks:
        print(f"  {c}")


# ---------------------------------------------------------------------------
# characters


def _surface_for(args) -> surfaces.SurfaceClasses:
    if args.family in surfaces.FAMILIES:
        name, _, member, _ = surfaces.FAMILIES[args.family]
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
    code = _finish(args, {"surface": s._asdict(), "characters": chars._asdict()}, checks)
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

    # the exports render every built complex, and every argument fault has
    # already raised above, so --out is never opened by an invocation that exits 2
    pieces = None
    if args.export == "json":
        pieces = pillow.config_json_pieces(c)
    elif args.export == "dot":
        if args.dot_graph == "lines":
            pieces = pillow.dot_line_pieces(c)
        else:
            pieces = pillow.dot_face_pieces(c)
    export = None
    if pieces is not None:
        if args.out is not None:
            with open(args.out, "w") as f:
                f.writelines(pieces)
            artifacts = (args.out,)
        elif args.format == "json":
            # keep stdout a single JSON document
            export = pieces
        else:
            sys.stdout.writelines(pieces)

    code = _finish(args, payload, checks, artifacts, export)
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
    checks = degeneration.verify_conservation(table).checks
    code = _finish(args, {"table": degeneration.table_to_dict(table)}, checks)
    if args.format == "text":
        sys.stdout.write(degeneration.render_table(table))
        print("conservation checks:")
        _print_checks(checks)
    return code


# ---------------------------------------------------------------------------
# verify sweep


def _parse_range(text: str) -> tuple[int, int]:
    _set_digits(getattr(sys.int_info, "default_max_str_digits", 0))  # CVE-2020-10735
    try:
        bounds = text.split("..", 1)
        lo, hi = int(bounds[0]), int(bounds[-1])
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse range {text!r}; expected N or N..M") from exc
    _set_digits(0)  # main runs the command with no limit on int digits
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
    if a_hi * b_hi > pillow.MAX_PILLOW_CELLS:
        raise InvalidParameter(f"--a {args.a} --b {args.b} reaches a*b = {a_hi * b_hi}, "
                               f"above the limit {pillow.MAX_PILLOW_CELLS}")
    cells = (a_lo + a_hi) * (a_hi - a_lo + 1) * (b_lo + b_hi) * (b_hi - b_lo + 1) // 4
    if cells > _MAX_BOX_CELLS:
        raise InvalidParameter(f"--a {args.a} --b {args.b} spans {cells} cells in all, "
                               f"above the box limit {_MAX_BOX_CELLS}")

    sections = [surfaces.verify_families(),
                *degeneration.verify_box(range(a_lo, a_hi + 1), range(b_lo, b_hi + 1))]

    checks = [
        Check(f"{section.title}: {c.name}", c.lhs, c.rhs)
        for section in sections
        for c in section.checks
    ]
    code = _finish(args, {"configurations": (a_hi - a_lo + 1) * (b_hi - b_lo + 1)}, checks)
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


def _parameters(args) -> dict:
    """Every option that holds a value, given or defaulted, but the
    format, in the order the parser declares them."""
    return {name: value for name, value in vars(args).items()
            if name not in ("command", "format", "func") and value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillowdeg",
        description="Pillow plane configurations and branch-curve invariants, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chars = sub.add_parser("characters", help="branch-curve characters of a surface")
    p_chars.add_argument("--family", required=True,
                         choices=[*surfaces.FAMILIES, "custom"])
    p_chars.add_argument("--r", type=int, help="parameter for veronese/scroll")
    p_chars.add_argument("--deg", type=int, help="degree for delpezzo (3..9)")
    p_chars.add_argument("--g", type=int, help="genus for k3 (>= 3)")
    p_chars.add_argument("--d", type=int, help="surface degree H^2 (custom)")
    p_chars.add_argument("--kh", type=int, help="K.H (custom)")
    p_chars.add_argument("--k2", type=int, help="K^2 (custom)")
    p_chars.add_argument("--euler", type=int, help="Euler number e(S) (custom)")
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
    p_pillow.set_defaults(func=cmd_pillow)

    p_table = sub.add_parser("table", help="singularity-distribution table for (a, b)")
    p_table.add_argument("--a", type=int, required=True)
    p_table.add_argument("--b", type=int, required=True)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="sweep all invariants over (a, b) ranges")
    p_verify.add_argument("--a", required=True, help="range, e.g. 2..4 or 3")
    p_verify.add_argument("--b", required=True, help="range, e.g. 2..4 or 3")
    p_verify.add_argument("--limit", type=int, default=6,
                          help="upper bound allowed for the ranges (default 6)")
    p_verify.set_defaults(func=cmd_verify)
    for p in (p_chars, p_pillow, p_table, p_verify):
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # the records are tuples, which hold no reference cycle, so the cyclic
    # collector would only rescan tens of thousands of them to free nothing;
    # it stays off while the command runs and is then put back as it was
    collecting = gc.isenabled()
    gc.disable()
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # --help exits 0, a usage fault 2
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            _set_digits(0)  # no digit limit on the integers the command writes
            code = args.func(args)
        # a buffered stdout still holds the end of the output; written by
        # the interpreter at exit, a failure would end in "Exception
        # ignored" and exit 120, outside this guard
        sys.stdout.flush()
        return code
    except PillowDegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        _set_digits(digits)
        if collecting:
            gc.enable()


def run(argv=None):
    """The process entry point, which ``python -m pillowdeg``, ``python -m
    pillowdeg.cli`` and the ``pillowdeg`` script call: it runs ``main``
    and exits with its code.

    Before it exits it freezes the heap, so that the interpreter's
    collections at shutdown skip every object alive then, the modules that
    site preloads among them; atexit handlers, stream flushes and
    finalisation warnings are kept.  ``main`` itself leaves the caller's
    collector as it was, and importing this module freezes nothing."""
    code = main(argv)
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            # main has reported the failed write; what the buffer still
            # holds goes to the null device, so that the interpreter's own
            # flush at exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
