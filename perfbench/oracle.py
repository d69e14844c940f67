"""Closed forms for the pillow configuration and validators for CLI output.

Nothing here imports ``pillowdeg``: the expected values are encoded from
the paper's formulas, so a wrong fast path in the program shows up as a
failed invocation instead of as a speed-up.

With g = 2ab + 1 the pillow of bidegree (a, b) has V = 2ab + 2 vertices,
E = 6ab lines and F = 4ab triangles; (9g^2 - 51g + 78)/2 line pairs are
disjoint.  Each validator takes one invocation and returns ``None`` when
the output is right, or a one-line reason when it is not.
"""
from __future__ import annotations

import json
import re


def genus(a: int, b: int) -> int:
    return 2 * a * b + 1


def vertices(a: int, b: int) -> int:
    return 2 * a * b + 2


def lines(a: int, b: int) -> int:
    return 6 * a * b


def triangles(a: int, b: int) -> int:
    return 4 * a * b


def disjoint_pairs(g: int) -> int:
    numerator = 9 * g * g - 51 * g + 78
    if numerator % 2:
        raise ValueError(f"9g^2 - 51g + 78 is odd at g = {g}")
    return numerator // 2


def meeting_pairs(a: int, b: int) -> int:
    """Line pairs that share a vertex: all pairs minus the disjoint ones."""
    e = lines(a, b)
    return e * (e - 1) // 2 - disjoint_pairs(genus(a, b))


def table_rows(a: int, b: int) -> dict[str, tuple[int, int, int, int]]:
    """Row type -> (count, branch, nodes, cusps)."""
    ab = a * b
    return {
        "lines": (6 * ab, 0, 0, 0),
        "three_points": (4, 9, 0, 6),
        "six_points": (2 * ab - 2, 6, 24, 24),
        "two_points": (disjoint_pairs(genus(a, b)), 0, 4, 0),
    }


def table_totals(g: int) -> tuple[int, int, int]:
    """(branch, nodes, cusps) of the smooth K3 branch curve of genus g."""
    return 6 * g + 18, 18 * g * g - 78 * g + 84, 24 * (g - 2)


_TEXT_ROW_TYPES = {
    "Lines": "lines",
    "3-points": "three_points",
    "6-points": "six_points",
    "2-points": "two_points",
}


def _ints(fields: list[str]) -> tuple[int, ...]:
    return tuple(int(f) for f in fields)


def _json_doc(stdout: str, command: str) -> dict:
    doc = json.loads(stdout)
    if doc.get("command") != command:
        raise ValueError(f"command is {doc.get('command')!r}, expected {command!r}")
    if doc.get("all_passed") is not True or doc.get("exit_code") != 0:
        raise ValueError("document does not report all checks passed with exit code 0")
    if not all(c.get("passed") is True for c in doc.get("checks", [])):
        raise ValueError("a check in the document failed")
    return doc


# ---------------------------------------------------------------------------
# table


def check_table(a: int, b: int, fmt: str, stdout: str) -> str | None:
    rows = table_rows(a, b)
    totals = table_totals(genus(a, b))
    if fmt == "json":
        table = _json_doc(stdout, "table")["table"]
        if table["g"] != genus(a, b):
            return f"g = {table['g']}, expected {genus(a, b)}"
        got = {r["type"]: (r["count"], r["branch"], r["nodes"], r["cusps"])
               for r in table["rows"]}
        got_totals = (table["totals"]["branch"], table["totals"]["nodes"],
                      table["totals"]["cusps"])
    else:
        text_lines = stdout.splitlines()
        got = {}
        got_totals = None
        for line in text_lines:
            fields = line.split()
            if fields and fields[0] in _TEXT_ROW_TYPES:
                got[_TEXT_ROW_TYPES[fields[0]]] = _ints(fields[1:])
            elif fields and fields[0] == "Totals:":
                got_totals = _ints(fields[1:])
        if "conservation checks:" not in text_lines:
            return "no conservation checks in the text output"
        checks = text_lines[text_lines.index("conservation checks:") + 1:]
        if not checks or not all(c.lstrip().startswith("PASS") for c in checks):
            return "a conservation check did not pass"
    if got != rows:
        return f"table rows {got} != {rows}"
    if got_totals != totals:
        return f"table totals {got_totals} != {totals}"
    return None


# ---------------------------------------------------------------------------
# pillow --verify


_SUMMARY = re.compile(r"^pillow \((\d+), (\d+)\): V=(\d+) E=(\d+) F=(\d+) g=(\d+)$")
_CHECK = re.compile(r"^\s+(PASS|FAIL)\s+(\S+): (.*) == (.*)$")


def _summary_error(a: int, b: int, got: tuple) -> str | None:
    expected = (a, b, vertices(a, b), lines(a, b), triangles(a, b), genus(a, b))
    if tuple(got) != expected:
        return f"summary (a, b, V, E, F, g) = {tuple(got)}, expected {expected}"
    return None


def _pair_checks_error(pairs: list[tuple[object, object]], g: int) -> str | None:
    expected = disjoint_pairs(g)
    if not pairs:
        return "no disjoint-pair check in the output"
    for lhs, rhs in pairs:
        if str(lhs) != str(expected) or str(rhs) != str(expected):
            return f"disjoint-pair check {lhs} == {rhs}, expected {expected}"
    return None


def check_pillow_verify(a: int, b: int, fmt: str, stdout: str) -> str | None:
    g = genus(a, b)
    if fmt == "json":
        doc = _json_doc(stdout, "pillow")
        s = doc["summary"]
        err = _summary_error(a, b, (s["a"], s["b"], s["vertices"], s["lines"],
                                    s["triangles"], s["g"]))
        if err:
            return err
        if not doc["checks"]:
            return "pillow --verify ran no checks"
        pairs = [(c["lhs"], c["rhs"]) for c in doc["checks"] if "disjoint_pairs" in c["name"]]
        return _pair_checks_error(pairs, g)
    text_lines = stdout.splitlines()
    m = _SUMMARY.match(text_lines[0]) if text_lines else None
    if not m:
        return "no summary line"
    err = _summary_error(a, b, _ints(list(m.groups())))
    if err:
        return err
    checks = [_CHECK.match(line) for line in text_lines[1:-1]]
    if not checks or not all(c and c.group(1) == "PASS" for c in checks):
        return "a pillow check did not pass"
    if text_lines[-1] != "all checks passed":
        return f"last line is {text_lines[-1]!r}"
    pairs = [(c.group(3), c.group(4)) for c in checks if "disjoint_pairs" in c.group(2)]
    return _pair_checks_error(pairs, g)


# ---------------------------------------------------------------------------
# pillow --export


def check_export_content(a: int, b: int, export: str, graph: str, content: str) -> str | None:
    if export == "json":
        doc = json.loads(content)
        got = (doc["a"], doc["b"], doc["g"], len(doc["vertices"]),
               len({(ln["u"], ln["v"]) for ln in doc["lines"]}), len(doc["triangles"]))
        expected = (a, b, genus(a, b), vertices(a, b), lines(a, b), triangles(a, b))
        if got != expected:
            return f"JSON export (a, b, g, V, distinct E, F) = {got}, expected {expected}"
        return None
    header, nodes, edges = _dot_counts(content)
    if graph == "lines":
        expected = ("graph line_intersection {", lines(a, b), meeting_pairs(a, b))
    else:
        expected = ("graph face_adjacency {", triangles(a, b), lines(a, b))
    if (header, nodes, edges) != expected:
        return f"DOT (header, nodes, edges) = {(header, nodes, edges)}, expected {expected}"
    return None


def _dot_counts(content: str) -> tuple[str, int, int]:
    text_lines = content.splitlines()
    if not text_lines or text_lines[-1] != "}":
        return (text_lines[0] if text_lines else "", -1, -1)
    body = text_lines[1:-1]
    edges = sum(1 for line in body if " -- " in line)
    return text_lines[0], len(body) - edges, edges


def check_export(a: int, b: int, export: str, graph: str, fmt: str, out: str | None,
                 stdout: str, out_content: str | None) -> str | None:
    """Returns the reason for failure, or None; ``out_content`` is the text
    of ``--out`` when one was given."""
    if out is not None:
        text_lines = stdout.splitlines()
        m = _SUMMARY.match(text_lines[0]) if text_lines else None
        if not m:
            return "no summary line"
        err = _summary_error(a, b, _ints(list(m.groups())))
        if err:
            return err
        if text_lines[1:] != [f"wrote {out}"]:
            return f"expected 'wrote {out}' after the summary"
        if out_content is None:
            return f"{out} was not written"
        return check_export_content(a, b, export, graph, out_content)
    doc = _json_doc(stdout, "pillow")
    s = doc["summary"]
    err = _summary_error(a, b, (s["a"], s["b"], s["vertices"], s["lines"],
                                s["triangles"], s["g"]))
    if err:
        return err
    if "export" not in doc:
        return "no export in the JSON document"
    return check_export_content(a, b, export, graph, doc["export"])


# ---------------------------------------------------------------------------
# verify


_SECTION = re.compile(r"^(PASS|FAIL)  (.*) \((\d+) checks\)$")
_CONFIG = re.compile(r"^configuration \((\d+), (\d+)\)$")


def check_verify(a_range: tuple[int, int], b_range: tuple[int, int], fmt: str,
                 stdout: str) -> str | None:
    box = {(a, b) for a in range(a_range[0], a_range[1] + 1)
           for b in range(b_range[0], b_range[1] + 1)}
    if fmt == "json":
        doc = _json_doc(stdout, "verify")
        if doc["configurations"] != len(box):
            return f"configurations = {doc['configurations']}, expected {len(box)}"
        seen = set()
        for c in doc["checks"]:
            m = _CONFIG.match(c["name"].split(":", 1)[0])
            if m:
                seen.add(_ints(list(m.groups())))
    else:
        text_lines = stdout.splitlines()
        if not text_lines or not re.match(r"^overall: PASS \(\d+ checks\)$", text_lines[-1]):
            return "the sweep did not report overall: PASS"
        seen = set()
        for line in text_lines[:-1]:
            m = _SECTION.match(line)
            if not m or m.group(1) != "PASS":
                return f"unexpected line {line!r}"
            cm = _CONFIG.match(m.group(2))
            if cm:
                seen.add(_ints(list(cm.groups())))
    if seen != box:
        return f"verified {len(seen)} configurations, expected the {len(box)} of the box"
    return None
