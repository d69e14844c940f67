"""Degeneration of the branch curve to the doubled lines of the pillow.

Under a general projection, every plane of the pillow maps isomorphically
to the target plane, so the branch curve degenerates to the 3g - 3 planar
line images, each with multiplicity two.  The nodes, cusps, and branch
points of the general branch curve collect at the special points of that
line arrangement: 2-points (images of disjoint line pairs), the four
3-points, and the g - 3 6-points.  A point where n concurrent planes meet
smooths locally to a degree-n Del Pezzo surface, whose branch curve has
degree 2n with 2(n-2)(n-3) nodes, 6n-12 cusps, and 12 simple branch
points; all nodes and cusps and all but n of the branch points collapse
to the concurrent point.  A 2-point absorbs the four nodes where two
doubled lines cross, and nothing else.

The table assembled here reads every object count off the actual complex;
the closed forms serve only as cross-checks.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from operator import eq

from . import pillow
from .checks import Report
from .errors import InvalidParameter, MalformedComplex, _Record, _integer, _record, _text
from .surfaces import branch_characters, del_pezzo_characters, k3

_ROW_LABELS = {
    "lines": "Lines",
    "three_points": "3-points",
    "six_points": "6-points",
    "two_points": "2-points",
}


class NPointBudget(_Record, namedtuple("NPointBudget", "n branch_points nodes cusps")):
    """How many branch points, nodes, and cusps collapse to one point
    where n of the doubled lines meet; every field an int."""

    __slots__ = ()

    def __new__(cls, n: int, branch_points: int, nodes: int, cusps: int) -> NPointBudget:
        return _record(cls, (n, branch_points, nodes, cusps), "n-point budget fields must be ints")


def npoint_budget(n: int) -> NPointBudget:
    """Per-point budget for an n-point of the limit branch curve; for n >= 3
    the local Del Pezzo characters, less the n branch points on the lines."""
    _integer(n, "n-point multiplicity must be in {2, 3, 4, 5, 6}", 2, 6)
    if n == 2:
        return NPointBudget(2, 0, 4, 0)
    local = del_pezzo_characters(n)
    return NPointBudget(n, local.turning_points - n, local.nodes, local.cusps)


class TableRow(_Record, namedtuple("TableRow", "object_type count branch_points nodes cusps")):
    """One row: how many objects of this type exist and what each absorbs;
    a type of the table's four and four ints."""

    __slots__ = ()

    def __new__(cls, object_type: str, count: int, branch_points: int, nodes: int, cusps: int) -> TableRow:
        if object_type not in tuple(_ROW_LABELS):  # by ==, so an unhashable type is refused too
            raise InvalidParameter(f"row type must be one of {tuple(_ROW_LABELS)}, "
                                   f"got {_text(object_type, False, repr)}")
        return _record(cls, (object_type, count, branch_points, nodes, cusps),
                       "row numbers must be ints", slice(1, None))

    def weighted(self) -> tuple[int, int, int]:
        return (
            self.count * self.branch_points,
            self.count * self.nodes,
            self.count * self.cusps,
        )


class TableTotals(namedtuple("TableTotals", "branch_points nodes cusps")):
    __slots__ = ()


class DegenerationTable(_Record, namedtuple("DegenerationTable", "g rows")):
    """The table of one g, an int: its rows, a tuple of ``TableRow``."""

    __slots__ = ()

    def __new__(cls, g: int, rows: tuple[TableRow, ...]) -> DegenerationTable:
        if not isinstance(rows, tuple) or not all(isinstance(r, TableRow) for r in rows):
            raise InvalidParameter(f"table rows must be a tuple of TableRows, got {_text(rows, False, repr)}")
        return _record(cls, (g, rows), "table g must be an int", slice(1))

    @property
    def totals(self) -> TableTotals:
        """The column sums of the weighted rows, computed on each read."""
        weighted = [r.weighted() for r in self.rows]
        return TableTotals(*(sum(w[k] for w in weighted) for k in range(3)))

    def row(self, object_type: str) -> TableRow:
        for r in self.rows:
            if r.object_type == object_type:
                return r
        raise KeyError(object_type)


def build_table(c: pillow.PillowConfig) -> DegenerationTable:
    """Assemble the singularity-distribution table from the built complex.

    Object counts come from the configuration itself: the line count, the
    census of vertices on three and on six lines, and the disjoint-pair
    count by the O(V + E) degree route on that same census.  The closed
    form checks that count in the verification paths, not here.
    """
    degrees = c.line_degrees()
    return _table(c, degrees, pillow._disjoint_pairs(c, degrees))


def _table(c: pillow.PillowConfig, degrees: Counter[int], two_points: int) -> DegenerationTable:
    """``build_table`` on ``degrees``, the ``line_degrees()`` of ``c``, and
    ``two_points``, the degree route's count on them."""
    bad = [(v, d) for v, d in degrees.items() if d not in (3, 6)]
    if bad:
        try:
            bad = sorted(bad)
        except TypeError:
            pass  # labels that do not compare stay in line_degrees order
        shown = ", ".join(f"({_text(v, False, repr)}, {d})" for v, d in bad[:5])
        raise MalformedComplex(f"vertices with line-degree outside {{3, 6}}: [{shown}]")
    three_points = sum(1 for d in degrees.values() if d == 3)
    six_points = sum(1 for d in degrees.values() if d == 6)

    b3 = npoint_budget(3)
    b6 = npoint_budget(6)
    b2 = npoint_budget(2)
    rows = (
        TableRow("lines", len(c.lines), 0, 0, 0),
        TableRow("three_points", three_points, b3.branch_points, b3.nodes, b3.cusps),
        TableRow("six_points", six_points, b6.branch_points, b6.nodes, b6.cusps),
        TableRow("two_points", two_points, b2.branch_points, b2.nodes, b2.cusps),
    )
    return DegenerationTable(c.g, rows)


def verify_conservation(table: DegenerationTable) -> Report:
    """Compare the table totals with the branch characters of the smooth
    K3 surface of the table's g: every branch point, node, and cusp must be
    accounted for, and none may land on a smooth point of a line.  A table
    with no lines row fails the two checks of that row, with lhs None."""
    smooth = branch_characters(k3(table.g))
    report = Report(f"singularity conservation, g = {table.g}")
    totals = table.totals
    report.add("branch_point_total", totals.branch_points, smooth.turning_points)
    report.add("node_total", totals.nodes, smooth.nodes)
    report.add("cusp_total", totals.cusps, smooth.cusps)
    try:
        lines_row = table.row("lines")
        weights, doubled = lines_row[2:], 2 * lines_row.count
    except KeyError:  # a table with no lines row fails both checks of it
        weights = doubled = None
    report.add("lines_row_contributes_nothing", weights, (0, 0, 0))
    report.add("doubled_lines_give_branch_degree", doubled, smooth.degree)
    return report


def verify_configuration(c: pillow.PillowConfig) -> Report:
    """Every invariant of one configuration: the sphere, pair and stage
    checks, conservation, and ``triangles_at_grid_positions``, the count of
    triangles whose labels are not those the build places at the grid
    position their fields name.  The inputs the sections share are built
    once each: the line incidence, the line degrees and the degree route's
    count, both the pair check's and the table's 2-points.  Where the table
    raises, one failed check with its message as lhs,
    ``line_degrees_in_local_models``, replaces conservation."""
    report = Report(f"configuration ({c.a}, {c.b})")
    incidence = pillow.incidence_index(c)
    degrees = c.line_degrees()
    two_points = pillow._disjoint_pairs(c, degrees)
    report.extend(pillow._verify_pillow(c, incidence, degrees, two_points))
    report.extend(pillow._stages(c, incidence))
    del incidence  # freed before the table and the grid-position check
    try:
        report.extend(verify_conservation(_table(c, degrees, two_points)))
    except MalformedComplex as exc:
        report.add("line_degrees_in_local_models", str(exc), None)
    # the triangles in order against the 4ab the build places by its one
    # rule, made row by row as they are compared; only where one differs is
    # each looked up whole in their set, so one off the grid matches none
    triangles = c.triangles
    report.add("triangles_at_grid_positions",
               0 if len(triangles) == 4 * c.a * c.b and all(map(eq, triangles, _placed(c.a, c.b)))
               else len(triangles) - sum(map(set(_placed(c.a, c.b)).__contains__, triangles)), 0)
    return report


def _placed(a: int, b: int) -> Iterator[pillow.Triangle]:
    """The triangles ``build_pillow(a, b)`` places, in its order, generated
    one row at a time by ``_row_triangles``."""
    for side in pillow.SIDES:
        rows = pillow.grid_rows(a, b, side)
        for i, (n, s) in enumerate(zip(rows, rows[1:]), 1):
            yield from pillow._row_triangles(side, i, n, s)


def verify_box(a_range: range, b_range: range) -> list[Report]:
    """``verify_configuration`` of each (a, b) in the box, a-major, each
    bidegree built once."""
    return [verify_configuration(pillow.build_pillow(a, b)) for a in a_range for b in b_range]


# ---------------------------------------------------------------------------
# Serialization.


def table_to_dict(table: DegenerationTable) -> dict:
    totals = table.totals
    return {
        "g": table.g,
        "rows": [
            {
                "type": r.object_type,
                "count": r.count,
                "branch": r.branch_points,
                "nodes": r.nodes,
                "cusps": r.cusps,
            }
            for r in table.rows
        ],
        "totals": {
            "branch": totals.branch_points,
            "nodes": totals.nodes,
            "cusps": totals.cusps,
        },
    }


def render_table(table: DegenerationTable) -> str:
    """Aligned text table in the row order Lines, 3-points, 6-points,
    2-points, Totals."""
    header = ("Object", "Number", "Branch", "Nodes", "Cusps")
    body = [(_ROW_LABELS[r.object_type], *(_text(n, False) for n in r[1:])) for r in table.rows]
    totals_row = ("Totals:", "", *(_text(n, False) for n in table.totals))
    all_rows = [header] + body + [totals_row]
    widths = [max(len(row[i]) for row in all_rows) for i in range(len(header))]
    out = []
    for row in all_rows:
        cells = [row[0].ljust(widths[0])] + [
            row[i].rjust(widths[i]) for i in range(1, len(header))
        ]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"
