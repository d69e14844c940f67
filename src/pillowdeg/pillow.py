"""The pillow configuration of bidegree (a, b).

Two a x b grids of unit cells ("top" and "bottom"), each cell split into
two triangles by a diagonal, glued along their common boundary cycle of
2a + 2b segments: a triangulation of the 2-sphere with 2ab + 2 vertices,
6ab lines, and 4ab triangles.  With g = 2ab + 1 these counts read g + 1,
3g - 3, and 2g - 2.

Labeling conventions (fixed so all outputs are reproducible bit for bit):

* Boundary vertices are 1 .. 2a+2b, consecutively clockwise from the
  top-left corner: 1 .. a+1 across the top, a+1 .. a+b+1 down the right
  side, a+b+1 .. 2a+b+1 across the bottom (right to left), then up the
  left side ending with 2a+2b just below 1.  The four corners are
  therefore 1, a+1, a+b+1, and 2a+b+1.
* Interior vertices are labeled row-major (left to right, rows top to
  bottom): 2a+2b+1 .. ab+a+b+1 for the top grid, ab+a+b+2 .. 2ab+2 for
  the bottom grid.
* Top cells carry rising diagonals (lower-left to upper-right), bottom
  cells falling ones.  Opposite orientations are what give each corner
  exactly three incident triangles.

Two lines of the configuration meet exactly when they share a labeled
vertex: the planes span coordinate subspaces, so lines spanned by pairs
of coordinate points intersect precisely when the pairs overlap.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from math import comb, gcd
from operator import itemgetter
from typing import NamedTuple

from . import pairs
from .checks import Report
from .errors import InvalidParameter, MalformedComplex

SIDES = ("top", "bottom")

BOUNDARY = "boundary"
HORIZONTAL = "horizontal"
VERTICAL = "vertical"
DIAGONAL = "diagonal"

# Size guards on the cell count a*b.  The build and each export are linear:
# at the build limit one `pillow --export` invocation takes 0.5-1.1 s and
# peaks at 44-69 MB of RSS (2-core host, Python 3.10-3.13).  The exports
# are written in pieces, so the build's own 48 MB (Python 3.11) and the
# DOT face graph's line index set that peak.  verify_pillow runs the
# brute-force pair oracle, whose pair tests and per-vertex edge masks both
# grow as E^2: at the verify limit (E = 6144) it takes 8-12 ms and at most
# 1.3 MB, and verify_pillow as a whole 0.08-0.12 s, on the same host.
MAX_PILLOW_CELLS = 16384
MAX_VERIFY_CELLS = 1024


class Line(namedtuple("Line", "u v kind side")):
    """A double line of the configuration: endpoints u < v, its kind and
    its side.  Boundary lines are shared by both grids (side == "shared");
    all other lines belong to one grid.

    Within a complex a line's identity is its endpoint ``pair``: the
    verifiers, the stages and the exports key lines by it, never by the
    whole record.  A Line is an immutable tuple, so it compares and hashes
    by all four fields.  Construction and ``_replace`` both reject u >= v.
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int, kind: str, side: str) -> Line:
        if not u < v:
            raise InvalidParameter(f"line endpoints must satisfy u < v, got ({u}, {v})")
        return tuple.__new__(cls, (u, v, kind, side))

    @classmethod
    def _make(cls, fields) -> Line:
        # _replace builds its copy through _make; validate it the same way
        return cls(*fields)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class Triangle(NamedTuple):
    """One plane of the configuration: half of a grid cell."""

    vertices: tuple[int, int, int]
    side: str
    row: int
    col: int
    half: str

    def edge_pairs(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        a, b, c = self.vertices
        return ((a, b), (a, c), (b, c))

    @property
    def name(self) -> str:
        return f"{self.side}_r{self.row}_c{self.col}_{self.half}"


class PillowConfig(NamedTuple):
    """The full plane configuration as a labeled simplicial complex.

    An immutable tuple like every record of the package: a changed copy is
    ``c._replace(lines=...)``.  The label of each grid position is not
    stored: ``grid_rows(a, b, side)`` derives it from the bidegree.
    Nothing checks the fields against each other on construction; the
    verifiers report a complex that does not triangulate the sphere, and
    an operation whose assumptions it breaks raises MalformedComplex.
    """

    a: int
    b: int
    vertices: tuple[int, ...]
    lines: tuple[Line, ...]
    triangles: tuple[Triangle, ...]

    @property
    def g(self) -> int:
        return 2 * self.a * self.b + 1

    @property
    def corner_ids(self) -> tuple[int, int, int, int]:
        a, b = self.a, self.b
        return (1, a + 1, a + b + 1, 2 * a + b + 1)

    @property
    def boundary_ids(self) -> range:
        return range(1, 2 * self.a + 2 * self.b + 1)

    def line_degrees(self) -> dict[int, int]:
        """Number of lines through each vertex; a line with an endpoint
        outside ``vertices`` raises MalformedComplex."""
        deg = {v: 0 for v in self.vertices}
        try:
            for line in self.lines:
                deg[line.u] += 1
                deg[line.v] += 1
        except KeyError:
            raise MalformedComplex(
                f"line {line.pair} has an endpoint outside the vertex list"
            ) from None
        return deg


def grid_rows(a: int, b: int, side: str) -> list[list[int]]:
    """The labels of one side's grid positions, row by row: ``rows[i][j]``
    is the label at row i = 0..b (top to bottom), column j = 0..a (left to
    right).  The one code for the labeling conventions above: the
    boundary rows and columns are the same on both sides, and the interior
    is numbered row-major from 2a+2b+1 (top) or ab+a+b+2 (bottom)."""
    if side not in SIDES:
        raise InvalidParameter(f"side must be one of {SIDES}, got {side!r}")
    interior = 2 * a + 2 * b if side == "top" else a * b + a + b + 1
    rows = [list(range(1, a + 2))]
    for i in range(1, b):
        start = interior + (i - 1) * (a - 1)
        rows.append([2 * a + 2 * b + 1 - i, *range(start + 1, start + a), a + 1 + i])
    rows.append(list(range(2 * a + b + 1, a + b, -1)))
    return rows


def _cells(a: int, b: int) -> Iterator[tuple[str, int, int, int, int, int, int]]:
    """(side, i, j, nw, ne, se, sw) for every cell, in (side, row, col)
    order, the export order of the triangles: cell (i, j) spans rows i-1..i
    and columns j-1..j, and its corners are named by compass point."""
    for side in SIDES:
        rows = grid_rows(a, b, side)
        for i in range(1, b + 1):
            north, south = rows[i - 1], rows[i]
            for j in range(1, a + 1):
                yield side, i, j, north[j - 1], north[j], south[j], south[j - 1]


def _sorted_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_pillow(a: int, b: int) -> PillowConfig:
    """Construct the pillow configuration of bidegree (a, b), for
    2 <= a, b and a*b <= MAX_PILLOW_CELLS."""
    if a < 2 or b < 2:
        raise InvalidParameter(f"bidegree parameters must both be >= 2, got ({a}, {b})")
    if a * b > MAX_PILLOW_CELLS:
        raise InvalidParameter(
            f"bidegree ({a}, {b}) has a*b = {a * b} cells, above the limit {MAX_PILLOW_CELLS}"
        )

    n_vertices = 2 * a * b + 2
    vertices = tuple(range(1, n_vertices + 1))

    line_map: dict[tuple[int, int], Line] = {}

    def add_line(u: int, v: int, kind: str, side: str) -> None:
        pair = _sorted_pair(u, v)
        if pair in line_map:
            raise MalformedComplex(f"duplicate line between vertices {pair}")
        line_map[pair] = Line(pair[0], pair[1], kind, side)

    # the shared boundary cycle of 2a + 2b lines
    cycle = list(range(1, 2 * a + 2 * b + 1))
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        add_line(u, v, BOUNDARY, "shared")

    # one pass over the cells in (side, row, col) order, the export order of
    # the triangles; every line off the boundary cycle is the north line (off
    # the top row), the west line (off the left column) or the diagonal of
    # exactly one cell
    triangles: list[Triangle] = []
    for side, i, j, nw, ne, se, sw in _cells(a, b):
        if i > 1:
            add_line(nw, ne, HORIZONTAL, side)
        if j > 1:
            add_line(nw, sw, VERTICAL, side)
        if side == "top":
            # rising diagonal sw-ne
            add_line(sw, ne, DIAGONAL, side)
            lower, upper = (sw, se, ne), (sw, nw, ne)
        else:
            # falling diagonal nw-se
            add_line(nw, se, DIAGONAL, side)
            lower, upper = (nw, sw, se), (nw, ne, se)
        triangles.append(Triangle(tuple(sorted(lower)), side, i, j, "lower"))
        triangles.append(Triangle(tuple(sorted(upper)), side, i, j, "upper"))

    # endpoint pairs are unique, so sorting the tuple keys orders the lines
    # exactly as Line's (u, v) ordering would
    lines = tuple(line_map[pair] for pair in sorted(line_map))

    if len(lines) != 6 * a * b or len(triangles) != 4 * a * b:
        raise MalformedComplex(
            f"construction produced {len(lines)} lines / {len(triangles)} triangles, "
            f"expected {6 * a * b} / {4 * a * b}"
        )
    return PillowConfig(a, b, vertices, lines, tuple(triangles))


# ---------------------------------------------------------------------------
# Verification.


def _line_incidence(c: PillowConfig) -> dict[tuple[int, int], list[int]]:
    """Map each line's endpoint pair to the indices of triangles containing it."""
    incidence: dict[tuple[int, int], list[int]] = {ln.pair: [] for ln in c.lines}
    for idx, tri in enumerate(c.triangles):
        for pair in tri.edge_pairs():
            if pair in incidence:
                incidence[pair].append(idx)
    return incidence


def _reach(start: int, neighbours: Callable[[int], Iterable[int]]) -> set[int]:
    """The nodes reachable from ``start``, by a depth-first flood."""
    seen = {start}
    stack = [start]
    while stack:
        for n in neighbours(stack.pop()):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


def _vertex_link_is_single_cycle(c: PillowConfig, vertex: int, star: list[int],
                                 incidence: dict[tuple[int, int], list[int]]) -> bool:
    """The triangles of a vertex's star, glued along shared lines through
    it, must form exactly one closed cycle (the closed-surface condition)."""
    near = {
        i: {j for other in c.triangles[i].vertices if other != vertex
            for j in incidence.get(_sorted_pair(vertex, other), ()) if j != i}
        for i in star
    }
    # 2-regular and one flood covers it => a single cycle; an empty star fails
    return (bool(near) and all(len(js) == 2 for js in near.values())
            and len(_reach(star[0], near.__getitem__)) == len(near))


def verify_sphere_triangulation(c: PillowConfig) -> Report:
    """Check that the configuration triangulates the 2-sphere.

    Reported checks: every line in exactly two triangles; every vertex
    link a single closed cycle; connected face-adjacency graph; Euler
    characteristic 2; and the vertex census (the four corners on exactly
    three lines and three triangles, every other vertex on six).

    The line incidence and the vertex stars are each built in one pass
    over the triangles, so the check is linear in the size of ``c``.
    """
    report = Report(f"sphere triangulation, bidegree ({c.a}, {c.b})")
    incidence = _line_incidence(c)
    star: dict[int, list[int]] = {v: [] for v in c.vertices}
    for idx, tri in enumerate(c.triangles):
        for v in tri.vertices:
            if v in star:
                star[v].append(idx)

    bad_lines = sum(1 for tris in incidence.values() if len(tris) != 2)
    report.add("line_in_two_triangles", bad_lines, 0)

    bad_links = sum(
        1 for v, tris in star.items()
        if not _vertex_link_is_single_cycle(c, v, tris, incidence)
    )
    report.add("vertex_link_single_cycle", bad_links, 0)

    def across(i: int) -> list[int]:
        # triangles meet across a line that lies on exactly two of them
        sides = (incidence.get(pair, ()) for pair in c.triangles[i].edge_pairs())
        return [j for tris in sides if len(tris) == 2 for j in tris]

    unseen = set(range(len(c.triangles)))
    face_components = 0
    while unseen:
        unseen -= _reach(unseen.pop(), across)
        face_components += 1
    report.add("face_adjacency_connected", face_components, 1)

    euler = len(c.vertices) - len(c.lines) + len(c.triangles)
    report.add("euler_characteristic", euler, 2)

    tri_deg = {v: len(tris) for v, tris in star.items()}
    degree_three = tuple(sorted(v for v, d in tri_deg.items() if d == 3))
    report.add("degree3_vertices_are_corners", degree_three, tuple(sorted(c.corner_ids)))
    census = tuple(sorted(Counter(tri_deg.values()).items()))
    report.add("triangle_degree_census", census,
               ((3, 4), (6, 2 * c.a * c.b - 2)))
    report.add("line_degrees_match_triangle_degrees",
               sum(1 for v, d in c.line_degrees().items() if d != tri_deg[v]), 0)
    return report


# ---------------------------------------------------------------------------
# Disjoint line pairs: three independent routes.


def count_disjoint_line_pairs(c: PillowConfig) -> int:
    """Unordered pairs of lines sharing no vertex, by exhaustive O(E^2)
    enumeration: the oracle the other two routes are checked against."""
    return pairs.count_disjoint_pairs([ln.pair for ln in c.lines])


def disjoint_pairs_via_degrees(c: PillowConfig) -> int:
    """Same count through the vertex degrees in O(V + E): all pairs minus
    the meeting pairs, which number sum over vertices of C(degree, 2).

    That holds only when two distinct lines share at most one vertex,
    i.e. no endpoint pair repeats (``Line`` already rules out loops), so a
    repeated pair raises MalformedComplex instead of a wrong count.
    """
    if len({ln.pair for ln in c.lines}) != len(c.lines):
        raise MalformedComplex(
            "lines repeat an endpoint pair; the degree route needs distinct pairs"
        )
    degrees = c.line_degrees()
    return comb(len(c.lines), 2) - sum(comb(d, 2) for d in degrees.values())


def formula_disjoint_pairs(g: int) -> int:
    """Closed form (9g^2 - 51g + 78) / 2 for the number of disjoint line
    pairs in the pillow with g = 2ab + 1."""
    if g % 2 == 0 or g < 9:
        raise InvalidParameter(f"g must be odd and >= 9, got {g}")
    # 9g^2 - 51g = 3g(3g - 17) multiplies factors of opposite parity, so
    # the numerator is even for every integer g
    return (9 * g * g - 51 * g + 78) // 2


def verify_pillow(c: PillowConfig) -> Report:
    """The sphere checks, then the brute-force disjoint-pair count against
    the closed form and against the degree route.  The brute force tests
    every line pair, bit-parallel but still O(E^2), and assumes nothing of
    the lines it is given; a*b above MAX_VERIFY_CELLS raises
    InvalidParameter."""
    if c.a * c.b > MAX_VERIFY_CELLS:
        raise InvalidParameter(
            f"verifying bidegree ({c.a}, {c.b}) runs the O(E^2) pair oracle; "
            f"a*b = {c.a * c.b} is above the limit {MAX_VERIFY_CELLS}"
        )
    report = Report(f"pillow ({c.a}, {c.b})")
    report.extend(verify_sphere_triangulation(c))
    brute = count_disjoint_line_pairs(c)
    report.add("disjoint_pairs_brute_vs_formula", brute, formula_disjoint_pairs(c.g))
    report.add("disjoint_pairs_brute_vs_degree_method", brute, disjoint_pairs_via_degrees(c))
    return report


# ---------------------------------------------------------------------------
# Intermediate degeneration stages.


class GridFace(NamedTuple):
    """One whole a x b grid, viewed as a single face (two-surfaces stage):
    the vertices of the triangles of the complex on that side."""

    side: str
    vertices: tuple[int, ...]


class QuadricFace(NamedTuple):
    """One rectangle of the quadrics stage, with its 4-line boundary cycle."""

    side: str
    row: int
    col: int
    corners: tuple[int, int, int, int]  # nw, ne, se, sw
    boundary: tuple[Line, Line, Line, Line]  # north, east, south, west


class StageConfig(NamedTuple):
    """A stage of the degeneration: two surfaces or 2ab quadrics.  The
    last stage, 4ab planes, is the PillowConfig itself."""

    stage: str  # "two_surfaces" | "quadrics"
    a: int
    b: int
    cells: tuple
    lines: tuple[Line, ...]


def two_surface_stage(c: PillowConfig) -> StageConfig:
    """First stage: the two grids of ``c`` as whole surfaces meeting along
    the boundary cycle of 2a + 2b lines.  Each face is read off the
    triangles of ``c`` on its side; a boundary cycle of another length
    raises MalformedComplex."""
    a, b = c.a, c.b
    boundary_lines = tuple(ln for ln in c.lines if ln.kind == BOUNDARY)
    if len(boundary_lines) != 2 * a + 2 * b:
        raise MalformedComplex(
            f"boundary cycle has {len(boundary_lines)} lines, expected {2 * a + 2 * b}"
        )
    faces = tuple(
        GridFace(side, tuple(sorted({v for tri in c.triangles if tri.side == side
                                     for v in tri.vertices})))
        for side in SIDES
    )
    return StageConfig("two_surfaces", a, b, faces, boundary_lines)


def quadric_stage(c: PillowConfig) -> StageConfig:
    """Second stage: remove the diagonals of ``c``; 2ab rectangles remain,
    each bounded by a cycle of four lines (two horizontal, two vertical).

    A rectangle that lacks a line or has a diagonal side raises
    MalformedComplex; the rectangle and line counts are left to
    ``verify_stages``, which reports them as checks."""
    a, b = c.a, c.b
    by_pair = {ln.pair: ln for ln in c.lines}
    lines = tuple(ln for ln in c.lines if ln.kind != DIAGONAL)

    def line(u: int, v: int) -> Line:
        pair = _sorted_pair(u, v)
        if pair not in by_pair:
            raise MalformedComplex(f"rectangle ({side}, {i}, {j}) lacks the line {pair}")
        return by_pair[pair]

    cells = []
    for side, i, j, nw, ne, se, sw in _cells(a, b):
        # grid_rows gives a cell four distinct corners, so its four
        # sides are four distinct lines
        sides4 = (line(nw, ne), line(ne, se), line(sw, se), line(nw, sw))
        if any(ln.kind == DIAGONAL for ln in sides4):
            raise MalformedComplex(f"rectangle ({side}, {i}, {j}) is bounded by a diagonal")
        cells.append(QuadricFace(side, i, j, (nw, ne, se, sw), sides4))
    return StageConfig("quadrics", a, b, tuple(cells), lines)


def verify_stages(c: PillowConfig) -> Report:
    """Contracts of the intermediate stages built on ``c``: 2ab quadrics
    whose 4ab lines each bound two of them, and two surfaces of the
    expected spans meeting in the 2a + 2b boundary points, whose points
    together are the vertices of ``c``."""
    a, b = c.a, c.b
    report = Report(f"stages, bidegree ({a}, {b})")
    quad = quadric_stage(c)
    report.add("quadric_face_count", len(quad.cells), 2 * a * b)
    report.add("quadric_line_count", len(quad.lines), 4 * a * b)
    shared = Counter(ln.pair for face in quad.cells for ln in face.boundary)
    report.add("quadric_lines_shared_by_two_faces",
               sum(1 for n in shared.values() if n != 2), 0)

    # a face spans the coordinate points of its vertices: their count less one
    top, bottom = two_surface_stage(c).cells
    report.add("two_surface_spans",
               (len(top.vertices) - 1, len(bottom.vertices) - 1,
                len(set(top.vertices) & set(bottom.vertices)) - 1),
               (a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1))
    report.add("two_surface_point_inclusion_exclusion",
               len(set(top.vertices) | set(bottom.vertices)), len(c.vertices))
    return report


class CupleReduction(NamedTuple):
    """gcd bookkeeping for the re-embedding multiple: a bidegree (a, b)
    with c = gcd(a, b) > 1 is the c-fold re-embedding of (a/c, b/c)."""

    c: int
    reduced: tuple[int, int]


def cuple_reduction(a: int, b: int) -> CupleReduction:
    if a < 2 or b < 2:
        raise InvalidParameter(f"bidegree parameters must both be >= 2, got ({a}, {b})")
    c = gcd(a, b)
    return CupleReduction(c, (a // c, b // c))


# ---------------------------------------------------------------------------
# Isomorphism of (a, b) and (b, a).


def transpose_map(c: PillowConfig, ct: PillowConfig) -> dict[int, int]:
    """Vertex bijection sending grid position (side, i, j) of ``c`` to
    (side, j, i) of ``ct``; requires ct to have the transposed bidegree.
    A label that two positions of ``c`` share (the boundary) must have
    one image, or MalformedComplex is raised."""
    if (ct.a, ct.b) != (c.b, c.a):
        raise InvalidParameter(
            f"expected bidegree ({c.b}, {c.a}) for the transpose, got ({ct.a}, {ct.b})"
        )
    mapping: dict[int, int] = {}
    for side in SIDES:
        rows_t = grid_rows(ct.a, ct.b, side)
        for i, row in enumerate(grid_rows(c.a, c.b, side)):
            for j, vid in enumerate(row):
                image = rows_t[j][i]
                if mapping.setdefault(vid, image) != image:
                    raise MalformedComplex(f"transpose map is not well defined at vertex {vid}")
    return mapping


def is_complex_isomorphism(c: PillowConfig, other: PillowConfig,
                           vertex_map: dict[int, int]) -> bool:
    """True when the bijection carries lines onto lines and triangles onto
    triangles (equal counts, so a proper subcomplex of ``other`` fails).
    A line or triangle of ``c`` on a label outside ``vertex_map`` fails."""
    if (sorted(vertex_map) != sorted(c.vertices)
            or sorted(vertex_map.values()) != sorted(other.vertices)):
        return False
    if len(c.lines) != len(other.lines) or len(c.triangles) != len(other.triangles):
        return False
    other_lines = {ln.pair for ln in other.lines}
    other_tris = {tri.vertices for tri in other.triangles}
    try:
        for ln in c.lines:
            if _sorted_pair(vertex_map[ln.u], vertex_map[ln.v]) not in other_lines:
                return False
        for tri in c.triangles:
            image = tuple(sorted(vertex_map[v] for v in tri.vertices))
            if image not in other_tris:
                return False
    except KeyError:
        return False
    return True


# ---------------------------------------------------------------------------
# Exports.  Each is rendered as an iterator of pieces, which a writer can
# pass on one at a time without holding the whole text, and as a str, the
# same pieces joined.

# A piece is cut once its records reach this many characters.  Cutting by
# length, not by record count, bounds every piece whatever its records:
# 64 Ki characters keep a 4 MB export to some 70 writes.
PIECE_CHARS = 1 << 16


def config_to_dict(c: PillowConfig) -> dict:
    """JSON-ready dict with stable ordering: vertices ascending, lines by
    endpoint pair, triangles by (side, row, col, half)."""
    return {
        "a": c.a,
        "b": c.b,
        "g": c.g,
        "vertices": list(c.vertices),
        "lines": [
            {"u": ln.u, "v": ln.v, "kind": ln.kind, "side": ln.side} for ln in c.lines
        ],
        "triangles": [
            {
                "v1": tri.vertices[0],
                "v2": tri.vertices[1],
                "v3": tri.vertices[2],
                "side": tri.side,
                "row": tri.row,
                "col": tri.col,
                "half": tri.half,
            }
            for tri in c.triangles
        ],
    }


class _JSONStrings(dict):
    """The JSON literal of each string, encoded once per distinct value."""

    def __missing__(self, text: str) -> str:
        import json

        self[text] = literal = json.dumps(text)
        return literal


def _pieces(texts: Iterable[str]) -> Iterator[str]:
    """``texts`` joined into consecutive pieces of PIECE_CHARS characters or
    more, the last excepted; a piece passes PIECE_CHARS by less than the
    length of its last text."""
    block: list[str] = []
    size = 0
    for text in texts:
        block.append(text)
        size += len(text)
        if size >= PIECE_CHARS:
            yield "".join(block)
            block, size = [], 0
    if block:
        yield "".join(block)


def _json_array(items: Iterator[str]) -> Iterable[str]:
    """An indent=2 JSON array one level deep, as texts, from its rendered
    items, each of which starts with the separator ",\\n"."""
    first = next(items, None)
    if first is None:
        return ("[]",)
    return chain(("[\n" + first[2:],), items, ("\n  ]",))


def config_json_pieces(c: PillowConfig) -> Iterator[str]:
    """``config_to_json(c)`` in pieces: one f-string template per record,
    so the indenting pure-Python JSON encoder never runs."""
    q = _JSONStrings()
    return _pieces(chain(
        (f'{{\n  "a": {c.a},\n  "b": {c.b},\n  "g": {c.g},\n  "vertices": ',),
        _json_array(f",\n    {v}" for v in c.vertices),
        (',\n  "lines": ',),
        _json_array(
            f',\n    {{\n      "u": {ln.u},\n      "v": {ln.v},\n'
            f'      "kind": {q[ln.kind]},\n      "side": {q[ln.side]}\n    }}'
            for ln in c.lines
        ),
        (',\n  "triangles": ',),
        _json_array(
            f',\n    {{\n      "v1": {tri.vertices[0]},\n      "v2": {tri.vertices[1]},\n'
            f'      "v3": {tri.vertices[2]},\n      "side": {q[tri.side]},\n'
            f'      "row": {tri.row},\n      "col": {tri.col},\n      "half": {q[tri.half]}\n    }}'
            for tri in c.triangles
        ),
        ("\n}\n",),
    ))


def config_to_json(c: PillowConfig) -> str:
    """``json.dumps(config_to_dict(c), indent=2) + "\\n"`` byte for byte, in
    linear time: the pieces of ``config_json_pieces``, joined."""
    return "".join(config_json_pieces(c))


def dot_face_pieces(c: PillowConfig) -> Iterator[str]:
    """``dot_face_adjacency(c)`` in pieces."""
    names = [f'"{tri.name}"' for tri in c.triangles]
    incidence = _line_incidence(c)
    # the triangles of each line on exactly two, by endpoint pair
    shared = [on for on in map(incidence.__getitem__, sorted(incidence)) if len(on) == 2]
    return _pieces(chain(
        ("graph face_adjacency {",),
        (f"\n  {name};" for name in names),
        (f"\n  {names[i]} -- {names[j]};" for i, j in shared),
        ("\n}\n",),
    ))


def dot_face_adjacency(c: PillowConfig) -> str:
    """DOT graph: one node per triangle, one edge per line shared by two."""
    return "".join(dot_face_pieces(c))


def dot_line_pieces(c: PillowConfig) -> Iterator[str]:
    """``dot_line_intersection(c)`` in pieces.  A line with an endpoint
    outside ``vertices`` raises MalformedComplex here, before the first
    piece is rendered."""
    incident: dict[int, list[str]] = {v: [] for v in c.vertices}
    # sorted by endpoint pair, stably: a line's name is a function of its
    # pair, so the order of lines sharing a pair does not show
    try:
        for u, v, _, _ in sorted(c.lines, key=itemgetter(0, 1)):
            name = f'"L{u}_{v}"'
            incident[u].append(name)
            incident[v].append(name)
    except KeyError:
        raise MalformedComplex(
            f"line {(u, v)} has an endpoint outside the vertex list"
        ) from None
    return _pieces(chain(
        ("graph line_intersection {",),
        (f'\n  "L{ln.u}_{ln.v}";' for ln in c.lines),
        (f"\n  {first} -- {second};"
         for at_v in map(incident.__getitem__, c.vertices)
         for idx, first in enumerate(at_v) for second in at_v[idx + 1:]),
        ("\n}\n",),
    ))


def dot_line_intersection(c: PillowConfig) -> str:
    """DOT graph: one node per line, one edge per pair of lines meeting
    in a vertex.  Each vertex lists its lines by endpoint pair; a line with
    an endpoint outside ``vertices`` raises MalformedComplex."""
    return "".join(dot_line_pieces(c))
