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

from collections import Counter, defaultdict, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, pairwise, repeat, starmap
from math import comb
from operator import itemgetter, lt

from . import pairs
from .checks import Report
from .errors import InvalidParameter

SIDES = ("top", "bottom")

BOUNDARY = "boundary"
HORIZONTAL = "horizontal"
VERTICAL = "vertical"
DIAGONAL = "diagonal"

# Size guards on the cell count a*b.  The build and each export are linear
# and must stay under 80 MB of RSS at the build limit; verify_pillow runs
# the brute-force pair oracle, whose time and memory grow as E^2.  README
# gives the measured times and peaks at both limits.
MAX_PILLOW_CELLS = 16384
MAX_VERIFY_CELLS = 1024


def _check_bidegree(a: int, b: int) -> None:
    if a < 2 or b < 2:
        raise InvalidParameter(f"bidegree parameters must both be >= 2, got ({a}, {b})")
    if a * b > MAX_PILLOW_CELLS:
        raise InvalidParameter(f"bidegree ({a}, {b}) has a*b = {a * b} cells, "
                               f"above the limit {MAX_PILLOW_CELLS}")


class Line(namedtuple("Line", "u v kind side")):
    """A double line of the configuration: endpoints u < v, its kind and
    its side.  Boundary lines are shared by both grids (side == "shared");
    all other lines belong to one grid.

    Within a complex a line's identity is its endpoint ``pair``: the
    verifiers and the exports key lines by it, never by the whole record.
    A Line is an immutable tuple, so it compares and hashes by all four
    fields.  Construction and ``_replace`` both reject u >= v.
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


class Triangle(namedtuple("Triangle", "vertices side row col half")):
    """One plane of the configuration: half of a grid cell, its vertices
    a sorted triple.  Nothing is validated, so the build makes each record
    straight from its field tuple."""

    __slots__ = ()


class PillowConfig(namedtuple("PillowConfig", "a b vertices lines triangles")):
    """The full plane configuration as a labeled simplicial complex.

    An immutable tuple like every record of the package: a changed copy is
    ``c._replace(lines=...)``.  The label of each grid position is not
    stored: ``grid_rows(a, b, side)`` derives it from the bidegree.
    Construction and ``_replace`` reject what ``build_pillow`` rejects, so
    ``g`` is always defined; nothing checks the other fields together.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, vertices, lines, triangles) -> PillowConfig:
        _check_bidegree(a, b)
        return tuple.__new__(cls, (a, b, vertices, lines, triangles))

    @classmethod
    def _make(cls, fields) -> PillowConfig:
        return cls(*fields)

    @property
    def g(self) -> int:
        """2ab + 1, the genus of the K3 surface that degenerates to the pillow."""
        return 2 * self.a * self.b + 1

    @property
    def corner_ids(self) -> tuple[int, int, int, int]:
        a, b = self.a, self.b
        return (1, a + 1, a + b + 1, 2 * a + b + 1)

    def line_degrees(self) -> Counter[int]:
        """Number of lines through each vertex, 0 for a vertex on none; a
        line endpoint outside ``vertices`` is counted as it stands."""
        degrees = Counter(dict.fromkeys(self.vertices, 0))
        degrees.update(map(itemgetter(0), self.lines))
        degrees.update(map(itemgetter(1), self.lines))
        return degrees


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


def _sorted_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _line_keys(ends: Iterable[tuple[int, int]], kind: str, side: str) -> list[tuple]:
    """The fields (u, v, kind, side) of a line on each pair of ``ends``, u < v."""
    return [(u, v, kind, side) if u < v else (v, u, kind, side) for u, v in ends]


def _triangles(corners: Iterable[tuple[int, int, int]], side: str, half: str,
               a: int, b: int) -> Iterator[Triangle]:
    """The ``half`` triangle of each of the a*b cells of one side, from
    their corners in row-major order.  ``Triangle`` validates nothing, so
    one ``map`` makes every record by ``tuple.__new__``, with no
    Python-level call per triangle and no iterator per row."""
    rows = chain.from_iterable(map(repeat, range(1, b + 1), repeat(a)))
    cols = chain.from_iterable(repeat(range(1, a + 1), b))
    return map(tuple.__new__, repeat(Triangle),
               zip(map(tuple, map(sorted, corners)), repeat(side), rows, cols, repeat(half)))


def build_pillow(a: int, b: int) -> PillowConfig:
    """Construct the pillow configuration of bidegree (a, b), for
    2 <= a, b and a*b <= MAX_PILLOW_CELLS."""
    _check_bidegree(a, b)
    n_vertices = 2 * a * b + 2
    vertices = tuple(range(1, n_vertices + 1))

    # the shared boundary cycle of 2a + 2b lines
    cycle = list(range(1, 2 * a + 2 * b + 1))
    keys = _line_keys(zip(cycle, cycle[1:] + cycle[:1]), BOUNDARY, "shared")

    # each side row by row, one comprehension per kind of record over all
    # its rows: the cells of row i = 1..b lie between position rows i-1
    # (north) and i (south), cell j between columns j-1 and j.  Every line
    # off the boundary cycle is a horizontal inside an inner position row, a
    # vertical between two cells of a row or the diagonal of one cell.  The
    # triangles come in (side, row, col) order, each cell's lower half first
    triangles: list[Triangle] = []
    for side in SIDES:
        rows = grid_rows(a, b, side)
        cells = list(zip(rows, rows[1:]))
        keys += _line_keys(chain.from_iterable(zip(r, r[1:]) for r in rows[1:-1]),
                           HORIZONTAL, side)
        keys += _line_keys(chain.from_iterable(zip(n[1:-1], s[1:-1]) for n, s in cells),
                           VERTICAL, side)
        if side == "top":
            # rising diagonals sw-ne; lower (sw, se, ne), upper (sw, nw, ne)
            keys += _line_keys(chain.from_iterable(zip(s, n[1:]) for n, s in cells),
                               DIAGONAL, side)
            lower = chain.from_iterable(zip(s, s[1:], n[1:]) for n, s in cells)
            upper = chain.from_iterable(zip(s, n, n[1:]) for n, s in cells)
        else:
            # falling diagonals nw-se; lower (nw, sw, se), upper (nw, ne, se)
            keys += _line_keys(chain.from_iterable(zip(n, s[1:]) for n, s in cells),
                               DIAGONAL, side)
            lower = chain.from_iterable(zip(n, s, s[1:]) for n, s in cells)
            upper = chain.from_iterable(zip(n, n[1:], s[1:]) for n, s in cells)
        triangles += chain.from_iterable(zip(_triangles(lower, side, "lower", a, b),
                                             _triangles(upper, side, "upper", a, b)))

    # endpoint pairs are unique, so the keys sort by (u, v) alone and no Line
    # is ever compared; each key then gives way to its validated Line in
    # place, so the Line can reuse the memory the key frees
    keys.sort()
    for k, key in enumerate(keys):
        keys[k] = Line(*key)
    return PillowConfig(a, b, vertices, tuple(keys), tuple(triangles))


# ---------------------------------------------------------------------------
# Verification.


def incidence_index(c: PillowConfig) -> dict[tuple[int, int], list[int]]:
    """One pass over the triangles: each line's endpoint pair to the indices
    of the triangles on that line, built once per verified configuration."""
    incidence: dict[tuple[int, int], list[int]] = {(u, v): [] for u, v, _, _ in c.lines}
    for idx, tri in enumerate(c.triangles):
        p, q, r = tri.vertices
        for pair in ((p, q), (p, r), (q, r)):
            if pair in incidence:
                incidence[pair].append(idx)
    return incidence


def verify_sphere_triangulation(c: PillowConfig, incidence: dict | None = None) -> Report:
    """Check that the configuration triangulates the 2-sphere.

    Reported checks: every line in exactly two triangles; every vertex
    link a single closed cycle; connected face-adjacency graph; Euler
    characteristic 2; and the vertex census (the four corners on exactly
    three lines and three triangles, every other vertex on six).

    The line incidence is ``incidence``, else ``incidence_index(c)``; the
    vertex stars take one more pass, so the check is linear in ``c``.
    """
    return _sphere_report(c, incidence, c.line_degrees())


def _sphere_report(c: PillowConfig, incidence: dict | None, line_deg: Counter[int]) -> Report:
    """``verify_sphere_triangulation`` on ``line_deg``, the ``line_degrees()``
    of ``c``."""
    report = Report(f"sphere triangulation, bidegree ({c.a}, {c.b})")
    incidence = incidence_index(c) if incidence is None else incidence
    star: dict[int, list[int]] = {v: [] for v in c.vertices}
    for idx, tri in enumerate(c.triangles):
        for v in tri.vertices:
            if v in star:
                star[v].append(idx)

    bad_lines = sum(1 for tris in incidence.values() if len(tris) != 2)
    report.add("line_in_two_triangles", bad_lines, 0)

    def link_is_one_cycle(v: int) -> bool:
        # each star triangle joins its two vertices other than v (on v twice,
        # it gives x = v, on no line); each neighbour x, on a line (v, x),
        # must be joined to two others, and one walk must visit them all
        link: dict[int, list[int]] = {}
        for i in star[v]:
            p, q, r = c.triangles[i].vertices
            x, y = (q, r) if v == p else (p, r) if v == q else (p, q)
            link.setdefault(x, []).append(y)
            link.setdefault(y, []).append(x)
        for x, ends in link.items():
            if len(ends) != 2 or ends[0] == ends[1] or _sorted_pair(v, x) not in incidence:
                return False
        if not link:
            return False
        start = prev = next(iter(link))
        here, steps = link[start][0], 1
        while here != start:
            ends = link[here]
            prev, here = here, ends[ends[0] == prev]  # the end not come in by
            steps += 1
        return steps == len(link)

    report.add("vertex_link_single_cycle", sum(1 for v in star if not link_is_one_cycle(v)), 0)

    # triangles meet across a line that lies on exactly two of them; the
    # face graph's components by union-find, with path halving
    root = list(range(len(c.triangles)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for tris in incidence.values():
        if len(tris) == 2:
            root[find(tris[0])] = find(tris[1])
    report.add("face_adjacency_connected", sum(1 for i, r in enumerate(root) if i == r), 1)

    euler = len(c.vertices) - len(c.lines) + len(c.triangles)
    report.add("euler_characteristic", euler, 2)

    tri_deg = {v: len(tris) for v, tris in star.items()}
    degree_three = tuple(sorted(v for v, d in tri_deg.items() if d == 3))
    report.add("degree3_vertices_are_corners", degree_three, tuple(sorted(c.corner_ids)))
    census = tuple(sorted(Counter(tri_deg.values()).items()))
    report.add("triangle_degree_census", census,
               ((3, 4), (6, 2 * c.a * c.b - 2)))
    report.add("line_degrees_match_triangle_degrees",
               sum(1 for v, d in tri_deg.items() if d != line_deg[v]), 0)
    return report


# ---------------------------------------------------------------------------
# Disjoint line pairs: three independent routes.


def count_disjoint_line_pairs(c: PillowConfig) -> int:
    """Unordered pairs of lines sharing no vertex, by exhaustive O(E^2)
    enumeration: the oracle the other two routes are checked against."""
    return pairs.count_disjoint_pairs([ln.pair for ln in c.lines])


def disjoint_pairs_via_degrees(c: PillowConfig) -> int:
    """Same count through the vertex degrees in O(V + E): all pairs minus
    the meeting pairs.  Those number sum over vertices of C(degree, 2), less
    C(m, 2) for each endpoint pair on m lines, since two lines on one pair
    meet at both its ends.  ``Line`` rules out loops, so the count is exact
    for any line list, whatever the vertex list.  When the endpoint pairs
    strictly increase, as ``build_pillow`` sorts them, none repeats and the
    repeated pairs are not counted."""
    return _disjoint_pairs(c, c.line_degrees())


def _disjoint_pairs(c: PillowConfig, degrees: Counter[int]) -> int:
    """The degree route on ``degrees``, the ``line_degrees()`` of ``c``.

    When the endpoint pairs strictly increase, by ``_increasing``, no pair
    repeats and the C(m, 2) term is 0.  Only a line list that fails the
    test, or whose labels do not compare, has its pairs counted in a
    ``Counter``."""
    repeated = 0 if _increasing(map(itemgetter(0, 1), c.lines)) else sum(
        comb(m, 2) for m in Counter(map(itemgetter(0, 1), c.lines)).values())
    return comb(len(c.lines), 2) - sum(comb(d, 2) for d in degrees.values()) + repeated


def _increasing(items: Iterable) -> bool:
    """Whether ``items``, such as the endpoint pairs of a line list,
    strictly increase, tested in one streaming pass that holds two items
    at a time.  Items that do not compare count as not increasing."""
    try:
        return all(starmap(lt, pairwise(items)))
    except TypeError:
        return False


def formula_disjoint_pairs(g: int) -> int:
    """Closed form (9g^2 - 51g + 78) / 2 for the number of disjoint line
    pairs in the pillow with g = 2ab + 1."""
    if g % 2 == 0 or g < 9:
        raise InvalidParameter(f"g must be odd and >= 9, got {g}")
    # 9g^2 - 51g = 3g(3g - 17) multiplies factors of opposite parity, so
    # the numerator is even for every integer g
    return (9 * g * g - 51 * g + 78) // 2


def verify_pillow(c: PillowConfig, incidence: dict | None = None) -> Report:
    """The sphere checks, passed ``incidence`` when given, then the
    brute-force disjoint-pair count against the closed form and against
    the degree route.  The brute force tests every line pair, bit-parallel
    but still O(E^2), and assumes nothing of the lines it is given; a*b
    above MAX_VERIFY_CELLS raises InvalidParameter."""
    return _verify_pillow(c, incidence, c.line_degrees())[0]


def _verify_pillow(c: PillowConfig, incidence: dict | None,
                   degrees: Counter[int]) -> tuple[Report, int]:
    """``verify_pillow`` on ``degrees``, the ``line_degrees()`` of ``c``, and
    the degree route's count, which the table reuses: one census and one
    route per verified configuration."""
    if c.a * c.b > MAX_VERIFY_CELLS:
        raise InvalidParameter(
            f"verifying bidegree ({c.a}, {c.b}) runs the O(E^2) pair oracle; "
            f"a*b = {c.a * c.b} is above the limit {MAX_VERIFY_CELLS}"
        )
    report = Report(f"pillow ({c.a}, {c.b})")
    report.extend(_sphere_report(c, incidence, degrees))
    brute = count_disjoint_line_pairs(c)
    via_degrees = _disjoint_pairs(c, degrees)
    report.add("disjoint_pairs_brute_vs_formula", brute, formula_disjoint_pairs(c.g))
    report.add("disjoint_pairs_brute_vs_degree_method", brute, via_degrees)
    return report, via_degrees


# ---------------------------------------------------------------------------
# Intermediate degeneration stages.


def verify_stages(c: PillowConfig, incidence: dict | None = None) -> Report:
    """Contracts of the intermediate stages, each a grouping of the
    triangles of ``c``.  The 2ab quadrics group them by (side, row, col):
    a line on exactly two triangles of one quadric, by ``incidence`` if given,
    is its diagonal, and each of the other lines of ``c``, 4ab of them, must
    lie on triangles of exactly two quadrics.  The two surfaces are the
    vertices of the triangles on each side: they must have the expected
    spans, meet in the 2a + 2b boundary points, and together be the
    vertices of ``c``.  A malformed complex fails checks; nothing raises."""
    a, b = c.a, c.b
    report = Report(f"stages, bidegree ({a}, {b})")
    quadric = [(tri.side, tri.row, tri.col) for tri in c.triangles]
    incidence = incidence_index(c) if incidence is None else incidence
    # the triangles of each quadric line, a line of c not inside one quadric
    outer = [tris for tris in (incidence[ln.pair] for ln in c.lines)
             if len(tris) != 2 or quadric[tris[0]] != quadric[tris[1]]]
    report.add("quadric_face_count", len(set(quadric)), 2 * a * b)
    report.add("quadric_line_count", len(outer), 4 * a * b)
    report.add("quadric_lines_shared_by_two_faces",
               sum(1 for tris in outer if len({quadric[i] for i in tris}) != 2), 0)

    # a surface spans the coordinate points of its vertices: their count less one
    top, bottom = ({v for tri in c.triangles if tri.side == side for v in tri.vertices}
                   for side in SIDES)
    report.add("two_surface_spans",
               (len(top) - 1, len(bottom) - 1, len(top & bottom) - 1),
               (a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1))
    report.add("two_surface_point_inclusion_exclusion", len(top | bottom), len(c.vertices))
    return report


# ---------------------------------------------------------------------------
# Isomorphism of (a, b) and (b, a).


def transpose_map(a: int, b: int) -> dict[int, int]:
    """Vertex bijection sending grid position (side, i, j) of the pillow of
    bidegree (a, b) to (side, j, i) of the pillow of bidegree (b, a), read
    off ``grid_rows`` alone; it raises where ``build_pillow`` raises."""
    _check_bidegree(a, b)
    mapping: dict[int, int] = {}
    for side in SIDES:
        rows_t = grid_rows(b, a, side)
        for i, row in enumerate(grid_rows(a, b, side)):
            for j, vid in enumerate(row):
                mapping[vid] = rows_t[j][i]
    return mapping


def is_complex_isomorphism(c: PillowConfig, other: PillowConfig,
                           vertex_map: dict[int, int]) -> bool:
    """True when the bijection carries lines onto lines and triangles onto
    triangles one to one: the image sets equal ``other``'s sets, and both
    complexes list each line and triangle once, so a repeat on either side
    fails.  A line or triangle of ``c`` on a label outside ``vertex_map``
    fails."""
    if (sorted(vertex_map) != sorted(c.vertices)
            or sorted(vertex_map.values()) != sorted(other.vertices)):
        return False
    try:
        lines = {_sorted_pair(vertex_map[u], vertex_map[v]) for u, v, _, _ in c.lines}
        tris = {tuple(sorted(map(vertex_map.__getitem__, tri.vertices)))
                for tri in c.triangles}
    except KeyError:
        return False
    return (len(c.lines) == len(other.lines) == len(lines)
            and len(c.triangles) == len(other.triangles) == len(tris)
            and lines == {ln.pair for ln in other.lines}
            and tris == {tri.vertices for tri in other.triangles})


# ---------------------------------------------------------------------------
# Exports.  Each is rendered as an iterator of pieces, which a writer can
# pass on one at a time without holding the whole text.

# A piece is cut once its records reach this many characters.  Cutting by
# length, not by record count, bounds every piece whatever its records:
# 64 Ki characters keep a 4 MB export to some 70 writes.
PIECE_CHARS = 1 << 16


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
    """The JSON export in pieces, in linear time: one f-string template per
    record, so the indenting pure-Python JSON encoder never runs.  The
    pieces join, byte for byte, to the indent=2 ``json.dumps`` text of the
    dict the tests' reference in ``tests/reference.py`` builds, plus "\\n"."""
    q = _JSONStrings()
    return _pieces(chain(
        (f'{{\n  "a": {c.a},\n  "b": {c.b},\n  "g": {c.g},\n  "vertices": ',),
        _json_array(f",\n    {v}" for v in c.vertices),
        (',\n  "lines": ',),
        _json_array(
            f',\n    {{\n      "u": {u},\n      "v": {v},\n'
            f'      "kind": {q[kind]},\n      "side": {q[side]}\n    }}'
            for u, v, kind, side in c.lines
        ),
        (',\n  "triangles": ',),
        _json_array(
            f',\n    {{\n      "v1": {vs[0]},\n      "v2": {vs[1]},\n'
            f'      "v3": {vs[2]},\n      "side": {q[side]},\n'
            f'      "row": {row},\n      "col": {col},\n      "half": {q[half]}\n    }}'
            for vs, side, row, col, half in c.triangles
        ),
        ("\n}\n",),
    ))


def dot_face_pieces(c: PillowConfig) -> Iterator[str]:
    """The DOT face-adjacency graph in pieces: one node per triangle, named
    ``<side>_r<row>_c<col>_<half>``, one edge per line on exactly two
    triangles, in endpoint-pair order.

    No line index and no list of names is built.  A triangle (p, q, r)
    lies on the pairs (p, q), (p, r) and (q, r), so its record is listed at
    p and at q, the first endpoints of its pairs: two entries per triangle,
    in triangle order.  The node lines are rendered from the records as
    they are written.  The line pairs are then walked one first endpoint
    at a time, in ``c.lines`` order when they strictly increase, as
    ``build_pillow`` sorts them, and else sorted without repeats; each
    triangle listed at that endpoint has its name rendered once there."""
    triangles = c.triangles
    starts: defaultdict[object, list[Triangle]] = defaultdict(list)
    for tri in triangles:
        p, q, _ = tri.vertices
        starts[p].append(tri)
        if q != p:
            starts[q].append(tri)
    pairs = map(itemgetter(0, 1), c.lines)
    if not _increasing(map(itemgetter(0, 1), c.lines)):
        pairs = sorted(dict.fromkeys(pairs))
    return _pieces(chain(
        ("graph face_adjacency {",),
        (f'\n  "{side}_r{row}_c{col}_{half}";' for _, side, row, col, half in triangles),
        (f"\n  {first} -- {second};" for first, second in _shared_lines(starts, pairs)),
        ("\n}\n",),
    ))


def _shared_lines(starts: dict[object, list[Triangle]],
                  pairs: Iterable[tuple]) -> Iterator[list[str]]:
    """The names of the triangles of each of ``pairs`` that lies on exactly
    two, read from ``starts``, the triangles listed at each pair's first
    endpoint.  The pairs come grouped by first endpoint, and each group
    renders the names of its triangles and reads their other vertices
    once, in listing order.  A yielded list is valid until the next one is
    asked for."""
    here, on = object(), defaultdict(list)
    for u, v in pairs:
        if u != here:
            here = u
            on.clear()
            for (p, q, r), side, row, col, half in starts.get(u, ()):
                name = f'"{side}_r{row}_c{col}_{half}"'
                if p == u:
                    on[q].append(name)
                    on[r].append(name)
                if q == u:
                    on[r].append(name)
        names = on.get(v, ())
        if len(names) == 2:
            yield names


def dot_line_pieces(c: PillowConfig) -> Iterator[str]:
    """The DOT line-intersection graph in pieces: one node per line, one
    edge per pair of lines meeting in a vertex, each vertex listing its
    lines by endpoint pair.  The vertices come in ``line_degrees`` order:
    the vertex list, then any endpoint outside it.

    When the complex is in vertex order, as ``build_pillow`` gives, each
    line's record is held only from its first endpoint to its second and
    the names at a vertex are rendered as the vertex is walked; any other
    complex has the names of all its lines rendered first."""
    lines = c.lines
    if _in_vertex_order(c.vertices, lines):
        at_vertices = _names_at_sorted_vertices(c.vertices, lines)
    else:
        incident: dict[int, list[str]] = {v: [] for v in c.line_degrees()}
        # sorted by endpoint pair, stably: a line's name is a function of its
        # pair, so the order of lines sharing a pair does not show
        for u, v, _, _ in sorted(lines, key=itemgetter(0, 1)):
            name = f'"L{u}_{v}"'
            incident[u].append(name)
            incident[v].append(name)
        at_vertices = incident.values()
    return _pieces(chain(
        ("graph line_intersection {",),
        (f'\n  "L{u}_{v}";' for u, v, _, _ in lines),
        # the edges from each line to the later lines at the vertex, one text
        (f"\n  {first} -- " + f";\n  {first} -- ".join(at_v[idx:]) + ";"
         for at_v in at_vertices for idx, first in enumerate(at_v[:-1], 1)),
        ("\n}\n",),
    ))


def _in_vertex_order(vertices: Sequence, lines: Sequence[tuple]) -> bool:
    """Whether the vertices and the endpoint pairs both strictly increase,
    every line has u < v and every endpoint is a vertex.  Then the lines at
    a vertex, by endpoint pair, are those ending there and then those
    starting there.  Labels that do not compare or hash fail."""
    try:
        if not (_increasing(vertices) and _increasing(map(itemgetter(0, 1), lines))
                and all(map(lt, map(itemgetter(0), lines), map(itemgetter(1), lines)))):
            return False
        labels = set(vertices)
        return (labels.issuperset(map(itemgetter(0), lines))
                and labels.issuperset(map(itemgetter(1), lines)))
    except TypeError:
        return False


def _names_at_sorted_vertices(vertices: Iterable, lines: Iterable[tuple]) -> Iterator[list[str]]:
    """The names of the lines at each of ``vertices`` by endpoint pair, for
    a complex in vertex order (``_in_vertex_order``): the lines ending at a
    vertex, then the lines starting there.  A line's record is held from
    its first endpoint to its second, and a vertex's names are rendered
    only when they are yielded."""
    ending: defaultdict[object, list[tuple]] = defaultdict(list)
    lines = iter(lines)
    line = next(lines, None)
    for w in vertices:
        at_w = ending.pop(w, [])
        while line is not None and line[0] == w:
            at_w.append(line)
            ending[line[1]].append(line)
            line = next(lines, None)
        yield [f'"L{u}_{v}"' for u, v, _, _ in at_w]
