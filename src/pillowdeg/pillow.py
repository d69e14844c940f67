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
from itertools import chain, islice, pairwise, starmap
from math import comb
from operator import itemgetter, lt

from .checks import Report
from .errors import InvalidParameter, _integer, _text

SIDES = ("top", "bottom")

BOUNDARY = "boundary"
HORIZONTAL = "horizontal"
VERTICAL = "vertical"
DIAGONAL = "diagonal"

# Size guard on the cell count a*b.  The build, each export and each
# verifier must stay under 80 MB of RSS at this limit; every verifier is
# linear in E = 6ab.  README gives the measured times and peaks at the
# limit.
MAX_PILLOW_CELLS = 16384


def _check_bidegree(a: int, b: int) -> None:
    rule = "bidegree parameters must both be >= 2"
    for p in (a, b):
        _integer(p, rule)
    if a < 2 or b < 2:  # both messages name the pair, so it is tested here
        raise InvalidParameter(f"{rule}, got ({_text(a)}, {_text(b)})")
    if a * b > MAX_PILLOW_CELLS:
        raise InvalidParameter(f"bidegree ({_text(a)}, {_text(b)}) has a*b = {_text(a * b)} "
                               f"cells, above the limit {MAX_PILLOW_CELLS}")


class Line(namedtuple("Line", "u v kind side")):
    """A double line of the configuration: endpoints u < v, its kind and
    its side.  Boundary lines are shared by both grids (side == "shared");
    all other lines belong to one grid.

    Within a complex a line's identity is its endpoint ``pair``: the
    verifiers and the exports key lines by it, never by the whole record.
    A Line is an immutable tuple, so it compares and hashes by all four
    fields.  Construction and ``_replace`` both reject endpoints that do not
    satisfy u < v, such as u >= v or a pair that does not compare.
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int, kind: str, side: str) -> Line:
        try:
            if u < v:
                return tuple.__new__(cls, (u, v, kind, side))
        except TypeError:  # endpoints that do not compare
            pass
        raise InvalidParameter(f"line endpoints must satisfy u < v, got ({_text(u)}, {_text(v)})")

    @classmethod
    def _make(cls, fields) -> Line:
        # _replace builds its copy through _make; validate it the same way
        return cls(*fields)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class Triangle(namedtuple("Triangle", "v1 v2 v3 side row col half")):
    """One plane of the configuration: half of a grid cell, its vertices
    v1 < v2 < v3 as the build sorts them.  The fields are the keys of
    the JSON export's triangle records, in their order.  No field is
    validated (a PillowConfig checks only that there are seven, all
    hashable), so the build makes each record from its field tuple."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple:
        """The triple (v1, v2, v3)."""
        return self[:3]


class PillowConfig(namedtuple("PillowConfig", "a b vertices lines triangles")):
    """The full plane configuration as a labeled simplicial complex.

    An immutable tuple like every record of the package: a changed copy is
    ``c._replace(lines=...)``.  The label of each grid position is not
    stored: ``grid_rows(a, b, side)`` derives it from the bidegree.
    Construction and ``_replace`` reject what ``build_pillow`` rejects, so
    ``g`` is always defined, a vertices, lines or triangles not a tuple, a
    vertex not hashable, a line not of 4 hashable fields with u < v, as in
    ``Line``, and a triangle not of 7 hashable fields; nothing checks them
    together.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, vertices, lines, triangles) -> PillowConfig:
        _check_bidegree(a, b)
        for field, records, what, rule, fields in (
                ("vertices", vertices, "a vertex", "hashable", 0),
                ("lines", lines, "a line", "4 hashable fields (u, v, kind, side) with u < v", 4),
                ("triangles", triangles, "a triangle", "7 hashable fields", 7)):
            if not isinstance(records, tuple):  # the field is refused, shown by its type
                records, what, rule, fields = (type(records),), f"the {field}", "a tuple", -1
            for record in records:
                try:
                    hash(record)  # an unhashable vertex or field raises
                    if fields == 0 or len(record) == fields and (fields == 7 or record[0] < record[1]):
                        continue
                except TypeError:  # unhashable, no length (a type), or endpoints not comparable
                    pass
                # as a plain tuple: a named tuple's repr fails on the wrong length
                shown = tuple(record) if isinstance(record, tuple) else record
                raise InvalidParameter(f"{what} must be {rule}, got {_text(shown, False, repr)}")
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
    right).  The boundary rows and columns are the same on both sides,
    and the interior is numbered row-major from 2a+2b+1 (top) or ab+a+b+2
    (bottom).  It raises where ``build_pillow`` raises."""
    _check_bidegree(a, b)
    if side not in SIDES:
        raise InvalidParameter(f"side must be one of {SIDES}, got {_text(side, form=repr)}")
    return _grid_rows(range(1, 2 * a * b + 3), a, b, side)


def _grid_rows(labels: Sequence[int], a: int, b: int, side: str) -> list[list[int]]:
    """``grid_rows(a, b, side)`` with label k read as ``labels[k - 1]``: the
    one code for the labeling conventions above.  The rows hold the very
    objects of ``labels``, so a build that reads them from its vertex tuple
    keeps one object per label."""
    interior = 2 * a + 2 * b if side == "top" else a * b + a + b + 1
    rows = [list(labels[:a + 1])]
    for i in range(1, b):
        start = interior + (i - 1) * (a - 1)
        rows.append([labels[2 * a + 2 * b - i], *labels[start:start + a - 1], labels[a + i]])
    rows.append(list(labels[2 * a + b:a + b - 1:-1]))
    return rows


def _sorted_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _line_keys(ends: Iterable[tuple[int, int]], kind: str, side: str) -> list[tuple]:
    """The fields (u, v, kind, side) of a line on each pair of ``ends``, u < v."""
    return [(u, v, kind, side) if u < v else (v, u, kind, side) for u, v in ends]


def _row_triangles(side: str, i: int, n: Sequence[int], s: Sequence[int]) -> list[Triangle]:
    """The triangles of row i on ``side``, between the position rows ``n``
    (north) and ``s`` (south), cell j between columns j-1 and j, each
    cell's lower half first: the one rule for the corners of each half."""
    triangles = []
    for j, nw, ne, sw, se in zip(range(1, len(n)), n, n[1:], s, s[1:]):
        if side == "top":
            # rising diagonal sw-ne
            lower, upper = (sw, se, ne), (sw, nw, ne)
        else:
            # falling diagonal nw-se
            lower, upper = (nw, sw, se), (nw, ne, se)
        triangles.append(tuple.__new__(Triangle, (*sorted(lower), side, i, j, "lower")))
        triangles.append(tuple.__new__(Triangle, (*sorted(upper), side, i, j, "upper")))
    return triangles


def build_pillow(a: int, b: int) -> PillowConfig:
    """Construct the pillow configuration of bidegree (a, b), for
    2 <= a, b and a*b <= MAX_PILLOW_CELLS.  Each row's triangles come from
    ``_row_triangles``, which ``verify_configuration`` reads back."""
    _check_bidegree(a, b)
    # every label below is an object of this tuple, so the vertices, the
    # lines and the triangles share one int per label
    vertices = tuple(range(1, 2 * a * b + 3))

    # the shared boundary cycle of 2a + 2b lines
    cycle = vertices[:2 * a + 2 * b]
    keys = _line_keys(zip(cycle, cycle[1:] + cycle[:1]), BOUNDARY, "shared")

    # each side row by row: the cells of row i = 1..b lie between position
    # rows i-1 (north) and i (south).  Every line off the boundary cycle is
    # a horizontal inside an inner position row, a vertical between two
    # cells of a row or the diagonal of one cell; each kind comes from one
    # comprehension per row.  The triangles come in (side, row, col) order
    triangles: list[Triangle] = []
    for side in SIDES:
        rows = _grid_rows(vertices, a, b, side)
        for i, (n, s) in enumerate(zip(rows, rows[1:]), 1):
            if i < b:
                keys += _line_keys(zip(s, s[1:]), HORIZONTAL, side)
            keys += _line_keys(zip(n[1:-1], s[1:-1]), VERTICAL, side)
            keys += _line_keys(zip(s, n[1:]) if side == "top" else zip(n, s[1:]),
                               DIAGONAL, side)
            triangles += _row_triangles(side, i, n, s)

    # endpoint pairs are unique, so the keys sort by (u, v) alone and no Line
    # is ever compared; each key then gives way to its validated Line in
    # place, reusing the memory the key frees.  Its records are of the right
    # shape, so the config, like each triangle, is made by tuple.__new__
    keys.sort()
    for k, key in enumerate(keys):
        keys[k] = Line(*key)
    return tuple.__new__(PillowConfig, (a, b, vertices, tuple(keys), tuple(triangles)))


# ---------------------------------------------------------------------------
# Verification.


def incidence_index(c: PillowConfig) -> dict[tuple[int, int], list[int]]:
    """One pass over the triangles: each line's endpoint pair to the indices
    of the triangles on that line, built once per verified configuration."""
    incidence = {pair: [] for pair in map(itemgetter(0, 1), c.lines)}
    on_pair = incidence.get
    for idx, (p, q, r) in enumerate(map(itemgetter(0, 1, 2), c.triangles)):
        for pair in ((p, q), (p, r), (q, r)):
            tris = on_pair(pair)
            if tris is not None:
                tris.append(idx)
    return incidence


def verify_sphere_triangulation(c: PillowConfig) -> Report:
    """Check that the configuration triangulates the 2-sphere.

    Reported checks: every line in exactly two triangles; every vertex
    link a single closed cycle; connected face-adjacency graph; Euler
    characteristic 2; and the vertex census (the four corners on exactly
    three lines and three triangles, every other vertex on six).

    Linear in ``c``.  The link check reads 0, no link walked, under the
    certificate ``_sphere_report`` proves: each line on two triangles, line
    pairs distinct, each triangle's three pairs lines, F > 2, a vertex list
    without repeats that is the set of triangle vertices, V - E + F = 2 and
    one face component.
    """
    return _sphere_report(c, incidence_index(c), c.line_degrees())


def _sphere_report(c: PillowConfig, incidence: dict, line_deg: Counter[int]) -> Report:
    """``verify_sphere_triangulation`` on ``incidence`` and ``line_deg``, the
    ``incidence_index(c)`` and the ``line_degrees()`` of ``c``.

    Under the certificate each link is a simple 2-regular graph of c(v) >= 1
    cycles (two triangles on one triple would hold each other's lines, a face
    component of its own, so F = 2).  Splitting each vertex into its link
    cycles gives a connected closed surface of V' = sum c(v) >= V vertices,
    so 2 >= V' - E + F >= V - E + F = 2, V' = V and each link is one cycle.
    """
    report = Report(f"sphere triangulation, bidegree ({c.a}, {c.b})")
    bad_lines = sum(1 for tris in incidence.values() if len(tris) != 2)

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
    components = sum(1 for i, r in enumerate(root) if i == r)
    euler = len(c.vertices) - len(c.lines) + len(c.triangles)

    # each vertex's triangle degree: its entries in the three vertex columns
    on = Counter(map(itemgetter(0), c.triangles))
    on.update(map(itemgetter(1), c.triangles))
    on.update(map(itemgetter(2), c.triangles))
    tri_deg = {v: on[v] for v in c.vertices}
    census = Counter(tri_deg.values())
    # with no bad line the incidence holds 2E entries, which must be 3F
    certified = (bad_lines == 0 and len(incidence) == len(c.lines)
                 and 2 * len(incidence) == 3 * len(c.triangles) > 6
                 and len(c.vertices) == len(tri_deg) == len(on) and 0 not in census
                 and components == 1 and euler == 2)
    report.add("line_in_two_triangles", bad_lines, 0)
    report.add("vertex_link_single_cycle", 0 if certified else _bad_links(c, incidence), 0)
    report.add("face_adjacency_connected", components, 1)
    report.add("euler_characteristic", euler, 2)
    degree_three = tuple(sorted(v for v, d in tri_deg.items() if d == 3))
    report.add("degree3_vertices_are_corners", degree_three, tuple(sorted(c.corner_ids)))
    report.add("triangle_degree_census", tuple(sorted(census.items())),
               ((3, 4), (6, 2 * c.a * c.b - 2)))
    report.add("line_degrees_match_triangle_degrees",
               sum(1 for v, d in tri_deg.items() if d != line_deg[v]), 0)
    return report


def _bad_links(c: PillowConfig, incidence: dict) -> int:
    """The vertices of ``c`` whose link is not a single closed cycle, each
    link walked over the vertex's star, built here and nowhere else."""
    # the triangles' fields are read by index: unpacking a tuple subclass
    # takes CPython's generic path, slower than three subscripts
    star: dict[int, list[Triangle]] = {v: [] for v in c.vertices}
    at = star.get
    for tri in c.triangles:
        for v in (tri[0], tri[1], tri[2]):
            tris = at(v)
            if tris is not None:
                tris.append(tri)

    def link_is_one_cycle(v: int) -> bool:
        # each star triangle joins its two vertices other than v (on v twice,
        # it gives x = v, on no line); each neighbour x, on a line (v, x),
        # must be joined to two others, and one walk must visit them all
        link: dict[int, list[int]] = {}
        for tri in star[v]:
            p, q, r = tri[0], tri[1], tri[2]
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

    return sum(1 for v in star if not link_is_one_cycle(v))


# ---------------------------------------------------------------------------
# Disjoint line pairs: the degree route on the complex, the closed form in g.


def disjoint_pairs_via_degrees(c: PillowConfig) -> int:
    """Unordered pairs of lines sharing no vertex, through the vertex
    degrees in O(V + E): all pairs minus the meeting pairs.  Those number
    sum over vertices of C(degree, 2), less C(m, 2) for each endpoint pair
    on m lines, since two lines on one pair meet at both its ends.  A
    PillowConfig's lines have u < v, so no line is a loop and the count is
    exact on every PillowConfig, whatever its vertex list.  When the
    endpoint pairs strictly increase, as ``build_pillow`` sorts them, none
    repeats and the repeated pairs are not counted."""
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
    rule = "g must be odd and >= 9"
    _integer(g, rule, 9)
    if g % 2 == 0:
        raise InvalidParameter(f"{rule}, got {_text(g)}")
    # 9g^2 - 51g = 3g(3g - 17) multiplies factors of opposite parity, so
    # the numerator is even for every integer g
    return (9 * g * g - 51 * g + 78) // 2


def verify_pillow(c: PillowConfig) -> Report:
    """The sphere checks, then the degree route's disjoint-pair count
    against the closed form in g: two routes that share no code, one read
    off the complex and one off its bidegree.  Linear in ``c``; it takes
    any complex the build takes and raises nothing."""
    degrees = c.line_degrees()
    return _verify_pillow(c, incidence_index(c), degrees, _disjoint_pairs(c, degrees))


def _verify_pillow(c: PillowConfig, incidence: dict, degrees: Counter[int],
                   via_degrees: int) -> Report:
    """``verify_pillow`` on ``incidence``, ``degrees`` and ``via_degrees``,
    the ``incidence_index``, ``line_degrees()`` and degree route of ``c``."""
    report = Report(f"pillow ({c.a}, {c.b})")
    report.extend(_sphere_report(c, incidence, degrees))
    report.add("disjoint_pairs_degree_method_vs_formula", via_degrees, formula_disjoint_pairs(c.g))
    return report


# ---------------------------------------------------------------------------
# Intermediate degeneration stages.


def verify_stages(c: PillowConfig) -> Report:
    """Contracts of the intermediate stages, each a grouping of the
    triangles of ``c``.  The 2ab quadrics group them by (side, row, col):
    a line on exactly two triangles of one quadric, by the line incidence,
    is its diagonal, and the other lines of ``c`` must number 4ab.  The two
    surfaces are the vertices of the triangles on each side: they must have
    the expected spans, meet in the 2a + 2b boundary points, and together be
    the vertices of ``c``.  A malformed complex fails checks; nothing raises."""
    return _stages(c, incidence_index(c))


def _stages(c: PillowConfig, incidence: dict) -> Report:
    """``verify_stages`` on ``incidence``, the ``incidence_index`` of ``c``."""
    a, b = c.a, c.b
    report = Report(f"stages, bidegree ({a}, {b})")
    quadric = list(map(itemgetter(3, 4, 5), c.triangles))
    report.add("quadric_face_count", len(set(quadric)), 2 * a * b)
    # a quadric line is a line of c not inside one quadric
    report.add("quadric_line_count",
               sum(1 for tris in map(incidence.__getitem__, map(itemgetter(0, 1), c.lines))
                   if len(tris) != 2 or quadric[tris[0]] != quadric[tris[1]]), 4 * a * b)

    # a surface spans the coordinate points of its vertices: their count less one
    top, bottom = ({v for tri in c.triangles if tri[3] == side for v in (tri[0], tri[1], tri[2])}
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
    off ``grid_rows`` alone, which raises where ``build_pillow`` raises."""
    mapping: dict[int, int] = {}
    for side in SIDES:
        rows, rows_t = grid_rows(a, b, side), grid_rows(b, a, side)
        for i, row in enumerate(rows):
            for j, vid in enumerate(row):
                mapping[vid] = rows_t[j][i]
    return mapping


def is_complex_isomorphism(c: PillowConfig, other: PillowConfig,
                           vertex_map: dict[int, int]) -> bool:
    """True when the bijection carries lines onto lines and triangles onto
    triangles one to one: each image is struck out of the set of ``other``'s
    pairs, then of its triples, and both complexes list each line and
    triangle once, so a repeat on either side fails.  A line or triangle of
    ``c`` on a label outside ``vertex_map`` fails.  The vertex lists compare
    as multisets: labels need not order."""
    # a dict's keys are distinct, so they need no Counter; item views compare in C
    if (len(vertex_map) != len(c.vertices) or vertex_map.keys() != set(c.vertices)
            or Counter(vertex_map.values()).items() != Counter(other.vertices).items()
            or len(c.lines) != len(other.lines) or len(c.triangles) != len(other.triangles)):
        return False
    try:
        left = set(map(itemgetter(0, 1), other.lines))
        for u, v in map(itemgetter(0, 1), c.lines):
            left.remove(_sorted_pair(vertex_map[u], vertex_map[v]))
        left = set(map(itemgetter(0, 1, 2), other.triangles))
        for p, q, r in map(itemgetter(0, 1, 2), c.triangles):
            left.remove(tuple(sorted((vertex_map[p], vertex_map[q], vertex_map[r]))))
    except KeyError:  # a label outside the map, or an image not left to strike
        return False
    return True


# ---------------------------------------------------------------------------
# Exports.  Each is rendered as an iterator of pieces, which a writer can
# pass on one at a time without holding the whole text.

# A piece is cut once its records reach this many characters.  Cutting by
# length, not by record count, bounds every piece whatever its records:
# 64 Ki characters keep a 4 MB export to some 70 writes.
PIECE_CHARS = 1 << 16

# _pieces takes the texts this many at a time and joins each run at once,
# so a piece never holds its texts as separate small strings.
_RUN = 64


class _JSONStrings(dict):
    """The JSON literal of each string, encoded once per distinct value."""

    def __missing__(self, text: str) -> str:
        import json

        self[text] = literal = json.dumps(text)
        return literal


def _pieces(texts: Iterable[str]) -> Iterator[str]:
    """``texts`` joined into consecutive pieces of PIECE_CHARS characters or
    more, the last excepted; a piece passes PIECE_CHARS by less than the
    length of its last text.

    The texts come in runs of _RUN, and a piece holds each run joined into
    one string.  Only a run that reaches PIECE_CHARS is walked text by
    text, to cut the piece just after the text that reaches it.  A record
    that does not render raises InvalidParameter here, as its text is drawn."""
    texts = iter(texts)
    block: list[str] = []
    size = 0
    try:
        while run := list(islice(texts, _RUN)):
            joined = "".join(run)
            if size + len(joined) < PIECE_CHARS:
                block.append(joined)
                size += len(joined)
                continue
            start = 0
            for end, text in enumerate(run, 1):
                size += len(text)
                if size >= PIECE_CHARS:
                    block.append("".join(run[start:end]))
                    yield "".join(block)
                    block, size, start = [], 0, end
            if start < len(run):
                block.append("".join(run[start:]))
    except ValueError as err:  # such as a label too long to print
        raise InvalidParameter(f"a record the export cannot render: {err}") from None
    if block:
        yield "".join(block)


def _json_array(n: int, items: Iterator[str]) -> Iterable[str]:
    """An indent=2 JSON array one level deep, as texts drawn lazily, from
    its ``n`` rendered items, each starting with the separator ",\\n"."""
    if not n:
        return ("[]",)
    return chain(("[",), (first[1:] for first in islice(items, 1)), items, ("\n  ]",))


def config_json_pieces(c: PillowConfig) -> Iterator[str]:
    """The JSON export in pieces, in linear time: one f-string template per
    record, so the indenting pure-Python JSON encoder never runs.  The
    pieces join, byte for byte, to the indent=2 ``json.dumps`` text of the
    dict the tests' reference in ``tests/reference.py`` builds, plus "\\n"."""
    q = _JSONStrings()
    return _pieces(chain(
        (f'{{\n  "a": {c.a},\n  "b": {c.b},\n  "g": {c.g},\n  "vertices": ',),
        _json_array(len(c.vertices), (f",\n    {v}" for v in c.vertices)),
        (',\n  "lines": ',),
        _json_array(len(c.lines), (
            f',\n    {{\n      "u": {u},\n      "v": {v},\n'
            f'      "kind": {q[kind]},\n      "side": {q[side]}\n    }}'
            for u, v, kind, side in c.lines
        )),
        (',\n  "triangles": ',),
        _json_array(len(c.triangles), (
            f',\n    {{\n      "v1": {v1},\n      "v2": {v2},\n'
            f'      "v3": {v3},\n      "side": {q[side]},\n'
            f'      "row": {row},\n      "col": {col},\n      "half": {q[half]}\n    }}'
            for v1, v2, v3, side, row, col, half in c.triangles
        )),
        ("\n}\n",),
    ))


def dot_face_pieces(c: PillowConfig) -> Iterator[str]:
    """The DOT face-adjacency graph in pieces: one node per triangle, named
    ``<side>_r<row>_c<col>_<half>``, one edge per line on exactly two
    triangles, in endpoint-pair order (``_by_pair``), a repeated pair once.

    No line index and no list of names is built: the node lines are
    rendered from the records as they are written, and the triangles are
    then listed at the first endpoints of their pairs (``_runs``).  The
    pairs are walked one first endpoint at a time, and each triangle listed
    at that endpoint has its name rendered once there."""
    triangles, lines = c.triangles, _by_pair(c.lines)
    if lines is not c.lines:  # sorted: each pair once, grouped by first endpoint
        groups = defaultdict(dict)
        for u, v in map(itemgetter(0, 1), lines):
            groups[u][v] = None
        lines = [(u, v) for u, others in groups.items() for v in others]
    return _pieces(chain(
        ("graph face_adjacency {",),
        (f'\n  "{side}_r{row}_c{col}_{half}";' for _, _, _, side, row, col, half in triangles),
        _shared_line_edges(triangles, lines),
        ("\n}\n",),
    ))


def _by_pair(lines: Sequence[Line]) -> Sequence[Line]:
    """``lines`` in endpoint-pair order: themselves when their pairs
    strictly increase, as ``build_pillow`` sorts them, else sorted by pair,
    stably.  Endpoints that do not compare are refused by InvalidParameter."""
    if _increasing(map(itemgetter(0, 1), lines)):
        return lines
    try:
        return sorted(lines, key=itemgetter(0, 1))
    except TypeError as err:
        raise InvalidParameter(f"a record the export cannot render: {err}") from None


def _runs(records: Iterable[Sequence], counts: dict[object, int]) -> tuple[list, dict[object, int]]:
    """Each record listed at its first two fields, once where the two are
    equal, in one flat list of one run per label, in ``counts`` order, each
    ``counts[label]`` long.  ``counts`` becomes the dict from each label to
    the end of its run: the listing holds one dict and no list per label."""
    # each label's offset moves from the start of its run to its end
    start = 0
    for label, n in counts.items():
        counts[label], start = start, start + n
    listed: list = [None] * start
    for record in records:
        p, q = record[0], record[1]
        i = counts[p]
        listed[i] = record
        counts[p] = i + 1
        if q != p:
            i = counts[q]
            listed[i] = record
            counts[q] = i + 1
    return listed, counts


def _shared_line_edges(triangles: Sequence[Triangle], pairs: Sequence[Sequence]) -> Iterator[str]:
    """The DOT edge of each of ``pairs``, grouped by first endpoint, that
    lies on exactly two ``triangles``.  Each triangle (p, q, r) is listed
    at p and q, the first endpoints of its pairs, when the first edge is
    drawn, the runs in the order of the groups; each group reads the next
    run and the other vertices of the triangles there, in listing order."""
    # a plain dict, which indexes faster than a Counter, in the walk's order
    counts = dict.fromkeys(map(itemgetter(0), pairs), 0)
    counts.update(Counter(chain(map(itemgetter(0), triangles),
                                (q for p, q, _, _, _, _, _ in triangles if q != p))))
    listed, ends = _runs(triangles, counts)
    here, on, start = object(), defaultdict(list), 0
    for u, v in map(itemgetter(0, 1), pairs):
        if u != here:
            here, end = u, ends[u]
            on.clear()
            for p, q, r, side, row, col, half in listed[start:end]:
                name = f'"{side}_r{row}_c{col}_{half}"'
                if p == u:
                    on[q].append(name)
                    on[r].append(name)
                if q == u:
                    on[r].append(name)
            start = end
        names = on.get(v, ())
        if len(names) == 2:
            yield f"\n  {names[0]} -- {names[1]};"


def dot_line_pieces(c: PillowConfig) -> Iterator[str]:
    """The DOT line-intersection graph in pieces: one node per line, one
    edge per pair of lines meeting in a vertex, each vertex listing its
    lines by endpoint pair.  The vertices come in ``line_degrees`` order:
    the vertex list, then any endpoint outside it.

    ``_runs`` lists the lines, in endpoint-pair order (``_by_pair``), at
    both their endpoints, one run a vertex; the names of a run are rendered
    only when its edges are written, so no list of every name is built."""
    degrees = dict(c.line_degrees())  # a plain dict indexes faster than a Counter
    listed, ends = _runs(_by_pair(c.lines), degrees)
    at_vertices = ([f'"L{ln[0]}_{ln[1]}"' for ln in listed[start:end]]
                   for start, end in pairwise(chain((0,), ends.values())))
    return _pieces(chain(
        ("graph line_intersection {",),
        (f'\n  "L{u}_{v}";' for u, v, _, _ in c.lines),
        # the edges from each line to the later lines at the vertex, one text
        (f"\n  {first} -- " + f";\n  {first} -- ".join(at_v[idx:]) + ";"
         for at_v in at_vertices for idx, first in enumerate(at_v[:-1], 1)),
        ("\n}\n",),
    ))
