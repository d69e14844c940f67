"""Mutated pillows: every operation on a complex that is no longer the
pillow returns, and only the table raises MalformedComplex; the sphere and
stage checks, verify_pillow and verify_configuration always return their
reports, the degree route equals the reference count, the DOT line graph
renders every mutant, and both DOT exports write what their copies kept
from before the face export stopped reading the line index;
every mutation but an edge flip or a changed bidegree breaks one of the
sphere checks, and those two fail the census or the corner check of the
sphere report."""

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, permutations
from math import comb
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st
from reference import config_to_dict, edge_pairs, reference_count

from pillowdeg import (
    Check,
    InvalidParameter,
    Line,
    MalformedComplex,
    Report,
    Triangle,
    build_pillow,
    build_table,
    config_json_pieces,
    disjoint_pairs_via_degrees,
    dot_face_pieces,
    dot_line_pieces,
    is_complex_isomorphism,
    pillow,
    transpose_map,
    verify_configuration,
    verify_conservation,
    verify_pillow,
    verify_sphere_triangulation,
    verify_stages,
)
from pillowdeg.pillow import _pieces, _sphere_report, _stages, incidence_index


def _sorted_pair(u, v):
    return (u, v) if u < v else (v, u)


def _triangle(t, vertices):
    return Triangle(*sorted(vertices), t.side, t.row, t.col, t.half)


def _neighbours(c, vertex):
    return {w for ln in c.lines if vertex in ln.pair for w in ln.pair} - {vertex}


def drop_line(draw, c):
    k = draw(st.integers(0, len(c.lines) - 1))
    return c._replace(lines=c.lines[:k] + c.lines[k + 1:])


def add_foreign_line(draw, c):
    u = draw(st.sampled_from(c.vertices))
    foreign = max(c.vertices) + draw(st.integers(1, 3))
    return c._replace(lines=c.lines + (Line(u, foreign, "horizontal", "top"),))


def duplicate_triangle(draw, c):
    return c._replace(triangles=c.triangles + (draw(st.sampled_from(c.triangles)),))


def drop_triangle(draw, c):
    k = draw(st.integers(0, len(c.triangles) - 1))
    return c._replace(triangles=c.triangles[:k] + c.triangles[k + 1:])


def relabelled(c, vertex, target):
    """``vertex`` renamed ``target`` in the lines and triangles only."""

    def rename(w):
        return target if w == vertex else w

    lines = tuple(Line(*_sorted_pair(rename(ln.u), rename(ln.v)), ln.kind, ln.side)
                  for ln in c.lines)
    triangles = tuple(_triangle(t, map(rename, t.vertices)) for t in c.triangles)
    return c._replace(lines=lines, triangles=triangles)


def dihedron(c):
    """Two triangles on the triple (1, 2, 3), the halves of the first cell
    of ``c`` relabelled, and its three lines: each line on both triangles,
    one face component and V - E + F = 3 - 3 + 2, yet each vertex link is
    one edge taken twice."""
    lines = tuple(Line(u, v, "diagonal", "top") for u, v in ((1, 2), (1, 3), (2, 3)))
    triangles = tuple(t._replace(v1=1, v2=2, v3=3) for t in c.triangles[:2])
    return c._replace(vertices=(1, 2, 3), lines=lines, triangles=triangles)


def shifted(c, by):
    """``c`` with every label, its vertex list's too, moved up by ``by``."""
    return c._replace(
        vertices=tuple(v + by for v in c.vertices),
        lines=tuple(ln._replace(u=ln.u + by, v=ln.v + by) for ln in c.lines),
        triangles=tuple(t._replace(v1=t.v1 + by, v2=t.v2 + by, v3=t.v3 + by)
                        for t in c.triangles))


def read_off(c, k):
    """Line k of ``c`` dropped, and each triangle on it listing the line's
    ends in reverse, so that no triangle is on their pair; the ends must be
    adjacent in each triangle's sorted vertices, so its other pairs stay
    sorted and on their lines."""
    u, w = c.lines[k].pair
    triangles = tuple(t._replace(v1=w, v2=u) if t[:2] == (u, w)
                      else t._replace(v2=w, v3=u) if t[1:3] == (u, w) else t
                      for t in c.triangles)
    return c._replace(lines=c.lines[:k] + c.lines[k + 1:], triangles=triangles)


def relabel_vertex(draw, c):
    """Rename one vertex in the lines and triangles only, to a fresh label
    or to a label that shares no line with it; the vertex list stays."""
    vertex = draw(st.sampled_from(c.vertices))
    taken = _neighbours(c, vertex) | {vertex}
    target = draw(st.integers(-1, len(c.vertices) + 2).filter(lambda w: w not in taken))
    return relabelled(c, vertex, target)


def flip_edge(draw, c):
    """Replace a line uv and its triangles uvx, uvy by xy, xyu and xyv,
    where x and y share no line yet: still a triangulated sphere."""
    pairs = {ln.pair for ln in c.lines}
    incidence = {pair: [] for pair in pairs}
    for idx, t in enumerate(c.triangles):
        for pair in edge_pairs(t):
            incidence[pair].append(idx)
    flippable = []
    for k, ln in enumerate(c.lines):
        t1, t2 = incidence[ln.pair]
        (x,) = set(c.triangles[t1].vertices) - set(ln.pair)
        (y,) = set(c.triangles[t2].vertices) - set(ln.pair)
        if _sorted_pair(x, y) not in pairs:
            flippable.append((k, t1, t2, x, y))
    k, t1, t2, x, y = draw(st.sampled_from(flippable))
    u, v = c.lines[k].pair
    lines = list(c.lines)
    lines[k] = c.lines[k]._replace(u=min(x, y), v=max(x, y))
    triangles = list(c.triangles)
    triangles[t1] = _triangle(c.triangles[t1], (x, y, u))
    triangles[t2] = _triangle(c.triangles[t2], (x, y, v))
    return c._replace(lines=tuple(lines), triangles=tuple(triangles))


def glue_two_copies(draw, c):
    """Two label-disjoint copies sharing one vertex."""
    shared = draw(st.sampled_from(c.vertices))
    shift = len(c.vertices)

    def relabel(w):
        return w if w == shared else w + shift

    lines = c.lines + tuple(
        Line(*_sorted_pair(relabel(ln.u), relabel(ln.v)), ln.kind, ln.side) for ln in c.lines
    )
    triangles = c.triangles + tuple(_triangle(t, map(relabel, t.vertices)) for t in c.triangles)
    vertices = tuple(sorted({w for ln in lines for w in ln.pair}))
    return c._replace(vertices=vertices, lines=lines, triangles=triangles)


def change_bidegree(draw, c):
    """Another (a, b) in 2..6 over the same vertices, lines and triangles:
    the grid positions, which grid_rows derives from (a, b), no longer
    match the lines."""
    other = st.tuples(st.integers(2, 6), st.integers(2, 6)).filter(lambda ab: ab != (c.a, c.b))
    a, b = draw(other)
    return c._replace(a=a, b=b)


MUTATIONS = {
    f.__name__: f
    for f in (drop_line, add_foreign_line, duplicate_triangle, drop_triangle,
              relabel_vertex, flip_edge, glue_two_copies, change_bidegree)
}
# the mutations that leave a triangulated sphere, each with the check of
# the sphere report that still sees it
KEEP_THE_SPHERE = {
    "flip_edge": "triangle_degree_census",
    "change_bidegree": "degree3_vertices_are_corners",
}


@st.composite
def mutants(draw):
    """(mutation name, mutated complex) from one pillow with a, b in 2..6."""
    c = build_pillow(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    name = draw(st.sampled_from(sorted(MUTATIONS)))
    return name, MUTATIONS[name](draw, c)


def _transpose_isomorphism(c):
    return is_complex_isomorphism(c, build_pillow(c.b, c.a), transpose_map(c.a, c.b))


def _drained(pieces):
    """An export that consumes every piece, as a writer does."""
    return lambda c: "".join(pieces(c))


# the table, and so conservation of it, raises MalformedComplex on a
# line-degree outside {3, 6}; every other operation returns
TABLE_OPERATIONS = (build_table, lambda c: verify_conservation(build_table(c)))
OPERATIONS = (
    verify_sphere_triangulation, verify_pillow, verify_stages,
    verify_configuration, _transpose_isomorphism,
    disjoint_pairs_via_degrees,
    *map(_drained, (config_json_pieces, dot_face_pieces, dot_line_pieces)),
)
SPHERE_CHECKS = (
    "line_in_two_triangles", "vertex_link_single_cycle",
    "face_adjacency_connected", "euler_characteristic",
)
CENSUS_CHECKS = (
    "degree3_vertices_are_corners", "triangle_degree_census",
    "line_degrees_match_triangle_degrees",
)
PAIR_CHECKS = ("disjoint_pairs_degree_method_vs_formula",)
STAGE_CHECKS = (
    "quadric_face_count", "quadric_line_count", "two_surface_spans",
    "two_surface_point_inclusion_exclusion",
)
CONSERVATION_CHECKS = (
    "branch_point_total", "node_total", "cusp_total",
    "lines_row_contributes_nothing", "doubled_lines_give_branch_degree",
)


# The link check and the union-find as they were written before the
# reachability rewrite, copied, the link check gluing each pair of
# triangles both ways: the oracle for the link count and, through
# face_components, for the face count.
def _components(nodes: Iterable[int], edges: Iterable[Sequence[int]]) -> int:
    """Number of connected components of a graph, by union-find."""
    root = {n: n for n in nodes}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    return sum(1 for n, r in root.items() if n == r)


def _vertex_link_is_single_cycle(c, vertex: int, star: list[int],
                                 incidence: dict[tuple[int, int], list[int]]) -> bool:
    """The triangles of a vertex's star, glued along shared lines through
    it, must form exactly one closed cycle (the closed-surface condition).
    Two triangles on a line through the vertex are glued both ways."""
    adjacency: dict[int, set[int]] = {i: set() for i in star}
    for i in star:
        for other in c.triangles[i].vertices:
            if other != vertex:
                for j in incidence.get(_sorted_pair(vertex, other), ()):
                    if j != i:
                        adjacency[i].add(j)
                        adjacency[j].add(i)
    if any(len(neigh) != 2 for neigh in adjacency.values()):
        return False
    # connected + 2-regular => a single cycle (an empty star has no component)
    return _components(adjacency, ((i, j) for i in adjacency for j in adjacency[i])) == 1


def _incidence_and_stars(c):
    incidence = {ln.pair: [] for ln in c.lines}
    star = {v: [] for v in c.vertices}
    for idx, tri in enumerate(c.triangles):
        for pair in edge_pairs(tri):
            if pair in incidence:
                incidence[pair].append(idx)
        for v in tri.vertices:
            if v in star:
                star[v].append(idx)
    return incidence, star


def decoded(c, incidence):
    """The packed ``incidence_index(c)`` as triangle lists: the exact
    triangle indices of a line on at most two, THREE_OR_MORE for the others.
    A value outside the encoding raises KeyError."""
    n = len(c.triangles)
    return {pair: [x // n - 1, x % n] if x >= n else [x] if x >= 0
            else {-1: [], -2: THREE_OR_MORE}[x] for pair, x in incidence.items()}


def at_most_two(incidence):
    """The copied incidence, each line on three or more triangles as
    THREE_OR_MORE: all the packed index keeps."""
    return {pair: tris if len(tris) <= 2 else THREE_OR_MORE for pair, tris in incidence.items()}


THREE_OR_MORE = "three or more"


def bad_links(c):
    """Vertices whose link is not a single cycle, by the copied check."""
    incidence, star = _incidence_and_stars(c)
    return sum(1 for v, tris in star.items()
               if not _vertex_link_is_single_cycle(c, v, tris, incidence))


def face_components(c):
    """Components of the face-adjacency graph, by the copied union-find."""
    incidence, _ = _incidence_and_stars(c)
    return _components(range(len(c.triangles)),
                       (tris for tris in incidence.values() if len(tris) == 2))


# The two DOT exports as they were written while the face export read the
# line index, copied verbatim: the oracles for the face export, which builds
# no index, and for the line graph, which lists each line's record at both
# its endpoints and renders no name before its vertex's edges are written.
def _reference_dot_face_pieces(c) -> Iterator[str]:
    """The DOT face-adjacency graph in pieces: one node per triangle, named
    ``<side>_r<row>_c<col>_<half>``, one edge per line shared by two."""
    incidence = _incidence_and_stars(c)[0]  # the index of triangle lists it read
    # the triangles of each line on exactly two, by endpoint pair; the index
    # is freed before the names are rendered, so they reuse its memory
    shared = [on for on in map(incidence.__getitem__, sorted(incidence)) if len(on) == 2]
    del incidence
    names = [f'"{side}_r{row}_c{col}_{half}"' for _, _, _, side, row, col, half in c.triangles]
    return _pieces(chain(
        ("graph face_adjacency {",),
        (f"\n  {name};" for name in names),
        (f"\n  {names[i]} -- {names[j]};" for i, j in shared),
        ("\n}\n",),
    ))


def _reference_dot_line_pieces(c) -> Iterator[str]:
    """The DOT line-intersection graph in pieces: one node per line, one
    edge per pair of lines meeting in a vertex, each vertex listing its
    lines by endpoint pair.  The vertices come in ``line_degrees`` order:
    the vertex list, then any endpoint outside it."""
    incident: dict[int, list[str]] = {v: [] for v in c.line_degrees()}
    # sorted by endpoint pair, stably: a line's name is a function of its
    # pair, so the order of lines sharing a pair does not show
    for u, v, _, _ in sorted(c.lines, key=itemgetter(0, 1)):
        name = f'"L{u}_{v}"'
        incident[u].append(name)
        incident[v].append(name)
    return _pieces(chain(
        ("graph line_intersection {",),
        (f'\n  "L{u}_{v}";' for u, v, _, _ in c.lines),
        # the edges from each line to the later lines at the vertex, one text
        (f"\n  {first} -- " + f";\n  {first} -- ".join(at_v[idx:]) + ";"
         for at_v in incident.values() for idx, first in enumerate(at_v[:-1], 1)),
        ("\n}\n",),
    ))


EXPORT_ORACLES = ((dot_face_pieces, _reference_dot_face_pieces),
                  (dot_line_pieces, _reference_dot_line_pieces))


def export_outcome(pieces, c):
    """The joined text of ``pieces(c)``, or the type and message of the
    exception it raised, on the call or while the pieces were drained."""
    try:
        drained = pieces(c)
    except Exception as exc:
        return "call", type(exc), str(exc)
    try:
        return "text", "".join(drained)
    except Exception as exc:
        return "drain", type(exc), str(exc)


def odd_complexes():
    """Hand-built complexes off the pillow's conventions, by what they hold."""
    c = build_pillow(2, 2)
    # the centres of the two 3 x 3 interiors of (4, 4), 21 and 30, share no
    # neighbour; made one vertex, whose link is two cycles
    glued = relabelled(build_pillow(4, 4), 30, 21)
    pinched = glued._replace(vertices=tuple(v for v in glued.vertices if v != 30))
    twin = shifted(pinched, 100)

    def extra_triangle(vertices):
        extra = Triangle(*vertices, "top", 9, 9, "lower")
        return c._replace(triangles=c.triangles + (extra,))

    return {
        "str labels after int ones": c._replace(lines=c.lines + (Line("p", "q", "x", "y"),)),
        "str labels before int ones": c._replace(lines=(Line("p", "q", "x", "y"),) + c.lines),
        "str labels in place of an int line": c._replace(
            lines=c.lines[1:] + (Line("p", "q", "x", "y"),)),
        "a str vertex after int ones": c._replace(vertices=c.vertices + ("x",)),
        "a float label": c._replace(lines=c.lines + (Line(1.5, 2, "x", "y"),)),
        "a label equal to a vertex of another type": c._replace(
            lines=(c.lines[0]._replace(u=True),) + c.lines[1:]),
        "a repeated line, sorted": c._replace(lines=tuple(sorted(c.lines + (c.lines[3],)))),
        "a repeated line, unsorted": c._replace(lines=c.lines + (c.lines[3],)),
        "a repeated pair of two kinds, sorted": c._replace(
            lines=tuple(sorted(c.lines + (c.lines[3]._replace(kind="zz"),)))),
        "a repeated vertex in a triangle": extra_triangle((1, 1, 2)),
        "a repeated last vertex in a triangle": extra_triangle((1, 2, 2)),
        "an unsorted triangle": extra_triangle((3, 1, 2)),
        # the first triangle, (2, 8, 9), listed again as (9, 8, 2)
        "an unsorted copy of a triangle": c._replace(
            triangles=c.triangles + (c.triangles[0]._replace(v1=9, v3=2),)),
        "vertices in reverse": c._replace(vertices=c.vertices[::-1]),
        "a repeated vertex": c._replace(vertices=c.vertices + (1,)),
        "an isolated vertex": c._replace(vertices=c.vertices + (99,)),
        # 99 is off the vertex list and 10 on no triangle; V - E + F stays 2
        "a foreign triangle vertex": relabelled(c, 10, 99),
        "the dihedron": dihedron(c),
        "a pinched sphere": pinched,
        # each of these three fails one condition of the link certificate
        # and keeps V - E + F = 2: 21 listed a second time in place of 30,
        # the line 1-2 read off the pinched sphere (1 and 2 are the first two
        # vertices of both its triangles), and two pinched spheres apart
        "a pinched sphere, its vertex listed twice": glued._replace(
            vertices=tuple(21 if v == 30 else v for v in glued.vertices)),
        "a pinched sphere, a line read off its triangles": read_off(pinched, 0),
        "two pinched spheres": pinched._replace(
            vertices=pinched.vertices + twin.vertices, lines=pinched.lines + twin.lines,
            triangles=pinched.triangles + twin.triangles),
        "no lines": c._replace(lines=()),
        "nothing": c._replace(vertices=(), lines=(), triangles=()),
    }


# the odd complexes whose line endpoints do not all compare
INCOMPARABLE = (
    "str labels after int ones", "str labels before int ones",
    "str labels in place of an int line",
)

# the odd complexes off the link certificate, each with the conditions it
# breaks.  Each of the last six breaks one alone, so the certificate needs
# that one; distinct line pairs and no unlisted triangle vertex follow from
# the other conditions, so no complex breaks either alone
OFF_THE_CERTIFICATE = (
    "a repeated line, sorted",  # distinct line pairs; V - E + F = 1
    "an unsorted copy of a triangle",  # a triangle off its lines; two faces apart; 3
    "a repeated vertex",  # no vertex listed twice; V - E + F = 3
    "an isolated vertex",  # each listed vertex on a triangle; V - E + F = 3
    "the dihedron",  # F > 2
    "a foreign triangle vertex",  # the vertex list is the set of triangle vertices
    "a pinched sphere",  # V - E + F = 2
    "a pinched sphere, its vertex listed twice",  # no vertex listed twice
    "a pinched sphere, a line read off its triangles",  # each triangle's pairs are lines
    "two pinched spheres",  # one face component
)


class TestLinkCertificate:
    @pytest.mark.parametrize("a", range(2, 13))
    def test_built_pillows_pass_without_the_walk(self, monkeypatch, a):
        def walk(c, incidence):
            raise AssertionError(f"the links of ({c.a}, {c.b}) were walked")

        monkeypatch.setattr(pillow, "_bad_links", walk)
        for b in range(2, 13):
            c = build_pillow(a, b)
            assert verify_pillow(c).all_passed
            assert verify_configuration(c).all_passed

    @pytest.mark.parametrize("name", OFF_THE_CERTIFICATE)
    def test_a_complex_off_the_certificate_has_its_links_walked(self, monkeypatch, name):
        c = odd_complexes()[name]
        walked = []
        real = pillow._bad_links

        def walk(c, incidence):
            walked.append(c)
            return real(c, incidence)

        monkeypatch.setattr(pillow, "_bad_links", walk)
        report = verify_sphere_triangulation(c)
        assert walked == [c]
        assert report["vertex_link_single_cycle"].lhs == bad_links(c)

    @pytest.mark.parametrize("name", sorted(odd_complexes()))
    def test_the_copied_check_matches_the_walk_on_odd_complexes(self, name):
        c = odd_complexes()[name]
        assert pillow._bad_links(c, incidence_index(c)) == bad_links(c)

    @pytest.mark.parametrize("name", sorted(odd_complexes()))
    def test_the_packed_index_decodes_to_the_copied_one_on_odd_complexes(self, name):
        c = odd_complexes()[name]
        assert decoded(c, incidence_index(c)) == at_most_two(_incidence_and_stars(c)[0])

    def test_the_packed_index_encodes_each_count(self):
        # three triangles after the 16 of (2, 2), so F = 19: (1, 1, 99) is
        # on the line 1-99 twice, (5, 97, 98) alone on 97-98, no triangle on
        # 98-99, and (1, 1, 2) twice on the line 1-2, already on two
        c = build_pillow(2, 2)
        extra = [Triangle(*vertices, "top", 9, 9, "lower")
                 for vertices in ((1, 1, 99), (5, 97, 98), (1, 1, 2))]
        d = c._replace(lines=c.lines + tuple(Line(u, v, "x", "y") for u, v in
                                             ((1, 99), (97, 98), (98, 99))),
                       triangles=c.triangles + tuple(extra))
        incidence = incidence_index(d)
        assert (incidence[1, 99], incidence[97, 98], incidence[98, 99], incidence[1, 2]) == (
            19 * 17 + 16, 17, -1, -2)
        # every line of (2, 2) but 1-2 keeps its two triangles t < u of c
        for pair, (t, u) in _incidence_and_stars(c)[0].items():
            assert incidence[pair] == (-2 if pair == (1, 2) else 19 * (t + 1) + u)

    def test_the_copied_check_matches_the_walk_on_unsorted_triangles(self):
        # each of the first four triangles of (2, 2) with its vertices in
        # each of the six orders; a copy that glues one way only counts 2
        # or 3 bad links on the 20 unsorted ones, where the walk counts 0
        c = build_pillow(2, 2)
        for k, t in enumerate(c.triangles[:4]):
            for v1, v2, v3 in permutations(t.vertices):
                d = c._replace(triangles=c.triangles[:k] + (t._replace(v1=v1, v2=v2, v3=v3),)
                               + c.triangles[k + 1:])
                assert pillow._bad_links(d, incidence_index(d)) == bad_links(d) == 0, (k, v1, v2, v3)


class TestExportOracles:
    @settings(max_examples=1000, deadline=None)
    @given(mutant=mutants())
    def test_dot_exports_match_the_copies_on_every_mutant(self, mutant):
        c = mutant[1]
        for pieces, reference in EXPORT_ORACLES:
            assert export_outcome(pieces, c) == export_outcome(reference, c)

    @pytest.mark.parametrize("name", sorted(odd_complexes()))
    def test_dot_exports_match_the_copies_on_odd_complexes(self, name):
        # where a copy's sort raises TypeError on the call, on labels that
        # do not compare, the export raises InvalidParameter there instead
        c = odd_complexes()[name]
        for pieces, reference in EXPORT_ORACLES:
            expected = export_outcome(reference, c)
            assert (expected[:2] == ("call", TypeError)) == (name in INCOMPARABLE)
            if name in INCOMPARABLE:
                expected = ("call", InvalidParameter,
                            f"a record the export cannot render: {expected[2]}")
            assert export_outcome(pieces, c) == expected

    @pytest.mark.parametrize("name", INCOMPARABLE)
    def test_labels_that_do_not_compare_are_refused_on_the_call(self, name):
        # both DOT graphs put the lines in pair order; the JSON export keeps
        # the records' order and writes each str label as a JSON string
        c = odd_complexes()[name]
        for pieces in (dot_face_pieces, dot_line_pieces):
            with pytest.raises(InvalidParameter,
                               match="^a record the export cannot render: '<' not supported"):
                pieces(c)
        assert "".join(config_json_pieces(c)) == json.dumps(config_to_dict(c), indent=2) + "\n"

    def test_first_endpoints_of_no_total_order_come_grouped(self):
        # frozensets order by inclusion, and {1} and {2} do not compare
        # either way, so the sort leaves the pair of {2} between those of
        # {1}; the face graph, which reads one run per first endpoint, draws
        # the copy's edges with those of each first endpoint together
        f = frozenset
        one, two = f({1}), f({2})
        labels = (one, two, f({1, 3}), f({2, 3}), f({1, 4}), f({1, 5}), f({1, 4, 6}), f({2, 7}))
        _, _, x, y, z, w, v, t = labels
        lines = tuple(Line(p, q, "k", "s") for p, q in ((one, x), (two, y), (one, z)))
        triangles = tuple(Triangle(*vertices, "top", 1, col, "lower") for col, vertices in enumerate(
            ((one, x, z), (one, x, w), (one, z, v), (two, y, t), (two, y, v)), 1))
        c = build_pillow(2, 2)._replace(vertices=labels, lines=lines, triangles=triangles)
        face = "".join(dot_face_pieces(c))
        copy = "".join(_reference_dot_face_pieces(c))
        assert sorted(face.splitlines()) == sorted(copy.splitlines())
        assert face.endswith('\n  "top_r1_c1_lower" -- "top_r1_c2_lower";'
                             '\n  "top_r1_c1_lower" -- "top_r1_c3_lower";'
                             '\n  "top_r1_c4_lower" -- "top_r1_c5_lower";\n}\n')
        assert "".join(dot_line_pieces(c)) == "".join(_reference_dot_line_pieces(c))

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 9) for b in range(2, 9)]
                             + [(64, 64), (2, 2048), (2048, 2)])
    def test_dot_exports_match_the_copies_on_built_pillows(self, a, b):
        c = build_pillow(a, b)
        for pieces, reference in EXPORT_ORACLES:
            outcome = export_outcome(pieces, c)
            assert outcome[0] == "text"
            assert outcome == export_outcome(reference, c)


class TestMutatedPillows:
    @settings(max_examples=150, deadline=None)
    @given(mutant=mutants())
    def test_every_operation_returns_or_raises_malformed(self, mutant):
        _, c = mutant
        for operation in OPERATIONS:
            operation(c)
        for operation in TABLE_OPERATIONS:
            try:
                operation(c)
            except MalformedComplex:
                pass

    @settings(max_examples=1000, deadline=None)
    @given(mutant=mutants())
    def test_verify_configuration_reports_every_mutant(self, mutant):
        # the sections are those of the verifiers it runs, and the table's
        # fault is one failed check in place of conservation
        c = mutant[1]
        report = verify_configuration(c)
        head = [*SPHERE_CHECKS, *CENSUS_CHECKS, *PAIR_CHECKS, *STAGE_CHECKS]
        names = [ch.name for ch in report.checks]
        assert names[:len(head)] == head
        assert names[len(head):] in (
            [*CONSERVATION_CHECKS, "triangles_at_grid_positions"],
            ["line_degrees_in_local_models", "triangles_at_grid_positions"],
        )
        sections = verify_pillow(c).checks + _stages(c, incidence_index(c)).checks
        assert report.checks[:len(head)] == sections
        try:
            table = build_table(c)
        except MalformedComplex as exc:
            assert report.checks[len(head)] == Check("line_degrees_in_local_models", str(exc), None)
            assert not report.checks[len(head)].passed
        else:
            assert report.checks[len(head):-1] == verify_conservation(table).checks
        # the grid-position check against the built triangles, keyed by position
        placed = {t[3:]: t[:3] for t in build_pillow(c.a, c.b).triangles}
        misplaced = sum(1 for t in c.triangles if placed.get(t[3:]) != t[:3])
        assert report.checks[-1] == Check("triangles_at_grid_positions", misplaced, 0)

    @pytest.mark.parametrize("name", sorted(odd_complexes()))
    def test_verify_configuration_reports_every_odd_complex_of_records(self, name):
        # labels that do not compare with each other, among the vertices or
        # on degrees outside {3, 6}, and repeated or unsorted records fail
        # checks instead of raising
        c = odd_complexes()[name]
        assert isinstance(verify_configuration(c), Report)
        try:
            build_table(c)
        except MalformedComplex:
            pass

    @settings(max_examples=150, deadline=None)
    @given(mutant=mutants())
    def test_stages_report_every_mutant(self, mutant):
        # the stage checks read only the triangles and the lines' pairs, so
        # a malformed complex fails checks instead of raising
        report = verify_stages(mutant[1])
        assert [ch.name for ch in report.checks] == [*STAGE_CHECKS]

    @settings(max_examples=150, deadline=None)
    @given(mutant=mutants())
    def test_sphere_check_reports_every_mutant(self, mutant):
        # a line with an endpoint outside the vertex list fails checks too
        report = verify_sphere_triangulation(mutant[1])
        assert [ch.name for ch in report.checks] == [*SPHERE_CHECKS, *CENSUS_CHECKS]

    @settings(max_examples=1000, deadline=None)
    @given(mutant=mutants())
    def test_verify_pillow_reports_every_mutant(self, mutant):
        # a relabelled vertex can repeat an endpoint pair through a
        # neighbour it shares; the degree route counts that pair too
        c = mutant[1]
        report = verify_pillow(c)
        assert [ch.name for ch in report.checks] == [*SPHERE_CHECKS, *CENSUS_CHECKS, *PAIR_CHECKS]
        assert report["disjoint_pairs_degree_method_vs_formula"].lhs == reference_count(c.lines)
        # the DOT line graph renders it too: one edge per pair of lines at
        # each vertex, a foreign endpoint included
        text = "".join(dot_line_pieces(c))
        assert text.count(" -- ") == sum(comb(d, 2) for d in c.line_degrees().values())

    def test_verify_pillow_reports_a_repeated_pair(self):
        # vertex 1 of (2, 2) renamed 3 in the lines and triangles: 1 and 3
        # share the neighbour 2, so the lines 1-2 and 2-3 both become 2-3
        c = relabelled(build_pillow(2, 2), 1, 3)
        assert len({ln.pair for ln in c.lines}) == len(c.lines) - 1
        report = verify_pillow(c)
        assert [ch.name for ch in report.failures] == [
            "line_in_two_triangles", "vertex_link_single_cycle",
            "degree3_vertices_are_corners", "triangle_degree_census",
            "disjoint_pairs_degree_method_vs_formula",
        ]
        check = report["disjoint_pairs_degree_method_vs_formula"]
        assert (check.lhs, check.rhs) == (166, 174)
        assert reference_count(c.lines) == 166

    @settings(max_examples=150, deadline=None)
    @given(mutant=mutants())
    def test_only_a_flip_keeps_the_sphere_checks(self, mutant):
        name, c = mutant
        report = verify_sphere_triangulation(c)
        assert report["vertex_link_single_cycle"].lhs == bad_links(c)
        assert report["face_adjacency_connected"].lhs == face_components(c)
        sphere_ok = all(report[check].passed for check in SPHERE_CHECKS)
        assert sphere_ok == (name in KEEP_THE_SPHERE), str(report)
        if name in KEEP_THE_SPHERE:
            assert not report[KEEP_THE_SPHERE[name]].passed

    @settings(max_examples=1000, deadline=None)
    @given(mutant=mutants())
    def test_link_walk_matches_the_oracles(self, mutant):
        # the walk over each vertex's link counts the vertices whose
        # triangles the copied check fails to glue into one cycle, the index
        # decodes to the copied line incidence, the sphere report on the
        # shared inputs is the public one, and the stage report is the same
        # with and without a passed-in index
        c = mutant[1]
        incidence = incidence_index(c)
        assert decoded(c, incidence) == at_most_two(_incidence_and_stars(c)[0])
        report = _sphere_report(c, incidence, c.line_degrees())
        assert report["vertex_link_single_cycle"].lhs == bad_links(c)
        assert report["face_adjacency_connected"].lhs == face_components(c)
        assert report.checks == verify_sphere_triangulation(c).checks
        assert verify_stages(c).checks == _stages(c, incidence).checks
