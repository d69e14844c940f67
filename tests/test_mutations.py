"""Mutated pillows: every operation on a complex that is no longer the
pillow either returns or raises MalformedComplex, and every mutation but an
edge flip breaks one of the sphere checks."""

from collections.abc import Iterable, Sequence

from hypothesis import given, settings, strategies as st

from pillowdeg import (
    Line,
    MalformedComplex,
    Triangle,
    build_pillow,
    build_table,
    config_to_dict,
    config_to_json,
    disjoint_pairs_via_degrees,
    dot_face_adjacency,
    dot_line_intersection,
    is_complex_isomorphism,
    quadric_stage,
    transpose_map,
    two_surface_stage,
    verify_configuration,
    verify_conservation,
    verify_pillow,
    verify_sphere_triangulation,
    verify_stages,
)


def _sorted_pair(u, v):
    return (u, v) if u < v else (v, u)


def _triangle(t, vertices):
    return Triangle(tuple(sorted(vertices)), t.side, t.row, t.col, t.half)


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


def relabel_vertex(draw, c):
    """Rename one vertex in the lines and triangles only, to a fresh label
    or to a label that shares no line with it; the vertex list stays."""
    vertex = draw(st.sampled_from(c.vertices))
    taken = _neighbours(c, vertex) | {vertex}
    target = draw(st.integers(-1, len(c.vertices) + 2).filter(lambda w: w not in taken))

    def rename(w):
        return target if w == vertex else w

    lines = tuple(Line(*_sorted_pair(rename(ln.u), rename(ln.v)), ln.kind, ln.side)
                  for ln in c.lines)
    triangles = tuple(_triangle(t, map(rename, t.vertices)) for t in c.triangles)
    return c._replace(lines=lines, triangles=triangles)


def flip_edge(draw, c):
    """Replace a line uv and its triangles uvx, uvy by xy, xyu and xyv,
    where x and y share no line yet: still a triangulated sphere."""
    pairs = {ln.pair for ln in c.lines}
    incidence = {pair: [] for pair in pairs}
    for idx, t in enumerate(c.triangles):
        for pair in t.edge_pairs():
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
    """Two label-disjoint copies sharing one vertex, with no grid map."""
    shared = draw(st.sampled_from(c.vertices))
    shift = len(c.vertices)

    def relabel(w):
        return w if w == shared else w + shift

    lines = c.lines + tuple(
        Line(*_sorted_pair(relabel(ln.u), relabel(ln.v)), ln.kind, ln.side) for ln in c.lines
    )
    triangles = c.triangles + tuple(_triangle(t, map(relabel, t.vertices)) for t in c.triangles)
    vertices = tuple(sorted({w for ln in lines for w in ln.pair}))
    return c._replace(vertices=vertices, lines=lines, triangles=triangles, grid_map={})


MUTATIONS = {
    f.__name__: f
    for f in (drop_line, add_foreign_line, duplicate_triangle, drop_triangle,
              relabel_vertex, flip_edge, glue_two_copies)
}


@st.composite
def mutants(draw):
    """(mutation name, mutated complex) from one pillow with a, b in 2..6."""
    c = build_pillow(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    name = draw(st.sampled_from(sorted(MUTATIONS)))
    return name, MUTATIONS[name](draw, c)


def _transpose_isomorphism(c):
    ct = build_pillow(c.b, c.a)
    return is_complex_isomorphism(c, ct, transpose_map(c, ct))


OPERATIONS = (
    verify_sphere_triangulation, verify_pillow, verify_stages, verify_conservation,
    verify_configuration, quadric_stage, two_surface_stage, _transpose_isomorphism,
    build_table, disjoint_pairs_via_degrees,
    config_to_dict, config_to_json, dot_face_adjacency, dot_line_intersection,
)
SPHERE_CHECKS = (
    "line_in_two_triangles", "vertex_link_single_cycle",
    "face_adjacency_connected", "euler_characteristic",
)


# The link check and the union-find as they were written before the
# reachability rewrite, copied verbatim: the oracle for the link count and,
# through face_components, for the face count.
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
    it, must form exactly one closed cycle (the closed-surface condition)."""
    adjacency: dict[int, set[int]] = {i: set() for i in star}
    for i in adjacency:
        for other in c.triangles[i].vertices:
            if other != vertex:
                adjacency[i].update(incidence.get(_sorted_pair(vertex, other), ()))
        adjacency[i].discard(i)
    if any(len(neigh) != 2 for neigh in adjacency.values()):
        return False
    # connected + 2-regular => a single cycle (an empty star has no component)
    return _components(adjacency, ((i, j) for i in adjacency for j in adjacency[i])) == 1


def _incidence_and_stars(c):
    incidence = {ln.pair: [] for ln in c.lines}
    star = {v: [] for v in c.vertices}
    for idx, tri in enumerate(c.triangles):
        for pair in tri.edge_pairs():
            if pair in incidence:
                incidence[pair].append(idx)
        for v in tri.vertices:
            if v in star:
                star[v].append(idx)
    return incidence, star


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


class TestMutatedPillows:
    @settings(max_examples=150, deadline=None)
    @given(mutant=mutants())
    def test_every_operation_returns_or_raises_malformed(self, mutant):
        _, c = mutant
        for operation in OPERATIONS:
            try:
                operation(c)
            except MalformedComplex:
                pass

    @settings(max_examples=150, deadline=None)
    @given(mutant=mutants())
    def test_only_a_flip_keeps_the_sphere_checks(self, mutant):
        name, c = mutant
        try:
            report = verify_sphere_triangulation(c)
        except MalformedComplex:
            assert name != "flip_edge"
            return
        assert report["vertex_link_single_cycle"].lhs == bad_links(c)
        assert report["face_adjacency_connected"].lhs == face_components(c)
        sphere_ok = all(report[check].passed for check in SPHERE_CHECKS)
        assert sphere_ok == (name == "flip_edge"), str(report)
        if name == "flip_edge":
            assert not report["triangle_degree_census"].passed
