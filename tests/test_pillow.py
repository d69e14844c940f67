"""Pillow complex construction, labeling, verification, and exports."""

import json
import re
import tracemalloc

import pytest
from reference import config_to_dict, edge_pairs, reference_count
from test_cli import EXPORT_DIGESTS, sha256, traced_peak
from test_mutations import relabelled

from pillowdeg import degeneration, pillow
from pillowdeg import (
    InvalidParameter,
    Line,
    MalformedComplex,
    PillowConfig,
    Triangle,
    build_pillow,
    build_table,
    config_json_pieces,
    disjoint_pairs_via_degrees,
    dot_face_pieces,
    dot_line_pieces,
    formula_disjoint_pairs,
    grid_rows,
    is_complex_isomorphism,
    transpose_map,
    verify_configuration,
    verify_pillow,
    verify_sphere_triangulation,
)
from pillowdeg.cli import main
from pillowdeg.pillow import MAX_PILLOW_CELLS, PIECE_CHARS, incidence_index


def reference_json(c):
    return json.dumps(config_to_dict(c), indent=2) + "\n"


def joined(pieces, c):
    return "".join(pieces(c))


def assert_build_invariants(c):
    """What a built pillow's records must be, whatever order the build
    makes them in: validated lines in strictly increasing endpoint pairs,
    6ab of them, and the triangles in (side, row, col) order, lower before
    upper, each with its vertices sorted."""
    a, b = c.a, c.b
    assert all(type(ln) is Line and ln.u < ln.v for ln in c.lines), (a, b)
    pairs = [ln.pair for ln in c.lines]
    assert all(p < q for p, q in zip(pairs, pairs[1:])), (a, b)
    assert len(pairs) == 6 * a * b, (a, b)
    assert [(t.side, t.row, t.col, t.half) for t in c.triangles] == [
        (side, i, j, half) for side in ("top", "bottom") for i in range(1, b + 1)
        for j in range(1, a + 1) for half in ("lower", "upper")], (a, b)
    assert all(list(t.vertices) == sorted(t.vertices) for t in c.triangles), (a, b)


class TestCounts:
    def test_2x2(self):
        c = build_pillow(2, 2)
        assert len(c.vertices) == 10
        assert len(c.lines) == 24
        assert len(c.triangles) == 16
        assert c.g == 9

    def test_2x3(self):
        c = build_pillow(2, 3)
        assert (len(c.vertices), len(c.lines), len(c.triangles)) == (14, 36, 24)
        assert c.g == 13

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (2, 4), (4, 4)])
    def test_count_formulas(self, a, b):
        c = build_pillow(a, b)
        g = 2 * a * b + 1
        assert len(c.vertices) == g + 1
        assert len(c.lines) == 3 * g - 3
        assert len(c.triangles) == 2 * g - 2
        # |E| = 3|F|/2 for a triangulation where every edge is in 2 faces
        assert 2 * len(c.lines) == 3 * len(c.triangles)

    def test_line_kind_counts(self):
        a, b = 3, 2
        c = build_pillow(a, b)
        kinds = {}
        for ln in c.lines:
            kinds[ln.kind] = kinds.get(ln.kind, 0) + 1
        assert kinds == {
            "boundary": 2 * a + 2 * b,
            "horizontal": 2 * a * (b - 1),
            "vertical": 2 * b * (a - 1),
            "diagonal": 2 * a * b,
        }

    @pytest.mark.parametrize("a,b", [(1, 5), (5, 1), (0, 0), (2, 1)])
    def test_rejects_small_parameters(self, a, b):
        with pytest.raises(InvalidParameter):
            build_pillow(a, b)


class TestLineRecord:
    # endpoints that do not compare do not increase either
    @pytest.mark.parametrize("u,v", [(2, 1), (3, 3), ("p", 1), (None, 1), (1, "q")])
    def test_endpoints_must_increase(self, u, v):
        message = rf"line endpoints must satisfy u < v, got \({u}, {v}\)"
        with pytest.raises(InvalidParameter, match=message):
            Line(u, v, "horizontal", "top")
        with pytest.raises(InvalidParameter, match=message):
            Line(1, 4, "horizontal", "top")._replace(u=u, v=v)

    def test_str_labels_print_as_they_are(self):
        with pytest.raises(InvalidParameter, match=r"got \(b, a\)$"):
            Line("b", "a", "horizontal", "top")

    def test_build_validates_every_line(self, monkeypatch):
        fields = []
        new = Line.__new__

        def recorded(cls, *args):
            fields.append(args)
            return new(cls, *args)

        monkeypatch.setattr(Line, "__new__", recorded)
        c = build_pillow(4, 3)
        assert sorted(fields) == [tuple(ln) for ln in c.lines]

    def test_replace_keeps_the_record_type(self):
        line = Line(1, 4, "horizontal", "top")._replace(kind="vertical")
        assert type(line) is Line
        assert (line.pair, line.kind, line.side) == ((1, 4), "vertical", "top")


class TestRecordShape:
    """A PillowConfig holds tuples of hashable vertices, of lines of 4
    hashable fields with u < v and of triangles of 7 hashable fields:
    construction and _replace refuse any other field or record, so no
    operation is given one."""

    C = build_pillow(2, 2)
    MAKE = pytest.mark.parametrize("make", [
        lambda c, fields: c._replace(**fields),
        lambda c, fields: PillowConfig(**{**c._asdict(), **fields}),
        lambda c, fields: PillowConfig._make({**c._asdict(), **fields}.values()),
    ], ids=["_replace", "PillowConfig", "_make"])

    @pytest.mark.parametrize("field,record,message", [
        ("lines", (5,),
         r"a line must be 4 hashable fields \(u, v, kind, side\) with u < v, got \(5,\)$"),
        ("lines", 5, "a line must be .*, got 5$"),
        ("lines", (3, 3, "x", "y"), r"a line must be .*, got \(3, 3, 'x', 'y'\)$"),
        ("lines", (C.lines[1].v, C.lines[1].u, "x", "y"), "a line must be "),
        ("lines", ("p", 1, "x", "y"), "a line must be "),
        # lists compare, so only the hash refuses these two
        ("lines", ([1], [2], "x", "y"), r"a line must be .*, got \(\[1\], \[2\], 'x', 'y'\)$"),
        ("lines", (1, 99, [], "y"), r"a line must be .*, got \(1, 99, \[\], 'y'\)$"),
        ("triangles", (1, 2), r"a triangle must be 7 hashable fields, got \(1, 2\)$"),
        ("triangles", tuple.__new__(Triangle, (1, 2, "top", 9, 9, "lower")),
         r"a triangle must be 7 hashable fields, got \(1, 2, 'top', 9, 9, 'lower'\)$"),
        ("triangles", C.triangles[0]._replace(half=[]),
         r"a triangle must be 7 hashable fields, got \(2, 8, 9, 'top', 1, 1, \[\]\)$"),
    ], ids=["short line", "line with no length", "loop", "line with u > v",
            "endpoints that do not compare", "unhashable labels", "unhashable kind",
            "short triangle", "6-field triangle", "unhashable triangle"])
    @MAKE
    def test_record_of_the_wrong_shape_is_refused(self, make, field, record, message):
        c = self.C
        with pytest.raises(InvalidParameter, match=message):
            make(c, {field: getattr(c, field) + (record,)})

    @pytest.mark.parametrize("field,value,message", [
        ("lines", 5, "the lines must be a tuple, got <class 'int'>$"),
        ("triangles", None, "the triangles must be a tuple, got <class 'NoneType'>$"),
        ("vertices", 5, "the vertices must be a tuple, got <class 'int'>$"),
        ("vertices", None, "the vertices must be a tuple, got <class 'NoneType'>$"),
        ("vertices", C.vertices + ([1],), r"a vertex must be hashable, got \[1\]$"),
        # shown by its type, however long the list
        ("lines", list(C.lines), "the lines must be a tuple, got <class 'list'>$"),
    ], ids=["lines an int", "triangles None", "vertices an int", "vertices None",
            "a list vertex", "lines a list"])
    @MAKE
    def test_field_that_is_no_tuple_of_records_is_refused(self, make, field, value, message):
        # each field holds a tuple, and each vertex is hashable, as every
        # verifier and export reads them
        with pytest.raises(InvalidParameter, match=message):
            make(self.C, {field: value})


class TestGridPositions:
    """``triangles_at_grid_positions`` counts the triangles whose labels are
    not the ones ``build_pillow`` places at their (side, row, col, half)."""

    C = build_pillow(3, 2)

    @staticmethod
    def check(c):
        return verify_configuration(c)["triangles_at_grid_positions"]

    @pytest.mark.parametrize("a", range(2, 13))
    def test_every_built_pillow_reads_zero(self, a):
        for b in range(2, 13):
            check = self.check(build_pillow(a, b))
            assert (check.lhs, check.rhs, check.passed) == (0, 0, True), (a, b)

    def test_swapped_labels_read_eight(self):
        # the interior labels 11 and 12 swapped: a sphere with the pillow's
        # census, on which each triangle at 11 or 12 is misplaced
        swapped = relabelled(relabelled(relabelled(self.C, 11, 0), 12, 11), 0, 12)
        assert verify_sphere_triangulation(swapped).all_passed
        assert self.check(swapped).lhs == 8

    @pytest.mark.parametrize("position,fields", [
        # the last row's triangle at row 0, which must not wrap around to it
        (("top", 2, 1, "lower"), {"row": 0}),
        (("top", 1, 1, "lower"), {"row": 3}),
        # the last column's triangle at column 0
        (("bottom", 1, 3, "upper"), {"col": 0}),
        (("top", 1, 1, "lower"), {"col": "x"}),
        (("top", 1, 1, "lower"), {"side": "left"}),
        (("bottom", 2, 2, "upper"), {"half": None}),
    ], ids=["row 0", "row b + 1", "col 0", "col x", "side left", "half None"])
    def test_a_position_off_the_grid_counts_once(self, position, fields):
        triangles = list(self.C.triangles)
        k = [t[3:] for t in triangles].index(position)
        triangles[k] = triangles[k]._replace(**fields)
        check = self.check(self.C._replace(triangles=tuple(triangles)))
        assert (check.lhs, check.passed) == (1, False)

    def test_the_check_reads_the_build_helper(self, monkeypatch):
        # the helper patched after the build: each top cell's halves trade
        # corners, so the check misplaces exactly the 12 top triangles
        c = self.C
        real = pillow._row_triangles

        def halves_swapped(side, i, n, s):
            return [t._replace(half="upper" if t.half == "lower" else "lower")
                    if side == "top" else t for t in real(side, i, n, s)]

        monkeypatch.setattr(pillow, "_row_triangles", halves_swapped)
        report = verify_configuration(c)
        assert [(ch.name, ch.lhs) for ch in report.failures] == [
            ("triangles_at_grid_positions", 12)]


class TestSizeLimits:
    def test_build_accepts_the_limit(self):
        assert MAX_PILLOW_CELLS == 16384
        c = build_pillow(2, MAX_PILLOW_CELLS // 2)
        assert len(c.lines) == 6 * MAX_PILLOW_CELLS

    @pytest.mark.parametrize("a,b", [(5, 3277), (100000, 100000), (3, 10**20)])
    def test_build_rejects_above_the_limit(self, a, b):
        with pytest.raises(InvalidParameter, match="above the limit"):
            build_pillow(a, b)

    def test_verify_rejects_above_its_limit(self, capsys, monkeypatch):
        # verify checks its largest corner against the cell limit and its
        # box's sum(a) * sum(b) cells against the box limit before it
        # verifies anything, so a stub box shows which boxes get through
        monkeypatch.setattr(degeneration, "verify_box", lambda a_range, b_range: [])
        accepted = [("2", "8192"), ("8192", "2"), ("128", "128"),
                    ("2..256", "2..4"), ("2..4", "2..256")]  # 296,055 cells
        refused = {("2", "8193"): "a*b = 16386, above the limit 16384",
                   ("128", "129"): "a*b = 16512, above the limit 16384",
                   ("2..362", "2..4"): "591318 cells in all, above the box limit 524288",
                   ("2..40", "2..40"): "670761 cells in all, above the box limit 524288"}
        for a, b in [*accepted, *refused]:
            code = main(["verify", "--a", a, "--b", b, "--limit", "10000"])
            err = capsys.readouterr().err
            if (a, b) in refused:
                assert code == 2 and refused[(a, b)] in err, (a, b, err)
            else:
                assert (code, err) == (0, ""), (a, b)

    @pytest.mark.parametrize("a,b", [(64, 64), (2, 2048), (2048, 2)])
    def test_complex_is_flat_records_on_one_object_per_label(self, a, b):
        # traced on Python 3.11.7: 1,089-1,138 B a cell at these shapes,
        # against 1,329-1,449 B with a vertex tuple in each triangle and up
        # to three int objects for each label
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            c = build_pillow(a, b)
            size = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert size < 1250 * a * b, size
        label = c.vertices
        assert all(u is label[u - 1] and v is label[v - 1] for u, v, _, _ in c.lines)
        assert all(p is label[p - 1] and q is label[q - 1] and r is label[r - 1]
                   for p, q, r, _, _, _, _ in c.triangles)

    @pytest.mark.parametrize("a,b", [(64, 64), (2, 2048), (2048, 2)])
    def test_verifiers_peak_little_above_their_complex(self, a, b):
        # traced on Python 3.11.7, as a share of the complex:
        # verify_configuration 1.02-1.26 and verify_pillow 0.97-1.05 with one
        # packed int a line and the grid positions compared as they are made,
        # against 1.61-1.84 and 1.38-1.44 with a list of triangles a line and
        # a second copy of the built triangles
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            c = build_pillow(a, b)
            size = tracemalloc.get_traced_memory()[0] - held
            for verify, bound in ((verify_configuration, 1.4), (verify_pillow, 1.2)):
                peak = traced_peak(lambda: verify(c))
                assert peak < bound * size, (verify.__name__, peak, size)
        finally:
            tracemalloc.stop()


# a = 2 leaves one interior column and b = 2 one middle row
LABELING_BIDEGREES = [(a, b) for a in (2, 3, 5) for b in (2, 3, 5)]


class TestLabeling:
    """The fixed conventions, read from grid_rows at each of
    LABELING_BIDEGREES: clockwise boundary from the top-left corner,
    row-major interiors, rising diagonals on top and falling on bottom."""

    def test_boundary_corners(self):
        for a, b in LABELING_BIDEGREES:
            corners = (1, a + 1, a + b + 1, 2 * a + b + 1)
            for side in ("top", "bottom"):
                rows = grid_rows(a, b, side)
                assert (rows[0][0], rows[0][a], rows[b][a], rows[b][0]) == corners
            assert build_pillow(a, b).corner_ids == corners

    def test_boundary_is_clockwise_consecutive(self):
        for a, b in LABELING_BIDEGREES:
            rows = grid_rows(a, b, "top")
            # top edge left to right, then right edge downward
            assert rows[0] == list(range(1, a + 2))
            assert [row[a] for row in rows] == list(range(a + 1, a + b + 2))
            # bottom edge right to left, then left edge upward ending just below 1
            assert rows[b][::-1] == list(range(a + b + 1, 2 * a + b + 2))
            assert [row[0] for row in rows[:0:-1]] == list(range(2 * a + b + 1, 2 * a + 2 * b + 1))

    def test_interior_label_ranges(self):
        for a, b in LABELING_BIDEGREES:
            top, bottom = (
                {vid for row in grid_rows(a, b, side)[1:b] for vid in row[1:a]}
                for side in ("top", "bottom")
            )
            assert top == set(range(2 * a + 2 * b + 1, a * b + a + b + 2))
            assert bottom == set(range(a * b + a + b + 2, 2 * a * b + 3))

    def test_interior_labels_row_major(self):
        for a, b in LABELING_BIDEGREES:
            for side in ("top", "bottom"):
                rows = grid_rows(a, b, side)
                interior = [vid for row in rows[1:b] for vid in row[1:a]]
                assert interior == list(range(rows[1][1], rows[1][1] + (a - 1) * (b - 1)))

    def test_boundary_shared_between_sides(self):
        for a, b in LABELING_BIDEGREES:
            top, bottom = grid_rows(a, b, "top"), grid_rows(a, b, "bottom")
            for i in range(b + 1):
                for j in range(a + 1):
                    assert (top[i][j] == bottom[i][j]) == (i in (0, b) or j in (0, a))

    def test_diagonal_orientations(self):
        for a, b in LABELING_BIDEGREES:
            c = build_pillow(a, b)
            top, bottom = grid_rows(a, b, "top"), grid_rows(a, b, "bottom")
            cells = [(i, j) for i in range(1, b + 1) for j in range(1, a + 1)]
            rising = {tuple(sorted((top[i][j - 1], top[i - 1][j]))) for i, j in cells}
            falling = {tuple(sorted((bottom[i - 1][j - 1], bottom[i][j]))) for i, j in cells}
            diagonals = {side: {ln.pair for ln in c.lines
                                if ln.kind == "diagonal" and ln.side == side}
                         for side in ("top", "bottom")}
            assert diagonals == {"top": rising, "bottom": falling}

    def test_unknown_side_rejected(self):
        with pytest.raises(InvalidParameter, match="side must be one of"):
            grid_rows(3, 2, "left")

    def test_unknown_side_is_named_by_its_repr(self):
        with pytest.raises(InvalidParameter) as raised:
            grid_rows(3, 2, "left")
        assert str(raised.value) == "side must be one of ('top', 'bottom'), got 'left'"


class TestSphereTriangulation:
    @pytest.mark.parametrize("a,b", [(2, 2), (3, 3), (5, 4), (16, 16), (32, 32)])
    def test_all_checks_pass(self, a, b):
        report = verify_sphere_triangulation(build_pillow(a, b))
        assert report.all_passed, str(report)

    def test_degree_census_5x4(self):
        c = build_pillow(5, 4)
        degrees = c.line_degrees()
        assert sum(1 for d in degrees.values() if d == 3) == 4
        assert sum(1 for d in degrees.values() if d == 6) == 2 * 5 * 4 - 2
        assert sum(degrees.values()) == 2 * len(c.lines)

    def test_deleted_triangle_breaks_closure(self):
        c = build_pillow(2, 2)
        broken = PillowConfig(c.a, c.b, c.vertices, c.lines, c.triangles[:-1])
        report = verify_sphere_triangulation(broken)
        assert not report["line_in_two_triangles"].passed
        assert not report["vertex_link_single_cycle"].passed
        assert not report["euler_characteristic"].passed
        # the remaining faces still hang together
        assert report["face_adjacency_connected"].passed

    def test_pinched_vertex_link_is_two_cycles(self):
        # two label-disjoint copies of (2, 2) sharing only vertex 1: its
        # link is two separate cycles, and no line joins the two copies
        c = build_pillow(2, 2)

        def relabel(v):
            return v if v == 1 else v + len(c.vertices)

        lines = c.lines + tuple(
            Line(relabel(ln.u), relabel(ln.v), ln.kind, ln.side) for ln in c.lines
        )
        triangles = c.triangles + tuple(
            Triangle(*sorted(map(relabel, t.vertices)), t.side, t.row, t.col, t.half)
            for t in c.triangles
        )
        vertices = tuple(sorted({v for ln in lines for v in ln.pair}))
        pinched = PillowConfig(c.a, c.b, vertices, lines, triangles)
        report = verify_sphere_triangulation(pinched)
        assert report["line_in_two_triangles"].lhs == 0
        assert report["vertex_link_single_cycle"].lhs == 1
        assert report["face_adjacency_connected"].lhs == 2

    def test_isolated_vertex_has_no_link(self):
        c = build_pillow(2, 2)
        extra = PillowConfig(c.a, c.b, c.vertices + (11,), c.lines, c.triangles)
        report = verify_sphere_triangulation(extra)
        assert report["vertex_link_single_cycle"].lhs == 1
        assert report["line_in_two_triangles"].passed

    def test_foreign_endpoint_is_reported(self):
        # the line (1, 999) lies on no triangle and adds a line at vertex 1
        c = build_pillow(3, 2)
        c = c._replace(lines=c.lines + (Line(1, 999, "horizontal", "top"),))
        report = verify_sphere_triangulation(c)
        assert {ch.name: (ch.lhs, ch.rhs) for ch in report.failures} == {
            "line_in_two_triangles": (1, 0),
            "euler_characteristic": (1, 2),
            "line_degrees_match_triangle_degrees": (1, 0),
        }

    def test_no_two_triangles_share_two_lines(self):
        c = build_pillow(3, 3)
        tris = [set(edge_pairs(t)) for t in c.triangles]
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                assert len(tris[i] & tris[j]) <= 1

    def test_lines_are_unique_vertex_pairs(self):
        # the build has no guard of its own: 6ab distinct endpoint pairs and
        # 4ab triangles, over the verify box
        for a in range(2, 13):
            for b in range(2, 13):
                c = build_pillow(a, b)
                pairs = [ln.pair for ln in c.lines]
                assert len(pairs) == len(set(pairs)) == 6 * a * b, (a, b)
                assert len(c.triangles) == 4 * a * b, (a, b)
                assert_build_invariants(c)

    @pytest.mark.parametrize("a,b", [(2, 8192), (8192, 2), (128, 128)])
    def test_build_invariants_at_the_cell_limit(self, a, b):
        assert_build_invariants(build_pillow(a, b))

    # SHA-256 of the JSON export at the cell limit, where row and column
    # numbers pass CPython's cached small ints (up to 256) and a or b falls
    # to 2
    @pytest.mark.parametrize("a,b,digest", [
        (128, 128, "585404289cac4f050684273aa664938e963ef74ae05b5e354af3f79b80430cd1"),
        (2, 8192, "a970c7d1babebeff4f8565c79eb5cdf6fd5ba0f087fe8e13f9b740648d43ee60"),
        (8192, 2, "795ee20e9656d8b1a36b3f47e69a609f091555f5707f3da2418bbb3009268ccd"),
    ])
    def test_build_bytes_pinned_at_the_cell_limit(self, a, b, digest):
        assert sha256("".join(config_json_pieces(build_pillow(a, b)))) == digest

    def test_sides_share_exactly_the_boundary(self):
        c = build_pillow(3, 2)
        boundary = set(range(1, 2 * c.a + 2 * c.b + 1))
        for ln in c.lines:
            assert (ln.side == "shared") == (ln.kind == "boundary")
            if ln.side == "shared":
                assert {ln.u, ln.v} <= boundary
        top_verts = {v for ln in c.lines if ln.side == "top" for v in (ln.u, ln.v)}
        bottom_verts = {v for ln in c.lines if ln.side == "bottom" for v in (ln.u, ln.v)}
        assert top_verts & bottom_verts <= boundary


class TestDisjointPairs:
    def test_g9_frozen(self):
        c = build_pillow(2, 2)
        assert reference_count(c.lines) == 174
        assert disjoint_pairs_via_degrees(c) == 174
        assert formula_disjoint_pairs(9) == 174

    def test_g13_frozen(self):
        assert reference_count(build_pillow(2, 3).lines) == 468
        assert formula_disjoint_pairs(13) == 468

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 3)])
    def test_three_routes_agree(self, a, b):
        # the degree route and the closed form, against the reference
        c = build_pillow(a, b)
        brute = reference_count(c.lines)
        assert brute == formula_disjoint_pairs(c.g)
        assert brute == disjoint_pairs_via_degrees(c)

    def test_degree_route_counts_repeated_pairs(self):
        c = build_pillow(2, 2)
        line = c.lines[0]
        # the same line twice meets itself at both ends: C(2, 2) - 2 C(2, 2)
        # would give -1 without the C(m, 2) term of the repeated pair
        doubled = PillowConfig(c.a, c.b, c.vertices, (line, line), c.triangles)
        assert disjoint_pairs_via_degrees(doubled) == reference_count(doubled.lines) == 0
        # the corner line 1-2 tripled in the pillow: 174 plus the pairs of
        # its two copies with the 16 lines that miss both of its ends
        tripled = c._replace(lines=c.lines + (line, line))
        assert disjoint_pairs_via_degrees(tripled) == reference_count(tripled.lines) == 206
        # the lines reversed: no pair repeats, though the pairs fall
        reversed_ = c._replace(lines=c.lines[::-1])
        assert disjoint_pairs_via_degrees(reversed_) == reference_count(reversed_.lines) == 174
        # a copy of a middle line at the end, not next to its twin: 174 plus
        # the 16 lines that miss both of its ends
        copied = c._replace(lines=c.lines + (c.lines[9],))
        assert disjoint_pairs_via_degrees(copied) == reference_count(copied.lines) == 190
        # int and str labels do not compare, so the repeated str line is
        # found without the order: 174 plus each copy against the 24 lines
        mixed = c._replace(lines=c.lines + (Line("p", "q", "horizontal", "top"),) * 2)
        assert disjoint_pairs_via_degrees(mixed) == reference_count(mixed.lines) == 222

    def test_degree_route_holds_no_pair_per_line(self):
        # on strictly increasing endpoint pairs the route holds the degree
        # count and no more: no dict keyed by the E pairs
        c = build_pillow(32, 32)
        degrees = traced_peak(c.line_degrees)
        assert traced_peak(lambda: disjoint_pairs_via_degrees(c)) <= degrees + 32 * 1024

    @pytest.mark.parametrize("operation", [
        verify_pillow, verify_configuration, disjoint_pairs_via_degrees, build_table,
        dot_line_pieces,
    ])
    def test_foreign_endpoint_is_malformed(self, operation):
        # the degree route counts the endpoint 999 as it stands, and agrees
        # with the reference count, so verify_pillow reports the complex;
        # dot_line_pieces renders the line and its edges at vertex 1; the
        # table sees the line as a degree outside {3, 6}, which
        # verify_configuration reports in place of conservation
        c = build_pillow(3, 2)
        c = c._replace(lines=c.lines + (Line(1, 999, "horizontal", "top"),))
        if operation is disjoint_pairs_via_degrees:
            assert c.line_degrees()[999] == 1
            assert operation(c) == reference_count(c.lines) == 501
            return
        if operation is verify_pillow:
            report = operation(c)
            assert {ch.name: (ch.lhs, ch.rhs) for ch in report.failures} == {
                "line_in_two_triangles": (1, 0),
                "euler_characteristic": (1, 2),
                "line_degrees_match_triangle_degrees": (1, 0),
                "disjoint_pairs_degree_method_vs_formula": (501, 468),
            }
            return
        if operation is dot_line_pieces:
            text = joined(operation, c)
            assert text.count('\n  "L1_999";') == 1
            # vertex 1 is on the three lines of its corner and on 1-999
            at_one = [f'"L1_{v}"' for v in (2, 10, 13)]
            assert [ln for ln in text.splitlines() if '"L1_999"' in ln and "--" in ln] == [
                f"  {name} -- \"L1_999\";" for name in at_one
            ]
            assert text.count(" -- ") == joined(operation, build_pillow(3, 2)).count(" -- ") + 3
            return
        message = "vertices with line-degree outside {3, 6}: [(1, 4), (999, 1)]"
        if operation is verify_configuration:
            report = operation(c)
            assert {ch.name: (ch.lhs, ch.rhs) for ch in report.failures} == {
                "line_in_two_triangles": (1, 0),
                "euler_characteristic": (1, 2),
                "line_degrees_match_triangle_degrees": (1, 0),
                "disjoint_pairs_degree_method_vs_formula": (501, 468),
                "quadric_line_count": (25, 24),
                "line_degrees_in_local_models": (message, None),
            }
            return
        with pytest.raises(MalformedComplex) as raised:
            operation(c)
        assert str(raised.value) == message

    def test_verify_pillow_adds_pair_checks_to_sphere_checks(self):
        c = build_pillow(2, 3)
        report = verify_pillow(c)
        sphere = [ch.name for ch in verify_sphere_triangulation(c).checks]
        assert [ch.name for ch in report.checks] == sphere + [
            "disjoint_pairs_degree_method_vs_formula",
        ]
        assert report["disjoint_pairs_degree_method_vs_formula"].lhs == 468
        assert report.all_passed, str(report)

    def test_formula_rejects_bad_g(self):
        with pytest.raises(InvalidParameter):
            formula_disjoint_pairs(8)
        with pytest.raises(InvalidParameter):
            formula_disjoint_pairs(7)

    def test_formula_integral_for_odd_g(self):
        # 9g^2 - 51g + 78 is even for every odd g (indeed for every g)
        for g in range(9, 200, 2):
            assert (9 * g * g - 51 * g + 78) % 2 == 0
            assert formula_disjoint_pairs(g) == (9 * g * g - 51 * g + 78) // 2


class TestSmallStoredBidegree:
    """A bidegree below (2, 2) is no pillow and has no g: the record
    rejects it as build_pillow does, on construction and on _replace, so
    no complex that an operation is given can carry one."""

    @pytest.mark.parametrize("a,b", [(3, 0), (0, 3), (3, 1), (1, 3), (1, 1), (-1, 3)])
    def test_record_rejects_it(self, a, b):
        c = build_pillow(3, 2)
        message = rf"^bidegree parameters must both be >= 2, got \({a}, {b}\)$"
        with pytest.raises(InvalidParameter, match=message):
            PillowConfig(a, b, c.vertices, c.lines, c.triangles)
        with pytest.raises(InvalidParameter, match=message):
            c._replace(a=a, b=b)
        with pytest.raises(InvalidParameter, match=message):
            build_pillow(a, b)


class TestTransposeIsomorphism:
    # every bidegree of the CI's full verify box, which no longer checks it
    @pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 13) for b in range(2, 13)])
    def test_transpose_is_isomorphism(self, a, b):
        c = build_pillow(a, b)
        ct = build_pillow(b, a)
        mapping = transpose_map(a, b)
        assert is_complex_isomorphism(c, ct, mapping)

    @pytest.mark.parametrize("a,b", [(3, 0), (1, 2), (129, 128), (2, 8193),
                                     (1, 3), (0, 0), (-2, 3)])
    def test_transpose_rejects_a_bidegree_below_two(self, a, b):
        # or above the cell limit, before any label is laid out: the one
        # bidegree rule, with the message build_pillow and the record give;
        # grid_rows, which the map reads, gives it for either side
        message = "must both be >= 2" if min(a, b) < 2 else "cells, above the limit"
        with pytest.raises(InvalidParameter, match=message) as raised:
            transpose_map(a, b)
        exact = f"^{re.escape(str(raised.value))}$"
        with pytest.raises(InvalidParameter, match=exact):
            build_pillow(a, b)
        with pytest.raises(InvalidParameter, match=exact):
            build_pillow(2, 2)._replace(a=a, b=b)
        for side in ("top", "bottom", "left"):
            with pytest.raises(InvalidParameter, match=exact):
                grid_rows(a, b, side)

    @pytest.mark.parametrize("a", range(2, 7))
    @pytest.mark.parametrize("b", range(2, 7))
    def test_ill_defined_map_is_no_isomorphism(self, monkeypatch, a, b):
        # grid_rows patched while transpose_map alone runs, so that the
        # bottom side swaps two boundary labels the top side keeps: the two
        # sides give those labels different images, which transpose_map
        # does not check, so is_complex_isomorphism must reject the map
        c, ct = build_pillow(a, b), build_pillow(b, a)

        def swapped(a, b, side):
            rows = grid_rows(a, b, side)
            if side == "bottom":
                rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
            return rows

        with monkeypatch.context() as m:
            m.setattr(pillow, "grid_rows", swapped)
            mapping = transpose_map(a, b)
        assert not is_complex_isomorphism(c, ct, mapping)

    def test_non_isomorphism_detected(self):
        c = build_pillow(2, 3)
        ct = build_pillow(3, 2)
        mapping = transpose_map(c.a, c.b)
        # swap two images; lines no longer map to lines
        mapping[1], mapping[2] = mapping[2], mapping[1]
        assert not is_complex_isomorphism(c, ct, mapping)

    @pytest.mark.parametrize("field", ["lines", "triangles"])
    def test_repeated_record_is_no_isomorphism(self, field):
        # the last line or triangle replaced by a copy of the first: every
        # image is still in (2, 3) and the counts still match, but one
        # record of (2, 3) is hit twice and another never
        c = build_pillow(3, 2)
        records = getattr(c, field)
        repeated = c._replace(**{field: records[:-1] + records[:1]})
        assert not is_complex_isomorphism(repeated, build_pillow(2, 3), transpose_map(3, 2))
        # both sides repeat, different records: equal sets and equal counts
        other = c._replace(**{field: records[:-1] + records[1:2]})
        identity = {v: v for v in c.vertices}
        assert not is_complex_isomorphism(repeated, other, identity)

    def test_proper_subcomplex_rejected(self):
        # lines and triangles still map into (2, 3), but not onto it
        c = build_pillow(3, 2)
        ct = build_pillow(2, 3)
        mapping = transpose_map(c.a, c.b)
        sub = PillowConfig(c.a, c.b, c.vertices, c.lines[:-1], c.triangles[:-1])
        assert is_complex_isomorphism(c, ct, mapping)
        assert not is_complex_isomorphism(sub, ct, mapping)

    def test_vertex_order_does_not_matter(self):
        c = build_pillow(3, 2)
        reversed_c = c._replace(vertices=c.vertices[::-1])
        identity = {v: v for v in c.vertices}
        assert is_complex_isomorphism(reversed_c, c, identity)
        assert is_complex_isomorphism(c, reversed_c, identity)

    def test_label_outside_the_map_rejected(self):
        # vertex 1 renamed 0 in the lines and triangles only: the map,
        # keyed by the vertex list, has no image for 0
        c = build_pillow(3, 2)
        ct = build_pillow(2, 3)
        mapping = transpose_map(c.a, c.b)

        def rename(v):
            return 0 if v == 1 else v

        renamed = c._replace(
            lines=tuple(ln._replace(u=rename(ln.u)) for ln in c.lines),
            triangles=tuple(
                Triangle(*sorted(map(rename, t.vertices)), t.side, t.row, t.col, t.half)
                for t in c.triangles),
        )
        assert not is_complex_isomorphism(renamed, ct, mapping)


class TestExports:
    def test_json_dict_schema_and_order(self):
        c = build_pillow(2, 2)
        doc = config_to_dict(c)
        assert list(doc) == ["a", "b", "g", "vertices", "lines", "triangles"]
        assert doc["vertices"] == sorted(doc["vertices"])
        line_pairs = [(ln["u"], ln["v"]) for ln in doc["lines"]]
        assert line_pairs == sorted(line_pairs)
        assert all(u < v for u, v in line_pairs)
        tri_keys = [
            (t["side"], t["row"], t["col"], t["half"]) for t in doc["triangles"]
        ]
        order = {"top": 0, "bottom": 1}
        half_order = {"lower": 0, "upper": 1}
        sort_keys = [(order[s], r, c_, half_order[h]) for s, r, c_, h in tri_keys]
        assert sort_keys == sorted(sort_keys)
        assert all(set(t) == {"v1", "v2", "v3", "side", "row", "col", "half"}
                   for t in doc["triangles"])

    def test_dot_face_adjacency_counts(self):
        c = build_pillow(3, 3)
        dot = joined(dot_face_pieces, c)
        lines = dot.splitlines()
        nodes = [ln for ln in lines if ln.endswith('";') and " -- " not in ln]
        edges = [ln for ln in lines if " -- " in ln]
        assert len(nodes) == 4 * 3 * 3
        assert len(edges) == 6 * 3 * 3
        assert '"top_r1_c1_lower"' in dot

    @pytest.mark.parametrize("n", [32, 64])
    def test_dot_face_export_holds_less_than_the_line_index(self, n):
        # each triangle is listed at the first endpoints of its pairs, two
        # entries a triangle, where the index holds a pair and an int a line
        c = build_pillow(n, n)
        index = traced_peak(lambda: incidence_index(c))
        assert traced_peak(lambda: all(dot_face_pieces(c))) < index

    def test_dot_line_names_are_held_from_end_to_end(self):
        # the line graph holds no list of every line's name: a vertex's
        # names are rendered only when its edges are written
        c = build_pillow(64, 64)
        names = traced_peak(lambda: [f'"L{u}_{v}"' for u, v, _, _ in c.lines])
        assert traced_peak(lambda: all(dot_line_pieces(c))) < names

    @pytest.mark.parametrize("a,b", [(64, 64), (2, 2048), (2048, 2)])
    def test_exports_peak_below_30_percent_of_their_complex(self, a, b):
        # drained, no export holds a list of the names of all its records:
        # the face graph's names alone are some 23% of the complex
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            c = build_pillow(a, b)
            size = tracemalloc.get_traced_memory()[0] - held
            for pieces in (config_json_pieces, dot_face_pieces, dot_line_pieces):
                peak = traced_peak(lambda: all(pieces(c)))
                assert peak < 0.3 * size, (pieces.__name__, peak, size)
        finally:
            tracemalloc.stop()

    def test_dot_line_intersection_counts(self):
        c = build_pillow(2, 2)
        dot = joined(dot_line_pieces, c)
        lines = dot.splitlines()
        nodes = [ln for ln in lines if ln.endswith('";') and " -- " not in ln]
        edges = [ln for ln in lines if " -- " in ln]
        assert len(nodes) == 24
        # meeting pairs: sum of C(deg, 2) = 4*C(3,2) + 6*C(6,2)
        assert len(edges) == 4 * 3 + 6 * 15

    def test_exports_deterministic(self):
        d1 = joined(dot_face_pieces, build_pillow(2, 3))
        d2 = joined(dot_face_pieces, build_pillow(2, 3))
        assert d1 == d2
        j1 = config_to_dict(build_pillow(2, 3))
        j2 = config_to_dict(build_pillow(2, 3))
        assert j1 == j2

    @pytest.mark.parametrize(
        "a,b", [(a, b) for a in range(2, 9) for b in range(2, 9)] + [(2, 64), (64, 2)]
    )
    def test_config_to_json_is_json_dumps(self, a, b):
        c = build_pillow(a, b)
        assert joined(config_json_pieces, c) == reference_json(c)

    def test_config_to_json_on_hand_built_configs(self):
        c = build_pillow(2, 2)
        odd = Line(c.lines[0].u, c.lines[0].v, 'bo"und\\ary\n', "g\u00e9n\u00e9ral")
        escaped = c._replace(lines=(odd,) + c.lines[1:])
        empty = c._replace(vertices=(), lines=(), triangles=())
        for config in (escaped, empty):
            assert joined(config_json_pieces, config) == reference_json(config)

    @pytest.mark.parametrize("labels", [
        ("p1", 'q"u\\o\n', "\u00e9"), (False, True, False), (None, None, None),
    ], ids=["str", "bool", "None"])
    def test_config_to_json_writes_labels_of_other_types_as_json(self, labels):
        # a vertex, a line (where the labels order) and a triangle whose
        # vertices, row and col are of the type; the rest of (2, 2) as built
        c = build_pillow(2, 2)
        p, q, r = labels
        lines = (Line(p, q, "x", "y"),) if p is not None else ()
        triangle = Triangle(p, q, r, "top", q, r, "upper")
        odd = c._replace(vertices=c.vertices + labels, lines=c.lines + lines,
                         triangles=(triangle,) + c.triangles)
        text = joined(config_json_pieces, odd)
        assert text == reference_json(odd)
        assert json.loads(text)["triangles"][0] == dict(zip(
            ("v1", "v2", "v3", "side", "row", "col", "half"), triangle))

    def test_config_to_json_keeps_equal_fields_of_two_types_apart(self):
        # 1 and True are equal, and so are a dict's keys for them
        c = build_pillow(2, 2)
        odd = c._replace(lines=c.lines + (Line(1, 2, 1, "y"), Line(1, 3, True, "y")))
        assert joined(config_json_pieces, odd) == reference_json(odd)

    @pytest.mark.parametrize("label,above,shown", [
        (1.5, 2.5, "a float field 1.5"),
        ((1, 2), (1, 3), "a tuple field (1, 2)"),
        (re.RegexFlag.I, 99, "a RegexFlag field re.IGNORECASE"),
        (frozenset({1}), frozenset({1, 2}), "a frozenset field frozenset({1})"),
    ], ids=["float", "tuple", "int-subclass", "frozenset"])
    @pytest.mark.parametrize("where", ["vertex", "line", "row", "kind"])
    def test_config_to_json_refuses_fields_it_cannot_write(self, label, above, shown, where):
        c = build_pillow(2, 2)
        odd = {
            "vertex": lambda: c._replace(vertices=c.vertices + (label,)),
            "line": lambda: c._replace(lines=c.lines + (Line(label, above, "x", "y"),)),
            "row": lambda: c._replace(triangles=c.triangles + (c.triangles[0]._replace(row=label),)),
            "kind": lambda: c._replace(lines=c.lines + (Line(1, 2, label, "y"),)),
        }[where]()
        pieces = config_json_pieces(odd)  # nothing is rendered before the pieces are drawn
        with pytest.raises(InvalidParameter) as raised:
            "".join(pieces)
        assert str(raised.value) == f"a record the export cannot render: {shown}"

    @pytest.mark.parametrize("a,b", [(4, 3), (2, 64), (64, 2), (16, 16)])
    def test_pieces_join_to_the_text_and_are_cut_by_length(self, a, b):
        c = build_pillow(a, b)
        for pieces, mode in ((config_json_pieces, "json"), (dot_face_pieces, "faces"),
                             (dot_line_pieces, "lines")):
            parts = list(pieces(c))
            text = "".join(parts)
            assert sha256(text) == EXPORT_DIGESTS[(a, b), mode]
            if mode == "json":
                assert text == reference_json(c)
            # every piece but the last reaches PIECE_CHARS, and each passes
            # it by less than one record (under 256 characters here)
            assert all(len(p) >= PIECE_CHARS for p in parts[:-1])
            assert 0 < len(parts[-1]) and max(map(len, parts)) < PIECE_CHARS + 256

    def test_no_path_orders_lines(self, monkeypatch):
        def forbidden(self, other):
            raise AssertionError("a Line comparison ran")

        monkeypatch.setattr(Line, "__lt__", forbidden)
        monkeypatch.setattr(Line, "__gt__", forbidden)
        c = build_pillow(8, 8)
        assert joined(config_json_pieces, c).count('"kind"') == 6 * 64
        assert joined(dot_face_pieces, c).count(" -- ") == 6 * 64
        assert joined(dot_line_pieces, c).count(" -- ") == 4 * 3 + (2 * 64 - 2) * 15
        assert verify_pillow(c).all_passed
