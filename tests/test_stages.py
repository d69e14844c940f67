"""Intermediate degeneration stages: groupings of the pillow's triangles,
checked by verify_stages."""

from collections import Counter, defaultdict

import pytest
from reference import edge_pairs

from pillowdeg import Line, build_pillow, grid_rows, verify_stages


def quadrics(c):
    """The triangles of ``c`` grouped by (side, row, col), the cells."""
    groups = defaultdict(list)
    for tri in c.triangles:
        groups[(tri.side, tri.row, tri.col)].append(tri)
    return groups


def boundary(triangles):
    """The endpoint pairs on exactly one of ``triangles``."""
    on = Counter(pair for tri in triangles for pair in edge_pairs(tri))
    return {pair for pair, n in on.items() if n == 1}


def surfaces(c):
    """The vertex sets of the triangles on each side."""
    return tuple({v for tri in c.triangles if tri.side == side for v in tri.vertices}
                 for side in ("top", "bottom"))


class TestQuadricStage:
    def test_2x2_counts(self):
        report = verify_stages(build_pillow(2, 2))
        assert report["quadric_face_count"].lhs == 8
        assert report["quadric_line_count"].lhs == 16

    def test_3x2_counts(self):
        report = verify_stages(build_pillow(3, 2))
        assert report["quadric_face_count"].lhs == 12
        # removing the 2ab = 12 diagonals from the 6ab = 36 lines leaves 24
        assert report["quadric_line_count"].lhs == 24

    def test_no_diagonals(self):
        # the one line inside each quadric, on both its triangles, is its diagonal
        c = build_pillow(3, 3)
        kind = {ln.pair: ln.kind for ln in c.lines}
        for tris in quadrics(c).values():
            inner = set(edge_pairs(tris[0])) & set(edge_pairs(tris[1]))
            assert [kind[pair] for pair in inner] == ["diagonal"]
            assert all(kind[pair] != "diagonal" for pair in boundary(tris))

    def test_line_set_is_pillow_minus_diagonals(self):
        a, b = 4, 2
        c = build_pillow(a, b)
        quadric_lines = set().union(*map(boundary, quadrics(c).values()))
        expected = {ln.pair for ln in c.lines if ln.kind != "diagonal"}
        assert quadric_lines == expected
        assert len(c.lines) - len(quadric_lines) == 2 * a * b

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (3, 3)])
    def test_each_face_bounded_by_four_cycle(self, a, b):
        groups = quadrics(build_pillow(a, b))
        assert len(groups) == 2 * a * b
        for (side, i, j), tris in groups.items():
            assert len(tris) == 2
            rows = grid_rows(a, b, side)
            nw, ne = rows[i - 1][j - 1], rows[i - 1][j]
            sw, se = rows[i][j - 1], rows[i][j]
            assert len({nw, ne, se, sw}) == 4
            # the boundary really is the 4-cycle through the cell's corners
            cycle = {tuple(sorted(p)) for p in ((nw, ne), (ne, se), (se, sw), (sw, nw))}
            assert boundary(tris) == cycle

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3)])
    def test_every_line_shared_by_exactly_two_faces(self, a, b):
        c = build_pillow(a, b)
        counts = Counter(pair for tris in quadrics(c).values() for pair in boundary(tris))
        assert set(counts.values()) == {2}
        assert len(counts) == verify_stages(c)["quadric_line_count"].lhs == 4 * a * b


def spans(c):
    """(top, bottom, intersection) span dimensions as verify_stages reports them."""
    return verify_stages(c)["two_surface_spans"].lhs


class TestTwoSurfaceStage:
    def test_2x2_spans(self):
        assert spans(build_pillow(2, 2)) == (8, 8, 7)

    def test_4x3_spans(self):
        assert spans(build_pillow(4, 3)) == (19, 19, 13)

    def test_boundary_cycle_length(self):
        # the lines on a triangle of each side are the boundary cycle
        c = build_pillow(3, 2)
        top, bottom = ({pair for tri in c.triangles if tri.side == side
                        for pair in edge_pairs(tri)} for side in ("top", "bottom"))
        shared = [ln for ln in c.lines if ln.pair in top & bottom]
        assert len(shared) == 2 * 3 + 2 * 2
        assert all(ln.kind == "boundary" for ln in shared)

    @pytest.mark.parametrize("a", range(2, 7))
    @pytest.mark.parametrize("b", range(2, 7))
    def test_point_inclusion_exclusion(self, a, b):
        c = build_pillow(a, b)
        top, bottom = surfaces(c)
        shared = top & bottom
        assert len(shared) == 2 * a + 2 * b
        assert len(top) + len(bottom) - len(shared) == 2 * a * b + 2
        check = verify_stages(c)["two_surface_point_inclusion_exclusion"]
        assert (check.lhs, check.rhs) == (2 * a * b + 2, 2 * a * b + 2)

    def test_span_formulas(self):
        for a in range(2, 7):
            for b in range(2, 7):
                assert spans(build_pillow(a, b)) == (
                    a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1)


class TestVerifyStages:
    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (4, 5)])
    def test_all_contracts_hold(self, a, b):
        report = verify_stages(build_pillow(a, b))
        assert [ch.name for ch in report.checks] == [
            "quadric_face_count",
            "quadric_line_count",
            "two_surface_spans",
            "two_surface_point_inclusion_exclusion",
        ]
        assert report.all_passed, str(report)
        assert report["two_surface_spans"].lhs == (a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1)

    def test_stages_share_the_given_pillow(self):
        # each stage groups the triangles of c itself: the quadrics cover
        # every triangle once, and their lines are lines of c
        c = build_pillow(3, 2)
        groups = quadrics(c)
        assert sum(map(len, groups.values())) == len(c.triangles)
        assert set().union(*map(boundary, groups.values())) <= {ln.pair for ln in c.lines}
        assert set().union(*surfaces(c)) == set(c.vertices)

    def test_two_surface_checks_read_the_triangles(self):
        # every check reads the triangles: a side without triangles fails
        # all four, while a relabelled side still covers every vertex
        c = build_pillow(3, 2)
        no_top = c._replace(triangles=tuple(t for t in c.triangles if t.side != "top"))
        all_bottom = c._replace(triangles=tuple(t._replace(side="bottom") for t in c.triangles))
        for mutant, expected in (
            (no_top, {"quadric_face_count": (6, 12), "quadric_line_count": (30, 24),
                      "two_surface_spans": ((-1, 11, -1), (11, 11, 9)),
                      "two_surface_point_inclusion_exclusion": (12, 14)}),
            (all_bottom, {"quadric_face_count": (6, 12), "quadric_line_count": (14, 24),
                          "two_surface_spans": ((-1, 13, -1), (11, 11, 9))}),
        ):
            report = verify_stages(mutant)
            assert {ch.name: (ch.lhs, ch.rhs) for ch in report.failures} == expected
        check = verify_stages(all_bottom)["two_surface_point_inclusion_exclusion"]
        assert (check.lhs, check.rhs) == (14, 14)

    def test_isolated_vertex_fails_the_point_count_alone(self):
        # a vertex on no triangle lies on neither surface; the spans read
        # the triangles only, so the point count is the one check to see it
        c = build_pillow(3, 2)
        c = c._replace(vertices=c.vertices + (15,))
        report = verify_stages(c)
        assert [ch.name for ch in report.failures] == ["two_surface_point_inclusion_exclusion"]
        check = report["two_surface_point_inclusion_exclusion"]
        assert (check.lhs, check.rhs) == (14, 15)

    def test_missing_grid_line_is_malformed(self):
        # without its horizontals the complex is malformed, and that is
        # reported, not raised: 6 of the 24 quadric lines are gone
        c = build_pillow(3, 2)
        c = c._replace(lines=tuple(ln for ln in c.lines if ln.kind != "horizontal"))
        report = verify_stages(c)
        assert [ch.name for ch in report.failures] == ["quadric_line_count"]
        assert (report["quadric_line_count"].lhs, report["quadric_line_count"].rhs) == (18, 24)

    def test_wrong_line_count_reported_not_raised(self):
        # a line on no triangle is a quadric line in no quadric
        c = build_pillow(3, 2)
        c = c._replace(lines=c.lines + (Line(1, 999, "horizontal", "top"),))
        report = verify_stages(c)
        assert [ch.name for ch in report.failures] == ["quadric_line_count"]
        assert (report["quadric_line_count"].lhs, report["quadric_line_count"].rhs) == (25, 24)
        assert report["quadric_face_count"].passed

    def test_shared_lines_count_quadrics_not_triangles(self):
        # a doubled triangle puts its cell's diagonal on three triangles of
        # one quadric, so it counts as a quadric line, though it lies in one
        # quadric; its two other lines were quadric lines already
        c = build_pillow(3, 2)
        c = c._replace(triangles=c.triangles + (c.triangles[0],))
        report = verify_stages(c)
        assert {ch.name: (ch.lhs, ch.rhs) for ch in report.failures} == {
            "quadric_line_count": (25, 24)}
