"""Intermediate degeneration stages and the gcd bookkeeping."""

import pytest

from pillowdeg import (
    InvalidParameter,
    Line,
    MalformedComplex,
    build_pillow,
    cuple_reduction,
    quadric_stage,
    two_surface_stage,
    verify_stages,
)


class TestQuadricStage:
    def test_2x2_counts(self):
        stage = quadric_stage(build_pillow(2, 2))
        assert stage.stage == "quadrics"
        assert len(stage.cells) == 8
        assert len(stage.lines) == 16

    def test_3x2_counts(self):
        stage = quadric_stage(build_pillow(3, 2))
        assert len(stage.cells) == 12
        # removing the 2ab = 12 diagonals from the 6ab = 36 lines leaves 24
        assert len(stage.lines) == 24

    def test_no_diagonals(self):
        stage = quadric_stage(build_pillow(3, 3))
        assert all(ln.kind != "diagonal" for ln in stage.lines)

    def test_line_set_is_pillow_minus_diagonals(self):
        a, b = 4, 2
        c = build_pillow(a, b)
        stage = quadric_stage(c)
        expected = {ln.pair for ln in c.lines if ln.kind != "diagonal"}
        assert {ln.pair for ln in stage.lines} == expected
        assert len(c.lines) - len(stage.lines) == 2 * a * b

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (3, 3)])
    def test_each_face_bounded_by_four_cycle(self, a, b):
        stage = quadric_stage(build_pillow(a, b))
        for face in stage.cells:
            assert len(set(face.boundary)) == 4
            assert len(set(face.corners)) == 4
            nw, ne, se, sw = face.corners
            # boundary really is the 4-cycle through the corners
            cycle_pairs = {
                tuple(sorted(p)) for p in ((nw, ne), (ne, se), (se, sw), (sw, nw))
            }
            assert {ln.pair for ln in face.boundary} == cycle_pairs

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3)])
    def test_every_line_shared_by_exactly_two_faces(self, a, b):
        stage = quadric_stage(build_pillow(a, b))
        counts = {}
        for face in stage.cells:
            for ln in face.boundary:
                counts[ln.pair] = counts.get(ln.pair, 0) + 1
        assert set(counts.values()) == {2}
        assert len(counts) == len(stage.lines)


def spans(stage):
    """(top, bottom, intersection) span dimensions of the two-surfaces
    stage: each is a count of coordinate points less one."""
    top, bottom = (set(face.vertices) for face in stage.cells)
    return (len(top) - 1, len(bottom) - 1, len(top & bottom) - 1)


class TestTwoSurfaceStage:
    def test_2x2_spans(self):
        stage = two_surface_stage(build_pillow(2, 2))
        assert stage.stage == "two_surfaces"
        assert len(stage.cells) == 2
        assert spans(stage) == (8, 8, 7)

    def test_4x3_spans(self):
        assert spans(two_surface_stage(build_pillow(4, 3))) == (19, 19, 13)

    def test_boundary_cycle_length(self):
        stage = two_surface_stage(build_pillow(3, 2))
        assert len(stage.lines) == 2 * 3 + 2 * 2
        assert all(ln.kind == "boundary" for ln in stage.lines)

    @pytest.mark.parametrize("a", range(2, 7))
    @pytest.mark.parametrize("b", range(2, 7))
    def test_point_inclusion_exclusion(self, a, b):
        stage = two_surface_stage(build_pillow(a, b))
        top, bottom = stage.cells
        shared = set(top.vertices) & set(bottom.vertices)
        assert len(shared) == 2 * a + 2 * b
        assert len(top.vertices) + len(bottom.vertices) - len(shared) == 2 * a * b + 2

    def test_span_formulas(self):
        for a in range(2, 7):
            for b in range(2, 7):
                assert spans(two_surface_stage(build_pillow(a, b))) == (
                    a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1)


class TestVerifyStages:
    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (4, 5)])
    def test_all_contracts_hold(self, a, b):
        report = verify_stages(build_pillow(a, b))
        assert [ch.name for ch in report.checks] == [
            "quadric_face_count",
            "quadric_line_count",
            "quadric_lines_shared_by_two_faces",
            "two_surface_spans",
            "two_surface_point_inclusion_exclusion",
        ]
        assert report.all_passed, str(report)
        assert report["two_surface_spans"].lhs == (a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1)

    def test_stages_share_the_given_pillow(self):
        c = build_pillow(3, 2)
        assert set(quadric_stage(c).lines) <= set(c.lines)
        assert set(two_surface_stage(c).lines) <= set(c.lines)

    def test_two_surface_checks_read_the_triangles(self):
        # the spans and the point count come from the triangles on each
        # side: a side without triangles fails both, while a relabelled
        # side still covers every vertex and fails the spans alone
        c = build_pillow(3, 2)
        no_top = c._replace(triangles=tuple(t for t in c.triangles if t.side != "top"))
        all_bottom = c._replace(triangles=tuple(t._replace(side="bottom") for t in c.triangles))
        for mutant, lhs, points, covered in ((no_top, (-1, 11, -1), 12, False),
                                             (all_bottom, (-1, 13, -1), 14, True)):
            report = verify_stages(mutant)
            assert report["two_surface_spans"].lhs == lhs
            check = report["two_surface_point_inclusion_exclusion"]
            assert (check.lhs, check.rhs) == (points, 14)
            assert not report["two_surface_spans"].passed
            assert check.passed is covered

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
        c = build_pillow(3, 2)
        c = c._replace(lines=tuple(ln for ln in c.lines if ln.kind != "horizontal"))
        with pytest.raises(MalformedComplex, match=r"lacks the line \(10, 11\)"):
            verify_stages(c)

    def test_wrong_line_count_reported_not_raised(self):
        c = build_pillow(3, 2)
        c = c._replace(lines=c.lines + (Line(1, 999, "horizontal", "top"),))
        report = verify_stages(c)
        assert [ch.name for ch in report.failures] == ["quadric_line_count"]
        assert (report["quadric_line_count"].lhs, report["quadric_line_count"].rhs) == (25, 24)
        assert report["quadric_face_count"].passed


class TestCupleReduction:
    @pytest.mark.parametrize("a,b,c,reduced", [
        (2, 2, 2, (1, 1)),
        (2, 3, 1, (2, 3)),
        (4, 6, 2, (2, 3)),
        (6, 9, 3, (2, 3)),
        (5, 7, 1, (5, 7)),
    ])
    def test_gcd_bookkeeping(self, a, b, c, reduced):
        rec = cuple_reduction(a, b)
        assert rec.c == c
        assert rec.reduced == reduced

    def test_coprime_keeps_input(self):
        rec = cuple_reduction(3, 4)
        assert rec.c == 1
        assert rec.reduced == (3, 4)

    def test_rejects_small_parameters(self):
        with pytest.raises(InvalidParameter):
            cuple_reduction(1, 5)
