"""Singularity budgets, the distribution table, and conservation."""

import pytest

from pillowdeg import pillow
from pillowdeg import (
    Check,
    Report,
    DegenerationTable,
    InvalidParameter,
    Line,
    MalformedComplex,
    PillowConfig,
    TableRow,
    TableTotals,
    branch_characters,
    build_pillow,
    build_table,
    del_pezzo,
    del_pezzo_characters,
    formula_disjoint_pairs,
    k3,
    npoint_budget,
    render_table,
    table_to_dict,
    verify_configuration,
    verify_conservation,
)


class TestNPointBudget:
    @pytest.mark.parametrize("n,expected", [
        (2, (0, 4, 0)),
        (3, (9, 0, 6)),
        (4, (8, 4, 12)),
        (5, (7, 12, 18)),
        (6, (6, 24, 24)),
    ])
    def test_budgets(self, n, expected):
        budget = npoint_budget(n)
        assert (budget.branch_points, budget.nodes, budget.cusps) == expected

    @pytest.mark.parametrize("n", [0, 1, 7, -3])
    def test_out_of_domain(self, n):
        with pytest.raises(InvalidParameter):
            npoint_budget(n)

    def test_branch_points_plus_n_is_twelve(self):
        # the other n branch points escape to one on each line
        for n in range(3, 7):
            assert npoint_budget(n).branch_points + n == 12


class TestLocalDelPezzo:
    """The local model at an n-point is the degree-n Del Pezzo surface."""

    @pytest.mark.parametrize("n,expected", [
        (3, (6, 0, 6, 12)),
        (4, (8, 4, 12, 12)),
        (5, (10, 12, 18, 12)),
        (6, (12, 24, 24, 12)),
    ])
    def test_characters(self, n, expected):
        c = del_pezzo_characters(n)
        assert (c.degree, c.nodes, c.cusps, c.turning_points) == expected

    def test_matches_global_del_pezzo(self):
        for n in range(3, 7):
            assert del_pezzo_characters(n) == branch_characters(del_pezzo(n))

    def test_budget_matches_local_characters(self):
        # all nodes and cusps of the local model collapse to the n-point
        for n in range(3, 7):
            budget = npoint_budget(n)
            local = del_pezzo_characters(n)
            assert budget.nodes == local.nodes
            assert budget.cusps == local.cusps


class TestBuildTable:
    def test_g9_rows_and_totals(self):
        table = build_table(build_pillow(2, 2))
        assert table.g == 9
        by_type = {r.object_type: r for r in table.rows}
        assert (by_type["lines"].count, by_type["lines"].branch_points,
                by_type["lines"].nodes, by_type["lines"].cusps) == (24, 0, 0, 0)
        assert (by_type["three_points"].count, by_type["three_points"].branch_points,
                by_type["three_points"].nodes, by_type["three_points"].cusps) == (4, 9, 0, 6)
        assert (by_type["six_points"].count, by_type["six_points"].branch_points,
                by_type["six_points"].nodes, by_type["six_points"].cusps) == (6, 6, 24, 24)
        assert (by_type["two_points"].count, by_type["two_points"].branch_points,
                by_type["two_points"].nodes, by_type["two_points"].cusps) == (174, 0, 4, 0)
        assert (table.totals.branch_points, table.totals.nodes, table.totals.cusps) == (
            72, 840, 168,
        )

    def test_g13_totals(self):
        table = build_table(build_pillow(2, 3))
        assert (table.totals.branch_points, table.totals.nodes, table.totals.cusps) == (
            96, 2112, 264,
        )

    @pytest.mark.parametrize("a", range(2, 6))
    @pytest.mark.parametrize("b", range(2, 6))
    def test_totals_match_symbolic_forms(self, a, b):
        table = build_table(build_pillow(a, b))
        g = 2 * a * b + 1
        assert table.totals.branch_points == 6 * g + 18
        assert table.totals.nodes == 18 * g * g - 78 * g + 84
        assert table.totals.cusps == 24 * (g - 2)

    def test_totals_are_computed_from_the_rows(self):
        table = build_table(build_pillow(3, 2))
        assert table._fields == ("g", "rows")
        for rows in (table.rows, table.rows[:2]):
            summed = TableTotals(*map(sum, zip(*(r.weighted() for r in rows))))
            assert table._replace(rows=rows).totals == summed
        assert table._replace(rows=()).totals == TableTotals(0, 0, 0)

    def test_counts_read_from_complex_match_closed_forms(self):
        c = build_pillow(3, 4)
        table = build_table(c)
        g = c.g
        by_type = {r.object_type: r.count for r in table.rows}
        assert by_type["lines"] == 3 * g - 3
        assert by_type["three_points"] == 4
        assert by_type["six_points"] == g - 3
        assert by_type["two_points"] == formula_disjoint_pairs(g)

    def test_line_degrees_counted_once(self, monkeypatch):
        # the census and the 2-point count share one degree count
        calls = []
        count = PillowConfig.line_degrees

        def counted(c):
            calls.append(c)
            return count(c)

        monkeypatch.setattr(PillowConfig, "line_degrees", counted)
        table = build_table(build_pillow(3, 4))
        assert len(calls) == 1
        assert table.row("two_points").count == formula_disjoint_pairs(table.g)

    def test_malformed_complex_rejected(self):
        c = build_pillow(2, 2)
        # dropping a line leaves its endpoints on 2 or 5 lines
        broken = PillowConfig(c.a, c.b, c.vertices, c.lines[:-1], c.triangles)
        with pytest.raises(MalformedComplex):
            build_table(broken)
        # a vertex on no line has line-degree 0
        isolated = c._replace(vertices=c.vertices + (11,))
        assert (11, 0) in isolated.line_degrees().items()
        with pytest.raises(MalformedComplex, match=r"\{3, 6\}: \[\(11, 0\)\]$"):
            build_table(isolated)


class TestConservation:
    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_totals_equal_smooth_characters(self, a, b):
        c = build_pillow(a, b)
        table = build_table(c)
        report = verify_conservation(table)
        assert report.all_passed, str(report)
        smooth = branch_characters(k3(c.g))
        assert table.totals.branch_points == smooth.turning_points
        assert table.totals.nodes == smooth.nodes
        assert table.totals.cusps == smooth.cusps

    def test_corrupted_six_point_budget_detected(self):
        c = build_pillow(2, 2)
        table = build_table(c)
        rows = []
        for r in table.rows:
            if r.object_type == "six_points":
                r = TableRow(r.object_type, r.count, r.branch_points + 1,
                             r.nodes + 1, r.cusps + 1)
            rows.append(r)
        corrupted = DegenerationTable(table.g, tuple(rows))
        report = verify_conservation(corrupted)
        assert not report["branch_point_total"].passed
        assert not report["node_total"].passed
        assert not report["cusp_total"].passed
        assert report["lines_row_contributes_nothing"].passed

    def test_lines_row_with_nodes_detected(self):
        # 24 lines carrying one node each, offset by six fewer 2-points of
        # four nodes each: every total still conserves, and only the check
        # that a line's smooth points carry nothing sees the moved nodes
        c = build_pillow(2, 2)
        table = build_table(c)
        rows = []
        for r in table.rows:
            if r.object_type == "lines":
                r = r._replace(nodes=1)
            elif r.object_type == "two_points":
                r = r._replace(count=r.count - 6)
            rows.append(r)
        moved = DegenerationTable(table.g, tuple(rows))
        assert moved.totals == table.totals
        report = verify_conservation(moved)
        assert [ch.name for ch in report.failures] == ["lines_row_contributes_nothing"]
        assert report["lines_row_contributes_nothing"].lhs == (0, 1, 0)

    def test_doubled_line_degree(self):
        for a, b in [(2, 2), (3, 2)]:
            c = build_pillow(a, b)
            report = verify_conservation(build_table(c))
            check = report["doubled_lines_give_branch_degree"]
            assert check.passed
            assert check.lhs == 6 * c.g - 6

    def test_a_table_without_a_lines_row_is_reported(self):
        # the two checks of the lines row fail with lhs None, where the
        # row lookup raised KeyError; the lookup itself still raises
        table = DegenerationTable(9, ())
        report = verify_conservation(table)
        assert [ch.name for ch in report.failures] == [
            "branch_point_total", "node_total", "cusp_total",
            "lines_row_contributes_nothing", "doubled_lines_give_branch_degree",
        ]
        assert report["lines_row_contributes_nothing"] == Check(
            "lines_row_contributes_nothing", None, (0, 0, 0))
        assert report["doubled_lines_give_branch_degree"] == Check(
            "doubled_lines_give_branch_degree", None, 48)
        with pytest.raises(KeyError):
            table.row("lines")


class TestVerifyConfiguration:
    def test_check_order(self):
        report = verify_configuration(build_pillow(2, 3))
        assert report.title == "configuration (2, 3)"
        assert tuple(ch.name for ch in report.checks) == (
            "line_in_two_triangles",
            "vertex_link_single_cycle",
            "face_adjacency_connected",
            "euler_characteristic",
            "degree3_vertices_are_corners",
            "triangle_degree_census",
            "line_degrees_match_triangle_degrees",
            "disjoint_pairs_degree_method_vs_formula",
            "quadric_face_count",
            "quadric_line_count",
            "two_surface_spans",
            "two_surface_point_inclusion_exclusion",
            "branch_point_total",
            "node_total",
            "cusp_total",
            "lines_row_contributes_nothing",
            "doubled_lines_give_branch_degree",
            "triangles_at_grid_positions",
        )
        assert report.all_passed, str(report)

    def test_failed_check_reported_not_raised(self, monkeypatch):
        failing = Report("forced failure")
        failing.add("forced", 0, 1)
        monkeypatch.setattr("pillowdeg.degeneration.verify_conservation",
                            lambda table: failing)
        report = verify_configuration(build_pillow(2, 2))
        assert [ch.name for ch in report.failures] == ["forced"]

    def test_a_check_prints_a_str_side_as_it_is(self):
        check = Check("line_degrees_in_local_models", "outside {3, 6}: [('p', 1)]", None)
        assert str(check) == "FAIL  line_degrees_in_local_models: outside {3, 6}: [('p', 1)] == None"
        assert str(Check("forced", True, True)) == "PASS  forced: True == True"

    def test_line_degree_outside_local_models_is_reported(self):
        # the last line of (3, 2) replaced by a copy of its first: the table
        # raises, and the report keeps every other section around its fault
        c = build_pillow(3, 2)
        repeated = c._replace(lines=c.lines[:-1] + c.lines[:1])
        message = "vertices with line-degree outside {3, 6}: [(1, 4), (2, 7), (13, 5), (14, 5)]"
        with pytest.raises(MalformedComplex) as raised:
            build_table(repeated)
        assert str(raised.value) == message
        report = verify_configuration(repeated)
        assert {ch.name: (ch.lhs, ch.rhs) for ch in report.failures} == {
            "vertex_link_single_cycle": (2, 0),
            "line_degrees_match_triangle_degrees": (4, 0),
            "disjoint_pairs_degree_method_vs_formula": (470, 468),
            "line_degrees_in_local_models": (message, None),
        }
        names = [ch.name for ch in report.checks]
        assert names[names.index("two_surface_point_inclusion_exclusion") + 1:] == [
            "line_degrees_in_local_models", "triangles_at_grid_positions",
        ]
        # the missing rhs is a JSON null, not the string "None"
        assert report["line_degrees_in_local_models"].as_dict()["rhs"] is None

    def test_labels_that_do_not_compare_are_listed_in_degree_order(self):
        # the int and str labels cannot be sorted together, so the message
        # lists them as line_degrees() counts them: the vertices first
        c = build_pillow(2, 2)
        c = c._replace(lines=c.lines[1:] + (Line("p", "q", "x", "y"),))
        message = ("vertices with line-degree outside {3, 6}: "
                   "[(1, 2), (2, 5), ('p', 1), ('q', 1)]")
        with pytest.raises(MalformedComplex) as raised:
            build_table(c)
        assert str(raised.value) == message
        assert verify_configuration(c)["line_degrees_in_local_models"].lhs == message

    def test_one_degree_count_and_one_degree_route(self, monkeypatch):
        # the sphere census, the pair check and the table's 2-points share
        # one count of the line degrees and one run of the degree route
        counted = {"line_degrees": 0, "route": 0}
        line_degrees, route = PillowConfig.line_degrees, pillow._disjoint_pairs

        def counting_degrees(c):
            counted["line_degrees"] += 1
            return line_degrees(c)

        def counting_route(c, degrees):
            counted["route"] += 1
            return route(c, degrees)

        c = build_pillow(3, 4)
        monkeypatch.setattr(PillowConfig, "line_degrees", counting_degrees)
        monkeypatch.setattr(pillow, "_disjoint_pairs", counting_route)
        report = verify_configuration(c)
        assert counted == {"line_degrees": 1, "route": 1}
        assert report.all_passed, str(report)
        assert report["disjoint_pairs_degree_method_vs_formula"].lhs == formula_disjoint_pairs(c.g)


class TestSerialization:
    def test_json_dict_schema(self):
        table = build_table(build_pillow(2, 2))
        doc = table_to_dict(table)
        assert list(doc) == ["g", "rows", "totals"]
        assert [r["type"] for r in doc["rows"]] == [
            "lines", "three_points", "six_points", "two_points",
        ]
        assert all(list(r) == ["type", "count", "branch", "nodes", "cusps"]
                   for r in doc["rows"])
        assert doc["totals"] == {"branch": 72, "nodes": 840, "cusps": 168}

    def test_text_rendering_row_order(self):
        text = render_table(build_table(build_pillow(2, 2)))
        lines = text.strip().splitlines()
        assert lines[0].split() == ["Object", "Number", "Branch", "Nodes", "Cusps"]
        assert [ln.split()[0] for ln in lines[1:]] == [
            "Lines", "3-points", "6-points", "2-points", "Totals:",
        ]
        assert lines[-1].split() == ["Totals:", "72", "840", "168"]
        assert lines[4].split() == ["2-points", "174", "0", "4", "0"]
