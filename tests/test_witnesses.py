"""Every check a verifier can emit has a witness that makes it fail.

A witness is a corrupted complex, table or character record, or a
one-line fault in one route applied with ``monkeypatch``; it returns the
report of the verifier that emits its check.  Each witness pins the full
set of checks it fails, so the sets below are the co-failure table of the
checks, and a test asserts that the witnesses name exactly the checks the
verifiers emit: no check lands without a witness.
"""

import pytest
from test_mutations import dihedron, relabelled

from pillowdeg import (
    DegenerationTable,
    Triangle,
    build_pillow,
    build_table,
    k3,
    k3_characters,
    pillow,
    surfaces,
    verify_character_identities,
    verify_configuration,
    verify_conservation,
    verify_families,
    verify_pillow,
    verify_sphere_triangulation,
    verify_stages,
)
from pillowdeg.surfaces import FAMILIES

# the pillow every complex witness corrupts: g = 13, 36 lines, 24 triangles
C = build_pillow(3, 2)
TABLE = build_table(C)


def configuration(**fields):
    """The configuration report of ``C`` with ``fields`` replaced."""
    return lambda monkeypatch: verify_configuration(C._replace(**fields))


def triangle_moved(k, **fields):
    """Triangle ``k`` of ``C`` with ``fields`` replaced."""
    triangles = list(C.triangles)
    triangles[k] = triangles[k]._replace(**fields)
    return configuration(triangles=tuple(triangles))


def faulty(module, name, fault):
    """The configuration report of ``C`` with ``module.name`` replaced by
    ``fault`` applied to the function it held."""
    def witness(monkeypatch):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        return verify_configuration(C)
    return witness


def table(row, **fields):
    """The conservation report of ``C``'s table with ``fields`` of the row
    of ``row`` replaced, each a function of the row."""
    rows = tuple(r._replace(**{f: new(r) for f, new in fields.items()}) if r.object_type == row
                 else r for r in TABLE.rows)
    return lambda monkeypatch: verify_conservation(DegenerationTable(TABLE.g, rows))


def characters(**shifts):
    """The identity report of k3(3) against its characters, each field of
    ``shifts`` moved by its amount."""
    chars = k3_characters(3)
    moved = chars._replace(**{f: getattr(chars, f) + d for f, d in shifts.items()})
    return lambda monkeypatch: verify_character_identities(k3(3), moved)


def closed_form_wrong(family):
    """The family's closed form off by one node at its second parameter."""
    def witness(monkeypatch):
        name, params, constructor, closed_form = FAMILIES[family]
        wrong = params[1]

        def fault(p):
            chars = closed_form(p)
            return chars._replace(nodes=chars.nodes + 1) if p == wrong else chars

        monkeypatch.setitem(FAMILIES, family, (name, params, constructor, fault))
        return verify_families()
    return witness


def general_formula_wrong(family):
    """``branch_characters`` off by one node, and one cusp the other way,
    on the family's second member; returns the family report and the
    identity report of that member, as ``characters`` prints it."""
    def fault(monkeypatch):
        _, params, constructor, _ = FAMILIES[family]
        wrong = constructor(params[1])
        real = surfaces.branch_characters

        def faulty_characters(s):
            chars = real(s)
            if s != wrong:
                return chars
            return chars._replace(nodes=chars.nodes + 1, cusps=chars.cusps - 1)

        monkeypatch.setattr(surfaces, "branch_characters", faulty_characters)
        return verify_families(), verify_character_identities(wrong, faulty_characters(wrong))
    return fault


def del_pezzo_9_wrong(monkeypatch):
    # the constructor's Euler number off by two at degree 9, in the sweep
    # and in the comparison with veronese(3) alike
    name, params, constructor, closed_form = FAMILIES["delpezzo"]

    def fault(deg):
        s = constructor(deg)
        return s._replace(euler=s.euler + 2) if deg == 9 else s

    monkeypatch.setitem(FAMILIES, "delpezzo", (name, params, fault, closed_form))
    monkeypatch.setattr(surfaces, "del_pezzo", fault)
    return verify_families()


def added_triangle(monkeypatch):
    # a 25th triangle (1, 11, 12) in the quadric of the triangle (3, 11, 12):
    # the line 11-12 lies on three triangles, of two quadrics
    extra = Triangle(1, 11, 12, "top", 1, 2, "upper")
    return verify_configuration(C._replace(triangles=C.triangles + (extra,)))


def line_off_its_triangles(monkeypatch):
    # the diagonal 1-13 moved to the pair (1, 14), on which no triangle lies
    lines = C.lines[:2] + (C.lines[2]._replace(v=14),) + C.lines[3:]
    return verify_configuration(C._replace(lines=lines))


def labels_swapped(monkeypatch):
    # the interior labels 11 and 12 swapped in the lines and triangles: a
    # sphere with the same census, no longer the pillow's labelling
    return verify_configuration(relabelled(relabelled(relabelled(C, 11, 0), 12, 11), 0, 12))


CONFIGURATION = {
    "line_in_two_triangles": (added_triangle, {
        "line_in_two_triangles", "vertex_link_single_cycle", "face_adjacency_connected",
        "euler_characteristic", "degree3_vertices_are_corners", "triangle_degree_census",
        "line_degrees_match_triangle_degrees", "triangles_at_grid_positions"}),
    # two triangles on one triple, the halves of the first cell, and its
    # three lines: every vertex link is one edge taken twice
    "vertex_link_single_cycle": (lambda monkeypatch: verify_configuration(dihedron(C)), {
        "vertex_link_single_cycle", "degree3_vertices_are_corners", "triangle_degree_census",
        "disjoint_pairs_degree_method_vs_formula", "quadric_face_count", "quadric_line_count",
        "two_surface_spans", "line_degrees_in_local_models", "triangles_at_grid_positions"}),
    # a triangle listed twice: its copy meets no other triangle
    "face_adjacency_connected": (configuration(triangles=C.triangles + C.triangles[:1]), {
        "line_in_two_triangles", "vertex_link_single_cycle", "face_adjacency_connected",
        "euler_characteristic", "triangle_degree_census", "line_degrees_match_triangle_degrees",
        "quadric_line_count"}),
    # vertex 1 listed twice
    "euler_characteristic": (configuration(vertices=C.vertices + (1,)), {
        "euler_characteristic", "two_surface_point_inclusion_exclusion"}),
    # the records of (3, 2) read as bidegree (2, 3), whose corners differ
    "degree3_vertices_are_corners": (configuration(a=2, b=3), {
        "degree3_vertices_are_corners", "triangles_at_grid_positions"}),
    # the last vertex left out of the list, still on its lines and triangles
    "triangle_degree_census": (configuration(vertices=C.vertices[:-1]), {
        "euler_characteristic", "triangle_degree_census",
        "two_surface_point_inclusion_exclusion"}),
    # the first line dropped
    "line_degrees_match_triangle_degrees": (configuration(lines=C.lines[1:]), {
        "vertex_link_single_cycle", "euler_characteristic", "line_degrees_match_triangle_degrees",
        "disjoint_pairs_degree_method_vs_formula", "quadric_line_count",
        "line_degrees_in_local_models"}),
    "disjoint_pairs_degree_method_vs_formula": (
        faulty(pillow, "formula_disjoint_pairs", lambda real: lambda g: real(g) + 1),
        {"disjoint_pairs_degree_method_vs_formula"}),
    # a lower triangle in a quadric of its own
    "quadric_face_count": (triangle_moved(0, col=9), {
        "quadric_face_count", "quadric_line_count", "triangles_at_grid_positions"}),
    # an upper triangle in the quadric of the next cell, with no line in common
    "quadric_line_count": (triangle_moved(1, col=2), {
        "quadric_line_count", "triangles_at_grid_positions"}),
    # the top triangle (2, 10, 11) read as a bottom one: the interior
    # vertex 11 joins the bottom surface
    "two_surface_spans": (triangle_moved(0, side="bottom"), {
        "quadric_line_count", "two_surface_spans", "triangles_at_grid_positions"}),
    # a vertex 99 on no line and no triangle
    "two_surface_point_inclusion_exclusion": (configuration(vertices=C.vertices + (99,)), {
        "vertex_link_single_cycle", "euler_characteristic", "triangle_degree_census",
        "two_surface_point_inclusion_exclusion", "line_degrees_in_local_models"}),
    # vertex 11 renamed 99 in the lines and triangles: 11 stays listed, on
    # no line
    "line_degrees_in_local_models": (
        lambda monkeypatch: verify_configuration(relabelled(C, 11, 99)),
        {"vertex_link_single_cycle", "triangle_degree_census", "line_degrees_in_local_models",
         "triangles_at_grid_positions"}),
    "triangles_at_grid_positions": (labels_swapped, {"triangles_at_grid_positions"}),
}

CONSERVATION = {
    "branch_point_total": (table("three_points", branch_points=lambda r: r.branch_points + 1),
                           {"branch_point_total"}),
    "node_total": (table("six_points", nodes=lambda r: r.nodes + 1), {"node_total"}),
    "cusp_total": (table("six_points", cusps=lambda r: r.cusps + 1), {"cusp_total"}),
    # one node on each of the 36 lines, nine fewer 2-points of four each:
    # every total conserves
    "lines_row_contributes_nothing": (
        lambda monkeypatch: verify_conservation(DegenerationTable(TABLE.g, tuple(
            r._replace(nodes=1) if r.object_type == "lines"
            else r._replace(count=r.count - 9) if r.object_type == "two_points" else r
            for r in TABLE.rows))),
        {"lines_row_contributes_nothing"}),
    "doubled_lines_give_branch_degree": (table("lines", count=lambda r: r.count + 1),
                                         {"doubled_lines_give_branch_degree"}),
}

# k3(3): d = 4, K.H = K^2 = 0, e = 24, b = 12.  Each shift keeps the other
# identities: 2n + 3k moves by 2 dn + 3 dk and 2n + 2k by 2 dn + 2 dk, and
# a degree of 14 moves their right-hand sides by 46 and 24
IDENTITIES = {
    "node_cusp_sum_2n3k": (characters(nodes=1, cusps=-1), {"node_cusp_sum_2n3k"}),
    "node_cusp_sum_2n2k": (characters(nodes=3, cusps=-2), {"node_cusp_sum_2n2k"}),
    "hurwitz": (characters(degree=2, nodes=-10, cusps=22), {"hurwitz"}),
}

FAMILY_CHECKS = {
    **{f"{family}_closed_forms": (closed_form_wrong(family), {f"{family}_closed_forms"})
       for family in FAMILIES},
    "veronese3_equals_delpezzo9": (del_pezzo_9_wrong, {
        "delpezzo_closed_forms", "veronese3_equals_delpezzo9"}),
}

WITNESSES = {**CONFIGURATION, **CONSERVATION, **IDENTITIES, **FAMILY_CHECKS}

# The faults once witnessed by checks that were dropped: five that could
# fail only with one partner, and the comparison of the degree route with
# the O(E^2) count, which left the package.  Each fault still fails a check
# that is emitted.  An identity fault also fails its member's identities,
# which ``characters`` reports.  The witness of ``transpose_isomorphism``,
# which left the output too, is that of ``triangles_at_grid_positions``.
DROPPED = {
    "quadric_lines_shared_by_two_faces": (line_off_its_triangles, {
        "line_in_two_triangles", "vertex_link_single_cycle", "line_degrees_match_triangle_degrees",
        "disjoint_pairs_degree_method_vs_formula", "quadric_line_count",
        "line_degrees_in_local_models"}),
    "disjoint_pairs_brute_vs_degree_method": (
        # the degree route's count, which the table's 2-points share
        faulty(pillow, "_disjoint_pairs", lambda real: lambda c, degrees: real(c, degrees) + 1),
        {"disjoint_pairs_degree_method_vs_formula", "node_total"}),
    **{f"{family}_identities": (general_formula_wrong(family), {f"{family}_closed_forms"})
       for family in FAMILIES},
}


def emitted_names():
    """Every check name the verifiers emit on valid input, and the one
    that replaces conservation where the table raises."""
    reports = [
        verify_sphere_triangulation(C), verify_pillow(C), verify_stages(C),
        verify_conservation(TABLE), verify_configuration(C),
        verify_configuration(C._replace(vertices=C.vertices + (99,))),
        verify_character_identities(k3(3), k3_characters(3)), verify_families(),
    ]
    return {check.name for report in reports for check in report.checks}


def test_the_witnesses_name_exactly_the_emitted_checks():
    assert set(WITNESSES) == emitted_names()
    assert len(WITNESSES) == 27


@pytest.mark.parametrize("name", WITNESSES)
def test_witness_fails_its_check_and_pins_what_fails_with_it(monkeypatch, name):
    witness, fails = WITNESSES[name]
    report = witness(monkeypatch)
    assert name in fails
    assert {check.name for check in report.failures} == fails, str(report)


@pytest.mark.parametrize("name", DROPPED)
def test_the_fault_of_a_dropped_check_fails_its_partner(monkeypatch, name):
    fault, fails = DROPPED[name]
    assert name not in emitted_names()
    if name.endswith("_identities"):
        report, identities = fault(monkeypatch)
        assert {check.name for check in identities.failures} == {"node_cusp_sum_2n3k"}, \
            str(identities)
    else:
        report = fault(monkeypatch)
    assert {check.name for check in report.failures} == fails, str(report)


def test_a_missing_cell_fails_the_stage_checks_not_the_grid_check():
    # both triangles of the first cell dropped: every triangle left is at
    # its grid position, so the quadric and surface checks do not restate
    # the grid-position check
    report = verify_configuration(C._replace(triangles=C.triangles[2:]))
    failed = {check.name for check in report.failures}
    assert {"quadric_face_count", "quadric_line_count", "two_surface_spans"} <= failed
    assert report["triangles_at_grid_positions"].passed


def test_the_dihedron_fails_the_link_check_alone_of_the_sphere_checks():
    # each line on both triangles, one face component and V - E + F = 2:
    # the link check restates none of the other three sphere checks, and
    # the certificate that stands in for the walk asks for F > 2
    report = verify_sphere_triangulation(dihedron(C))
    assert report["vertex_link_single_cycle"].lhs == 3
    for name in ("line_in_two_triangles", "face_adjacency_connected", "euler_characteristic"):
        assert report[name].passed, str(report)


def test_the_corpus_passes_every_check():
    # the witnesses' inputs, uncorrupted
    for report in (verify_configuration(C), verify_conservation(TABLE),
                   verify_character_identities(k3(3), k3_characters(3)), verify_families()):
        assert report.all_passed, str(report)
