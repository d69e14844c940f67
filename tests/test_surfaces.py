"""Branch-curve characters: family constructors, closed forms, identities."""

import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from test_cli import int_digits

from pillowdeg import (
    Check,
    DegenerationTable,
    InvalidParameter,
    Line,
    MalformedComplex,
    NegativeCharacter,
    NonIntegralNodeCount,
    PillowConfig,
    SurfaceClasses,
    TableRow,
    branch_characters,
    build_pillow,
    build_table,
    config_json_pieces,
    del_pezzo,
    del_pezzo_characters,
    dot_face_pieces,
    dot_line_pieces,
    formula_disjoint_pairs,
    grid_rows,
    k3,
    k3_characters,
    npoint_budget,
    render_table,
    scroll_characters,
    scroll_p1p1,
    transpose_map,
    veronese,
    veronese_characters,
    verify_character_identities,
    verify_configuration,
    verify_families,
)
from pillowdeg.surfaces import FAMILIES, BranchCharacters


class TestConstructors:
    def test_veronese_r2(self):
        s = veronese(2)
        assert (s.d, s.kh, s.k2, s.euler) == (4, -6, 9, 3)

    def test_veronese_r1(self):
        s = veronese(1)
        assert (s.d, s.kh, s.k2, s.euler) == (1, -3, 9, 3)

    def test_scroll_r2(self):
        s = scroll_p1p1(2)
        assert (s.d, s.kh, s.k2, s.euler) == (4, -6, 8, 4)

    def test_del_pezzo_6(self):
        s = del_pezzo(6)
        assert (s.d, s.kh, s.k2, s.euler) == (6, -6, 6, 6)

    def test_k3_g9(self):
        s = k3(9)
        assert (s.d, s.kh, s.k2, s.euler) == (16, 0, 0, 24)

    @pytest.mark.parametrize("bad_call", [
        lambda: veronese(0),
        lambda: scroll_p1p1(0),
        lambda: del_pezzo(2),
        lambda: del_pezzo(10),
        lambda: k3(2),
    ])
    def test_out_of_domain_parameters(self, bad_call):
        with pytest.raises(InvalidParameter):
            bad_call()

    def test_surface_degree_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            SurfaceClasses(0, 0, 0, 0)

    def test_negative_sectional_genus_rejected(self):
        with pytest.raises(InvalidParameter):
            SurfaceClasses(1, -5, 0, 0)

    def test_replace_validates(self):
        s = k3(9)
        assert s._replace(label="") == SurfaceClasses(16, 0, 0, 24)
        with pytest.raises(InvalidParameter, match="surface degree must be >= 1, got 0"):
            s._replace(d=0)
        with pytest.raises(InvalidParameter, match=r"d \+ kh = -4 < -2"):
            s._replace(kh=-20)


class TestBranchCharacters:
    # expected tuples are (degree, nodes, cusps, turning_points)

    @pytest.mark.parametrize("surface,expected", [
        (veronese(2), (6, 0, 9, 3)),
        (veronese(1), (0, 0, 0, 0)),
        (veronese(3), (18, 84, 42, 12)),
        (scroll_p1p1(2), (6, 4, 6, 4)),
        (scroll_p1p1(1), (2, 0, 0, 2)),
        (scroll_p1p1(5), (18, 112, 24, 10)),
        (del_pezzo(3), (6, 0, 6, 12)),
        (del_pezzo(6), (12, 24, 24, 12)),
        (del_pezzo(9), (18, 84, 42, 12)),
        (k3(3), (12, 12, 24, 36)),
        (k3(9), (48, 840, 168, 72)),
        (k3(13), (72, 2112, 264, 96)),
    ])
    def test_known_values(self, surface, expected):
        c = branch_characters(surface)
        assert (c.degree, c.nodes, c.cusps, c.turning_points) == expected

    def test_veronese3_equals_del_pezzo9(self):
        assert branch_characters(veronese(3)) == branch_characters(del_pezzo(9))

    def test_odd_branch_degree_rejected(self):
        # d + kh odd makes b = 3d + kh odd and b^2/2 non-integral
        s = SurfaceClasses(2, 1, 0, 40)
        with pytest.raises(NonIntegralNodeCount):
            branch_characters(s)

    def test_negative_nodes_rejected(self):
        s = SurfaceClasses(1, -3, 100, 3)
        with pytest.raises(NegativeCharacter) as exc:
            branch_characters(s)
        assert exc.value.which == "nodes"

    def test_negative_turning_points_rejected(self):
        s = SurfaceClasses(1, -3, 8, 1)
        with pytest.raises(NegativeCharacter) as exc:
            branch_characters(s)
        assert exc.value.which == "turning_points"


class TestClosedForms:
    """The general formulas agree with each family's closed-form polynomials."""

    def test_veronese_sweep(self):
        for r in range(1, 21):
            assert branch_characters(veronese(r)) == veronese_characters(r)

    def test_scroll_sweep(self):
        for r in range(1, 21):
            assert branch_characters(scroll_p1p1(r)) == scroll_characters(r)

    def test_del_pezzo_sweep(self):
        for deg in range(3, 10):
            assert branch_characters(del_pezzo(deg)) == del_pezzo_characters(deg)

    def test_k3_sweep(self):
        for g in range(3, 101):
            assert branch_characters(k3(g)) == k3_characters(g)

    def test_closed_form_frozen_values(self):
        assert veronese_characters(2) == BranchCharacters(6, 0, 9, 3)
        assert scroll_characters(5) == BranchCharacters(18, 112, 24, 10)
        assert del_pezzo_characters(6) == BranchCharacters(12, 24, 24, 12)
        assert k3_characters(9) == BranchCharacters(48, 840, 168, 72)
        assert k3_characters(13) == BranchCharacters(72, 2112, 264, 96)

    # at each edge of each domain and beyond it
    @pytest.mark.parametrize("family,p,message", [
        ("veronese", 0, "veronese parameter must be >= 1, got 0"),
        ("veronese", -7, "veronese parameter must be >= 1, got -7"),
        ("scroll", 0, "scroll parameter must be >= 1, got 0"),
        ("scroll", -7, "scroll parameter must be >= 1, got -7"),
        ("delpezzo", 2, "del Pezzo degree must be in [3, 9], got 2"),
        ("delpezzo", -7, "del Pezzo degree must be in [3, 9], got -7"),
        ("delpezzo", 10, "del Pezzo degree must be in [3, 9], got 10"),
        ("delpezzo", 17, "del Pezzo degree must be in [3, 9], got 17"),
        ("k3", 2, "k3 genus must be >= 3, got 2"),
        ("k3", -7, "k3 genus must be >= 3, got -7"),
    ])
    def test_closed_form_raises_its_constructors_message(self, family, p, message):
        _, _, constructor, closed_form = FAMILIES[family]
        for call in (constructor, closed_form):
            with pytest.raises(InvalidParameter) as raised:
                call(p)
            assert str(raised.value) == message


# 4,301 digits, one past Python's default limit on the digits of an int's str
HUGE = 10 ** 4300


def too_long():
    """Python's own message for an int too long to print under its default limit."""
    with int_digits(4300):
        try:
            str(HUGE)
        except ValueError as err:
            return str(err)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
class TestHugeParameters:
    """Under Python's default limit a closed form gives the exact characters
    of a parameter too long to print, and a constructor, which prints it
    into its label, raises InvalidParameter; with no limit, as in the CLI,
    the constructor labels the member in full.  Every other number that is
    too long to print raises InvalidParameter where it is a parameter out
    of its domain, and keeps its error's class where it is a computed
    character."""

    @pytest.mark.parametrize("family", ["veronese", "scroll", "k3"])
    def test_closed_form_is_exact(self, family):
        _, _, constructor, closed_form = FAMILIES[family]
        with int_digits(4300):
            chars = closed_form(HUGE)
        with int_digits(0):
            assert chars == branch_characters(constructor(HUGE))
            assert constructor(HUGE).label.endswith(f"={HUGE}")

    @pytest.mark.parametrize("p", [HUGE, -HUGE], ids=["positive", "negative"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_constructor_raises_invalid_parameter(self, family, p):
        # and so does the closed form, where p lies outside the domain
        _, _, constructor, closed_form = FAMILIES[family]
        outside = p < 0 or family == "delpezzo"
        for call in [constructor, closed_form] if outside else [constructor]:
            with int_digits(4300), pytest.raises(InvalidParameter, match="^a 14285-bit parameter"):
                call(p)

    @pytest.mark.parametrize("p", [HUGE, -HUGE], ids=["positive", "negative"])
    @pytest.mark.parametrize("call", [
        lambda p: build_pillow(p, 2),
        lambda p: build_pillow(3, p),
        lambda p: grid_rows(p, 3, "top"),
        lambda p: transpose_map(2, p),
        lambda p: PillowConfig(p, 2, (), (), ()),
        npoint_budget,
        formula_disjoint_pairs,
        lambda p: Line(p + 1, p, "boundary", "shared"),
        lambda p: grid_rows(2, 2, p),
    ], ids=["build_pillow-a", "build_pillow-b", "grid_rows", "transpose_map",
            "PillowConfig", "npoint_budget", "formula_disjoint_pairs", "Line", "grid_rows-side"])
    def test_pillow_parameter_raises_invalid_parameter(self, call, p):
        # outside every domain, and too long to print into the message
        with int_digits(4300), pytest.raises(InvalidParameter, match="^a 14285-bit parameter"):
            call(p)

    def test_cell_product_too_long_to_print(self):
        # a and b print, a*b = 10**4400 does not
        with int_digits(4300), pytest.raises(InvalidParameter, match="^a 14617-bit parameter"):
            build_pillow(10 ** 2200, 10 ** 2200)

    def test_int_subclass_is_refused_by_its_size(self):
        class Int(int):
            pass

        with int_digits(4300), pytest.raises(InvalidParameter, match="^a 14285-bit parameter"):
            k3(Int(HUGE))

    @pytest.mark.parametrize("value,kind", [(Fraction(HUGE, 3), "Fraction"), ((HUGE,), "tuple")],
                             ids=["Fraction", "tuple"])
    def test_non_int_too_long_to_print_is_named_by_its_type(self, value, kind):
        with int_digits(4300):
            with pytest.raises(InvalidParameter) as raised:
                k3(value)
            text = str(Check("lhs", value, 0))
        assert str(raised.value) == f"a {kind} parameter: {too_long()}"
        assert text == f"FAIL  lhs: a {kind} too long to print == 0"

    # a label, or a triangle's field, too long to print: each export raises
    # InvalidParameter as its pieces are drained, and with no limit, as in
    # the CLI, writes the text it wrote before, pinned by its SHA-256
    @pytest.mark.parametrize("pieces,mutate,digest", [
        (config_json_pieces, lambda c: c._replace(vertices=(HUGE,) + c.vertices),
         "7f1225246c056fa4771082d447526f6efe9751201df240b3ce57e54cbc9d17ac"),
        (config_json_pieces, lambda c: c._replace(vertices=c.vertices + (HUGE,)),
         "6b88c5e99c800621255ce90720d01a54fe198d29b816a03072dcd508b467c45d"),
        (dot_line_pieces, lambda c: c._replace(lines=c.lines + (Line(1, HUGE, "x", "y"),)),
         "c47a894a0f4825f47b71958b5359cc2dfbe429b28a520fc076e9326ea68d80bc"),
        (dot_face_pieces, lambda c: c._replace(
            triangles=c.triangles[:1] + (c.triangles[1]._replace(row=HUGE),) + c.triangles[2:]),
         "311af09f0e0ecb77972a0948d4731df6c88824863afd859a68f0ecb081c820c9"),
    ], ids=["json-first-vertex", "json-last-vertex", "line-graph-endpoint", "face-graph-row"])
    def test_export_of_a_huge_label_raises_invalid_parameter(self, pieces, mutate, digest):
        c = mutate(build_pillow(2, 2))
        with int_digits(4300):
            drained = pieces(c)  # nothing is rendered before the pieces are drawn
            with pytest.raises(InvalidParameter) as raised:
                "".join(drained)
        assert str(raised.value) == f"a record the export cannot render: {too_long()}"
        with int_digits(0):
            text = "".join(pieces(c))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("surface,error", [
        ((HUGE + 1, 0, 0, 24), NonIntegralNodeCount),  # b = 3d is odd
        ((2, 0, HUGE, 24), NegativeCharacter),  # nodes = -3 K^2 + ...
    ], ids=["odd-degree", "negative-nodes"])
    def test_character_errors_keep_their_class(self, surface, error):
        s = SurfaceClasses(*surface)
        with int_digits(4300), pytest.raises(error, match="-bit int"):
            branch_characters(s)

    def test_unlabelled_surface_gets_its_identities(self):
        s = SurfaceClasses(2 * HUGE, 0, 0, 24)
        with int_digits(4300):
            report = verify_character_identities(s, k3_characters(HUGE + 1))
        assert report.title == "character identities for an unlabelled surface"
        assert report.all_passed

    def test_report_prints_a_huge_side_by_its_size(self):
        with int_digits(4300):
            text = str(verify_character_identities(k3(3), k3_characters(HUGE)))
        assert text.splitlines() == [
            "character identities for k3 g=3",
            "  FAIL  node_cusp_sum_2n3k: a 28574-bit int == a 28574-bit int",
            "  FAIL  node_cusp_sum_2n2k: a 28574-bit int == a 14291-bit int",
            "  FAIL  hurwitz: 4 == a 14287-bit int",
            "  => 3 check(s) FAILED",
        ]
        with int_digits(0):  # with no limit, as in the CLI, every digit prints
            text = str(verify_character_identities(k3(3), k3_characters(HUGE)))
            assert f"  FAIL  hurwitz: 4 == {6 * HUGE - 14}\n" in text

    def test_characters_print_a_huge_one_by_its_size(self):
        with int_digits(4300):
            text = str(k3_characters(HUGE))
        assert text == "b=a 14287-bit int n=a 28573-bit int k=a 14289-bit int t=a 14287-bit int"

    def test_table_prints_a_huge_count_by_its_size(self):
        with int_digits(4300):
            text = render_table(DegenerationTable(HUGE, (TableRow("lines", HUGE, 0, 0, 0),)))
        assert text == (
            "Object            Number  Branch  Nodes  Cusps\n"
            "Lines    a 14285-bit int       0      0      0\n"
            "Totals:                        0      0      0\n"
        )

    def test_huge_vertex_label_fails_the_table_check(self):
        c = build_pillow(2, 2)
        c = c._replace(vertices=c.vertices + (HUGE,))
        message = "vertices with line-degree outside {3, 6}: [(a 14285-bit int, 0)]"
        with int_digits(4300):
            with pytest.raises(MalformedComplex) as raised:
                build_table(c)
            report = verify_configuration(c)
        assert str(raised.value) == message
        check = report["line_degrees_in_local_models"]
        assert (check.lhs, check.rhs, check.passed) == (message, None, False)

    @pytest.mark.parametrize("surface", [(-HUGE, 0, 0, 24), (5, -10 * HUGE, 0, 24)],
                             ids=["degree", "sectional-genus"])
    def test_surface_numbers_raise_invalid_parameter(self, surface):
        with int_digits(4300), pytest.raises(InvalidParameter, match="-bit parameter"):
            SurfaceClasses(*surface)


class TestVerifyFamilies:
    def test_every_family_passes(self):
        report = verify_families()
        assert report.title == "families"
        assert [ch.name for ch in report.checks] == [
            f"{family}_closed_forms" for family in ("veronese", "scroll", "delpezzo", "k3")
        ] + ["veronese3_equals_delpezzo9"]
        assert report.all_passed, str(report)

    def test_records_render_as_their_str_in_json(self):
        check = verify_families()["veronese3_equals_delpezzo9"]
        assert check.as_dict()["lhs"] == check.as_dict()["rhs"] == "b=18 n=84 k=42 t=12"

    def test_wrong_closed_form_counted(self, monkeypatch):
        def wrong_at_7(g):
            return BranchCharacters(0, 0, 0, 0) if g == 7 else k3_characters(g)

        name, sweep, constructor, _ = FAMILIES["k3"]
        monkeypatch.setitem(FAMILIES, "k3", (name, sweep, constructor, wrong_at_7))
        report = verify_families()
        assert report["k3_closed_forms"].lhs == 1
        assert report.failures == [report["k3_closed_forms"]]


class TestIdentities:
    def test_all_pass_for_families(self):
        for s in [veronese(2), scroll_p1p1(3), del_pezzo(5), k3(4)]:
            report = verify_character_identities(s, branch_characters(s))
            assert report.all_passed, str(report)

    def test_report_names(self):
        s = k3(3)
        report = verify_character_identities(s, branch_characters(s))
        assert [c.name for c in report.checks] == [
            "node_cusp_sum_2n3k",
            "node_cusp_sum_2n2k",
            "hurwitz",
        ]

    def test_corrupted_nodes_fail_two_of_three(self):
        s = veronese(2)
        c = branch_characters(s)
        corrupted = BranchCharacters(c.degree, c.nodes + 1, c.cusps, c.turning_points)
        report = verify_character_identities(s, corrupted)
        assert not report["node_cusp_sum_2n3k"].passed
        assert not report["node_cusp_sum_2n2k"].passed
        assert report["hurwitz"].passed

    @given(
        d=st.integers(min_value=1, max_value=500),
        half_genus=st.integers(min_value=0, max_value=500),
        k2=st.integers(min_value=-200, max_value=200),
        euler=st.integers(min_value=-200, max_value=200),
    )
    def test_identities_hold_whenever_characters_exist(self, d, half_genus, k2, euler):
        # choose kh so the sectional genus is a nonnegative integer
        kh = 2 * half_genus - 2 - d
        s = SurfaceClasses(d, kh, k2, euler)
        try:
            chars = branch_characters(s)
        except NegativeCharacter:
            return
        report = verify_character_identities(s, chars)
        assert report.all_passed, str(report)
