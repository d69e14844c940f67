"""The public API: ``pillowdeg.__all__`` names exactly what the package
exports, so a re-export cannot outlive the name it points to, every
public callable that takes a number takes it only as an int, and every
record a public function takes is refused when it is made or handled."""

import inspect
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from test_cli import int_digits

import pillowdeg
from pillowdeg import (
    BranchCharacters,
    DegenerationTable,
    InvalidParameter,
    PillowDegError,
    SurfaceClasses,
    TableRow,
    build_pillow,
    build_table,
    del_pezzo_characters,
    formula_disjoint_pairs,
    grid_rows,
    k3,
    k3_characters,
    npoint_budget,
    render_table,
    table_to_dict,
    transpose_map,
    verify_character_identities,
    verify_conservation,
    veronese,
)
from pillowdeg.pillow import MAX_PILLOW_CELLS


def test_all_is_sorted_without_duplicates():
    assert pillowdeg.__all__ == sorted(set(pillowdeg.__all__))


def test_every_name_in_all_resolves():
    for name in pillowdeg.__all__:
        getattr(pillowdeg, name)


# every public callable that takes a number, with valid arguments; each int
# among them is a numeric argument, and the property test draws each in turn
NUMERIC = {
    "BranchCharacters": (48, 840, 168, 72),
    "DegenerationTable": (9, ()),
    "NPointBudget": (2, 0, 4, 0),
    "PillowConfig": (3, 2, (), (), ()),
    "SurfaceClasses": (2, 0, 0, 24),
    "TableRow": ("lines", 24, 0, 0, 0),
    "build_pillow": (3, 2),
    "del_pezzo": (3,),
    "del_pezzo_characters": (3,),
    "formula_disjoint_pairs": (9,),
    "grid_rows": (3, 2, "top"),
    "k3": (3,),
    "k3_characters": (3,),
    "npoint_budget": (2,),
    "scroll_characters": (1,),
    "scroll_p1p1": (1,),
    "transpose_map": (3, 2),
    "veronese": (1,),
    "veronese_characters": (1,),
}

# every other public name, and why the integer rule has no number of it
# to check
RECORD = "a plain record: its fields are what the package computed"
COMPLEX = "takes a built complex or the records of one"
ERROR = "an exception type"
NOT_NUMERIC = {
    "Check": "a plain record of one comparison, its sides of any type",
    "InvalidParameter": ERROR,
    "Line": "its endpoints are labels, any values that compare",
    "MalformedComplex": ERROR,
    "NegativeCharacter": ERROR + ": it reports a computed character, it takes no input",
    "NonIntegralNodeCount": ERROR,
    "PillowDegError": ERROR,
    "Report": "takes a title",
    "TableTotals": RECORD,
    "Triangle": "a plain record of one plane: its vertices are labels",
    "branch_characters": "takes a SurfaceClasses, whose numbers are checked",
    "build_table": COMPLEX,
    "config_json_pieces": COMPLEX,
    "disjoint_pairs_via_degrees": COMPLEX,
    "dot_face_pieces": COMPLEX,
    "dot_line_pieces": COMPLEX,
    "is_complex_isomorphism": COMPLEX + ", and a map between labels",
    "render_table": "takes a DegenerationTable",
    "table_to_dict": "takes a DegenerationTable",
    "verify_character_identities": "takes a SurfaceClasses and its BranchCharacters",
    "verify_configuration": COMPLEX,
    "verify_conservation": "takes a DegenerationTable",
    "verify_families": "takes nothing",
    "verify_pillow": COMPLEX,
    "verify_sphere_triangulation": COMPLEX,
    "verify_stages": COMPLEX,
}


def test_every_public_name_is_numeric_or_says_why_not():
    # so a new entry point that takes a number joins the property test
    assert NUMERIC.keys().isdisjoint(NOT_NUMERIC)
    assert sorted([*NUMERIC, *NOT_NUMERIC]) == pillowdeg.__all__


def test_the_one_optional_parameter_is_a_surfaces_label():
    # a verifier takes only its complex: the inputs verify_configuration
    # shares between its sections go through private twins, so an option
    # with no caller cannot be given a wrong value
    optional = {}
    for name in pillowdeg.__all__:
        try:
            parameters = inspect.signature(getattr(pillowdeg, name)).parameters.values()
        except ValueError:  # the exception types have no signature
            continue
        if names := tuple(p.name for p in parameters if p.default is not p.empty):
            optional[name] = names
    assert optional == {"SurfaceClasses": ("label",)}


def exact(value):
    """True when every number in ``value``, records, lists and dicts nested
    in it included, is exactly an int."""
    if isinstance(value, dict):
        return exact(list(value.items()))
    if isinstance(value, (tuple, list)):
        return all(map(exact, value))
    return type(value) is int or type(value) is str


HUGE = [10 ** 4300, -10 ** 4300, 10 ** 5000, -10 ** 5000]
# each domain's edges, from the family domains up to the first bidegree
# above the cell limit; the largest valid pillow is built in test_pillow,
# and only bidegrees up to 64 are drawn, so a build stays small
EDGES = [-1, 0, 1, 2, 3, 6, 7, 8, 9, 10, 11, MAX_PILLOW_CELLS // 2 + 1]
NON_INTS = [True, False, 3.0, 3.5, math.nan, math.inf, Fraction(7, 2), Decimal(3), None, "3"]
NUMBERS = st.one_of(
    st.integers(-64, 64),
    st.integers(10 ** 4, 10 ** 5000),
    st.integers(-10 ** 5000, -10 ** 4),
    st.sampled_from(HUGE + EDGES + NON_INTS),
)


def every_listed_value(test):
    """``test`` with each huge int and each non-int as an explicit example,
    so that every run meets each of them at every site."""
    for value in HUGE + NON_INTS:
        test = example(value=value)(test)
    return test


@pytest.fixture
def no_digit_limit():
    """No limit on the digits of an int while Hypothesis reprs its examples:
    a Fraction too long to print has no repr under the default limit."""
    with int_digits(0):
        yield


@pytest.mark.parametrize("name,position", [
    (name, i) for name, args in NUMERIC.items() for i, arg in enumerate(args) if type(arg) is int
])
@pytest.mark.usefixtures("no_digit_limit")
@every_listed_value
# values that hold an int too long to print, named by their type
@example(value=Fraction(10 ** 4300, 3))
@example(value=(10 ** 4300,))
@settings(max_examples=60, deadline=None)
@given(value=NUMBERS)
def test_every_number_is_an_int_or_refused(name, position, value):
    args = list(NUMERIC[name])
    args[position] = value
    # under Python's default limit on the digits of an int's str, and none
    for limit in (4300, 0):
        with int_digits(limit):
            try:
                result = getattr(pillowdeg, name)(*args)
            except PillowDegError:
                continue
            assert type(value) is int
            assert exact(result)


# the integer rule's message for a float, a bool and a str at each site
@pytest.mark.parametrize("call,args,message", [
    (build_pillow, (2.0, 2), "bidegree parameters must both be >= 2, got float 2.0"),
    (grid_rows, (3, True, "top"), "bidegree parameters must both be >= 2, got bool True"),
    (transpose_map, ("3", 2), "bidegree parameters must both be >= 2, got str '3'"),
    (SurfaceClasses, (4.0, 0, 0, 24), "surface degree must be >= 1, got float 4.0"),
    (SurfaceClasses, (4, 0, True, 24), "kh, k2 and euler must be ints, got bool True"),
    (SurfaceClasses, (4, 0, 0, "24"), "kh, k2 and euler must be ints, got str '24'"),
    (k3_characters, (3.5,), "k3 genus must be >= 3, got float 3.5"),
    (veronese, (True,), "veronese parameter must be >= 1, got bool True"),
    (del_pezzo_characters, ("3",), "del Pezzo degree must be in [3, 9], got str '3'"),
    (npoint_budget, (3.0,), "n-point multiplicity must be in {2, 3, 4, 5, 6}, got float 3.0"),
    (npoint_budget, (False,), "n-point multiplicity must be in {2, 3, 4, 5, 6}, got bool False"),
    (npoint_budget, ("2",), "n-point multiplicity must be in {2, 3, 4, 5, 6}, got str '2'"),
    (formula_disjoint_pairs, (9.0,), "g must be odd and >= 9, got float 9.0"),
    (formula_disjoint_pairs, (True,), "g must be odd and >= 9, got bool True"),
    (formula_disjoint_pairs, ("9",), "g must be odd and >= 9, got str '9'"),
])
def test_a_non_int_is_refused_by_its_rule(call, args, message):
    with pytest.raises(InvalidParameter) as raised:
        call(*args)
    assert str(raised.value) == message


# each public record that holds numbers, a valid instance, and the public
# functions that take it, the characters' own str among them; none takes an
# NPointBudget, and a row is taken in place of each row of the table
TABLE = build_table(build_pillow(2, 2))
RECORDS = {
    "BranchCharacters": (k3_characters(3), (
        str, lambda chars: verify_character_identities(k3(3), chars))),
    "NPointBudget": (npoint_budget(3), ()),
    "TableRow": (TABLE.rows[0], (lambda row: row.weighted(), *(
        lambda row, k=k, take=take: take(TABLE._replace(rows=TABLE.rows[:k] + (row,) + TABLE.rows[k + 1:]))
        for k in range(len(TABLE.rows)) for take in (verify_conservation, render_table, table_to_dict)))),
    "DegenerationTable": (TABLE, (verify_conservation, render_table, table_to_dict)),
}
UNHASHABLES = [[], [1], {}, {1: 2}, set(), bytearray(b"3")]
FIELDS = st.one_of(
    NUMBERS,
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from(UNHASHABLES),
    st.recursive(st.integers() | st.text(max_size=2) | st.none(),
                 lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=4),
    # the values a record's other fields take: row types, rows and tuples of them
    st.sampled_from([r.object_type for r in TABLE.rows]),
    st.lists(st.sampled_from(TABLE.rows + (TABLE.rows[0]._replace(count=0),)), max_size=5).map(tuple),
    st.sampled_from([TABLE.rows, (TABLE.rows,), TABLE.rows[:1] + (None,), TABLE]),
)


@pytest.mark.parametrize("name,field", [
    (name, field) for name, (record, _) in RECORDS.items() for field in record._fields
])
@pytest.mark.usefixtures("no_digit_limit")
@settings(max_examples=40, deadline=None)
@given(value=FIELDS)
def test_every_record_is_refused_or_handled(name, field, value):
    # each field of each record drawn from every kind of value: the record
    # made with it, or its _replace, raises a PillowDegError, or every public
    # function that takes the record returns or raises a PillowDegError
    record, takers = RECORDS[name]
    made = [
        lambda: record._replace(**{field: value}),
        lambda: type(record)(*(value if f == field else v for f, v in zip(record._fields, record))),
    ]
    for limit in (4300, 0):
        with int_digits(limit):
            for make in made:
                try:
                    changed = make()
                except PillowDegError:
                    continue
                # a number is an int, a row type one of the table's, rows a tuple of rows
                assert (type(value) is int if field not in ("object_type", "rows") else
                        value in [r.object_type for r in TABLE.rows] if field == "object_type" else
                        type(value) is tuple and all(type(r) is TableRow for r in value))
                for take in takers:
                    try:
                        take(changed)
                    except PillowDegError:
                        pass


@pytest.mark.parametrize("call", [
    lambda: verify_conservation(TABLE._replace(rows=None)),
    lambda: render_table(DegenerationTable(TABLE.g, None)),
    lambda: table_to_dict(TABLE._replace(rows=None)),
    lambda: verify_conservation(TABLE._replace(rows=(TABLE.rows[0]._replace(count=None),))),
    lambda: verify_character_identities(k3(3), BranchCharacters(None, 1, 2, 3)),
])
def test_a_record_that_cannot_be_taken_cannot_be_made(call):
    # each of these ended in a bare TypeError while its record could be made
    with pytest.raises(InvalidParameter):
        call()
