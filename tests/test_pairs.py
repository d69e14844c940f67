"""The degree route agrees with a set-based reference, ``reference_count``,
on arbitrary line lists, and the table's 2-points agree with it on the
pillow."""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from reference import reference_count
from test_cli import traced_peak

from pillowdeg import (
    Line,
    PillowConfig,
    build_pillow,
    build_table,
    disjoint_pairs_via_degrees,
    verify_pillow,
)

# labels far outside one machine word, on either side of zero, and str
# labels, which compare with each other but not with the ints
int_labels = st.one_of(
    st.integers(-12, 12),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(-2**64 - 4, -2**64 + 4),
)
str_labels = st.sampled_from("pqrstu")


@st.composite
def configs(draw):
    """A complex of up to 80 Lines, each on two labels of one small pool,
    so endpoint pairs repeat, of either kind; in drawn order or sorted by
    pair, so that a list of distinct int pairs strictly increases.  Its
    vertex list is drawn from the same labels, so some endpoints lie
    outside it and some vertices on no line."""
    ints = draw(st.lists(int_labels, min_size=2, max_size=10, unique=True))
    strs = draw(st.lists(str_labels, max_size=6, unique=True))
    pools = [ints, strs] if len(strs) >= 2 else [ints]
    lines = []
    for _ in range(draw(st.integers(0, 80))):
        pool = draw(st.sampled_from(pools))
        u, v = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        lines.append(Line(min(u, v), max(u, v), draw(st.sampled_from(("x", "y"))), "top"))
    if draw(st.booleans()):
        lines.sort(key=lambda ln: (isinstance(ln.u, str), ln.pair))
    vertices = draw(st.lists(st.sampled_from([*ints, *strs]), unique=True))
    return PillowConfig(2, 2, tuple(vertices), tuple(lines), ())


def lines_config(ends) -> PillowConfig:
    """A complex with no vertex list or triangles whose lines join the
    endpoint pairs ``ends``, each sorted, in the order given."""
    return PillowConfig(2, 2, (), tuple(Line(*sorted(e), "x", "top") for e in ends), ())


@settings(deadline=None)
@given(configs())
def test_degree_route_matches_reference(c):
    assert disjoint_pairs_via_degrees(c) == reference_count(c.lines)


@st.composite
def long_configs(draw):
    """Up to 300 lines over a small pool of wide int labels, so that lines
    still meet and repeat often, in drawn order."""
    pool = draw(st.lists(int_labels, min_size=2, max_size=30, unique=True))
    n = draw(st.integers(0, 300))
    ends = [draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
            for _ in range(n)]
    return lines_config(ends)


@settings(max_examples=60, deadline=None)
@given(long_configs())
def test_degree_route_matches_reference_on_long_lists(c):
    assert disjoint_pairs_via_degrees(c) == reference_count(c.lines)


@pytest.mark.parametrize("e", [29, 30, 31, 60, 61, 64, 65])
class TestLineCounts:
    """Line lists of e lines whose disjoint pairs are known in closed form:
    the degree route and the reference both give that count."""

    @staticmethod
    def count(ends) -> int:
        c = lines_config(ends)
        assert disjoint_pairs_via_degrees(c) == reference_count(c.lines)
        return disjoint_pairs_via_degrees(c)

    def test_matching(self, e):
        assert self.count([(2 * i, 2 * i + 1) for i in range(e)]) == comb(e, 2)

    def test_path(self, e):
        # consecutive lines of a path meet, every other pair is disjoint
        assert self.count([(i, i + 1) for i in range(e)]) == comb(e, 2) - (e - 1)

    def test_star_and_repeats(self, e):
        assert self.count([(0, i) for i in range(1, e + 1)]) == 0
        assert self.count([(1, 2)] * e) == 0
        # each copy of the repeated line misses the one other line
        assert self.count([(1, 2)] * e + [(3, 4)]) == e

    def test_random_with_repeats(self, e):
        rng = random.Random(e)
        ends = [rng.sample(range(-8, 9), 2) for _ in range(e)]
        ends[e // 2] = ends[0]
        assert self.count(ends) == self.count(sorted(map(sorted, ends)))


SHAPES_OF_THREE_BLOCKS = [(64, 64), (2, 2048), (2048, 2)]


@pytest.mark.parametrize("a,b", SHAPES_OF_THREE_BLOCKS)
def test_degree_route_memory_is_one_count_per_vertex(a, b):
    # traced on Python 3.11: 0.59 MB for the 8,194 vertex degrees at these
    # shapes, against 3.0-3.1 MB for a Counter of the 24,576 endpoint
    # pairs, which increasing pairs never need
    c = build_pillow(a, b)
    assert traced_peak(lambda: disjoint_pairs_via_degrees(c)) < 1_500_000


@pytest.mark.parametrize("a,b", SHAPES_OF_THREE_BLOCKS)
def test_verify_pillow_passes_across_three_blocks(a, b):
    report = verify_pillow(build_pillow(a, b))
    # the degree route agrees with the closed form
    assert report["disjoint_pairs_degree_method_vs_formula"].passed
    assert report.all_passed, str(report)


def test_empty_and_singleton():
    for ends, count in [((), 0), (((1, 2),), 0), (((1, 2), (3, 4)), 1), (((1, 2), (2, 3)), 0)]:
        c = lines_config(ends)
        assert disjoint_pairs_via_degrees(c) == reference_count(c.lines) == count, ends


def test_frozen_pillow_values():
    expected = {(2, 2): 174, (2, 3): 468, (3, 3): 1179, (5, 4): 6558}
    for (a, b), value in expected.items():
        c = build_pillow(a, b)
        assert reference_count(c.lines) == value, (a, b)
        assert disjoint_pairs_via_degrees(c) == value, (a, b)


@pytest.mark.parametrize("a", range(2, 7))
@pytest.mark.parametrize("b", range(2, 7))
def test_table_two_points_match_brute_force(a, b):
    c = build_pillow(a, b)
    assert build_table(c).row("two_points").count == reference_count(c.lines)
