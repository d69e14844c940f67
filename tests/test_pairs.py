"""The brute-force pair kernel agrees with a set-based reference on
arbitrary input, and the table's degree route agrees with it on the
pillow."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from pillowdeg import build_pillow, build_table, count_disjoint_line_pairs
from pillowdeg import pairs


def reference_count(edges):
    return sum(
        1
        for (u1, v1), (u2, v2) in combinations(edges, 2)
        if not ({u1, v1} & {u2, v2})
    )


edge_lists = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25)),
    max_size=60,
)


@given(edge_lists)
def test_kernel_matches_reference(edges):
    assert pairs.count_disjoint_pairs(edges) == reference_count(edges)


def test_empty_and_singleton():
    assert pairs.count_disjoint_pairs([]) == 0
    assert pairs.count_disjoint_pairs([(1, 2)]) == 0
    assert pairs.count_disjoint_pairs([(1, 2), (3, 4)]) == 1
    assert pairs.count_disjoint_pairs([(1, 2), (2, 3)]) == 0


def test_frozen_pillow_values():
    expected = {(2, 2): 174, (2, 3): 468, (3, 3): 1179, (5, 4): 6558}
    for (a, b), value in expected.items():
        c = build_pillow(a, b)
        assert pairs.count_disjoint_pairs([ln.pair for ln in c.lines]) == value, (a, b)
        assert count_disjoint_line_pairs(c) == value, (a, b)


@pytest.mark.parametrize("a", range(2, 7))
@pytest.mark.parametrize("b", range(2, 7))
def test_table_two_points_match_brute_force(a, b):
    c = build_pillow(a, b)
    assert build_table(c).row("two_points").count == count_disjoint_line_pairs(c)


def test_table_never_calls_brute_kernel(monkeypatch):
    def forbidden(edges):
        raise AssertionError("build_table called the brute-force pair kernel")

    monkeypatch.setattr(pairs, "count_disjoint_pairs", forbidden)
    table = build_table(build_pillow(8, 8))
    assert table.row("two_points").count == 71634
