"""The brute-force pair kernel agrees with a set-based reference on
arbitrary input, and the table's degree route agrees with it on the
pillow."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from test_cli import traced_peak

from pillowdeg import build_pillow, build_table, count_disjoint_line_pairs, verify_pillow
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


# labels far outside one machine word, on either side of zero
wide_labels = st.one_of(
    st.integers(-12, 12),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(-2**64 - 4, -2**64 + 4),
)


@st.composite
def long_edge_lists(draw):
    """Up to 300 edges over a small pool of wide labels, so that edges still
    meet often; the kernel's masks then span up to ten 30-bit digits."""
    pool = draw(st.lists(wide_labels, min_size=1, max_size=30, unique=True))
    n = draw(st.integers(0, 300))
    ends = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2 * n, max_size=2 * n))
    return [(pool[ends[2 * i]], pool[ends[2 * i + 1]]) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(long_edge_lists())
def test_kernel_matches_reference_on_long_lists(edges):
    assert pairs.count_disjoint_pairs(edges) == reference_count(edges)


@pytest.mark.parametrize("e", [29, 30, 31, 60, 61, 64, 65])
class TestDigitBoundaries:
    """Edge counts on either side of the 30-bit digit and 64-bit word
    boundaries of the masks."""

    def test_matching(self, e):
        assert pairs.count_disjoint_pairs([(2 * i, 2 * i + 1) for i in range(e)]) == comb(e, 2)

    def test_path(self, e):
        # consecutive edges of a path meet, every other pair is disjoint
        edges = [(i, i + 1) for i in range(e)]
        assert pairs.count_disjoint_pairs(edges) == comb(e, 2) - (e - 1)

    def test_star_and_repeats(self, e):
        assert pairs.count_disjoint_pairs([(0, i) for i in range(1, e + 1)]) == 0
        assert pairs.count_disjoint_pairs([(1, 2)] * e) == 0
        assert pairs.count_disjoint_pairs([(7, 7)] * e) == 0

    def test_random_with_loops_and_repeats(self, e):
        rng = random.Random(e)
        edges = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(e)]
        edges[e // 2] = edges[0]
        edges[-1] = (edges[1][0], edges[1][0])
        assert pairs.count_disjoint_pairs(edges) == reference_count(edges)


@st.composite
def blocked_edge_lists(draw):
    """Up to 80 edges over a few labels, with loops and repeated edges."""
    edges = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=80))
    if edges:
        u, v = draw(st.sampled_from(edges))
        edges += [(u, v), (u, u)]
    return edges


@settings(max_examples=200, deadline=None)
@given(block=st.sampled_from([1, 2, 3, 64]), edges=blocked_edge_lists())
def test_kernel_matches_reference_in_small_blocks(block, edges):
    # every edge before a block, and every pair inside one, is counted once
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairs, "BLOCK", block)
        assert pairs.count_disjoint_pairs(edges) == reference_count(edges)


SHAPES_OF_THREE_BLOCKS = [(64, 64), (2, 2048), (2048, 2)]


@pytest.mark.parametrize("a,b", SHAPES_OF_THREE_BLOCKS)
def test_kernel_memory_is_one_block_of_masks(a, b):
    # traced on Python 3.10-3.13: 1.96-3.92 MB at these shapes, against
    # 14.3-18.4 MB for masks of all E = 24,576 bits
    edges = [ln[:2] for ln in build_pillow(a, b).lines]
    assert traced_peak(lambda: pairs.count_disjoint_pairs(edges)) < 8_000_000


@pytest.mark.parametrize("a,b", SHAPES_OF_THREE_BLOCKS)
def test_verify_pillow_passes_across_three_blocks(a, b):
    assert 6 * a * b == 3 * pairs.BLOCK
    report = verify_pillow(build_pillow(a, b))
    # brute force agrees with the closed form and with the degree route
    assert report["disjoint_pairs_brute_vs_formula"].passed
    assert report.all_passed, str(report)


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
