"""Disjoint-pair counting by exhaustive enumeration: the brute-force oracle.

Decides every unordered pair of edges on its own, O(E^2) for E edges, and
makes no assumption about the input: loops and repeated endpoint pairs are
counted as they stand.  That independence is its job.  The verification
paths compare it with the closed form and with the O(V + E) degree route
(`pillowdeg.pillow.disjoint_pairs_via_degrees`), which is what the
singularity-distribution table uses.

The pair tests run bit-parallel: each endpoint label gets an ``int`` mask
with bit j set when edge j has that endpoint, so the later edges that meet
edge i are the set bits of one OR of two masks.  The work is still
quadratic, but in big-integer digits of 30 bits rather than in interpreter
steps, and it reads no degree and no closed form.
"""
from __future__ import annotations

from typing import Sequence


def count_disjoint_pairs(edges: Sequence[tuple[int, int]]) -> int:
    """Number of index pairs i < j whose edges share no endpoint."""
    at: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        bit = 1 << i
        at[u] = at.get(u, 0) | bit
        at[v] = at.get(v, 0) | bit
    total = 0
    later = len(edges)
    for i, (u, v) in enumerate(edges):
        later -= 1
        # the edges j > i that meet edge i, one bit each
        total += later - ((at[u] | at[v]) >> (i + 1)).bit_count()
    return total
