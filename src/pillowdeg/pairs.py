"""Disjoint-pair counting by exhaustive enumeration: the brute-force oracle.

Decides every unordered pair of edges on its own, O(E^2) for E edges, and
makes no assumption about the input: loops and repeated endpoint pairs are
counted as they stand.  That independence is its job.  The verification
paths compare it with the closed form and with the O(V + E) degree route
(`pillowdeg.pillow.disjoint_pairs_via_degrees`), which is what the
singularity-distribution table uses.

The pair tests run bit-parallel, on the later edges one block of BLOCK at
a time: each endpoint label gets an ``int`` mask with bit j set when edge j
of the block has that endpoint, so the edges of the block that meet edge i
are the set bits of one OR of two masks.  The work is still quadratic, in
30-bit big-integer digits rather than interpreter steps; the masks hold
O(V * BLOCK) bits, and it reads no degree and no closed form.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import islice

# later edges a block, so one block's masks take at most 1 KiB a label
BLOCK = 8192


def count_disjoint_pairs(edges: Sequence[tuple[int, int]]) -> int:
    """Number of index pairs i < j whose edges share no endpoint."""
    total = 0
    for start in range(0, len(edges), BLOCK):
        block = edges[start:start + BLOCK]
        at: dict[int, int] = {}
        for j, (u, v) in enumerate(block):
            bit = 1 << j
            at[u] = at.get(u, 0) | bit
            at[v] = at.get(v, 0) | bit
        # every edge before the block against each of its edges
        total += sum(len(block) - (at.get(u, 0) | at.get(v, 0)).bit_count()
                     for u, v in islice(edges, start))
        later = len(block)
        for i, (u, v) in enumerate(block):
            later -= 1
            # the edges j > i of the block that meet edge i, one bit each
            total += later - ((at[u] | at[v]) >> (i + 1)).bit_count()
    return total
