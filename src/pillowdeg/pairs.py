"""Disjoint-pair counting by exhaustive enumeration: the brute-force oracle.

Compares every unordered pair of edges, O(E^2) for E edges, and makes no
assumption about the input: loops and repeated endpoint pairs are counted
as they stand.  That independence is its job.  The verification paths
compare it with the closed form and with the O(V + E) degree route
(`pillowdeg.pillow.disjoint_pairs_via_degrees`), which is what the
singularity-distribution table uses.
"""
from __future__ import annotations

from typing import Sequence


def count_disjoint_pairs(edges: Sequence[tuple[int, int]]) -> int:
    """Number of index pairs i < j whose edges share no endpoint."""
    total = 0
    for i, (u1, v1) in enumerate(edges):
        for u2, v2 in edges[i + 1:]:
            if u2 != u1 and u2 != v1 and v2 != u1 and v2 != v1:
                total += 1
    return total
