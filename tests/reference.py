"""Test-side references: plain renderings of the records that the
library's own routes are compared with.  Not collected; the test modules
import it by name."""

from itertools import combinations

from pillowdeg import PillowConfig, Triangle


def config_to_dict(c: PillowConfig) -> dict:
    """JSON-ready dict with stable ordering: vertices ascending, lines by
    endpoint pair, triangles by (side, row, col, half).  The reference for
    the JSON export: ``config_json_pieces`` renders its indent=2 text."""
    return {
        "a": c.a,
        "b": c.b,
        "g": c.g,
        "vertices": list(c.vertices),
        "lines": [
            {"u": ln.u, "v": ln.v, "kind": ln.kind, "side": ln.side} for ln in c.lines
        ],
        "triangles": [
            {
                "v1": tri.vertices[0],
                "v2": tri.vertices[1],
                "v3": tri.vertices[2],
                "side": tri.side,
                "row": tri.row,
                "col": tri.col,
                "half": tri.half,
            }
            for tri in c.triangles
        ],
    }


def edge_pairs(tri: Triangle) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The endpoint pairs of a triangle's three sides, each sorted when its
    vertices are."""
    a, b, c = tri.vertices
    return ((a, b), (a, c), (b, c))


def reference_count(lines) -> int:
    """Unordered pairs of lines, or of endpoint pairs, that share no
    endpoint, by testing every pair of them: O(E^2), and it reads only
    the first two fields of each record.  The oracle for the degree route
    and the closed form."""
    ends = [{ln[0], ln[1]} for ln in lines]
    return sum(1 for s, t in combinations(ends, 2) if not s & t)
