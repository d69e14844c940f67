"""Branch-curve characters of a general surface projection.

A smooth projective surface, projected generically to the plane, is
branched over a plane curve with only nodes and cusps.  The degree of
that branch curve and its numbers of nodes, cusps, and turning points
(simple branch points of a further projection to a line) are determined
by four intersection numbers of the surface: the degree d = H^2, the
product K.H of canonical and hyperplane classes, K^2, and the
topological Euler number e(S).

Everything here is exact integer arithmetic; no floats anywhere.
"""
from __future__ import annotations

from collections import namedtuple

from .checks import Report
from .errors import InvalidParameter, NegativeCharacter, NonIntegralNodeCount


class SurfaceClasses(namedtuple("SurfaceClasses", "d kh k2 euler label")):
    """Intersection numbers of a smooth projective surface.

    d:     degree of the surface, H^2 (at least 1)
    kh:    K.H, canonical class against the hyperplane class
    k2:    K^2
    euler: topological Euler number e(S)
    label: free-text tag, e.g. a family name plus its parameter

    An immutable tuple; construction and ``_replace`` both reject d < 1
    and d + kh < -2.
    """

    __slots__ = ()

    def __new__(cls, d: int, kh: int, k2: int, euler: int, label: str = "") -> SurfaceClasses:
        if d < 1:
            raise InvalidParameter(f"surface degree must be >= 1, got {d}")
        # 2 g(H) - 2 = H^2 + K.H; a negative sectional genus is nonsense
        if d + kh < -2:
            raise InvalidParameter(
                f"sectional genus would be negative (d + kh = {d + kh} < -2)"
            )
        return tuple.__new__(cls, (d, kh, k2, euler, label))

    @classmethod
    def _make(cls, fields) -> SurfaceClasses:
        # _replace builds its copy through _make; validate it the same way
        return cls(*fields)


class BranchCharacters(namedtuple("BranchCharacters", "degree nodes cusps turning_points")):
    """Degree and singularity counts of a general branch curve."""

    __slots__ = ()

    def __str__(self) -> str:
        return (
            f"b={self.degree} n={self.nodes} k={self.cusps} t={self.turning_points}"
        )


def _class_product(c1: tuple[int, int], c2: tuple[int, int], s: SurfaceClasses) -> int:
    """Intersection product of p*K + q*H classes against the surface's numbers."""
    p1, q1 = c1
    p2, q2 = c2
    return p1 * p2 * s.k2 + (p1 * q2 + q1 * p2) * s.kh + q1 * q2 * s.d


def branch_characters(s: SurfaceClasses) -> BranchCharacters:
    """Characters (degree, nodes, cusps, turning points) of the branch curve
    of a general projection of the surface to the plane.

    Raises NonIntegralNodeCount when the branch degree b = 3d + K.H is odd
    (the node formula contains b^2/2), and NegativeCharacter when any count
    comes out negative -- both signal the surface is outside the regime
    where the projection has only nodes and cusps.
    """
    b = 3 * s.d + s.kh
    if b % 2 != 0:
        raise NonIntegralNodeCount(
            f"branch degree b = {b} is odd; node count b^2/2 - ... is not an integer"
        )
    n = -3 * s.k2 + s.euler + 24 * s.d + b * b // 2 - 15 * b
    k = 2 * s.k2 - s.euler - 15 * s.d + 9 * b
    t = s.euler - 3 * s.d + 2 * b
    for which, value in (("degree", b), ("nodes", n), ("cusps", k), ("turning_points", t)):
        if value < 0:
            raise NegativeCharacter(which, value)
    return BranchCharacters(b, n, k, t)


def verify_character_identities(s: SurfaceClasses, c: BranchCharacters) -> Report:
    """Check the four exact identities tying the characters to the surface.

    All four are reported with both sides' values; nothing is raised, so a
    deliberately corrupted set of characters shows up as failed checks.
    """
    b, n, k = c.degree, c.nodes, c.cusps
    report = Report(f"character identities for {s.label or s}")
    report.add(
        "node_cusp_sum_2n3k",
        2 * n + 3 * k,
        3 * s.d + b * b - 3 * b - s.euler,
    )
    report.add(
        "node_cusp_sum_2n2k",
        2 * n + 2 * k,
        -2 * s.k2 + (b - 12) * s.kh + (3 * b - 18) * s.d,
    )
    # in the (K, H) basis: the ramification curve R = K + 3H meets the
    # residual curve R0 = bH - 2R = -2K + (b - 6)H in 2(n + k) points, and
    # Hurwitz reads the sectional genus as 2g(H) - 2 = H^2 + K.H
    report.add("ramification_product", _class_product((1, 3), (-2, b - 6), s), 2 * (n + k))
    report.add("hurwitz", s.d + s.kh, -2 * s.d + b)
    return report


# ---------------------------------------------------------------------------
# The four surface families.


def veronese(r: int) -> SurfaceClasses:
    """r-th Veronese image of the plane: K^2 = 9, K.H = -3r, d = r^2, e = 3."""
    if r < 1:
        raise InvalidParameter(f"veronese parameter must be >= 1, got {r}")
    return SurfaceClasses(r * r, -3 * r, 9, 3, label=f"veronese r={r}")


def scroll_p1p1(r: int) -> SurfaceClasses:
    """P^1 x P^1 embedded by the (1, r) system: K^2 = 8, K.H = -2r-2, d = 2r."""
    if r < 1:
        raise InvalidParameter(f"scroll parameter must be >= 1, got {r}")
    return SurfaceClasses(2 * r, -2 * r - 2, 8, 4, label=f"scroll r={r}")


def del_pezzo(deg: int) -> SurfaceClasses:
    """Del Pezzo surface of degree deg in P^deg, 3 <= deg <= 9:
    K^2 = H^2 = deg, K.H = -deg, e = 12 - deg."""
    if not 3 <= deg <= 9:
        raise InvalidParameter(f"del Pezzo degree must be in [3, 9], got {deg}")
    return SurfaceClasses(deg, -deg, deg, 12 - deg, label=f"del pezzo deg={deg}")


def k3(g: int) -> SurfaceClasses:
    """K3 surface of degree 2g-2 in P^g (trivial canonical class, e = 24)."""
    if g < 3:
        raise InvalidParameter(f"k3 genus must be >= 3, got {g}")
    return SurfaceClasses(2 * g - 2, 0, 0, 24, label=f"k3 g={g}")


# Closed-form character polynomials for each family.  These are evaluated
# directly, independent of branch_characters, so the two routes cross-check
# each other in the verification sweeps.


def veronese_characters(r: int) -> BranchCharacters:
    if r < 1:
        raise InvalidParameter(f"veronese parameter must be >= 1, got {r}")
    return BranchCharacters(
        3 * r * (r - 1),
        3 * (r - 1) * (r - 2) * (3 * r * r + 3 * r - 8) // 2,
        3 * (r - 1) * (4 * r - 5),
        3 * (r - 1) ** 2,
    )


def scroll_characters(r: int) -> BranchCharacters:
    if r < 1:
        raise InvalidParameter(f"scroll parameter must be >= 1, got {r}")
    return BranchCharacters(4 * r - 2, 4 * (r - 1) * (2 * r - 3), 6 * r - 6, 2 * r)


def del_pezzo_characters(deg: int) -> BranchCharacters:
    if not 3 <= deg <= 9:
        raise InvalidParameter(f"del Pezzo degree must be in [3, 9], got {deg}")
    return BranchCharacters(2 * deg, 2 * (deg - 2) * (deg - 3), 6 * (deg - 2), 12)


def k3_characters(g: int) -> BranchCharacters:
    if g < 3:
        raise InvalidParameter(f"k3 genus must be >= 3, got {g}")
    return BranchCharacters(
        6 * g - 6,
        18 * g * g - 78 * g + 84,
        24 * (g - 2),
        6 * g + 18,
    )


# each family: the parameter that picks its member, the sweep of that
# parameter verify_families checks, the constructor and the closed form
FAMILIES = {
    "veronese": ("r", range(1, 21), veronese, veronese_characters),
    "scroll": ("r", range(1, 21), scroll_p1p1, scroll_characters),
    "delpezzo": ("deg", range(3, 10), del_pezzo, del_pezzo_characters),
    "k3": ("g", range(3, 101), k3, k3_characters),
}


def verify_families() -> Report:
    """Closed forms versus the general formulas, plus the four identities,
    over the parameter sweep of every family in FAMILIES."""
    report = Report("families")
    for name, (_, params, constructor, closed_form) in FAMILIES.items():
        mismatches = 0
        identity_failures = 0
        for p in params:
            s = constructor(p)
            chars = branch_characters(s)
            if chars != closed_form(p):
                mismatches += 1
            if not verify_character_identities(s, chars).all_passed:
                identity_failures += 1
        report.add(f"{name}_closed_forms", mismatches, 0)
        report.add(f"{name}_identities", identity_failures, 0)
    report.add(
        "veronese3_equals_delpezzo9",
        branch_characters(veronese(3)),
        branch_characters(del_pezzo(9)),
    )
    return report
