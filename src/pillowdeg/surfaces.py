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
from .errors import (InvalidParameter, NegativeCharacter, NonIntegralNodeCount, _Record, _integer,
                     _record, _text)


class SurfaceClasses(_Record, namedtuple("SurfaceClasses", "d kh k2 euler label")):
    """Intersection numbers of a smooth projective surface.

    d:     degree of the surface, H^2 (at least 1)
    kh:    K.H, canonical class against the hyperplane class
    k2:    K^2
    euler: topological Euler number e(S)
    label: free-text tag, e.g. a family name plus its parameter

    An immutable tuple; construction and ``_replace`` both reject a number
    that is not an int, d < 1 and d + kh < -2.
    """

    __slots__ = ()

    def __new__(cls, d: int, kh: int, k2: int, euler: int, label: str = "") -> SurfaceClasses:
        _integer(d, "surface degree must be >= 1", 1)
        for number in (kh, k2, euler):
            _integer(number, "kh, k2 and euler must be ints")
        # 2 g(H) - 2 = H^2 + K.H; a negative sectional genus is nonsense
        if d + kh < -2:
            raise InvalidParameter(f"sectional genus would be negative (d + kh = {_text(d + kh)} < -2)")
        return tuple.__new__(cls, (d, kh, k2, euler, label))


class BranchCharacters(_Record, namedtuple("BranchCharacters", "degree nodes cusps turning_points")):
    """Degree and singularity counts of a general branch curve; construction
    and ``_replace`` both reject a count that is not an int."""

    __slots__ = ()

    def __new__(cls, degree: int, nodes: int, cusps: int, turning_points: int) -> BranchCharacters:
        return _record(cls, (degree, nodes, cusps, turning_points), "branch characters must be ints")

    def __str__(self) -> str:
        return " ".join(f"{k}={_text(n, False)}" for k, n in zip("bnkt", self))


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
        raise NonIntegralNodeCount(f"branch degree b = {_text(b, strict=False)} is odd; "
                                   "node count b^2/2 - ... is not an integer")
    n = -3 * s.k2 + s.euler + 24 * s.d + b * b // 2 - 15 * b
    k = 2 * s.k2 - s.euler - 15 * s.d + 9 * b
    t = s.euler - 3 * s.d + 2 * b
    for which, value in (("degree", b), ("nodes", n), ("cusps", k), ("turning_points", t)):
        if value < 0:
            raise NegativeCharacter(which, value)
    return BranchCharacters(b, n, k, t)


def verify_character_identities(s: SurfaceClasses, c: BranchCharacters) -> Report:
    """Check the three exact identities tying the characters to the surface.

    All three are reported with both sides' values; nothing is raised, so a
    deliberately corrupted set of characters shows up as failed checks.
    """
    b, n, k = c.degree, c.nodes, c.cusps
    try:
        report = Report(f"character identities for {s.label or s}")
    except ValueError:  # an unlabelled surface too long to print
        report = Report("character identities for an unlabelled surface")
    report.add(
        "node_cusp_sum_2n3k",
        2 * n + 3 * k,
        3 * s.d + b * b - 3 * b - s.euler,
    )
    # in the (K, H) basis: the ramification curve R = K + 3H meets the
    # residual curve R0 = bH - 2R = -2K + (b - 6)H in 2(n + k) points, and
    # R.R0 expands to the right-hand side
    report.add(
        "node_cusp_sum_2n2k",
        2 * n + 2 * k,
        -2 * s.k2 + (b - 12) * s.kh + (3 * b - 18) * s.d,
    )
    # Hurwitz reads the sectional genus as 2g(H) - 2 = H^2 + K.H
    report.add("hurwitz", s.d + s.kh, -2 * s.d + b)
    return report


# ---------------------------------------------------------------------------
# The four surface families.

# each family's domain, for its constructor and its closed form: _integer's
# rule, least parameter and greatest
_DOMAINS = {
    "veronese": ("veronese parameter must be >= 1", 1, None),
    "scroll": ("scroll parameter must be >= 1", 1, None),
    "delpezzo": ("del Pezzo degree must be in [3, 9]", 3, 9),
    "k3": ("k3 genus must be >= 3", 3, None),
}


def veronese(r: int) -> SurfaceClasses:
    """r-th Veronese image of the plane: K^2 = 9, K.H = -3r, d = r^2, e = 3."""
    _integer(r, *_DOMAINS["veronese"])
    return SurfaceClasses(r * r, -3 * r, 9, 3, label=f"veronese r={_text(r)}")


def scroll_p1p1(r: int) -> SurfaceClasses:
    """P^1 x P^1 embedded by the (1, r) system: K^2 = 8, K.H = -2r-2, d = 2r."""
    _integer(r, *_DOMAINS["scroll"])
    return SurfaceClasses(2 * r, -2 * r - 2, 8, 4, label=f"scroll r={_text(r)}")


def del_pezzo(deg: int) -> SurfaceClasses:
    """Del Pezzo surface of degree deg in P^deg, 3 <= deg <= 9:
    K^2 = H^2 = deg, K.H = -deg, e = 12 - deg."""
    _integer(deg, *_DOMAINS["delpezzo"])
    return SurfaceClasses(deg, -deg, deg, 12 - deg, label=f"del pezzo deg={deg}")


def k3(g: int) -> SurfaceClasses:
    """K3 surface of degree 2g-2 in P^g (trivial canonical class, e = 24)."""
    _integer(g, *_DOMAINS["k3"])
    return SurfaceClasses(2 * g - 2, 0, 0, 24, label=f"k3 g={_text(g)}")


# Closed-form character polynomials for each family, each behind the domain
# check of the family's constructor.  They render no label, so a parameter
# of any size has its characters, and they are evaluated independently of
# branch_characters, so the two routes cross-check each other in the sweeps.


def veronese_characters(r: int) -> BranchCharacters:
    _integer(r, *_DOMAINS["veronese"])
    return BranchCharacters(
        3 * r * (r - 1),
        3 * (r - 1) * (r - 2) * (3 * r * r + 3 * r - 8) // 2,
        3 * (r - 1) * (4 * r - 5),
        3 * (r - 1) ** 2,
    )


def scroll_characters(r: int) -> BranchCharacters:
    _integer(r, *_DOMAINS["scroll"])
    return BranchCharacters(4 * r - 2, 4 * (r - 1) * (2 * r - 3), 6 * r - 6, 2 * r)


def del_pezzo_characters(deg: int) -> BranchCharacters:
    _integer(deg, *_DOMAINS["delpezzo"])
    return BranchCharacters(2 * deg, 2 * (deg - 2) * (deg - 3), 6 * (deg - 2), 12)


def k3_characters(g: int) -> BranchCharacters:
    _integer(g, *_DOMAINS["k3"])
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
    """Closed forms versus the general formulas over the parameter sweep of
    every family in FAMILIES, and veronese(3) against del_pezzo(9), the one
    surface two families share.  The identities hold for every output of
    ``branch_characters``, so they are left to ``verify_character_identities``."""
    report = Report("families")
    for name, (_, params, constructor, closed_form) in FAMILIES.items():
        report.add(f"{name}_closed_forms",
                   sum(1 for p in params if branch_characters(constructor(p)) != closed_form(p)), 0)
    report.add(
        "veronese3_equals_delpezzo9",
        branch_characters(veronese(3)),
        branch_characters(del_pezzo(9)),
    )
    return report
