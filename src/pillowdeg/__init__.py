"""Exact combinatorics of pillow plane configurations and branch curves.

The package builds the pillow configuration of bidegree (a, b) -- two
triangulated a x b grids glued along their boundary into a triangulation
of the 2-sphere -- verifies its incidence structure, computes the
branch-curve characters (degree, nodes, cusps, turning points) of general
surface projections, and assembles the table describing how those
singularities collect on the configuration's doubled lines.  All
arithmetic is exact.
"""

from .checks import Check, Report
from .degeneration import (
    DegenerationTable,
    NPointBudget,
    TableRow,
    TableTotals,
    build_table,
    npoint_budget,
    render_table,
    table_to_dict,
    verify_configuration,
    verify_conservation,
)
from .errors import (
    InvalidParameter,
    MalformedComplex,
    NegativeCharacter,
    NonIntegralNodeCount,
    PillowDegError,
)
from .pillow import (
    Line,
    PillowConfig,
    Triangle,
    build_pillow,
    config_json_pieces,
    disjoint_pairs_via_degrees,
    dot_face_pieces,
    dot_line_pieces,
    formula_disjoint_pairs,
    grid_rows,
    is_complex_isomorphism,
    transpose_map,
    verify_pillow,
    verify_sphere_triangulation,
    verify_stages,
)
from .surfaces import (
    BranchCharacters,
    SurfaceClasses,
    branch_characters,
    del_pezzo,
    del_pezzo_characters,
    k3,
    k3_characters,
    scroll_characters,
    scroll_p1p1,
    veronese,
    veronese_characters,
    verify_character_identities,
    verify_families,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCharacters",
    "Check",
    "DegenerationTable",
    "InvalidParameter",
    "Line",
    "MalformedComplex",
    "NPointBudget",
    "NegativeCharacter",
    "NonIntegralNodeCount",
    "PillowConfig",
    "PillowDegError",
    "Report",
    "SurfaceClasses",
    "TableRow",
    "TableTotals",
    "Triangle",
    "branch_characters",
    "build_pillow",
    "build_table",
    "config_json_pieces",
    "del_pezzo",
    "del_pezzo_characters",
    "disjoint_pairs_via_degrees",
    "dot_face_pieces",
    "dot_line_pieces",
    "formula_disjoint_pairs",
    "grid_rows",
    "is_complex_isomorphism",
    "k3",
    "k3_characters",
    "npoint_budget",
    "render_table",
    "scroll_characters",
    "scroll_p1p1",
    "table_to_dict",
    "transpose_map",
    "verify_character_identities",
    "verify_configuration",
    "verify_conservation",
    "verify_families",
    "verify_pillow",
    "verify_sphere_triangulation",
    "verify_stages",
    "veronese",
    "veronese_characters",
]
