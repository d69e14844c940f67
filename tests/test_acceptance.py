"""Acceptance suite: one test per criterion, exact integer equality
throughout (zero tolerance), with the stated runtime budgets enforced.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import subprocess
import sys
import time

from pillowdeg import (
    branch_characters,
    build_pillow,
    build_table,
    count_disjoint_line_pairs,
    del_pezzo,
    del_pezzo_characters,
    disjoint_pairs_via_degrees,
    formula_disjoint_pairs,
    k3,
    k3_characters,
    npoint_budget,
    quadric_stage,
    scroll_characters,
    scroll_p1p1,
    two_surface_stage,
    veronese,
    veronese_characters,
    verify_character_identities,
    verify_sphere_triangulation,
)
from pillowdeg.cli import main as cli_main


def _report(number: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.3f}s)")


def _family_sweep():
    for r in range(1, 21):
        yield veronese(r), veronese_characters(r)
    for r in range(1, 21):
        yield scroll_p1p1(r), scroll_characters(r)
    for deg in range(3, 10):
        yield del_pezzo(deg), del_pezzo_characters(deg)
    for g in range(3, 101):
        yield k3(g), k3_characters(g)


def test_criterion_1_family_closed_forms():
    start = time.perf_counter()
    for surface, expected in _family_sweep():
        assert branch_characters(surface) == expected, surface.label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "family closed forms", elapsed)


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    for surface, _ in _family_sweep():
        report = verify_character_identities(surface, branch_characters(surface))
        assert report.all_passed, f"{surface.label}: {report}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "identity suite", elapsed)


def test_criterion_3_sphere_triangulation():
    start = time.perf_counter()
    for a in range(2, 9):
        for b in range(2, 9):
            c = build_pillow(a, b)
            assert len(c.vertices) == 2 * a * b + 2
            assert len(c.lines) == 6 * a * b
            assert len(c.triangles) == 4 * a * b
            report = verify_sphere_triangulation(c)
            assert report["euler_characteristic"].lhs == 2
            assert report.all_passed, f"({a}, {b}): {report}"
            degree_three = [v for v, d in c.line_degrees().items() if d == 3]
            assert len(degree_three) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "sphere triangulation 2..8 x 2..8", elapsed)


def test_criterion_4_disjoint_pair_oracle():
    start = time.perf_counter()
    for a in range(2, 7):
        for b in range(2, 7):
            c = build_pillow(a, b)
            brute = count_disjoint_line_pairs(c)
            assert brute == formula_disjoint_pairs(c.g), (a, b)
            assert brute == disjoint_pairs_via_degrees(c), (a, b)
    assert count_disjoint_line_pairs(build_pillow(2, 2)) == 174
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "disjoint-pair oracle 2..6 x 2..6", elapsed)


def test_criterion_5_conservation():
    start = time.perf_counter()
    for a in range(2, 7):
        for b in range(2, 7):
            c = build_pillow(a, b)
            g = c.g
            table = build_table(c)
            totals = (table.totals.branch_points, table.totals.nodes, table.totals.cusps)
            assert totals == (6 * g + 18, 18 * g * g - 78 * g + 84, 24 * (g - 2)), (a, b)
            smooth = branch_characters(k3(g))
            assert totals == (smooth.turning_points, smooth.nodes, smooth.cusps), (a, b)
    table9 = build_table(build_pillow(2, 2))
    assert (table9.totals.branch_points, table9.totals.nodes, table9.totals.cusps) == (
        72, 840, 168,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, "singularity conservation 2..6 x 2..6", elapsed)


def test_criterion_6_local_global_del_pezzo():
    start = time.perf_counter()
    for n in range(3, 7):
        assert del_pezzo_characters(n) == branch_characters(del_pezzo(n)), n
        assert npoint_budget(n).branch_points == 12 - n, n
    elapsed = time.perf_counter() - start
    _report(6, "n-point Del Pezzo closed forms vs general formula", elapsed)


def test_criterion_7_stage_contracts():
    start = time.perf_counter()
    for a in range(2, 7):
        for b in range(2, 7):
            quad = quadric_stage(build_pillow(a, b))
            assert len(quad.cells) == 2 * a * b, (a, b)
            for face in quad.cells:
                assert len(set(face.boundary)) == 4
                nw, ne, se, sw = face.corners
                cycle = {tuple(sorted(p)) for p in ((nw, ne), (ne, se), (se, sw), (sw, nw))}
                assert {ln.pair for ln in face.boundary} == cycle
            two = two_surface_stage(build_pillow(a, b))
            top, bottom = (set(face.vertices) for face in two.cells)
            assert (len(top) - 1, len(bottom) - 1, len(top & bottom) - 1) == (
                a * b + a + b, a * b + a + b, 2 * a + 2 * b - 1,
            ), (a, b)
    elapsed = time.perf_counter() - start
    _report(7, "stage contracts 2..6 x 2..6", elapsed)


def test_criterion_8_cli_determinism_and_exit_codes(tmp_path, capsys):
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "pillowdeg", "table", "--a", "2", "--b", "2",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["exit_code"] == 0

    fixture = [
        (["characters", "--family", "k3", "--g", "9"], 0),
        (["characters", "--family", "k3", "--g", "2"], 2),
        (["characters", "--family", "veronese", "--r", "1"], 0),
        (["pillow", "--a", "2", "--b", "2", "--verify"], 0),
        (["pillow", "--a", "1", "--b", "5"], 2),
        (["pillow", "--a", "2", "--b", "2", "--export", "json",
          "--out", str(tmp_path / "no_dir" / "x.json")], 3),
        (["table", "--a", "2", "--b", "3"], 0),
        (["verify", "--a", "2..3", "--b", "2..2"], 0),
        (["verify", "--a", "3..2", "--b", "2..2"], 2),
    ]
    for argv, expected in fixture:
        code = cli_main(argv)
        capsys.readouterr()
        assert code == expected, argv
    elapsed = time.perf_counter() - start
    _report(8, "CLI determinism and exit codes", elapsed)
