"""Command-line interface: outputs, exports, exit codes, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pillowdeg import pillow, surfaces
from pillowdeg.checks import Report
from pillowdeg.cli import _canonical, _finish, build_parser, main
from pillowdeg.errors import MalformedComplex, PillowDegError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_env():
    """The environment users run the CLI in: this package on the path and
    a buffered stdout, with no ``PYTHONUNBUFFERED``."""
    env = dict(os.environ, PYTHONPATH=str(Path(pillow.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_python(*args, **kwargs):
    """Run ``python args`` in ``python_env()``; output is captured unless
    ``kwargs`` route it elsewhere."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=python_env(), timeout=120, **kwargs)


class TestCharacters:
    def test_k3_g9_text(self, capsys):
        code, out, _ = run_cli(capsys, "characters", "--family", "k3", "--g", "9")
        assert code == 0
        assert "b=48 n=840 k=168 t=72" in out
        assert out.count("PASS") == 3

    def test_veronese_r1_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "characters", "--family", "veronese", "--r", "1")
        assert code == 0
        assert "b=0 n=0 k=0 t=0" in out

    def test_custom_equals_veronese_r2(self, capsys):
        code1, out1, _ = run_cli(capsys, "characters", "--family", "veronese",
                                 "--r", "2", "--format", "json")
        code2, out2, _ = run_cli(capsys, "characters", "--family", "custom",
                                 "--d", "4", "--kh", "-6", "--k2", "9", "--euler", "3",
                                 "--format", "json")
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1["characters"] == doc2["characters"]
        assert doc1["checks"] == doc2["checks"]
        surface1 = {k: v for k, v in doc1["surface"].items() if k != "label"}
        surface2 = {k: v for k, v in doc2["surface"].items() if k != "label"}
        assert surface1 == surface2

    def test_json_payload_shape(self, capsys):
        code, out, _ = run_cli(capsys, "characters", "--family", "delpezzo",
                               "--deg", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["characters"] == {
            "degree": 12, "nodes": 24, "cusps": 24, "turning_points": 12,
        }
        assert doc["all_passed"] is True
        assert doc["exit_code"] == 0

    @pytest.mark.parametrize("argv", [
        ("characters", "--family", "veronese"),            # missing --r
        ("characters", "--family", "k3"),                  # missing --g
        ("characters", "--family", "custom", "--d", "4"),  # missing the rest
        ("characters", "--family", "delpezzo", "--deg", "10"),
        ("characters", "--family", "k3", "--g", "2"),
        ("characters", "--family", "nope", "--r", "2"),    # argparse choice
    ])
    def test_invalid_parameters_exit_2(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    def test_custom_odd_branch_degree_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "characters", "--family", "custom",
                               "--d", "2", "--kh", "1", "--k2", "0", "--euler", "40")
        assert code == 2
        assert "odd" in err


class TestPillow:
    def test_verify_summary(self, capsys):
        code, out, _ = run_cli(capsys, "pillow", "--a", "2", "--b", "2", "--verify")
        assert code == 0
        assert "V=10 E=24 F=16 g=9" in out
        assert "disjoint_pairs_degree_method_vs_formula: 174 == 174" in out
        assert "all checks passed" in out

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "pillow", "--a", "1", "--b", "5")
        assert code == 2
        assert ">= 2" in err

    def test_export_json_file(self, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        code, out, _ = run_cli(capsys, "pillow", "--a", "2", "--b", "3",
                               "--export", "json", "--out", str(out_path))
        assert code == 0
        assert f"wrote {out_path}" in out
        doc = json.loads(out_path.read_text())
        assert doc["g"] == 13
        assert len(doc["lines"]) == 36
        assert len(doc["triangles"]) == 24

    def test_export_dot_file_has_triangle_nodes(self, capsys, tmp_path):
        out_path = tmp_path / "p33.dot"
        code, _, _ = run_cli(capsys, "pillow", "--a", "3", "--b", "3",
                             "--export", "dot", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        nodes = [ln for ln in text.splitlines()
                 if ln.endswith('";') and " -- " not in ln]
        assert len(nodes) == 36

    def test_export_dot_lines_graph(self, capsys):
        code, out, _ = run_cli(capsys, "pillow", "--a", "2", "--b", "2",
                               "--export", "dot", "--dot-graph", "lines")
        assert code == 0
        assert out.startswith("graph line_intersection {")
        nodes = [ln for ln in out.splitlines()
                 if ln.endswith('";') and " -- " not in ln]
        assert len(nodes) == 24

    def test_export_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "pillow", "--a", "2", "--b", "2",
                               "--export", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == 2 and doc["b"] == 2

    def test_json_format_with_export_stays_one_document(self, capsys):
        code, out, _ = run_cli(capsys, "pillow", "--a", "2", "--b", "2",
                               "--export", "dot", "--format", "json")
        assert code == 0
        doc = json.loads(out)  # would fail if two documents were interleaved
        assert doc["export"].startswith("graph face_adjacency {")

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "x.json"
        code, _, err = run_cli(capsys, "pillow", "--a", "2", "--b", "2",
                               "--export", "json", "--out", str(target))
        assert code == 3
        assert "i/o error" in err

    def test_unwritable_out_names_the_path_as_typed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "pillow", "--a", "2", "--b", "2",
                               "--export", "json", "--out", "./missing/x.json")
        assert code == 3
        assert err.startswith("i/o error: ") and "./missing/x.json" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_out_is_an_io_error(self, capsys, monkeypatch, tmp_path, fmt):
        # an empty path is a path that cannot be opened, not "no --out"
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "pillow", "--a", "2", "--b", "2", "--export",
                                 "json", "--out", "", "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("i/o error: ")
        assert list(tmp_path.iterdir()) == []

    def test_out_without_export_exit_2_before_building(self, capsys, monkeypatch, tmp_path):
        def unreachable(a, b):
            raise AssertionError("built a pillow for an invalid invocation")

        monkeypatch.setattr("pillowdeg.pillow.build_pillow", unreachable)
        target = tmp_path / "x.json"
        for path, fmt in ((str(target), "text"), (str(target), "json"), ("", "text")):
            code, out, err = run_cli(capsys, "pillow", "--a", "2", "--b", "2",
                                     "--out", path, "--format", fmt)
            assert (code, out, err) == (2, "", "error: --out requires --export\n")
        assert not target.exists()


class TestTable:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--a", "2", "--b", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["Object", "Number", "Branch", "Nodes", "Cusps"]
        assert "Totals:" in out
        assert "840" in out and "168" in out and "72" in out

    def test_json_totals_g13(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--a", "2", "--b", "3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"]["g"] == 13
        assert doc["table"]["totals"] == {"branch": 96, "nodes": 2112, "cusps": 264}
        assert doc["all_passed"] is True

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--a", "2", "--b", "0")
        assert code == 2

    def test_failed_checks_exit_1(self, capsys, monkeypatch):
        failing = Report("forced failure")
        failing.add("forced", 0, 1)
        monkeypatch.setattr("pillowdeg.degeneration.verify_conservation",
                            lambda table: failing)
        code, _, _ = run_cli(capsys, "table", "--a", "2", "--b", "2")
        assert code == 1


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2..3", "--b", "2..3")
        assert code == 0
        assert "families" in out
        assert "configuration (2, 2)" in out
        assert "configuration (3, 3)" in out
        assert out.strip().splitlines()[-1].startswith("overall: PASS")

    def test_single_configuration(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2..2", "--b", "2..2")
        assert code == 0
        assert "configuration (2, 2)" in out
        assert "configuration (2, 3)" not in out

    @pytest.mark.parametrize("a_range", ["3..2", "x..y", "", "2..9"])
    def test_bad_ranges_exit_2(self, capsys, a_range):
        code, _, _ = run_cli(capsys, "verify", "--a", a_range, "--b", "2..2")
        assert code == 2

    @pytest.mark.parametrize("a_range,b_range,built_once", [
        ("2..3", "2..3", [(2, 2), (2, 3), (3, 2), (3, 3)]),
        # off the diagonal no (b, a) is built
        ("2..3", "4..4", [(2, 4), (3, 4)]),
    ], ids=["square", "off_diagonal"])
    def test_each_bidegree_built_once(self, capsys, monkeypatch, a_range, b_range,
                                      built_once):
        # the box's bidegrees and no others, each built exactly once
        built = []
        original = pillow.build_pillow

        def counting(a, b):
            built.append((a, b))
            return original(a, b)

        monkeypatch.setattr(pillow, "build_pillow", counting)
        code, out, _ = run_cli(capsys, "verify", "--a", a_range, "--b", b_range)
        assert code == 0
        assert sorted(built) == built_once
        # the reports keep the box's a-major order
        a_lo, a_hi = map(int, a_range.split(".."))
        b_lo, b_hi = map(int, b_range.split(".."))
        assert re.findall(r"configuration \(\d+, \d+\)", out) == [
            f"configuration ({a}, {b})"
            for a in range(a_lo, a_hi + 1) for b in range(b_lo, b_hi + 1)]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2..2", "--b", "2..2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["configurations"] == 1
        assert doc["all_passed"] is True


class TestExitCodeContract:
    """Exit code 0 iff every check passed; 1 on a malformed complex; 2 on
    usage and every other package error; 3 on I/O failure."""

    def test_no_subcommand_exit_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--a", "2", "--b", "2", "--nope")
        assert code == 2

    def test_fixture_of_invocations(self, capsys, tmp_path):
        fixture = [
            (("characters", "--family", "scroll", "--r", "3"), 0),
            (("characters", "--family", "scroll", "--r", "0"), 2),
            (("pillow", "--a", "2", "--b", "2"), 0),
            (("pillow", "--a", "0", "--b", "2"), 2),
            (("table", "--a", "3", "--b", "2"), 0),
            (("verify", "--a", "2", "--b", "2"), 0),
            (("verify", "--a", "2..1", "--b", "2"), 2),
        ]
        for argv, expected in fixture:
            code, _, _ = run_cli(capsys, *argv)
            assert code == expected, argv

    @pytest.mark.parametrize("error,expected", [
        (MalformedComplex("forced: vertex on 4 lines"), 2),
        (PillowDegError("forced: base class"), 2),
    ])
    def test_package_errors_end_with_exit_code(self, capsys, monkeypatch, error, expected):
        def broken(a, b):
            raise error

        monkeypatch.setattr("pillowdeg.pillow.build_pillow", broken)
        code, out, err = run_cli(capsys, "table", "--a", "2", "--b", "2")
        assert code == expected
        assert out == ""
        assert err == f"error: {error}\n"


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollector:
    """main turns the cyclic garbage collector off while a command runs and
    leaves it as the caller had it, whatever the exit code."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv,expected", [
        (("pillow", "--a", "2", "--b", "2"), 0),
        (("table", "--a", "2", "--b", "2"), 1),
        (("verify", "--a", "2..1", "--b", "2"), 2),
        (("table", "--a", "2", "--b", "2", "--nope"), 2),
        (("pillow", "--a", "2", "--b", "2", "--export", "json", "--out", "{missing}"), 3),
    ], ids=["ok", "malformed", "bad-range", "usage", "io"])
    def test_state_restored(self, capsys, monkeypatch, tmp_path, enabled, argv, expected):
        if expected == 1:
            # the table's fault as verify_configuration reports it
            def failing(table):
                report = Report("forced")
                report.add("line_degrees_in_local_models", "forced: vertex on 4 lines", None)
                return report

            monkeypatch.setattr("pillowdeg.degeneration.verify_conservation", failing)
        argv = [arg.format(missing=tmp_path / "missing" / "x.json") for arg in argv]
        was_enabled = gc.isenabled()
        try:
            set_collector(enabled)
            code = main(argv)
            after = gc.isenabled()
        finally:
            set_collector(was_enabled)
        capsys.readouterr()
        assert (code, after) == (expected, enabled)
        # only the process entry freezes the heap, and only as it exits
        assert gc.get_freeze_count() == 0

    def test_import_freezes_nothing(self):
        result = run_python("-c", "import gc, pillowdeg.cli; print(gc.get_freeze_count())")
        assert (result.returncode, result.stdout) == (0, b"0\n")

    def test_entry_freezes_the_heap_and_keeps_atexit(self):
        probe = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
                 "from pillowdeg.cli import run\n"
                 "run(['table', '--a', '2', '--b', '2'])\n")
        result = run_python("-c", probe)
        assert (result.returncode, result.stderr) == (0, b"True\n")
        assert b"conservation checks:" in result.stdout

    def test_off_while_the_command_runs(self, capsys, monkeypatch):
        seen = []
        build = pillow.build_pillow

        def watched(a, b):
            seen.append(gc.isenabled())
            return build(a, b)

        monkeypatch.setattr("pillowdeg.pillow.build_pillow", watched)
        assert run_cli(capsys, "pillow", "--a", "2", "--b", "2")[0] == 0
        assert seen == [False]


class TestSizeLimits:
    @pytest.mark.parametrize("argv", [
        ("pillow", "--a", "100000", "--b", "100000"),
        ("pillow", "--a", "128", "--b", "129", "--export", "json"),
        ("table", "--a", "3", "--b", str(10**20)),
        ("pillow", "--a", "128", "--b", "129", "--verify"),
        ("verify", "--a", "128", "--b", "129", "--limit", "200"),
        ("verify", "--a", "2..40", "--b", "2..40", "--limit", "40"),
    ], ids=["pillow", "pillow-export", "table", "pillow-verify", "verify", "verify-range"])
    def test_oversized_input_exits_2_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limit" in err


@contextlib.contextmanager
def int_digits(limit):
    """Python's limit on the digits of an int converted to or from str set
    to ``limit``, 0 for none, and put back; Pythons without it have none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


NINES = "9" * 4299

# every argument parses under the default limit of 4,300 digits, but a
# product or character past it must still be written in full: the
# characters whole, and the cell products in their error line
HUGE_INTEGERS = [
    (("characters", "--family", "k3", "--g", "9" * 4000), 0),
    (("characters", "--family", "k3", "--g", "9" * 4000, "--format", "json"), 0),
    (("characters", "--family", "veronese", "--r", "9" * 1200), 0),
    (("characters", "--family", "custom", "--d", "2" + "0" * 2200, "--kh", "0",
      "--k2", "0", "--euler", "24", "--format", "json"), 0),
    (("table", "--a", "99", "--b", NINES), 2),
    (("verify", "--a", "99", "--b", NINES, "--limit", NINES), 2),
]
HUGE_IDS = ["k3", "k3-json", "veronese", "custom-json", "table", "verify"]


def expected_characters(argv):
    """The characters of a ``characters`` argv, computed in full."""
    family = argv[argv.index("--family") + 1]
    with int_digits(0):
        if family == "custom":
            d, kh, k2, euler = (int(argv[argv.index(flag) + 1])
                                for flag in ("--d", "--kh", "--k2", "--euler"))
            surface = surfaces.SurfaceClasses(d, kh, k2, euler)
        else:
            name, _, member, _ = surfaces.FAMILIES[family]
            surface = member(int(argv[argv.index(f"--{name}") + 1]))
        return surfaces.branch_characters(surface)


class TestHugeIntegers:
    """An integer past Python's limit on int digits ends in exit 0 with the
    exact result or in exit 2 with one ``error:`` line, never in a
    traceback, and the caller's limit is left as it was."""

    @pytest.mark.parametrize("argv,expected", HUGE_INTEGERS, ids=HUGE_IDS)
    def test_in_process(self, capsys, argv, expected):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert code == expected
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "above the limit 16384" in err
            return
        assert err == ""
        chars = expected_characters(argv)
        with int_digits(0):
            if "json" in argv:
                assert json.loads(out)["characters"] == chars._asdict()
            else:
                assert f"characters: {chars}\n" in out

    @pytest.mark.parametrize("argv,expected", HUGE_INTEGERS, ids=HUGE_IDS)
    def test_subprocess(self, argv, expected):
        result = run_python("-m", "pillowdeg", *argv)
        assert result.returncode == expected
        assert b"Traceback" not in result.stderr
        if expected == 2:
            assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
        else:
            assert result.stderr == b""

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    @pytest.mark.parametrize("argv", [
        HUGE_INTEGERS[0][0],
        HUGE_INTEGERS[-1][0],
        ("verify", "--a", "2..x", "--b", "2"),
        ("table", "--a", "2", "--b", "2"),
        ("table", "--a", "2", "--b", "2", "--nope"),
    ], ids=["huge", "huge-error", "bad-range", "ok", "usage"])
    def test_caller_limit_restored(self, capsys, argv, limit):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no limit on int digits")
        with int_digits(limit):
            main(list(argv))
            assert sys.get_int_max_str_digits() == limit
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["2.." + "9" * 4301, "9" * 4301])
    def test_ranges_parsed_under_the_default_limit(self, capsys, text):
        # the command runs with no limit, but its ranges are arguments
        code, out, err = run_cli(capsys, "verify", "--a", text, "--b", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse range ")


def mostly(common, rare):
    """Draw from ``common`` three times in four, so that most generated
    argv get past argparse and the limits and actually run."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda strategy: strategy)


# Integers a user might pass: valid parameters, edge values, and values so
# large that any product with a parameter >= 2 is above the cell limit,
# so a generated input is either cheap to run or rejected at once.
INTEGERS = mostly(
    st.integers(2, 6),
    st.one_of(st.integers(-1, 1), st.sampled_from([20000, 10**6, 2**63, 10**20])),
).map(str)
INT_ARGS = mostly(INTEGERS, st.sampled_from(["", "x", "1.5", "0x10", "--"]))
RANGES = mostly(
    st.tuples(INTEGERS, INTEGERS).map("..".join),
    st.one_of(INT_ARGS, st.sampled_from(["3..", "..4", "..", "a..b", "2...3", "2..3..4"])),
)
# placeholders for --out, replaced by paths under a temporary directory
OUT_OK, OUT_MISSING = "<out-ok>", "<out-missing>"
OPTIONS = {
    "characters": [
        ("--family", st.sampled_from(["veronese", "scroll", "delpezzo", "k3", "custom", "cubic"])),
        ("--r", INT_ARGS), ("--deg", INT_ARGS), ("--g", INT_ARGS), ("--d", INT_ARGS),
        ("--kh", INT_ARGS), ("--k2", INT_ARGS), ("--euler", INT_ARGS),
    ],
    "pillow": [
        ("--a", INT_ARGS), ("--b", INT_ARGS), ("--verify", None),
        ("--export", st.sampled_from(["json", "dot", "png"])),
        ("--dot-graph", st.sampled_from(["faces", "lines", "planes"])),
        ("--out", st.sampled_from([OUT_OK, OUT_MISSING])),
    ],
    "table": [("--a", INT_ARGS), ("--b", INT_ARGS)],
    "verify": [("--a", RANGES), ("--b", RANGES), ("--limit", INT_ARGS)],
}
FORMATS = mostly(st.sampled_from(["text", "json"]), st.just("xml"))


# forms only argparse reads: a flag joined to its value by "=", a flag cut
# to a prefix such as --form or --exp, a flag and its value given twice, a
# value that starts with "-", a flag without its value, an unknown flag and
# a help flag
FORMS = ("joined", "abbreviated", "repeated", "dash value", "bare", "unknown", "help")


@st.composite
def cli_argv(draw):
    """argv for one subcommand; every flag, required or not, may be absent,
    and one argv in four takes one of FORMS at one of its flags."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    groups = []
    for flag, values in OPTIONS[command] + [("--format", FORMATS)]:
        if draw(mostly(st.just(True), st.just(False))):
            groups.append([flag] if values is None else [flag, draw(values)])
    if draw(mostly(st.just(False), st.just(True))):
        form = draw(st.sampled_from(FORMS))
        at = draw(st.integers(0, len(groups)))
        flag, *value = groups[at] if at < len(groups) else ["--format", "json"]
        groups[at:at + 1] = {
            "joined": [[f"{flag}={value[0]}" if value else flag]],
            "abbreviated": [[flag[:draw(st.integers(3, len(flag)))], *value]],
            "repeated": [[flag, *value]] * 2,
            "dash value": [[flag, draw(st.sampled_from(["-6", "-x", "--", "-"]))]],
            "bare": [[flag]],
            "unknown": [["--nope"], [flag, *value]],
            "help": [[draw(st.sampled_from(["-h", "--help"]))], [flag, *value]],
        }[form]
    return [command, *(arg for group in groups for arg in group)]


class TestArgvProperties:
    @settings(max_examples=200, deadline=None)
    @given(argv=cli_argv())
    @example(argv=["pillow", "--a", "3", "--b", "2", "--export", "json", "--out", OUT_MISSING])
    @example(argv=["verify", "--a", "2..6", "--b", "2..6", "--format", "json"])
    @example(argv=["table", "--a", "2"])
    def test_every_argv_ends_with_a_documented_exit_code(self, tmp_path_factory, argv):
        out_dir = tmp_path_factory.getbasetemp()
        paths = {OUT_OK: str(out_dir / "export.out"),
                 OUT_MISSING: str(out_dir / "missing" / "export.out")}
        argv = [paths.get(arg, arg) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if code == 3:
            assert err.getvalue().startswith("i/o error: ")


class TestCanonicalParse:
    """The option table's own parse returns argparse's namespace wherever
    it takes an argv, and every other argv goes to argparse."""

    @settings(max_examples=500, deadline=None)
    @given(argv=cli_argv())
    @example(argv=["pillow", "--verify", "--b", "2", "--a", "3", "--out", "x", "--dot-graph",
                   "lines", "--export", "dot", "--format", "json"])
    @example(argv=["verify", "--a", "2..3", "--b", "2", "--limit", "8"])
    def test_agrees_with_argparse(self, argv):
        parsed = _canonical(argv)
        if parsed is not None:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = build_parser().parse_args(argv)
            assert list(vars(parsed).items()) == list(vars(expected).items())

    @pytest.mark.parametrize("argv", [
        ["characters", "--family", "custom", "--d", "4", "--kh", "-6", "--k2", "9",
         "--euler", "3"],
        ["table", "--a", "3", "--b", "2", "--form", "json"],
        ["pillow", "--exp", "json", "--a", "2", "--b", "2"],
        ["table", "--a=3", "--b", "2"],
        ["table", "--a", "3", "--b", "2", "--a", "4"],
        ["pillow", "--a", "2", "--b", "2", "--verify", "--verify"],
        ["table", "--a", "3", "--b", "2", "--nope"],
        ["table", "--a", "3"],
        ["table", "--a", "3", "--b"],
        ["pillow", "--a", "2", "--b", "2", "--out"],
        ["table", "--a", "x", "--b", "2"],
        ["pillow", "--a", "2", "--b", "2", "--export", "png"],
        ["verify", "--a", "2", "--b", "2", "-h"],
        ["tables", "--a", "3", "--b", "2"],
        ["--help"],
        [],
    ])
    def test_other_forms_go_to_argparse(self, argv):
        assert _canonical(argv) is None

    def test_an_int_past_the_callers_digit_limit_goes_to_argparse(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no limit on int digits")
        argv = ["table", "--a", "2", "--b", "9" * 4301]
        with int_digits(4300):
            assert _canonical(argv) is None
        with int_digits(0):
            assert _canonical(argv).b == int("9" * 4301)

    # a fresh interpreter, without site, as the CI step runs it
    PROBE = ("import sys\n"
             "from pillowdeg.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)),"
             " file=sys.stderr)\n")

    def test_canonical_argv_loads_no_argparse(self):
        result = run_python("-S", "-c", self.PROBE, "table", "--a", "2", "--b", "2")
        assert (result.returncode, result.stderr) == (0, b"0\n")
        assert b"conservation checks:" in result.stdout

    def test_other_forms_still_run_through_argparse(self):
        result = run_python("-S", "-c", self.PROBE, "table", "--a=2", "--b", "2")
        assert (result.returncode, result.stderr.split()[:2]) == (0, [b"0", b"argparse"])
        assert b"conservation checks:" in result.stdout


# Intersection numbers far outside every family, so most runs end in a
# negative character or an odd branch degree: d + K.H decides the parity.
WIDE = st.integers(-10**40, 10**40)


@st.composite
def custom_argv(draw):
    d, kh, k2, euler = (draw(WIDE) for _ in range(4))
    kh += (d + kh + draw(st.integers(0, 1))) % 2
    argv = ["characters", "--family", "custom",
            "--d", str(d), "--kh", str(kh), "--k2", str(k2), "--euler", str(euler)]
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


class TestCustomCharacterProperties:
    @settings(max_examples=300, deadline=None)
    @given(argv=custom_argv())
    @example(argv=["characters", "--family", "custom", "--d", "4", "--kh", "-6",
                   "--k2", "9", "--euler", "3"])
    @example(argv=["characters", "--family", "custom", "--d", str(10**40), "--kh", "1",
                   "--k2", str(-10**40), "--euler", "0", "--format", "json"])
    @example(argv=["characters", "--family", "custom", "--d", "2" + "0" * 2200, "--kh", "0",
                   "--k2", "0", "--euler", "24", "--format", "json"])
    def test_every_custom_surface_exits_0_or_2(self, argv):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        elif "json" in argv:
            # the characters may pass the default limit on int digits
            with int_digits(0):
                json.loads(out.getvalue())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def traced_peak(call):
    """The most memory, in bytes, that ``call()`` holds at once above what
    was held when it started, under ``tracemalloc``."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


# SHA-256 of each export as written before the exports were rebuilt from
# templates: the bytes must not change.
EXPORT_DIGESTS = {
    ((4, 3), "json"): "c91af9c6aa27a1ce1b8cde207d4982210cf8973ca559bb13acc61fd33aca5d4d",
    ((4, 3), "faces"): "0d7e3f4ae0cbae5848495f694339dfc3acbe281e94a85f02852a6f5046d222d0",
    ((4, 3), "lines"): "a236dea310a9d53838610463bb832d8d19c45b0a3bff2693d7448e6639ce1468",
    ((16, 16), "json"): "4a11921803f4bca69287b80be018cf358188825404eda8721d8775ad29de41c3",
    ((16, 16), "faces"): "068c99362674e60a29c6e79db98bbea40335184c3b68a9ea4a320e523910867e",
    ((16, 16), "lines"): "ef965106aa36c01e1138c3f163421ef41ee520f7fc3292c40b43e79e4171c72b",
    ((2, 64), "json"): "247b03a0ffc815fcc5654369abfe60cfa132eae4c797db560de1ff69a77bd547",
    ((2, 64), "faces"): "e3e052ab6b3378e7d5e118a57b2b591d024c66f3c70fdea78c7b159a7b356ebe",
    ((2, 64), "lines"): "53d5441eab4e8da4ed745e13add28438b92f21c12537d9b8eddfeff42bfd601f",
    ((64, 2), "json"): "eb558ac86b58c3d045655173262f50a6146e3896ce36f03ad2775dd8c684bb8d",
    ((64, 2), "faces"): "571254d06ae6536a33eb2b99608c026d8be2e020b51daeee03922e9ef86edfef",
    ((64, 2), "lines"): "5fd5e04ee15c4502637dca4b1b10cb2a1c05362e9b04a724c661176bc80ad6f5",
}
EXPORT_ARGS = {
    "json": ("--export", "json"),
    "faces": ("--export", "dot"),
    "lines": ("--export", "dot", "--dot-graph", "lines"),
}


class TestDeterminism:
    @pytest.mark.parametrize("a,b,mode", [(a, b, mode) for (a, b), mode in EXPORT_DIGESTS])
    def test_export_bytes_pinned(self, capsys, tmp_path, a, b, mode):
        argv = ("pillow", "--a", str(a), "--b", str(b), *EXPORT_ARGS[mode])
        digest = EXPORT_DIGESTS[(a, b), mode]
        out_file = tmp_path / "export"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sha256(out) == digest

    def test_table_json_byte_identical(self):
        cmd = [sys.executable, "-m", "pillowdeg", "table", "--a", "2", "--b", "2",
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_out_file_complete_when_the_process_ends(self, tmp_path):
        # the process exits through the frozen heap, not through main's return
        out_file = tmp_path / "export.dot"
        result = run_python("-m", "pillowdeg", "pillow", "--a", "16", "--b", "16",
                            *EXPORT_ARGS["lines"], "--out", str(out_file))
        assert (result.returncode, result.stderr) == (0, b"")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
            EXPORT_DIGESTS[(16, 16), "lines"]

    def test_pillow_json_export_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, "pillow", "--a", "3", "--b", "2",
                                 "--export", "json")
        code2, out2, _ = run_cli(capsys, "pillow", "--a", "3", "--b", "2",
                                 "--export", "json")
        assert code1 == code2 == 0
        assert out1 == out2


class FailingFlush(io.StringIO):
    """A stdout whose writes are buffered and whose flush fails, as a full
    disk fails a buffered stdout."""

    def flush(self):
        raise OSError(28, "No space left on device")


class TestStdoutFailures:
    """A failed write to stdout, the last one of a buffered stdout included,
    and a closed stdout end with one ``i/o error:`` line and exit 3, never
    with "Exception ignored", exit 120 or a traceback."""

    def test_failed_flush_in_process_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", FailingFlush())
        assert main(["table", "--a", "2", "--b", "2"]) == 3
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"

    def test_closed_stdout_in_process_exit_3_before_building(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr("pillowdeg.pillow.build_pillow", built.append)
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["pillow", "--a", "2", "--b", "2"]) == 3
        assert built == []
        assert capsys.readouterr().err == "i/o error: stdout is closed\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--a", "2..3", "--b", "2..3"),
        ("characters", "--family", "k3", "--g", "9", "--format", "json"),
        ("table", "--a", "2", "--b", "2", "--format", "json"),
        ("--help",),
    ])
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_exit_3(self, argv):
        with open("/dev/full", "w") as full:
            result = run_python("-m", "pillowdeg", *argv, stdout=full)
        assert result.returncode == 3
        assert result.stderr == b"i/o error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("argv,head", [
        (("pillow", "--a", "64", "--b", "64", "--export", "dot"), b"graph face"),
        (("verify", "--a", "2..3", "--b", "2..3"), b""),
    ])
    def test_closed_pipe_exit_3(self, argv, head):
        # as `| head -c 10` does: the reader takes what it wants and leaves
        with subprocess.Popen([sys.executable, "-m", "pillowdeg", *argv], env=python_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert os.read(proc.stdout.fileno(), len(head)) == head
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == b"i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [
        ("table", "--a", "2", "--b", "2", "--format", "json"),
        ("pillow", "--a", "2", "--b", "2", "--export", "json"),
        ("verify", "--a", "2..3", "--b", "2..3"),
        ("pillow", "--a", "2", "--b", "2", "--export", "json", "--out", "p22.json"),
    ])
    def test_closed_stdout_exit_3_before_any_work(self, tmp_path, argv):
        result = run_python("-m", "pillowdeg", *argv, stdout=None, cwd=tmp_path,
                            preexec_fn=lambda: os.close(1))
        assert result.returncode == 3
        assert result.stderr == b"i/o error: stdout is closed\n"
        assert list(tmp_path.iterdir()) == []


# the 64 KiB of pillow.PIECE_CHARS, which a piece passes by less than one
# record, and no record of a built pillow reaches 256 characters
WRITE_BOUND = 2**16 + 256


class WriteRecorder(io.StringIO):
    """A text stream that records the length of every write and keeps its
    text when closed."""

    def __init__(self):
        super().__init__()
        self.sizes = []
        self.text = None

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)

    def close(self):
        if not self.closed:
            self.text = self.getvalue()
        super().close()


class Discard(io.TextIOBase):
    """A text stream that keeps nothing of what is written to it."""

    def write(self, s):
        return len(s)


class TestStreamedExports:
    @pytest.mark.parametrize("a,b,mode", [(a, b, mode) for (a, b), mode in EXPORT_DIGESTS])
    def test_out_file_is_written_in_bounded_pieces(self, capsys, monkeypatch, a, b, mode):
        opened = []

        def recording_open(path, mode="r"):
            assert (path, mode) == ("x.export", "w")
            opened.append(WriteRecorder())
            return opened[-1]

        monkeypatch.setattr("pillowdeg.cli.open", recording_open, raising=False)
        code, out, _ = run_cli(capsys, "pillow", "--a", str(a), "--b", str(b),
                               *EXPORT_ARGS[mode], "--out", "x.export")
        assert (code, out) == (0, f"pillow ({a}, {b}): V={2 * a * b + 2} E={6 * a * b} "
                                  f"F={4 * a * b} g={2 * a * b + 1}\nwrote x.export\n")
        [f] = opened
        assert sha256(f.text) == EXPORT_DIGESTS[(a, b), mode]
        assert max(f.sizes) <= WRITE_BOUND

    @pytest.mark.parametrize("a,b,mode", [(a, b, mode) for (a, b), mode in EXPORT_DIGESTS])
    def test_stdout_is_written_in_bounded_pieces(self, monkeypatch, a, b, mode):
        stdout = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["pillow", "--a", str(a), "--b", str(b), *EXPORT_ARGS[mode]])
        assert code == 0
        assert sha256(stdout.getvalue()) == EXPORT_DIGESTS[(a, b), mode]
        assert max(stdout.sizes) <= WRITE_BOUND

    def test_malformed_line_export_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # a bidegree above the cell limit raises before --out is opened
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "pillow", "--a", "129", "--b", "128",
                                 "--export", "json", "--out", "x.json")
        assert (code, out) == (2, "")
        assert err == ("error: bidegree (129, 128) has a*b = 16512 cells, "
                       "above the limit 16384\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["json", "faces", "lines"])
    def test_json_document_streams_the_export(self, monkeypatch, mode):
        # the document is written in bounded pieces and reads as json.dumps
        # of itself, the export whole inside it
        stdout = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["pillow", "--a", "16", "--b", "16", *EXPORT_ARGS[mode], "--format", "json"])
        text = stdout.getvalue()
        doc = json.loads(text)
        assert code == 0
        assert text == json.dumps(doc, indent=2) + "\n"
        assert list(doc) == ["command", "parameters", "summary", "export", "checks",
                             "all_passed", "artifacts", "exit_code"]
        assert sha256(doc["export"]) == EXPORT_DIGESTS[(16, 16), mode]
        # escaping at most doubles the characters of a DOT or JSON export
        assert len(stdout.sizes) > 3 and max(stdout.sizes) <= 2 * WRITE_BOUND

    @pytest.mark.parametrize("mode", ["json", "lines"])
    def test_json_document_holds_no_whole_export(self, monkeypatch, mode):
        # beyond what writing the same export to --out holds, the document
        # holds one escaped piece at a time, not the export
        argv = ["pillow", "--a", "32", "--b", "32", *EXPORT_ARGS[mode]]
        monkeypatch.setattr(sys, "stdout", Discard())
        monkeypatch.setattr("pillowdeg.cli.open", lambda path, mode="r": Discard(),
                            raising=False)
        out = traced_peak(lambda: main([*argv, "--out", "x.export"]))
        doc = traced_peak(lambda: main([*argv, "--format", "json"]))
        export = {"json": pillow.config_json_pieces, "lines": pillow.dot_line_pieces}[mode]
        size = len("".join(export(pillow.build_pillow(32, 32))))
        assert doc - out < size // 2

    def test_json_document_escapes_each_piece_as_the_whole(self, monkeypatch):
        # JSON escapes each character on its own, so the export may be cut
        # between any two characters
        text = 'a"b\\c\nd\te\u00e9\u2028\U0001F600\x00\x1f\0export\0 end'
        args = Namespace(command="pillow", format="json", a=2)
        whole = json.dumps({"command": "pillow", "parameters": {"a": 2}, "summary": 1,
                            "export": text, "checks": [], "all_passed": True,
                            "artifacts": [], "exit_code": 0}, indent=2) + "\n"
        cuts = [[text[:k], text[k:]] for k in range(len(text) + 1)] + [list(text), []]
        for pieces in cuts:
            stdout = io.StringIO()
            monkeypatch.setattr(sys, "stdout", stdout)
            assert _finish(args, {"summary": 1}, [], (), iter(pieces)) == 0
            expected = whole.replace(json.dumps(text), json.dumps("".join(pieces)))
            assert stdout.getvalue() == expected
