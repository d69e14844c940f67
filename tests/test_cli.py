"""Command-line interface: outputs, exports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from pillowdeg import pillow
from pillowdeg.checks import Report
from pillowdeg.cli import main
from pillowdeg.errors import MalformedComplex, PillowDegError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharacters:
    def test_k3_g9_text(self, capsys):
        code, out, _ = run_cli(capsys, "characters", "--family", "k3", "--g", "9")
        assert code == 0
        assert "b=48 n=840 k=168 t=72" in out
        assert out.count("PASS") == 4

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
        assert "disjoint_pairs_brute_vs_formula: 174 == 174" in out
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
                            lambda c, table=None: failing)
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

    def test_two_builds_per_configuration(self, capsys, monkeypatch):
        # each (a, b) once, and once more as the transpose (b, a)
        built = []
        original = pillow.build_pillow

        def counting(a, b):
            built.append((a, b))
            return original(a, b)

        monkeypatch.setattr(pillow, "build_pillow", counting)
        code, _, _ = run_cli(capsys, "verify", "--a", "2..3", "--b", "2..3")
        assert code == 0
        configurations = [(a, b) for a in (2, 3) for b in (2, 3)]
        assert len(built) == 2 * len(configurations)
        assert sorted(built) == sorted(configurations + [(b, a) for a, b in configurations])

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
        (MalformedComplex("forced: vertex on 4 lines"), 1),
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


class TestSizeLimits:
    @pytest.mark.parametrize("argv", [
        ("pillow", "--a", "100000", "--b", "100000"),
        ("pillow", "--a", "128", "--b", "129", "--export", "json"),
        ("table", "--a", "3", "--b", str(10**20)),
        ("pillow", "--a", "33", "--b", "32", "--verify"),
        ("verify", "--a", "33", "--b", "32", "--limit", "40"),
        ("verify", "--a", "2..40", "--b", "2..40", "--limit", "40"),
    ], ids=["pillow", "pillow-export", "table", "pillow-verify", "verify", "verify-range"])
    def test_oversized_input_exits_2_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limit" in err


def mostly(common, rare):
    """Draw from ``common`` three times in four, so that most generated
    argv get past argparse and the limits and actually run."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda strategy: strategy)


# Integers a user might pass: valid parameters, edge values, and values so
# large that any product with a parameter >= 2 is above both size limits,
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


@st.composite
def cli_argv(draw):
    """argv for one subcommand; every flag, required or not, may be absent."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values in OPTIONS[command] + [("--format", FORMATS)]:
        if draw(mostly(st.just(True), st.just(False))):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


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
    def test_every_custom_surface_exits_0_or_2(self, argv):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        elif "json" in argv:
            json.loads(out.getvalue())


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
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_table_json_byte_identical(self):
        cmd = [sys.executable, "-m", "pillowdeg", "table", "--a", "2", "--b", "2",
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_pillow_json_export_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, "pillow", "--a", "3", "--b", "2",
                                 "--export", "json")
        code2, out2, _ = run_cli(capsys, "pillow", "--a", "3", "--b", "2",
                                 "--export", "json")
        assert code1 == code2 == 0
        assert out1 == out2


EXPORT_TEXT = {
    "json": pillow.config_to_json,
    "faces": pillow.dot_face_adjacency,
    "lines": pillow.dot_line_intersection,
}
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
        assert f.text == EXPORT_TEXT[mode](pillow.build_pillow(a, b))
        assert max(f.sizes) <= WRITE_BOUND

    @pytest.mark.parametrize("a,b,mode", [(a, b, mode) for (a, b), mode in EXPORT_DIGESTS])
    def test_stdout_is_written_in_bounded_pieces(self, monkeypatch, a, b, mode):
        stdout = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["pillow", "--a", str(a), "--b", str(b), *EXPORT_ARGS[mode]])
        assert code == 0
        assert stdout.getvalue() == EXPORT_TEXT[mode](pillow.build_pillow(a, b))
        assert max(stdout.sizes) <= WRITE_BOUND

    def test_malformed_line_export_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # the endpoint check runs before --out is opened
        c = pillow.build_pillow(2, 2)
        foreign = c._replace(lines=c.lines + (pillow.Line(1, 999, "horizontal", "top"),))
        monkeypatch.setattr("pillowdeg.pillow.build_pillow", lambda a, b: foreign)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "pillow", "--a", "2", "--b", "2", "--export", "dot",
                                 "--dot-graph", "lines", "--out", "x.dot")
        assert (code, out) == (1, "")
        assert err == "error: line (1, 999) has an endpoint outside the vertex list\n"
        assert list(tmp_path.iterdir()) == []
