"""Golden CLI corpus: the stdout, stderr and exit code of every command
below, pinned by SHA-256.

The commands cover each subcommand in text and JSON, the verify box up to
2..12 squared, ``pillow --verify`` up to (33, 32), the table up to
(64, 64), every surface family, one ``custom`` failure of each error class,
the size limits, an export embedded in the JSON document, a file export,
an I/O failure, an empty ``--out`` and ``--out`` without ``--export``.
Each argv is split as a shell would split it and runs in-process through
``cli.main`` from a fresh temporary working directory, so ``--out`` paths
stay relative and the output never names the directory.  One row of each
subcommand, an exit-2 row and an exit-3 row also run as ``python -m
pillowdeg`` processes with a buffered stdout, against the same digests.
The digests were taken at commit 195b0bf and are the same on Python 3.10
and 3.11, except the rows of ``--out`` without ``--export`` and of an
empty ``--out``, each
taken when that usage became an error, and of ``pillow --a 33 --b 32
--verify`` (now passing) and ``verify --a 2..40 --b 2..40`` (now refused
by the box limit), taken when the verifiers came to take every bidegree
the build takes, and of the ten exit-0 ``characters`` rows, taken when
the ``ramification_product`` check, a restatement of
``node_cusp_sum_2n2k``, was removed, and of the four exit-0 ``verify``
rows, taken when ``quadric_lines_shared_by_two_faces`` and the four
``{family}_identities`` checks, each failing only with one other check,
were removed, and of the fourteen exit-0 ``verify`` and ``pillow
--verify`` rows, taken when ``disjoint_pairs_brute_vs_degree_method``, the
comparison of the degree route with an O(E^2) count, was removed and
``disjoint_pairs_brute_vs_formula`` became
``disjoint_pairs_degree_method_vs_formula``, and of the two exit-0
``verify --format json`` rows, taken when ``triangles_at_grid_positions``
took the place of ``transpose_isomorphism``; a refactor that keeps every
output byte and exit code keeps this table green.

The rows of argparse's own output, the five ``--help`` texts, three usage
errors and two forms only argparse reads (``--a=3`` and the abbreviation
``--form``), were taken at commit abc19a1, before the CLI read canonical
argv off its option table, and are the same on Python 3.10.13, 3.11.7,
3.12.1, 3.13.0 and 3.13.13 but for one: argparse quotes each choice in
its invalid-choice message in some patch releases and not in later ones
(3.13.0 quotes, 3.13.13 does not), so ``--export png`` takes either text.
Help and usage wrap at the terminal width, so every row runs with
``COLUMNS=80``.
"""

import hashlib
import shlex

import pytest

from pillowdeg.cli import _canonical, build_parser, main
from test_cli import run_python

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, sha256 of stdout, sha256 of stderr, exit code)
CORPUS = [
    ("verify --a 2..6 --b 2..6",
     "3eb67b9b58c785e82b765112d9475a63314c30d4842195daf326c5361c2fb119",
     EMPTY, 0),
    ("verify --a 2..6 --b 2..6 --format json",
     "f807092db6f0cd6c930fea33cf2c65354335244b2fda8d47a47aef248fb81515",
     EMPTY, 0),
    ("verify --a 2..12 --b 2..12 --limit 12",
     "e96f01c616995094d0a24cc4fb06ec0437c9e3d09ae4979dc2e5c3fd382dc473",
     EMPTY, 0),
    ("verify --a 2..12 --b 2..12 --limit 12 --format json",
     "209e40440b1c43ca74a74642dd5cf0f2217dd3379a07731257b11794c310a583",
     EMPTY, 0),
    ("verify --a 1..3 --b 2..2",
     EMPTY,
     "54acd58a23ba3dcc56ac96091fed885d2969052bc49c73addf7d229195d6e913", 2),
    ("verify --a 2..40 --b 2..40 --limit 40",
     EMPTY,
     "b00a826f7f7c313daf164c500874b24f2e349efd072a55ef2aa3bdd55aaede20", 2),
    ("pillow --a 2 --b 2 --verify",
     "0fcba18a4a7cc76c1a69cec14ca25465c5f9d173b48fcd1fb5652573ceca8bcd",
     EMPTY, 0),
    ("pillow --a 2 --b 2 --verify --format json",
     "c5f8b2f981c53ad68682974ef824e84f4aa709463ec26c6bc6b9a31aabea946d",
     EMPTY, 0),
    ("pillow --a 4 --b 3 --verify",
     "3f205818ab399d6bf4241bad36e07e0443f851f66c75d353bb1fd4a383614cd9",
     EMPTY, 0),
    ("pillow --a 4 --b 3 --verify --format json",
     "ae9635ebb4739b4d41d90c301e41b3bf12195cc688ff3403c0878a36f5fde0e7",
     EMPTY, 0),
    ("pillow --a 24 --b 24 --verify",
     "21c00d0189f5a63941a1e382f7ee5a0c95d5d31e0e0ab68c661f9a7c16bd981e",
     EMPTY, 0),
    ("pillow --a 24 --b 24 --verify --format json",
     "0ea6da3e360ba36c29df8c4a95b6520e0b3196b54c6ef3a24d69ec9895cc1a55",
     EMPTY, 0),
    ("pillow --a 32 --b 32 --verify",
     "aa3b14e7a4aeed787b64ddcd6afbe3bf274132c9ef641af4f48ef7886e71c47a",
     EMPTY, 0),
    ("pillow --a 32 --b 32 --verify --format json",
     "5f751bb6863ca6f497e07aa2bb3cf485ee98747017e91b7060fcc31210af2cf0",
     EMPTY, 0),
    ("pillow --a 33 --b 32 --verify",
     "1789ad575594d5a68e5807cec409a23ff6094644be6758b7e7889a539737fe52",
     EMPTY, 0),
    ("pillow --a 4 --b 3",
     "f477a4150054460e35dce72d25d7394fa91e7d4298fd440b19fb04e150ee9fbb",
     EMPTY, 0),
    ("pillow --a 4 --b 3 --export json --format json",
     "440d8e91b47a27f3688d7cd68f619c37c4d1fd42fb8390cefa7bb567dc6a5a9c",
     EMPTY, 0),
    ("pillow --a 4 --b 3 --export dot --dot-graph lines --out p43.dot",
     "83a23f2e007cdee8a6ccf20658b75d3a3c4ec2b8246a26b8a9e933368c855c39",
     EMPTY, 0),
    ("pillow --a 4 --b 3 --verify --export dot --out p43.dot --format json",
     "7c35e6e5868422d863b053d1db321e95d42ef1495853328a5b593d08f3821806",
     EMPTY, 0),
    ("pillow --a 4 --b 3 --export json --out missing/p43.json",
     EMPTY,
     "760769c15481e6d4e159a9df09fa96e90e85cce54cfb31619610f0ddcbe06c2b", 3),
    ("pillow --a 2 --b 2 --export json --out '' --format json",
     EMPTY,
     "73169e53a28f1829f9ce4db9c8235cfefb89c7a99ebb68b60b39bb53f5e2e995", 3),
    ("pillow --a 4 --b 3 --out p43.json",
     EMPTY,
     "380ec56b139ecd92d5574d5238ac4056f4bb2e4042733a2add616c17866ad41d", 2),
    ("pillow --a 2 --b 8193",
     EMPTY,
     "ae1923694d4bb968361666437983f6b080bc95b335eb2e9a8b9bb7ca6e43fb91", 2),
    ("table --a 2 --b 2",
     "c0d8ceb06801a40533a123b30325732ab0ab8380b23615a3a686b062fdeb5ae6",
     EMPTY, 0),
    ("table --a 2 --b 2 --format json",
     "35d39a820b918abd00061f751d24d8de551984274ceff73ea89449291bc24d3e",
     EMPTY, 0),
    ("table --a 3 --b 5",
     "a3b9086f384b6ccfd8069d3c7a69fb9e1731b00bd73c3e6022f6831e5b25d2f0",
     EMPTY, 0),
    ("table --a 3 --b 5 --format json",
     "08ef196f33562969f6a870b7ebcb781404441507eed5a5a18baca12f2b43e87a",
     EMPTY, 0),
    ("table --a 8 --b 8",
     "71d8a60796bd03c232048620867d299e4025a1db054a108809878766ca8dc9f8",
     EMPTY, 0),
    ("table --a 8 --b 8 --format json",
     "b7236203029be34c0c7e6737316696632d7a9613b159761f1524f1773f796dd5",
     EMPTY, 0),
    ("table --a 32 --b 32",
     "e4bdd4eefbba60c041663c38f91ee3a47a431c21a5ae2d1243586e2393bc8e61",
     EMPTY, 0),
    ("table --a 32 --b 32 --format json",
     "aab9dd4776c2bee24235ee798195b97b6f6bf003dd219ada20188791c154240f",
     EMPTY, 0),
    ("table --a 64 --b 64",
     "52d5f1db3bbd3862763ab59b08048294f70e32e4e0f99250448801c254c7dd80",
     EMPTY, 0),
    ("table --a 64 --b 64 --format json",
     "85eda3689ca37c6741f1d38ece29e883c577cfd9ec5980cd221500ae0ba44745",
     EMPTY, 0),
    ("table --a 1 --b 2",
     EMPTY,
     "d7555793ed83b4feb42afa3fa086b18886062e79167460267dc80f7afef61922", 2),
    ("characters --family veronese --r 3",
     "4e252a3dbe48c49644737ea1b6fb5fa0eb81d805ede8aa319b3714a20d5624de",
     EMPTY, 0),
    ("characters --family veronese --r 3 --format json",
     "8d6856176d11ef3f690130bc04dc75480eec1a897138e9464dd6ff11f495cd22",
     EMPTY, 0),
    ("characters --family scroll --r 4",
     "5bba10f6f7ba23d272f5bd479b22649a0ff3138d1f5b84076d0641656c00bd5a",
     EMPTY, 0),
    ("characters --family scroll --r 4 --format json",
     "b0771add42e8fe8ca7f57c1c8b7266129abf70b76b8adf5f6baafce6a03c49bb",
     EMPTY, 0),
    ("characters --family delpezzo --deg 6",
     "4af10b1bf1ba9a7eacb4cabf00e0cbf0bcafb3c7816b4d46321a490cdb3b3efc",
     EMPTY, 0),
    ("characters --family delpezzo --deg 6 --format json",
     "9ff30ebdf68370b9f12209d954d998113ac5c0c9d4edf8381b4b6ab0facc4905",
     EMPTY, 0),
    ("characters --family k3 --g 9",
     "781f46d105f2db8bdddd445f1f44a2f5fe02b95654c235ba578b42a4c808a7cc",
     EMPTY, 0),
    ("characters --family k3 --g 9 --format json",
     "4909b5e8014f9c091f30672e065228545e1813fadc3cc0eabfb849915682f7ab",
     EMPTY, 0),
    ("characters --family custom --d 4 --kh -6 --k2 9 --euler 3",
     "a31b954672e3bc22d3cf936633763efd1a173caff261bcf45a912eaa00a4572a",
     EMPTY, 0),
    ("characters --family custom --d 4 --kh -6 --k2 9 --euler 3 --format json",
     "7ff39bb8f19247b59aae0b46e87ee8f02061eb25f7e4a95cc27f26fe5c833839",
     EMPTY, 0),
    ("characters --family k3",
     EMPTY,
     "66ca965ffca65954ef79358e6024f37653e17f2d958457f008e8e1fa4c1092aa", 2),
    ("characters --family custom --d 4",
     EMPTY,
     "10cae95598fd9c7fbfa664122a8babbe6b1cfce3fac5b56d53ca5a2188c73b31", 2),
    ("characters --family custom --d 0 --kh 0 --k2 0 --euler 0",
     EMPTY,
     "7a484c6b2c39fe77395afccd6a1e46e4ba8bbf6a357c8a955991f8463a05617b", 2),
    ("characters --family custom --d 1 --kh -4 --k2 0 --euler 0",
     EMPTY,
     "ec98da4987c13d3272e847e8cb7b60e9e34bcd7be25571db5ec9e6d348148153", 2),
    ("characters --family custom --d 1 --kh 0 --k2 0 --euler 3",
     EMPTY,
     "45ef14f9cab67bf6b21132fe7415df6ea76d62a901bdd51da6e09676f6a22085", 2),
    ("characters --family custom --d 1 --kh -1 --k2 0 --euler 0 --format json",
     EMPTY,
     "dfd3be44ff18c33e02086c5278651b1a2d7b3c011a3976cf94b45ef7e0f0d68f", 2),
    ("--help",
     "a5edcd43275887d9ae31644946bcd16f95167ec00b59ae83525311cde83c7652",
     EMPTY, 0),
    ("characters --help",
     "22619a05548c5895bcc8a24163694842811f4038b2e33ee762cf8b4c5e4ba4e1",
     EMPTY, 0),
    ("pillow --help",
     "9e256bc3fd39642dff7578a83688a67565e49e61100615945dce16f680446db2",
     EMPTY, 0),
    ("table --help",
     "2147e904304e117193d62b3c33bf121f0359a0922919c88896a8211e03d84870",
     EMPTY, 0),
    ("verify --help",
     "ca0d780e4a18b3cad3ff61a39a3975839275f93b887af16a1864bf0837a4b7d1",
     EMPTY, 0),
    ("table --a 2 --b 2 --nope",
     EMPTY,
     "425c32aabf189e725b18df49a97322f401b4f2b134e265114af8e3680dabf88d", 2),
    ("table --a x --b 2",
     EMPTY,
     "94eb7991eb03c222035e30d62c4991c8ef272fe97e0f113d13790379f4e6bb97", 2),
    ("pillow --a 2 --b 2 --export png",
     EMPTY,
     ("0f739697e70bea87d27038a53a4958a00b17261c468316da3faf1dbe8d310133",    # 'json', 'dot'
      "48e178d23072e6f72f79b2dbb9f10b8cd0b901da545585107b88153640731c9f"),   # json, dot
     2),
    ("table --a=3 --b 2",
     "5795b6594fb5ce7e4e77f2cccead5b23ef10f75ad7dce4915ba9e2280254015a",
     EMPTY, 0),
    ("table --a 3 --b 2 --form json",
     "34954cbd3deec5424bd57cd990e99a70e919bc9f5be44a48b6b38cb4af26ebbb",
     EMPTY, 0),
]
# the rows that only argparse parses: help, usage errors and its other forms
ARGPARSE_ROWS = [row[0] for row in CORPUS[-10:]]


def digest_is(data, digest):
    """Whether ``data`` has the SHA-256 ``digest``, or one of a tuple of them."""
    return hashlib.sha256(data).hexdigest() in (digest if isinstance(digest, tuple) else (digest,))


@pytest.mark.parametrize("argv,out_digest,err_digest,code", CORPUS,
                         ids=[row[0] for row in CORPUS])
def test_output_pinned(capsys, monkeypatch, tmp_path, argv, out_digest, err_digest, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(shlex.split(argv)) == code
    captured = capsys.readouterr()
    assert digest_is(captured.out.encode(), out_digest)
    assert digest_is(captured.err.encode(), err_digest)


@pytest.mark.parametrize("argv", [row[0] for row in CORPUS])
def test_canonical_parse_takes_every_plain_row(argv):
    # every row but argparse's own whose values do not start with "-", as
    # --kh -6 does, is read off the option table, into argparse's namespace
    # item for item
    plain = argv not in ARGPARSE_ROWS and " -" not in argv.replace(" --", "")
    argv = shlex.split(argv)
    parsed = _canonical(argv)
    assert (parsed is not None) == plain
    if plain:
        assert list(vars(parsed).items()) == list(vars(build_parser().parse_args(argv)).items())


ROWS = {row[0]: row for row in CORPUS}
PROCESS_ROWS = [ROWS[argv] for argv in (
    "verify --a 2..6 --b 2..6 --format json",
    "pillow --a 4 --b 3 --verify --export dot --out p43.dot --format json",
    "table --a 3 --b 5",
    "characters --family k3 --g 9",
    "verify --a 1..3 --b 2..2",
    "pillow --a 4 --b 3 --export json --out missing/p43.json",
    "pillow --help",
    "table --a x --b 2",
)]


@pytest.mark.parametrize("argv,out_digest,err_digest,code", PROCESS_ROWS,
                         ids=[row[0] for row in PROCESS_ROWS])
def test_process_output_pinned(monkeypatch, tmp_path, argv, out_digest, err_digest, code):
    monkeypatch.setenv("COLUMNS", "80")
    result = run_python("-m", "pillowdeg", *shlex.split(argv), cwd=tmp_path)
    assert result.returncode == code
    assert digest_is(result.stdout, out_digest)
    assert digest_is(result.stderr, err_digest)
