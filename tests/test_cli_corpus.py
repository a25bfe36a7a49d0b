"""A committed corpus of CLI output: what the subcommands print must not move.

A fixed list of argument vectors per subcommand runs in-process through
``cli.run``, in every output format the subcommand accepts.  Each call is
written as ``repr((argv, exit code, stdout))`` and hashed; the section hash
of a subcommand is the sha256 of its calls' hashes, one per line.  A short
prefix of each call's hash is committed beside it, so a mismatch names the
first call whose output changed, not only the section.  The chain files that
``markov`` and ``simulate`` read are written to a temporary directory that is the working
directory of the run, so argv and the JSON echo name them by a fixed
relative path, wherever that directory lies.

A change that alters output on purpose updates the section it touches and
says why.  The zero-case ``egf: PASS (0 cases)`` line is pinned here on
purpose: the benchmark's gf-check oracle expects it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from msnlib.cli import run

GF_CHECK = [
    [],
    ["--which", "ogf", "--jmax", "3", "--kset", "-1/2,1/3", "--order", "8"],
    ["--which", "all", "--jmax", "3", "--kset", "2,-3/4", "--order", "8"],
    ["--which", "egf", "--kset", "1/2"],
    ["--which", "egf", "--kset", "-2,0,3", "--order", "6"],
    ["--which", "bgf", "--kset", "-5/3,7", "--order", "5"],
    ["--which", "all", "--order", "0"],
    ["--which", "ogf", "--jmax", "0", "--order", "3"],
]

IDENTITY_SUITE = [
    ["--imax", "0"],
    ["--imax", "4"],
    ["--imax", "8"],
    ["--imax", "4", "--order", "6", "--kset", "-1/2,2"],
]

MSN = [
    ["3", "2", "1"],
    ["4", "4", "7"],
    ["2", "1", "-1/2"],
    ["6", "3", "-5/3"],
    ["0", "0", "0"],
    ["5", "7", "2"],
    ["10", "4", "3/7"],
]

TABLE = [
    ["6", "1/2"],
    ["8", "-3", "--jmax", "4"],
    ["5", "0"],
    ["0", "2/3"],
    ["7", "-5/2", "--jmax", "9"],
]

INVCHECK = [
    ["3", "1", "1/2"],
    ["6", "-1/2", "-1/2"],
    ["5", "2", "-3"],
    ["0", "1/3", "0"],
    ["8", "5/3", "-2/7"],
]

MSN1 = [
    ["3", "2", "1"],
    ["5", "2", "-1/2"],
    ["6", "3", "2/3"],
    ["0", "0", "0"],
    ["4", "6", "1"],
    ["9", "4", "-5/3"],
]

LAWS = [
    '{"type":"binomial","n":5,"p":"1/3"}',
    '{"type":"poisson","lambda":"5/2"}',
    '{"type":"negbinomial","p":"1/3","k":2}',
    '{"type":"altnegbinomial","p":"1/2","q":"1/3","k":2}',
    '{"type":"uniform","N":6}',
    '{"type":"phasetype","a":["1/2","1/2"],"A":[["1/3","1/3"],["0","1/2"]]}',
    '{"type":"recurrence","P":[["1/2","1/2"],["2/3","1/3"]],"M":[1]}',
    '{"type":"recurrence","P":[["1/3","1/3","1/3"],["1/2","1/4","1/4"],["0","1/2","1/2"]],'
    '"M":[3]}',
]

# every law raw and central, then a spec outside its law's domain
DIST = [
    ["--spec", spec, "--m", "5", *central] for spec in LAWS for central in ([], ["--central"])
] + [["--spec", '{"type":"poisson","lambda":"0"}', "--m", "1"]]

CHAINS = {
    "two-state.json": {"P": [["1/2", "1/2"], ["2/3", "1/3"]], "M": [1]},
    "three-state.json": {
        "P": [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"]],
        "M": [1, 2],
    },
}

MARKOV = [
    ["--chain", chain, "--var", var, "--k", k, "--m", m, "--method", method]
    for chain in CHAINS
    for var, k, m, method in [
        ("N", "1", "3", "recursive"),
        ("R", "1", "3", "closed"),
        ("Nbar", "1", "2", "closed"),
        ("Rbar", "2", "2", "commutable"),
        ("N", "3", "2", "convolved"),
        ("R", "2", "3", "convolved"),
        ("Rbar", "1", "0", "convolved"),
        ("N", "2", "1", "recursive"),
    ]
]

# one run on a fixed chain file; its means and completed line are the ones
# the float64 moment formulas gave before the estimates came from exact sums
SIMULATE = [
    ["--chain", "three-state.json", "--var", "R", "--k", "2", "--reps", "20000", "--seed", "8601"],
]

CORPUS = {
    "gf-check": (GF_CHECK, ("text", "json")),
    "identity-suite": (IDENTITY_SUITE, ("text", "json")),
    "msn": (MSN, ("text", "json")),
    "table": (TABLE, ("text", "json", "csv")),
    "invcheck": (INVCHECK, ("text", "json")),
    "msn1": (MSN1, ("text", "json")),
    "dist": (DIST, ("text", "json")),
    "markov": (MARKOV, ("text", "json")),
    "simulate": (SIMULATE, ("text", "json")),
}

DIGESTS = {
    "gf-check": "2cf963a70c901a1c1ab30dc5aae1ee19fb8a6bef54c6813081c59ffe8549fe0f",
    "identity-suite": "f46b3f7c38f75eaaf0c89dc961102cc4df57a55f799eaec4d32f852cf978f0d2",
    "msn": "ddb8c53b819c9f5af5f56e876533241b4bb65148d87509ffa6d073bc808269b2",
    "table": "6e1b99bd959e802ef48b8f76a6f17437a2d2a8a8b6e96b1486424548a170c041",
    "invcheck": "6aded7b23770bca0646425f9114880e9514d0fbd2197608eead9d812247f34e0",
    "msn1": "a80287ab8bde04988570d7dbe72c278198ab82e8d24d4d167d6b3f28347e7768",
    "dist": "56c34e0422b3ccbcab81e217729fe10693e29d864bd5904a2b7ded99e9a09ac0",
    "markov": "7ecb8f58f95c12b8a46b2a93c771562d68de839f6431c354f3d013e861852a0d",
    "simulate": "c17377f06c0a16740a667c9decef6f0671f7411cf25ec049444cfd0833a551f8",
}

# the first 12 hex digits of each call's hash, in corpus order
CALLS = {
    "gf-check": (
        "5fc92c9ff3d5", "b33ca26bbd39", "895fd102f3c7", "72b3881de9f7", "b046cea748c5",
        "10c61e44debf", "4010772e4ca4", "db2e707c4f07", "dea3722c59a7", "63971ac311ba",
        "adfc792d1703", "09525692e5cb", "5570409514f5", "53201b3a6e59", "86cc0993c1ed",
        "2f346e2a6fba",
    ),
    "identity-suite": (
        "48b845cfc667", "ab9a7e19f080", "6882b4fa8bd7", "91e700a9d179", "5c02cfc92e6e",
        "ad754035a4fb", "a6187ee68b7a", "f74b3c40cd80",
    ),
    "msn": (
        "2aa58db8a1c9", "a6e4e9548899", "912da6bb6e5a", "c12d3e71cdcd", "a9e71a80f7b6",
        "abb4caae50df", "75a7fe3305ce", "fcac3b60d81b", "c0ed6f0cf7eb", "da2403919084",
        "182155c493b7", "8fafe265c9c4", "b9d4f0b6198c", "3046684c2c9a",
    ),
    "table": (
        "d978f6c7aff6", "9a3e2e655b04", "16aba3ac312d", "98b71c6b66b4", "4341ed8c286d",
        "951bcbfeeacf", "c8718901d567", "ec05a031cd27", "65de37ecd68b", "b105e1198b21",
        "e7813e924561", "0fa9aeeebba0", "db9cbc826d9e", "d7d7d0860e4c", "41a0733b93e8",
    ),
    "invcheck": (
        "1a83ca0aafab", "36ae154d74fe", "7bc57709ad32", "baeb2ba844e1", "dac1dba09622",
        "7a69240a7474", "32537f642c87", "aea5e14d777f", "c9b51c70369f", "7d8e8e26121d",
    ),
    "msn1": (
        "cb8d4156799c", "39aa67bcada2", "595a407caa41", "273085ce0f16", "62c50bef2d39",
        "ab2ef41045de", "eb3a8d928cf8", "2fc75537bb9c", "ce65bfd1ddaa", "3127bf744116",
        "805d95a7d482", "9114e2a6016f",
    ),
    "dist": (
        "57b493d82163", "5df35abe6f1d", "12d82eb432d6", "25b4884d2c7c", "e4234473dc09",
        "8b27a946ca8f", "2adde59ef7b7", "ddc7f3f03d20", "3233b1e001fb", "a3c921c8b78d",
        "be24417721dd", "5e3392ac28cd", "6e0c9283350b", "b94356790fbd", "b1a8c68c77ff",
        "82c24015eb50", "9c6da3b2b67b", "81890565a541", "9b251f56efdc", "c116f4cd5a79",
        "475e2cb33bf8", "08a7c9a19e81", "db1448dc4e37", "66cde1583724", "ec468a51b33d",
        "780e012be02c", "647a5e572b98", "206302aa4039", "4b5e317f690d", "66191391542e",
        "4f4c968e64e3", "a535dafb2851", "a946f153534d", "3b2b2095cb4c",
    ),
    "markov": (
        "842e674c5ad9", "202e7887bbd4", "a09457aecd8c", "fc570abb849f", "3ce9eeb54eaa",
        "4569d72c6ba9", "5ca3c1278fe4", "a0fdfe98d2de", "901dc2c41d2d", "5609dcf56b2f",
        "4431f527a194", "20a5a9f6efee", "48463c736e5c", "01253a8b29b1", "d22b38dc9f70",
        "a5ec62379987", "313f28728963", "123cefa0ce5b", "935d0385694e", "fc9ec0013485",
        "0c2e16bdec08", "2d9feb66774e", "fe76942361c7", "1adf465501ff", "d2844f803c35",
        "594f8be664d6", "1bf12e83e00e", "1af6042a1cc7", "e6f3a48ad559", "122388d3696f",
        "44cfa98946ec", "3c3490817d5e",
    ),
    "simulate": ("ee98938be6f9", "4d0fdc812272"),
}


def calls(command: str):
    """The argv lists of ``command``'s section, each in every format."""
    arg_lists, formats = CORPUS[command]
    for args in arg_lists:
        for fmt in formats:
            yield [command, *args, "--format", fmt]


def record(argv: list[str]) -> tuple[list[str], int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return argv, code, out.getvalue()


def call_hash(rec: tuple) -> str:
    return hashlib.sha256(repr(rec).encode()).hexdigest()


def section_hash(hashes: list[str]) -> str:
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


@pytest.mark.parametrize("command", list(CORPUS))
def test_cli_output_is_unchanged(command, tmp_path, monkeypatch):
    for name, chain in CHAINS.items():
        (tmp_path / name).write_text(json.dumps(chain))
    monkeypatch.chdir(tmp_path)
    records = [record(argv) for argv in calls(command)]
    hashes = [call_hash(rec) for rec in records]
    if section_hash(hashes) == DIGESTS[command]:
        return
    for rec, got, want in zip(records, hashes, CALLS[command]):
        if got[:12] != want:
            argv, code, out = rec
            head = "\n".join(out.splitlines()[:20])
            pytest.fail(f"first changed call: {argv}\nexit {code}, stdout begins:\n{head}")
    pytest.fail(f"{command}: the calls no longer match the committed list")
