"""A committed corpus of CLI output: what the subcommands print must not move.

A fixed list of argument vectors per subcommand runs in-process through
``cli.run``, in every output format the subcommand accepts.  Each call is
written as ``repr((argv, exit code, stdout))`` and hashed; the section hash
of a subcommand is the sha256 of its calls' hashes, one per line.  A short
prefix of each call's hash is committed beside it, so a mismatch names the
first call whose output changed, not only the section.

A change that alters output on purpose updates the section it touches and
says why.  The zero-case ``egf: PASS (0 cases)`` line is pinned here on
purpose: the benchmark's gf-check oracle expects it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

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

CORPUS = {
    "gf-check": (GF_CHECK, ("text", "json")),
    "identity-suite": (IDENTITY_SUITE, ("text", "json")),
    "msn": (MSN, ("text", "json")),
    "table": (TABLE, ("text", "json", "csv")),
}

DIGESTS = {
    "gf-check": "2cf963a70c901a1c1ab30dc5aae1ee19fb8a6bef54c6813081c59ffe8549fe0f",
    "identity-suite": "f46b3f7c38f75eaaf0c89dc961102cc4df57a55f799eaec4d32f852cf978f0d2",
    "msn": "ddb8c53b819c9f5af5f56e876533241b4bb65148d87509ffa6d073bc808269b2",
    "table": "6e1b99bd959e802ef48b8f76a6f17437a2d2a8a8b6e96b1486424548a170c041",
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
def test_cli_output_is_unchanged(command):
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
