"""Byte-identity of the JSON reports.

Each digest is the sha256 of the ``--json`` output of one command, recorded
with the scalar code before a refactor of the module layer: the first four
before the move to mixed-radix element codes, the last two before
submodules and homs moved to position arrays.  A change that alters any of
these bytes changes a witness, an ordering or a number in the report, which
the canonical-order contract forbids.
"""

import hashlib

import pytest

from finring.cli import main

GOLDEN = [
    (
        ["verify-paper", "--catalog", "quick"],
        "f86235b36c22fc4a9d78e5c5c984121bf633f0b3f2594aa3355be56f2cba7756",
    ),
    (
        ["module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4"],
        "f961841eccb9deb8ead31e43f6fb2e351ce77b8bc6ea4f7c8785f3f485ac66bb",
    ),
    (
        ["module", "sgp", "--ring", "Z/27", "--rel", "3,0;0,9"],
        "ae98da0b99d90d1f084cdb487a02fba99219d165ef8559dd9b542f262ea6a48f",
    ),
    (
        ["resolve", "--ring", "GF(2)[x]/(x^4)", "--rel", "x,0;0,x^3"],
        "ed526f1a9f589af3e4383763b48d310d42de8914da035e46236541a77820ca28",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^4)", "--rel", "x,0;0,x^3"],
        "5e14f876644959450c8fe3e2191700421e51ad1bdc51908e2e61cc90c566b2f5",
    ),
    (
        ["module", "sgp", "--ring", "Z/4", "--rel", "2,2,2;2,0,2;0,2,2"],
        "c5cece21e4990b2b8acf597931268c0d23a29295dd12268e2106253441d1266c",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_json_output_bytes(capsys, argv, digest):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
