"""Byte-identity of the JSON and text reports.

Each digest is the sha256 of the ``--json`` output of one command, recorded
with the scalar code before a refactor: the first four before the move of
the module layer to mixed-radix element codes, the next two before
submodules and homs moved to position arrays, the next five (the ring
layer: ideals, classify, decompose) before the ring arithmetic moved to
element positions.  The ``Z/32`` and ``Z/9`` entries of each list are
requests that stopped at the hom guard until the hom search filtered each generator's
images by its annihilator: their digests were recorded before that change
under ``--max-hom-enumeration 400000000``, and the tests run them under the
default guards.  The three ``module sgp`` requests added last to both lists
stopped at the module guard while submodules were presented on least-first
generators, not minimal ones: no earlier code printed them, so their digests
were recorded from the first code that decided them, with the verdicts
checked by hand -- over GF(2)[x]/(x^k) the exponents {1, k-1} are invariant
under a -> k - a, the chain-ring rule for SGP, and the Z/8[x]/(x^2) witness
passes the sequence checks that ``SgpWitness`` runs when it is built.  The
resolution of the residue field of the non-chain ring
GF(2)[x]/(x^2)[x]/(x^2), whose syzygies are all modules the library
derives, was recorded before derived modules were built from ring
positions instead of element values.  The two ``module sgp`` requests
over that ring, the first ``module sgp`` goldens over a ring that is not a
chain ring, were recorded while ``is_isomorphic`` still filtered on the
minimal generator count, before it filtered on ``Module.kill_counts``
alone.  The three ``classify`` requests under ``--max-hom-enumeration 3``
stopped at the hom guard while the residue field of a field factor, R/m =
R, went through the witness search instead of the projectivity test; their
digests are those of the same requests under the default guards, recorded
before that change.  The four ``module sgp`` requests on free
modules added last stopped at the hom guard while every projective module
went through the witness search: no earlier code printed them, so their
digests were recorded from the first code that decided them, and each
witness, where the search does not fit the guard the split sequence
0 -> P -> P + P -> P -> 0, passed the sequence checks of ``SgpWitness``.
A change that alters any of
these bytes changes a witness, an ordering or a number in the report, which
the canonical-order contract forbids.  ``GOLDEN_TEXT`` pins the text
output of some commands the same way.
"""

import hashlib

import pytest

from finring.classify import SQUARE_ZERO_PAIR
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
    (
        ["ideals", "GF(2)[x]/(x^2)[x]/(x^2+1)"],
        "b9deef48d1e66bf5b822ca96348e02c8f82a68550f1a033f1075a7e3e521eeb7",
    ),
    (
        ["classify", SQUARE_ZERO_PAIR],
        "3e46e08488e140d619386012006b3ad6f8b2a8fbb2ecf92f12ad279856414f92",
    ),
    (
        ["classify", "GF(2)[x]/(x^7)"],
        "bd3b08b28b9f5c987b6f0a91906af9f8f689c999f3fb032a2a43152b241a1302",
    ),
    (
        ["decompose", "GF(8) x Z/16"],
        "fb58f1c6f4603f46f34f2c42d781bf36074b2666ce7118dfaf733a68feff26d1",
    ),
    (
        ["decompose", "Z/8"],
        "6069844d5504b6b3bfccc836a0f67daa11eda8d14cb0f835e1b5a588e2cc280c",
    ),
    (
        ["module", "sgp", "--ring", "Z/32", "--rel", "4,0;0,8"],
        "f618d082a45e88ff578a172e0edd092f377ca70cb5a95baf0ac4fd645f96706a",
    ),
    (
        ["module", "sgp", "--ring", "Z/9", "--rel", "3,0,0;0,3,0;0,0,3"],
        "d53173ec4d1b4f5a6b26fb8c52f03b9b2acafbb858b473ebaa74296137ca8a8a",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^5)", "--rel", "x,0;0,x^4"],
        "42a0483cc9bc29cbc2afee322821a73f2c20f7130a70cf4a53b55f000bf4bf96",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^6)", "--rel", "x,0;0,x^5"],
        "73860bfb5576d833b1cd6309228e1642dcb637e5a6488b44d6ccfe2f849c8dcd",
    ),
    (
        ["module", "sgp", "--ring", "Z/8[x]/(x^2)", "--rel", "2,0;0,4"],
        "edbce54875055f2fddd891d470475bc6dfbb5219fc170181861448e96ee955ad",
    ),
    (
        ["resolve", "--ring", "GF(2)[x]/(x^2)[x]/(x^2)", "--rel", "(x),x", "--length", "4"],
        "0579f48404340cf6ca60fa4d6438cdd950f168ee8243c07b61ad74ff65f6d96d",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^2)[x]/(x^2)", "--rel", "(x),0;0,x"],
        "4b56c29c557fc73b69fa0add508aa894659993e5f080027cafe757dbfe6e159b",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^2)[x]/(x^2)", "--rel", "(x),x,0,0;0,0,(x),x"],
        "3e61c680959b3c72ca5a3c323b6538e98d20b5c0b701cb3b502aa67aafcd45f0",
    ),
    (
        ["classify", "Z/5", "--max-hom-enumeration", "3"],
        "e540dfd0568e85e42ebc23292371149146acbb08586fb1eb10153573bbcb22eb",
    ),
    (
        ["classify", "GF(4)", "--max-hom-enumeration", "3"],
        "e50a43b92df80cff634f441f8c9efd688541e58715f71807f7960a85b9f28870",
    ),
    (
        ["classify", "Z/4 x Z/3", "--max-hom-enumeration", "3"],
        "4df00e6b5cfde0ea25d34e76c9f4ea83dbfc01328dae4bb10249f7e71d166ccf",
    ),
    (
        ["module", "sgp", "--ring", "Z/8", "--rel", "0;0"],
        "ca2a5901fe02ea0c82fe01169744096ec4a68930c85ad8d06310afda62630608",
    ),
    (
        ["module", "sgp", "--ring", "Z/8", "--rel", "1;0;0"],
        "86744a300cccae86b319129d4697e7d9bae805190603888b1fa78e19221f1e6e",
    ),
    (
        ["module", "sgp", "--ring", "Z/4 x Z/9", "--rel", "(0,0);(0,0)"],
        "30c46832a2218d8a3596455337cfd287f4b82d225e51de4ec279707f2dbda280",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^2)[x]/(x^2)", "--rel", "0;0"],
        "902986a0de4369e18bdf9b6eb7cecca4f24702d2711d9552bb316b7f03e88289",
    ),
]


# sha256 of the text (non-``--json``) output, recorded before the CLI took
# its periodic-map line from the JSON payload and its factor lines from
# ``classify.factor_summary``
GOLDEN_TEXT = [
    (
        ["module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4"],
        "57168d5c448c80ffe165aebe404095fb8dcc4763a9ed5e21f08ccfdad6b5b19a",
    ),
    (
        ["module", "sgp", "--ring", "Z/4 x Z/3", "--rel", "(2,0),(0,1)"],
        "965d7d456bb609fc61ef6aa66ed08d61a9a93b62e5a75c39558052d6bf29da47",
    ),
    (
        ["resolve", "--ring", "GF(2)[x]/(x^4)", "--rel", "x,0;0,x^3"],
        "de3e1b246f7a8e85aa14bd9086a7ef7848b7c89111c4c632b12103ebfe22a69b",
    ),
    (
        ["decompose", "GF(8) x Z/16"],
        "c459d12fe2a6cd25d2a57442e746999c2c5cff32b2967711cfc37550bd5a982f",
    ),
    (
        ["classify", SQUARE_ZERO_PAIR],
        "d5db8eee64092f4579b07d4ffb10d6b861d41bebe82b4b301cf0e31c678ee959",
    ),
    (
        ["module", "sgp", "--ring", "Z/32", "--rel", "4,0;0,8"],
        "671665d019faad252c69cdc823d40c9cbeb56bf169dd0e3b412ee2b585dd4302",
    ),
    (
        ["module", "sgp", "--ring", "Z/9", "--rel", "3,0,0;0,3,0;0,0,3"],
        "1c5bb310db16da490273c6693ad6776f54a0b2ba8ea0916d04f06f005d6a5f15",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^5)", "--rel", "x,0;0,x^4"],
        "1da761fe48888e694c7835a134d2472917a4ff58d8d93856e26ce7b05b04cd2a",
    ),
    (
        ["module", "sgp", "--ring", "GF(2)[x]/(x^6)", "--rel", "x,0;0,x^5"],
        "d5fc67a7fe7c6c3c9e657daa1c829a968989f1f20650c59c553998a5621fb162",
    ),
    (
        ["module", "sgp", "--ring", "Z/8[x]/(x^2)", "--rel", "2,0;0,4"],
        "8e737dc28a29eb2205054c877c9845cf72f6192686aba01b92782ce1c57f45eb",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_json_output_bytes(capsys, argv, digest):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_TEXT, ids=[" ".join(a) for a, _ in GOLDEN_TEXT]
)
def test_text_output_bytes(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

