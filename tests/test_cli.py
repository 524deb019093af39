import argparse
import contextlib
import functools
import gc
import io
import json
import os
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finring
from finring.cli import main
from finring.classify import SQUARE_ZERO_PAIR
from finring.errors import GuardExceeded
from finring.guards import DEFAULT_GUARDS, Guards
from finring.homology import ext1
from finring.ideals import enumerate_ideals, unique_maximal_ideal
from finring.modules import (
    Module,
    ModuleHom,
    Presentation,
    free_module,
    hom_set,
    regular_module,
    submodule,
)
from finring.parsing import parse_ring_spec
from finring import rings
from finring.rings import Zmod, build_ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z/4")
    assert code == 0
    assert "semisimple: no" in out
    assert "quasi-Frobenius: yes" in out
    assert "SG-semisimple: yes" in out


def test_classify_json_values(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z/8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["spec"] == "Z/8"
    assert payload["order"] == 8
    assert payload["local"] is True
    assert payload["semisimple"] is False
    assert payload["quasi_frobenius"] is True
    assert payload["sg_semisimple"] is False
    cert = payload["certificates"]["sg_semisimple"]
    assert cert["factor"] == 0
    assert {tuple(i["generators"]) for i in cert["ideals"]} == {("4",), ("2",)}
    assert payload["factors"] == [
        {"order": 8, "ideal_count": 4, "max_ideal_order": 4}
    ]


def test_json_output_is_stable(capsys):
    _, first, _ = run_cli(capsys, "classify", "Z/12", "--json")
    _, second, _ = run_cli(capsys, "classify", "Z/12", "--json")
    assert first == second
    _, third, _ = run_cli(capsys, "module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", "--json")
    _, fourth, _ = run_cli(capsys, "module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", "--json")
    assert third == fourth


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "Z/")
    assert code == 2
    assert "parse error" in err


def test_a_table_with_no_nonzero_constant_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "SC(2;1;0;1)")
    assert (code, out) == (2, "")
    assert err == "invalid input: unit vector does not act as identity on b0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "sgp", "--ring", "GF(2)[x]/(x^3)", "--rel", "x^-1"],
        ["classify", "GF(2)[x]/(x^2+x^-1)"],
        ["classify", "GF(2^-1)"],
    ],
)
def test_negative_exponent_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: negative exponent -1")
    assert "Traceback" not in err


def test_residue_memo_answers_only_under_the_same_guards(capsys):
    # the guard-hit run gives the same exit code after a default-guard run of
    # the same ring in the same process as it does on its own: over Z/9 the
    # witness search for the residue field scans 2 candidates
    assert run_cli(capsys, "classify", "Z/9")[0] == 0
    code, _, err = run_cli(capsys, "classify", "Z/9", "--max-hom-enumeration", "1")
    assert code == 3
    assert "guard" in err


def test_z4_decides_under_a_one_candidate_hom_guard(capsys):
    # the residue field Z/2 of Z/4 is SGP by its witness, whose search scans
    # one candidate, and its Ext^1 is read off that witness: no Ext scan runs
    # into the guard
    code, out, err = run_cli(capsys, "classify", "Z/4", "--max-hom-enumeration", "1")
    assert (code, err) == (0, "")
    assert "SG-semisimple: yes" in out
    assert (code, out, err) == run_cli(capsys, "classify", "Z/4")


def test_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "Z/5000")
    assert code == 3
    assert "guard" in err
    code, _, err = run_cli(capsys, "classify", "Z/128", "--max-ring-size", "64")
    assert code == 3


def test_module_sgp_over_a_degree_one_quotient(capsys):
    # x is -1, a unit, in GF(3)[x]/(x+1) = GF(3): R/(x) is the zero module
    code, out, _ = run_cli(
        capsys, "module", "sgp", "--ring", "GF(3)[x]/(x+1)", "--rel", "x", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sgp"] is True and payload["rank"] == 0


def test_module_sgp_positive(capsys):
    code, out, _ = run_cli(
        capsys, "module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sgp"] is True
    assert payload["rank"] == 2
    assert payload["embedding"] == [["0", "4"], ["2", "0"]]
    assert payload["obstruction"] is None
    assert payload["ext1_order"] == 1
    assert payload["ext1_test_object"] == "R"
    assert payload["resolution"]["forward_exact"] is True
    assert payload["resolution"]["dual_exact"] is True


def test_module_sgp_negative(capsys):
    code, out, _ = run_cli(capsys, "module", "sgp", "--ring", "Z/8", "--rel", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sgp"] is False
    assert payload["obstruction"] == "cardinality"
    assert payload["rank"] is None


def test_module_sgp_over_product(capsys):
    code, out, _ = run_cli(capsys, "module", "sgp", "--ring", "Z/12", "--rel", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sgp"] is True
    assert payload["rank"] is None
    assert len(payload["factors"]) == 2
    assert all(f["sgp"] for f in payload["factors"])


def test_ideals_command(capsys):
    code, out, _ = run_cli(capsys, "ideals", "Z/12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert [i["order"] for i in payload["ideals"]] == [1, 2, 3, 4, 6, 12]


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, "decompose", "Z/12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["idempotents"] == ["4", "9"]
    assert [f["order"] for f in payload["factors"]] == [3, 4]


def test_resolve_command(capsys):
    code, out, _ = run_cli(
        capsys, "resolve", "--ring", "Z/8", "--rel", "2", "--length", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 1, 1, 1]
    assert payload["differentials"] == [[["2"]], [["4"]], [["2"]]]
    assert payload["exact"] is True


def test_resolve_length_is_bounded(capsys):
    # refused before any cover is built; the console-script check in CI
    # shows that --length 1000000000 answers at once too
    for length in ("0", "65"):
        code, out, err = run_cli(
            capsys, "resolve", "--ring", "Z/4", "--rel", "2", "--length", length
        )
        assert (code, out) == (2, "")
        assert err == (
            f"invalid input: resolution length must be between 1 and 64, got {length}\n"
        )
    code, out, _ = run_cli(
        capsys, "resolve", "--ring", "Z/4", "--rel", "2", "--length", "64", "--json"
    )
    assert code == 0 and json.loads(out)["ranks"] == [1] * 64


def test_verify_paper_quick(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--catalog", "quick")
    assert code == 0
    assert "all checks passed" in out
    assert all(line.startswith(("PASS", "FAIL", "all")) for line in out.strip().splitlines())


def test_verify_paper_fault_injection(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--catalog", "quick", "--inject-fault")
    assert code == 1
    assert "FAIL sg-route-agreement" in out
    assert "counterexample" in out


def test_verify_paper_json(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--catalog", "quick", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4"],
        ["module", "sgp", "--ring", "Z/8 x Z/3", "--rel", "(2,0)"],
        ["resolve", "--ring", "GF(2)[x]/(x^4)", "--rel", "x,0;0,x^3"],
        ["classify", SQUARE_ZERO_PAIR],
        ["ideals", "Z/12"],
        ["decompose", "GF(8) x Z/16"],
        ["verify-paper", "--catalog", "quick"],
    ],
    ids=" ".join,
)
def test_a_json_request_renders_no_text(capsys, monkeypatch, argv):
    from finring import cli

    def refuse(*args):
        raise AssertionError("a --json request rendered a text line")

    # each command's text renderer, and the join of a free-module element's literals
    for name in (
        "_classify_text",
        "_ideals_text",
        "_decompose_text",
        "_module_sgp_text",
        "_resolve_text",
        "_verify_text",
        "_tuple_text",
    ):
        monkeypatch.setattr(cli, name, refuse)
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["schema_version"] == 1


def test_console_entry_point_subprocess():
    # the child imports the same finring as this test, installed or not
    src = os.path.dirname(os.path.dirname(finring.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "finring", "classify", "Z/4", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sg_semisimple"] is True


def test_requests_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 10 ms per process
    src = os.path.dirname(os.path.dirname(finring.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from finring.cli import main\n"
        "assert main(['module', 'sgp', '--ring', 'Z/9', '--rel', '6']) == 0\n"
        "assert main(['verify-paper']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_the_start_up_heap_is_frozen_once_per_process():
    # importing the library leaves the host's collector alone; the first
    # parser build freezes, and requests, whose memos hold cycles, do not
    src = os.path.dirname(os.path.dirname(finring.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import gc, io, contextlib\n"
        "import finring\n"
        "from finring import cli\n"
        "counts = [gc.get_freeze_count()]\n"
        "cli.build_parser()\n"
        "counts.append(gc.get_freeze_count())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in (['classify', 'Z/4'], {_Z8_SGP!r}):\n"
        "        assert cli.main(argv) == 0\n"
        "        counts.append(gc.get_freeze_count())\n"
        "print(*counts)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    before, frozen, *after = map(int, proc.stdout.split())
    assert before == 0 and frozen > 0
    assert after == [frozen, frozen]


def test_closed_stdout_pipe_exits_1_without_traceback():
    # the lattice of (Z/2)^7 prints about 80 KB, more than a pipe buffer
    src = os.path.dirname(os.path.dirname(finring.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    spec = " x ".join(["Z/2"] * 7)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "finring", "ideals", spec, "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_sc_control_classification_via_cli(capsys):
    code, out, _ = run_cli(capsys, "classify", SQUARE_ZERO_PAIR, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quasi_frobenius"] is False
    assert payload["certificates"]["quasi_frobenius"]["ideal"]["order"] == 2


@pytest.mark.parametrize(
    "flag", ["--max-ring-size", "--max-module-size", "--max-hom-enumeration"]
)
@pytest.mark.parametrize("value", ["-1", "0"])
def test_guard_override_below_one_is_invalid_input(capsys, flag, value):
    code, out, err = run_cli(capsys, "classify", "Z/4", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_module_sgp_builds_the_periodic_resolution_once(capsys, monkeypatch, json_flag):
    import finring.homology as homology

    calls = []
    build = homology.strongly_complete_resolution

    def counting(witness):
        calls.append(witness)
        return build(witness)

    monkeypatch.setattr(homology, "strongly_complete_resolution", counting)
    code, _, _ = run_cli(
        capsys, "module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", *json_flag
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_module_sgp_checks_its_witness_once(capsys, monkeypatch, json_flag):
    # the witness checks its sequence when it is made, and no caller again
    calls = []
    check = ModuleHom.is_injective

    def counting(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(ModuleHom, "is_injective", counting)
    code, _, _ = run_cli(
        capsys, "module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", *json_flag
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "rel,position",
    [("1,2;3,x", 6), ("2,;4", 2), ("2;", 2), ("2,0;0", 5), ("2,0;0,4)", 7)],
)
def test_presentation_errors_point_into_the_whole_matrix(capsys, rel, position):
    code, out, err = run_cli(capsys, "module", "sgp", "--ring", "Z/8", "--rel", rel)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")
    assert err.endswith(f" (at position {position} in {rel!r})\n")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _tower(depth):
    return "Z/2" + "[x]/(x+1)" * depth


@pytest.mark.parametrize("depth", [1500, 10000])
def test_deep_quotient_tower_is_a_parse_error(capsys, depth):
    code, out, err = run_cli(capsys, "classify", _tower(depth))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: quotient tower deeper than 64 levels")
    assert err.count("\n") == 1
    assert len(err) < 200  # an excerpt of the spec, not all of it
    assert "Traceback" not in err


def test_twenty_level_quotient_tower_still_builds(capsys):
    code, out, _ = run_cli(capsys, "classify", _tower(20), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    assert payload["semisimple"] is True


def test_consistency_error_is_one_internal_error_line(capsys, monkeypatch):
    import finring.cli as cli
    from finring.errors import ConsistencyError

    def broken(_args):
        raise ConsistencyError("coset count times span size misses |R|^k")

    monkeypatch.setattr(cli, "_run_classify", broken)
    code, out, err = run_cli(capsys, "classify", "Z/4")
    assert code == 1
    assert out == ""
    assert err == "internal error: coset count times span size misses |R|^k\n"


# -- structured guard errors: one case per raise site --------------------------


def _z(n, **guards):
    return build_ring(Zmod(n), Guards(**guards))


def _ext1_after_default_build():
    warm = build_ring(parse_ring_spec("Z/4 x Z/3"))
    assert ext1(*[regular_module(warm)] * 2).is_zero
    ring = build_ring(parse_ring_spec("Z/4 x Z/3"), Guards(max_hom_candidates=3))
    return ext1(*[regular_module(ring)] * 2)


GUARD_SITES = {
    "build_ring": (lambda: build_ring(Zmod(5000)), ("max_ring_order", 5000, 4096)),
    "enumerate_ideals": (
        lambda: enumerate_ideals(_z(12, max_lattice_order=8)),
        ("max_lattice_order", 12, 8),
    ),
    "Module": (
        lambda: Module(Presentation(_z(8, max_module_raw=10), 2, ())),
        ("max_module_raw", 64, 10),
    ),
    "iter_homs": (
        lambda: hom_set(*[regular_module(_z(8, max_hom_candidates=5))] * 2),
        ("max_hom_candidates", 8, 5),
    ),
    # R/2R -> R over Z/8: the generator's image must be killed by 2, so the
    # scan counts the 2 such elements, not all 8
    "iter_homs-filtered": (
        lambda: hom_set(
            Module(Presentation(r := _z(8, max_hom_candidates=1), 1, ((2,),))),
            regular_module(r),
        ),
        ("max_hom_candidates", 2, 1),
    ),
    # the maximal ideal of a ring of order 16 needs 2 generators, so its
    # relation search scans R^2: 256 raw tuples
    "submodule": (
        lambda: submodule(
            regular_module(
                r := build_ring(
                    parse_ring_spec("GF(2)[x]/(x^2)[x]/(x^2)"), Guards(max_module_raw=20)
                )
            ),
            np.isin(np.arange(r.order), unique_maximal_ideal(r).indices),
        ),
        ("max_module_raw", 256, 20),
    ),
    # Ext^1(R, R) over Z/4: the cover scan offers R's generator all 4
    # elements of R, as its annihilator is zero
    "ext1": (
        lambda: ext1(*[regular_module(_z(4, max_hom_candidates=3))] * 2),
        ("max_hom_candidates", 4, 3),
    ),
    # the same Ext^1 over Z/4 x Z/3, after a build under the default guards
    # has kept its Z/4 part's result: a build under a tighter guard has parts
    # of its own, so it still scans R's generator over Z/4's 4 elements
    "ext1-after-memo": (_ext1_after_default_build, ("max_hom_candidates", 4, 3)),
}


@pytest.mark.parametrize("site", list(GUARD_SITES))
def test_guard_exceeded_names_guard_request_and_limit(site):
    call, (guard, requested, limit) = GUARD_SITES[site]
    with pytest.raises(GuardExceeded) as info:
        call()
    exc = info.value
    assert (exc.guard, exc.requested, exc.limit) == (guard, requested, limit)
    assert f"{requested}" in str(exc) and f"{limit}" in str(exc)


def test_witness_search_guard_counts_only_nonzero_images(capsys):
    # Z/5 + Z/25 into R^3 over Z/25: e_0, killed by 5, has the 125 elements
    # of R^3 killed by 5 as images and e_1 all 15,625.  An injective hom
    # sends neither generator to zero, so the scan counts 124 * 15,624
    # tuples, not 125 * 15,625 = 1,953,125.
    code, out, err = run_cli(capsys, "module", "sgp", "--ring", "Z/25", "--rel", "5,0;0,0")
    assert code == 3
    assert out == ""
    assert err.startswith("guard exceeded: hom enumeration would scan 1937376 candidates ")


@pytest.mark.parametrize(
    "argv,hint",
    [
        (["classify", "Z/5000"], "raise it with --max-ring-size"),
        (["classify", "GF(2)[x]/(x^11)"], "this guard has no override flag"),
        (
            ["module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", "--max-module-size", "10"],
            "raise it with --max-module-size",
        ),
        (
            ["module", "sgp", "--ring", "Z/25", "--rel", "5,0;0,0"],
            "raise it with --max-hom-enumeration",
        ),
        # a guard hit inside a check is a resource limit, not a failed law
        (
            ["verify-paper", "--catalog", "quick", "--max-hom-enumeration", "1"],
            "raise it with --max-hom-enumeration",
        ),
    ],
)
def test_guard_message_names_the_override_flag(capsys, argv, hint):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("guard exceeded: ")
    assert err.rstrip("\n").endswith(hint)
    assert err.count("\n") == 1


# -- one parser per process, independent calls -------------------------------

_Z8_SGP = ["module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4"]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_per_process(monkeypatch):
    import finring.cli as cli

    assert cli.build_parser() is cli.build_parser()
    _call(["classify", "Z/4"])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [
        _call(argv)[0]
        for argv in (
            ["classify", "Z/8", "--json"],
            _Z8_SGP,
            ["resolve", "--ring", "Z/8", "--rel", "2", "--length", "2"],
            ["module", "frobnicate"],
        )
    ]
    assert codes == [0, 0, 0, 2]
    assert built == []


_Z25_GUARD_HIT = ["module", "sgp", "--ring", "Z/25", "--rel", "5,0;0,0"]


def _fresh_kept_rings(monkeypatch, construct=None):
    """An empty ring cache for this test, over ``construct`` (the real
    ``rings._construct`` by default); the process's own comes back after."""
    cache = functools.lru_cache(maxsize=64)(construct or rings._construct)
    monkeypatch.setattr(rings, "_kept", cache)


def test_in_process_calls_stay_independent(monkeypatch):
    # each argv as the first request of a fresh process is the reference; the
    # same argvs interleaved in this process, over rings the process keeps,
    # must give the same results.  Z/4 x Z/27 is above order 64 and built
    # per request, over the kept ring that the Z/4 requests are handed.
    _fresh_kept_rings(monkeypatch)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this
    sequence = [
        _Z8_SGP + ["--max-hom-enumeration", "2"],
        _Z8_SGP,
        ["classify", "Z/8", "--json"],
        ["module", "sgp", "--ring", "Z/8", "--bogus"],
        _Z8_SGP,
        ["ideals", "Z/8"],
        ["module", "sgp", "--ring", "Z/4 x Z/3", "--rel", "(2,0)"],
        ["classify", "Z/128", "--json"],
        ["resolve", "--ring", "Z/8", "--rel", "2", "--length", "1"],
        ["classify", "Z/8", "--json"],
        ["resolve", "--ring", "Z/8", "--rel", "2"],
        _Z25_GUARD_HIT,
        _Z25_GUARD_HIT,
        ["module", "sgp", "--ring", "Z/25", "--rel", "5", "--json"],
        ["classify", "Z/4 x Z/27", "--json"],
        ["module", "sgp", "--ring", "Z/4", "--rel", "2", "--json"],
        ["classify", "Z/4"],
        ["module", "sgp", "--ring", "Z/4 x Z/27", "--rel", "(2,3)", "--json"],
        ["classify", "Z/4 x Z/27", "--json"],
        ["module", "sgp", "--ring", "Z/4", "--rel", "2", "--json"],
    ]
    src = os.path.dirname(os.path.dirname(finring.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fresh = {}
    for argv in sequence:
        if tuple(argv) not in fresh:
            proc = subprocess.run(
                [sys.executable, "-m", "finring", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    results = [_call(argv) for argv in sequence]
    assert [code for code, _, _ in results] == [3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 3] + [0] * 7
    for argv, result in zip(sequence, results):
        assert result == fresh[tuple(argv)], argv


class _BuildSpy:
    """Counts the rings built through ``rings._construct`` by spec and
    guards, over an empty ring cache: the command line's rings and their
    bases and parts, kept or not."""

    def __init__(self, monkeypatch):
        self.built = []
        self.construct = rings._construct
        _fresh_kept_rings(monkeypatch, self)
        monkeypatch.setattr(rings, "_construct", self)

    def __call__(self, spec, guards):
        self.built.append((spec, guards))
        return self.construct(spec, guards)


def test_a_kept_ring_is_built_once_per_spec_and_guards(monkeypatch):
    spy = _BuildSpy(monkeypatch)
    requests = [
        _Z8_SGP,
        ["classify", "Z/8"],
        ["ideals", "Z/8", "--json"],
        ["decompose", "Z/8"],
        ["resolve", "--ring", "Z/8", "--rel", "2"],
        _Z8_SGP + ["--json"],
    ]
    assert [_call(argv)[0] for argv in requests] == [0] * 6
    assert spy.built == [(Zmod(8), DEFAULT_GUARDS)]


def test_each_guard_setting_keeps_its_own_ring(monkeypatch):
    spy = _BuildSpy(monkeypatch)
    for _ in range(2):
        for extra in ([], ["--max-hom-enumeration", "2"]):
            _call(["classify", "Z/8", *extra])
    assert spy.built == [
        (Zmod(8), DEFAULT_GUARDS),
        (Zmod(8), DEFAULT_GUARDS.with_overrides(max_hom_candidates=2)),
    ]


def test_only_verify_paper_takes_a_seed_and_it_changes_nothing():
    # verify-paper has no seeded input: its --seed is accepted and ignored
    argv = ["verify-paper", "--catalog", "quick", "--json"]
    assert _call(argv + ["--seed", "5"]) == _call(argv)
    code, out, err = _call(["classify", "Z/8", "--seed", "5"])
    assert (code, out) == (2, "") and "unrecognized arguments: --seed 5" in err


def test_a_ring_above_order_64_is_built_per_request(monkeypatch):
    spy = _BuildSpy(monkeypatch)
    assert [_call(["classify", "Z/67"])[0] for _ in range(2)] == [0, 0]
    assert spy.built == [(Zmod(67), DEFAULT_GUARDS)] * 2


def test_a_request_is_handed_the_kept_part_of_an_earlier_product(monkeypatch):
    spy = _BuildSpy(monkeypatch)
    product = parse_ring_spec("Z/4 x Z/27")
    for argv in (["classify", "Z/4 x Z/27"], ["classify", "Z/4"], ["classify", "Z/27"]):
        assert _call(argv)[0] == 0
    # the product is above order 64, its parts are not; the later requests
    # build nothing
    assert spy.built == [(product, DEFAULT_GUARDS), *((f, DEFAULT_GUARDS) for f in product.factors)]
    z4 = rings.kept_ring(Zmod(4), DEFAULT_GUARDS)
    assert build_ring(product).factors[0] is z4


def test_a_kept_ring_drops_the_presented_modules_of_earlier_requests(monkeypatch):
    _fresh_kept_rings(monkeypatch)
    assert _call(_Z8_SGP)[0] == 0
    ring = rings.kept_ring(Zmod(8), DEFAULT_GUARDS)
    free = free_module(ring, 2)
    presented = list(rings.request_memo(ring, "modules").values())
    assert presented  # the witness search interns its cokernels
    refs = [weakref.ref(m) for m in presented]
    del presented
    assert _call(["module", "sgp", "--ring", "Z/8", "--rel", "4"])[0] == 0
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert free_module(ring, 2) is free


def test_a_request_drops_what_the_last_one_derived_on_parts_and_owners(monkeypatch):
    # Z/4 x Z/27 is built per request, and its factors' table owners are
    # its kept parts, so R/m of each factor is derived on a ring the
    # request is never handed; verify-paper keeps Ext^1 results on the
    # owners of the factors of the products it builds, kept parts among them
    # (guards no other test uses, so no owner has decided R/m before)
    _fresh_kept_rings(monkeypatch)
    extra = ["--max-hom-enumeration", "999983"]
    guards = DEFAULT_GUARDS.with_overrides(max_hom_candidates=999983)
    product = parse_ring_spec("Z/4 x Z/27")
    owners = [rings.table_owner(rings.kept_ring(f, guards)) for f in product.factors]
    held = []
    for argv in (["classify", "Z/4 x Z/27"], ["verify-paper", "--catalog", "quick"]):
        assert _call(argv + extra)[0] == 0
        memos = [r._cache["request"] for r in list(rings._REQUEST_HOLDERS)]
        if argv[0] == "classify":
            assert all(rings.request_memo(owner, "modules") for owner in owners)
        else:
            assert any(memo.get("ext1") for memo in memos)
        held.extend(weakref.ref(v) for memo in memos for d in memo.values() for v in d.values())
        del memos
    assert _call(["ideals", "Z/3"])[0] == 0
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)
    assert not any("request" in owner._cache for owner in owners)


def test_dispatch_reads_the_handler_when_main_runs(monkeypatch):
    import finring.cli as cli

    cli.build_parser()
    seen = []

    def patched(args):
        seen.append((args.ring, args.rel))
        return 0

    monkeypatch.setattr(cli, "_run_module_sgp", patched)
    assert _call(_Z8_SGP) == (0, "", "")
    assert seen == [("Z/8", "2,0;0,4")]


# -- a bounded fuzz of the command line, on small rings only -------------------

_FUZZ_GOOD_SPECS = ["Z/4", "Z/6", "Z/8", "GF(4)", "Z/2 x Z/3", "GF(2)[x]/(x^2)", SQUARE_ZERO_PAIR]
_FUZZ_BAD_SPECS = [
    "Z/5000", "Z/", "Z/1", "Z/0", "Z/-3", "GF(6)", "GF(128)", "Z/4[x]/(2*x^2+1)",
    "Z/4 x", "x", "", "Q", "SC(2;1;1;1)", "SC(2;1;1;0)", "SC(2;2;1;1,0)",
    "Z/2[x]/(x+1" , "Z/2[x]/(x^2)[x]/", "Z/9 junk", "Z/99999999999999999999",
    # orders too large to form or print, and GF(q) beyond a trial division
    "GF(2)" + "[x]/(x^2)" * 14, "GF(2)[x]/(x^1000000)", "GF(2)" + "[x]/(x^64)" * 6,
    "Z/4[x]/(x^2+x^100000000)", "GF(1000000000000000003)", "GF(1000000007^2)",
    "GF(2^20000)", "GF(2^99999999999)",
]
_FUZZ_GOOD_RELS = ["2,0;0,4", "2", "4", "", "0;0", "x", "1+x", "(1,0)", "(1,2),(0,1)"]
_FUZZ_BAD_RELS = [
    "2,0;4", "1,2;3", ";", "2;;", "a", "b1", "((1))", "2,", "-3", "99999999999999999999",
    "x^10000000",
]
_FUZZ_VALUES = ["-1", "0", "1", "5", "100", "5000", "x", "1e3", ""]
_FUZZ_FLAGS = [
    "--json", "--max-ring-size", "--max-module-size", "--max-hom-enumeration",
    "--seed", "--length", "--catalog", "--bogus", "-h",
]


@st.composite
def _argv(draw):
    # well-formed inputs twice as often as malformed ones
    spec = draw(st.sampled_from(_FUZZ_GOOD_SPECS * 2 + _FUZZ_BAD_SPECS))
    rel = draw(st.sampled_from(_FUZZ_GOOD_RELS * 2 + _FUZZ_BAD_RELS))
    head = draw(
        st.sampled_from(
            [
                ["classify", spec],
                ["ideals", spec],
                ["decompose", spec],
                ["module", "sgp", "--ring", spec, "--rel", rel],
                ["resolve", "--ring", spec, "--rel", rel],
                ["module", "frobnicate"],
                ["verify-paper", "--catalog", "bogus"],
                [],
                [spec],
            ]
        )
    )
    # mostly well-formed options, sometimes a stray or unknown token
    option = st.tuples(st.sampled_from(_FUZZ_FLAGS[1:5]), st.sampled_from(_FUZZ_VALUES))
    stray = st.sampled_from(_FUZZ_FLAGS + _FUZZ_VALUES).map(lambda t: (t,))
    tail = draw(st.lists(st.one_of(option, option, st.just(("--json",)), stray), max_size=3))
    flat = [token for item in tail for token in item]
    if head[:1] == ["resolve"]:
        flat += ["--length", draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
    return head + flat


@settings(max_examples=80, deadline=None)
@given(_argv())
def test_cli_fuzz_exit_codes_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()


# each once ended in a traceback, a MemoryError or a run of many seconds
@pytest.mark.parametrize(
    "argv,code",
    [
        (["classify", "GF(2)" + "[x]/(x^2)" * 14], 3),
        (["classify", "GF(2)[x]/(x^1000000)"], 2),
        (["classify", "GF(2)" + "[x]/(x^64)" * 6], 3),
        (["classify", "Z/4[x]/(x^2+x^100000000)"], 2),
        (["classify", "GF(1000000000000000003)"], 3),
        (["classify", "GF(1000000007^2)"], 2),
        (["classify", "GF(2^20000)"], 2),
        (["classify", "GF(2^99999999999)"], 2),
        (["classify", "Z/" + "9" * 5000], 2),
        (["classify", "SC(2;" + "9" * 4000 + ";1;1)"], 2),
        (["module", "sgp", "--ring", "Z/4", "--rel", "x^10000000"], 2),
    ],
)
def test_huge_inputs_answer_at_once_on_one_line(argv, code):
    start = time.perf_counter()
    result, _, err = _call(argv)
    assert time.perf_counter() - start < 1
    assert result == code
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_huge_power_in_a_relation_decides_at_once():
    start = time.perf_counter()
    result, out, err = _call(
        ["module", "sgp", "--ring", "GF(2)[x]/(x^2)", "--rel", "x^10000000", "--json"]
    )
    assert time.perf_counter() - start < 1
    assert (result, err) == (0, "")
    # x^10000000 = 0 presents the free module R
    assert json.loads(out)["sgp"] is True
