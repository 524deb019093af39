"""Acceptance suite: one test per criterion, each timed against its budget
and reported as a single pass/fail line (see the terminal summary, or run
with ``-s``)."""

import hashlib
import time

from finring.cli import main as cli_main
from finring.classify import (
    SQUARE_ZERO_PAIR,
    catalog_rings,
    classify,
    classify_spec,
    residue_field_sgp,
)
from finring.homology import (
    check_complete_resolution,
    ext1,
    is_strongly_gorenstein_projective,
    strongly_complete_resolution,
)
from finring.ideals import (
    annihilator,
    enumerate_ideals,
    is_local,
    unique_maximal_ideal,
)
from finring.modules import Module, quotient_by_ideal, regular_module
from finring.parsing import parse_presentation, parse_ring_spec
from finring.rings import build_ring
from finring.verify import (
    check_cyclic_sgp_ideal_laws,
    check_sgp_quotient_laws,
)


def _run(log, number, budget, description, body):
    start = time.perf_counter()
    try:
        body()
    except Exception:
        elapsed = time.perf_counter() - start
        line = f"criterion {number:2d} FAIL ({elapsed:6.2f}s, budget {budget}s): {description}"
        log(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    line = (
        f"criterion {number:2d} {'PASS' if ok else 'FAIL'} "
        f"({elapsed:6.2f}s < {budget}s): {description}"
    )
    log(line)
    print(line)
    assert ok, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_z4_classification(acceptance_log):
    def body():
        report = classify_spec("Z/4")
        assert report.semisimple is False
        assert report.quasi_frobenius is True
        assert report.sg_semisimple is True

    _run(
        acceptance_log,
        1,
        1,
        "Z/4 is quasi-Frobenius and SG-semisimple but not semisimple",
        body,
    )


def test_criterion_2_chain_rings_of_length_three(acceptance_log):
    def body():
        for text, sizes in [("Z/8", {2, 4}), ("Z/27", {3, 9})]:
            start = time.perf_counter()
            report = classify_spec(text)
            assert report.quasi_frobenius is True
            assert report.sg_semisimple is False
            cert = report.sg_certificate
            assert cert is not None
            assert cert.first.elements != cert.second.elements
            assert {cert.first.order, cert.second.order} == sizes
            for ideal in (cert.first, cert.second):
                assert not ideal.is_zero and ideal.is_proper
            assert time.perf_counter() - start < 1

    _run(
        acceptance_log,
        2,
        2,
        "Z/8 and Z/27 are quasi-Frobenius, not SG-semisimple, with two-ideal certificates",
        body,
    )


def test_criterion_3_all_zn_quasi_frobenius(acceptance_log):
    def body():
        for n in range(2, 65):
            assert classify_spec(f"Z/{n}").quasi_frobenius, f"Z/{n}"

    _run(
        acceptance_log,
        3,
        10,
        "classify(Z/n).quasi_frobenius holds for every n in 2..64",
        body,
    )


def test_criterion_4_truncated_polynomial_rings(acceptance_log):
    def body():
        assert classify_spec("GF(2)[x]/(x^2)").sg_semisimple is True
        assert classify_spec("GF(2)[x]/(x^3)").sg_semisimple is False

    _run(
        acceptance_log,
        4,
        1,
        "GF(2)[x]/(x^2) is SG-semisimple, GF(2)[x]/(x^3) is not",
        body,
    )


def test_criterion_5_square_zero_control(acceptance_log):
    def body():
        report = classify_spec(SQUARE_ZERO_PAIR)
        assert report.quasi_frobenius is False
        cert = report.qf_certificate
        assert cert is not None and cert.order == 2
        ring = build_ring(parse_ring_spec(SQUARE_ZERO_PAIR))
        again = annihilator(annihilator(cert))
        assert again.elements != cert.elements
        ext = ext1(
            quotient_by_ideal(unique_maximal_ideal(ring)),
            regular_module(ring),
        )
        assert ext.order != 1

    _run(
        acceptance_log,
        5,
        2,
        "square-zero control ring fails the double-annihilator test and has Ext^1(R/m, R) != 0",
        body,
    )


def test_criterion_6_sg_route_agreement(acceptance_log):
    counted = []

    def body():
        for label, ring in catalog_rings("default"):
            if not is_local(ring) or ring.order > 64:
                continue
            nonzero_proper = sum(
                1 for i in enumerate_ideals(ring) if i.is_proper and not i.is_zero
            )
            ideal_route = nonzero_proper <= 1
            module_route = residue_field_sgp(ring).decision
            assert ideal_route == module_route, label
            counted.append(label)
        assert len(counted) >= 30

    _run(
        acceptance_log,
        6,
        30,
        "ideal-count and residue-field-SGP routes agree on every local catalog ring of order <= 64",
        body,
    )


def test_criterion_7_witness_demonstrations_over_z8(acceptance_log):
    def body():
        ring = build_ring(parse_ring_spec("Z/8"))
        small = Module(parse_presentation(ring, "2"))
        medium = Module(parse_presentation(ring, "4"))
        mixed = Module(parse_presentation(ring, "2,0;0,4"))
        v_small = is_strongly_gorenstein_projective(small)
        assert not v_small.decision
        assert v_small.obstruction.kind == "cardinality"
        v_medium = is_strongly_gorenstein_projective(medium)
        assert not v_medium.decision
        v_mixed = is_strongly_gorenstein_projective(mixed)
        assert v_mixed.decision
        assert v_mixed.witness.rank == 2
        resolution = strongly_complete_resolution(v_mixed.witness)
        report = check_complete_resolution(resolution)
        assert report.forward_exact and report.dual_exact

    _run(
        acceptance_log,
        7,
        5,
        "over Z/8: Z/2 and Z/4 are not SGP but Z/2+Z/4 is, with a verified rank-2 periodic resolution",
        body,
    )


def test_criterion_8_cyclic_ideal_lemma_suite(acceptance_log):
    def body():
        rings = list(catalog_rings("default"))
        first = check_cyclic_sgp_ideal_laws(rings, {})
        assert first.passed, first.detail
        assert int(first.detail.split()[0]) >= 1  # not vacuous
        second = check_sgp_quotient_laws(rings, {})
        assert second.passed, second.detail
        assert int(second.detail.split()[0]) >= 1

    _run(
        acceptance_log,
        8,
        30,
        "cyclic SGP ideals satisfy Ann(xR) = xR up to isomorphism; SGP quotients have cyclic SGP kernels",
        body,
    )


def test_criterion_9_implication_chain_on_catalog(acceptance_log):
    counted = []

    def body():
        for label, ring in catalog_rings("default"):
            report = classify(ring)
            if report.semisimple:
                assert report.sg_semisimple, label
            if report.sg_semisimple:
                assert report.quasi_frobenius, label
            counted.append(label)
        assert len(counted) >= 100

    _run(
        acceptance_log,
        9,
        10,
        "semisimple => SG-semisimple => quasi-Frobenius across the default catalog",
        body,
    )


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_criterion_10_verify_paper_exit_codes(acceptance_log, capsys):
    def body():
        assert cli_main(["verify-paper"]) == 0
        assert _sha256(capsys.readouterr().out) == (
            "01fb56911aac41e1d57ce2c2b7a454cb4f79a6e515f41440e69c6b0032eead6f"
        )
        assert cli_main(["verify-paper", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "FAIL sg-route-agreement" in out
        assert "counterexample" in out
        assert _sha256(out) == (
            "49fc838409ea579b039f3e27e896bdbb3054e3993f2ab67364a7954c7cecd4c8"
        )

    _run(
        acceptance_log,
        10,
        60,
        "verify-paper exits 0 on the default catalog and 1 with a named counterexample under fault injection",
        body,
    )
