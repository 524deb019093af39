import importlib
import inspect

import pytest

from finring.classify import (
    SQUARE_ZERO_PAIR,
    catalog_rings,
    catalog_specs,
    classify,
    classify_spec,
    is_quasi_frobenius,
    is_semisimple,
    is_sg_semisimple,
    residue_field_sgp,
)
from finring.errors import GuardExceeded
from finring.ideals import annihilator, enumerate_ideals, is_local
from finring.parsing import parse_ring_spec
from finring.guards import DEFAULT_GUARDS
from finring.rings import build_ring, spec_order, table_owner


def _ring(text):
    return build_ring(parse_ring_spec(text))


@pytest.mark.parametrize(
    "text,ss,qf,sg",
    [
        ("Z/4", False, True, True),
        ("Z/8", False, True, False),
        ("Z/27", False, True, False),
        ("Z/9", False, True, True),
        ("Z/25", False, True, True),
        ("GF(2)[x]/(x^2)", False, True, True),
        ("GF(2)[x]/(x^3)", False, True, False),
        ("Z/12", False, True, True),
        ("Z/6", True, True, True),
        ("Z/5", True, True, True),
        ("GF(4)", True, True, True),
        (SQUARE_ZERO_PAIR, False, False, False),
    ],
)
def test_landmark_classifications(text, ss, qf, sg):
    report = classify_spec(text)
    assert (report.semisimple, report.quasi_frobenius, report.sg_semisimple) == (
        ss,
        qf,
        sg,
    )


def test_z4_report_details():
    report = classify_spec("Z/4")
    assert report.is_local
    assert report.semisimple_certificate == 2
    assert report.qf_certificate is None
    assert report.sg_certificate is None
    assert report.factors[0].ideal_count == 3


def test_z8_sg_certificate_names_two_ideals():
    report = classify_spec("Z/8")
    cert = report.sg_certificate
    assert cert is not None
    assert {frozenset(cert.first.elements), frozenset(cert.second.elements)} == {
        frozenset({0, 4}),
        frozenset({0, 2, 4, 6}),
    }


def test_z27_sg_certificate():
    report = classify_spec("Z/27")
    cert = report.sg_certificate
    first, second = sorted([cert.first.order, cert.second.order])
    assert (first, second) == (3, 9)
    assert report.quasi_frobenius


def test_square_zero_control_certificate():
    ring = _ring(SQUARE_ZERO_PAIR)
    ok, cert = is_quasi_frobenius(ring)
    assert not ok
    # the violating ideal is one of the three two-element ideals inside m,
    # generated by a degree-one basis vector; its double annihilator is m
    assert cert.order == 2
    back = annihilator(annihilator(cert))
    assert back.order == 4
    assert back.elements != cert.elements


def test_semisimple_certificates():
    ring = _ring("Z/4")
    ok, witness = is_semisimple(ring)
    assert not ok and witness == 2
    ring = _ring("Z/6")
    ok, witness = is_semisimple(ring)
    assert ok and witness is None


def test_sg_route_agreement_on_small_locals():
    for text in ["Z/4", "Z/8", "Z/9", "Z/16", "Z/25", "GF(7)", "GF(2)[x]/(x^3)"]:
        ring = _ring(text)
        assert is_local(ring)
        nonzero_proper = sum(
            1 for i in enumerate_ideals(ring) if i.is_proper and not i.is_zero
        )
        assert (nonzero_proper <= 1) == residue_field_sgp(ring).decision


def test_prime_square_and_cube_families():
    for p in [2, 3, 5]:
        assert classify_spec(f"Z/{p * p}").sg_semisimple
        assert not classify_spec(f"Z/{p ** 3}").sg_semisimple


def test_product_classification():
    report = classify_spec("Z/4 x Z/3")
    assert not report.is_local
    assert len(report.factors) == 2
    assert report.sg_semisimple and report.quasi_frobenius and not report.semisimple
    report = classify_spec(f"Z/8 x {SQUARE_ZERO_PAIR}")
    assert not report.quasi_frobenius and not report.sg_semisimple


def test_implication_chain_on_quick_catalog():
    for label, ring in catalog_rings("quick"):
        report = classify(ring)
        assert not report.semisimple or report.sg_semisimple, label
        assert not report.sg_semisimple or report.quasi_frobenius, label


def test_catalog_contents():
    specs = dict(catalog_specs("default"))
    assert "Z/2" in specs and "Z/64" in specs
    assert "GF(16)" in specs
    assert SQUARE_ZERO_PAIR in specs
    for label, text in catalog_specs("default"):
        assert spec_order(parse_ring_spec(text)) <= 256
    with pytest.raises(ValueError):
        catalog_specs("nope")


def test_residue_memo_tells_rings_with_equal_mul_tables_apart():
    z4 = _ring("Z/4")
    dual_numbers = _ring("SC(2;2;0,0,1,0,1,0,0,1;0,1)")
    # same multiplication index table, different addition table
    assert (z4.tables()[1] == dual_numbers.tables()[1]).all()
    assert not (z4.tables()[0] == dual_numbers.tables()[0]).all()
    # so R/m and its verdict are kept on two owners, one for each ring
    assert table_owner(z4) is not table_owner(dual_numbers)
    assert classify(z4).sg_semisimple and classify(dual_numbers).sg_semisimple


def test_the_package_name_classify_is_the_function_and_import_module_gives_the_module():
    import finring

    module = importlib.import_module("finring.classify")
    assert inspect.ismodule(module) and module.__name__ == "finring.classify"
    # the package export, which README's quick start imports, is the function
    assert finring.classify is module.classify is classify
    assert inspect.isfunction(finring.classify)


def test_the_residue_verdict_is_decided_once_per_owner(monkeypatch):
    classify_module = importlib.import_module("finring.classify")
    calls = []
    monkeypatch.setattr(
        classify_module, "residue_field_sgp", lambda r: calls.append(r) or residue_field_sgp(r)
    )
    guards = DEFAULT_GUARDS.with_overrides(max_hom_candidates=123_461)  # a new owner
    first = build_ring(parse_ring_spec("Z/8"), guards)
    assert not classify(first).sg_semisimple and calls == [first]
    # a second build with equal tables, and a product's factor mirroring a
    # kept Z/8, read the verdict their owner keeps
    for text in ("Z/8", "Z/8 x Z/3"):
        assert not classify(build_ring(parse_ring_spec(text), guards)).sg_semisimple
    assert calls == [first]


def test_classify_checks_the_lattice_guard_before_building_tables():
    ring = _ring("GF(2)[x]/(x^11)")  # order 2048 > max_lattice_order 1024
    with pytest.raises(GuardExceeded, match="lattice guard"):
        classify(ring)
    assert ring._tables is None
