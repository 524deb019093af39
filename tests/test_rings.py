import itertools

import pytest

from finring.errors import AxiomViolation, GuardExceeded, ValidationError
from finring.parsing import parse_ring_spec
from finring.rings import (
    StructureConstants,
    Zmod,
    build_ring,
    spec_char,
    spec_order,
    unit_or_zero_divisor,
)


def test_zmod_carrier():
    ring = build_ring(Zmod(4))
    assert ring.elements == [0, 1, 2, 3]
    assert ring.add(2, 3) == 1
    assert ring.mul(2, 2) == 0
    assert ring.neg(1) == 3


def test_poly_quotient_carrier_matches_coefficient_vectors():
    ring = build_ring(parse_ring_spec("GF(2)[x]/(x^2)"))
    # independent oracle: all coefficient vectors over the base
    expected = sorted(itertools.product([0, 1], repeat=2))
    assert ring.elements == expected
    assert ring.mul((0, 1), (0, 1)) == (0, 0)  # x * x = 0
    assert ring.one == (1, 0)


def test_product_is_crt_image_of_z12():
    ring = build_ring(parse_ring_spec("Z/4 x Z/3"))
    assert ring.order == 12
    assert ring.mul((2, 2), (2, 2)) == (0, 1)
    # independent oracle: x -> (x mod 4, x mod 3) is a ring isomorphism
    z12 = build_ring(Zmod(12))
    iso = {x: (x % 4, x % 3) for x in z12.elements}
    assert sorted(iso.values()) == ring.elements
    for a in z12.elements:
        for b in z12.elements:
            assert iso[z12.add(a, b)] == ring.add(iso[a], iso[b])
            assert iso[z12.mul(a, b)] == ring.mul(iso[a], iso[b])


def test_unit_or_zero_divisor():
    z9 = build_ring(Zmod(9))
    assert (2 * 5) % 9 == 1  # oracle for the unit case
    assert unit_or_zero_divisor(z9, 2) == "unit"
    assert (3 * 3) % 9 == 0  # oracle for the zero-divisor case
    assert unit_or_zero_divisor(z9, 3) == "zero_divisor"
    assert unit_or_zero_divisor(z9, 0) == "zero"


def test_every_nonzero_element_is_unit_or_zero_divisor():
    for text in ["Z/12", "GF(8)", "GF(3)[x]/(x^2)"]:
        ring = build_ring(parse_ring_spec(text))
        for x in ring.elements:
            kind = unit_or_zero_divisor(ring, x)
            if x == ring.zero:
                assert kind == "zero"
            else:
                # reference: search every element for an inverse
                unit = any(ring.mul(x, y) == ring.one for y in ring.elements)
                assert kind == ("unit" if unit else "zero_divisor")


def test_structure_constant_validation():
    # b1*b1 = b0 with b0 the unit but b0*b1 = 0: breaks the identity law
    dim = 2
    table = (
        ((1, 0), (0, 0)),
        ((0, 0), (1, 0)),
    )
    with pytest.raises(AxiomViolation):
        build_ring(StructureConstants(2, dim, table, (1, 0)))
    # non-commutative table
    table = (
        ((1, 0), (0, 1)),
        ((0, 0), (0, 0)),
    )
    with pytest.raises(AxiomViolation):
        build_ring(StructureConstants(2, dim, table, (1, 0)))


def test_structure_constant_shape_validation():
    with pytest.raises(ValidationError):
        StructureConstants(2, 2, ((0,),), (1, 0))
    with pytest.raises(ValidationError):
        StructureConstants(2, 1, (((1,),),), (0,))  # zero unit vector


def test_construction_guard():
    with pytest.raises(GuardExceeded):
        build_ring(Zmod(5000))


def test_sampled_axiom_path_for_large_rings():
    ring = build_ring(Zmod(2048))
    assert ring.order == 2048
    assert ring.mul(1024, 2) == 0


def test_spec_order_and_char():
    spec = parse_ring_spec("Z/4 x GF(9)")
    assert spec_order(spec) == 36
    assert spec_char(spec) == 12
    assert spec_char(parse_ring_spec("GF(8)")) == 2


def test_canonical_order_is_sorted():
    for text in ["Z/7", "GF(9)", "Z/4 x Z/3", "GF(2)[x]/(x^3)"]:
        ring = build_ring(parse_ring_spec(text))
        assert ring.elements == sorted(ring.elements)
        assert ring.elements[0] == ring.zero


def test_scalar_from_int():
    gf4 = build_ring(parse_ring_spec("GF(4)"))
    assert gf4.scalar_from_int(3) == gf4.one  # characteristic 2
    assert gf4.scalar_from_int(2) == gf4.zero
    assert gf4.char == 2


def test_nested_quotient_tower():
    tower = build_ring(parse_ring_spec("GF(2)[x]/(x^2)[x]/(x^2+1)"))
    assert tower.order == 16
    assert tower.mul(tower.one, tower.elements[5]) == tower.elements[5]
