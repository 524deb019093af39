import itertools

import pytest

from finring.classify import SQUARE_ZERO_PAIR
from finring.errors import GuardExceeded
from finring.guards import Guards
from finring.ideals import (
    annihilator,
    enumerate_ideals,
    ideal_generated,
    idempotent_decomposition,
    is_local,
    jacobson_radical,
    maximal_ideals,
    unique_maximal_ideal,
)
from finring.parsing import parse_ring_spec
from finring.rings import Zmod, build_ring


def _ring(text):
    return build_ring(parse_ring_spec(text))


def test_principal_ideal_oracle():
    z12 = _ring("Z/12")
    # oracle: multiples of the generator
    assert ideal_generated(z12, [4]).elements == {(4 * k) % 12 for k in range(12)}
    z8 = _ring("Z/8")
    assert ideal_generated(z8, [2]).elements == {0, 2, 4, 6}
    assert ideal_generated(z8, []).elements == {0}


def test_ideals_of_zn_match_divisors():
    # oracle: ideals of Z/n are exactly the divisor ideals dZ/n
    for n in [12, 8, 30, 16]:
        ring = build_ring(Zmod(n))
        expected = {
            frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0
        }
        got = {ideal.elements for ideal in enumerate_ideals(ring)}
        assert got == expected


def _brute_force_ideals(ring):
    # oracle: every subset containing 0, closed under + and external *
    els = ring.elements
    out = set()
    for size in range(1, len(els) + 1):
        for cand in itertools.combinations(els, size):
            s = set(cand)
            if ring.zero not in s:
                continue
            if any(ring.add(a, b) not in s for a in s for b in s):
                continue
            if any(ring.mul(r, a) not in s for r in els for a in s):
                continue
            out.add(frozenset(s))
    return out


@pytest.mark.parametrize("text", ["GF(2)[x]/(x^2)", SQUARE_ZERO_PAIR, "Z/4 x Z/2"])
def test_enumerate_ideals_against_brute_force(text):
    ring = _ring(text)
    assert {i.elements for i in enumerate_ideals(ring)} == _brute_force_ideals(ring)


def test_ideal_lattice_is_sorted_and_complete():
    z12 = _ring("Z/12")
    lattice = enumerate_ideals(z12)
    assert [i.order for i in lattice] == [1, 2, 3, 4, 6, 12]
    assert lattice[0].elements == {0}
    assert lattice[-1].order == 12


def test_generator_witnesses_regenerate_their_ideals():
    for text in ["Z/12", "GF(4)", SQUARE_ZERO_PAIR]:
        ring = _ring(text)
        for ideal in enumerate_ideals(ring):
            regenerated = ideal_generated(ring, list(ideal.generators))
            assert regenerated.elements == ideal.elements


def test_annihilator_examples_and_oracle():
    z8 = _ring("Z/8")
    two = ideal_generated(z8, [2])
    assert annihilator(z8, two).elements == {0, 4}
    z4 = _ring("Z/4")
    m = ideal_generated(z4, [2])
    assert annihilator(z4, m).elements == {0, 2}
    assert annihilator(z4, ideal_generated(z4, [])).elements == set(z4.elements)
    # brute oracle on a non-chain ring: scan against every ideal element
    sc = _ring(SQUARE_ZERO_PAIR)
    for ideal in enumerate_ideals(sc):
        brute = {
            x
            for x in sc.elements
            if all(sc.mul(x, g) == sc.zero for g in ideal.elements)
        }
        assert annihilator(sc, ideal).elements == brute


def test_double_annihilator_containment():
    for text in ["Z/12", "Z/16", SQUARE_ZERO_PAIR, "GF(3)[x]/(x^2)"]:
        ring = _ring(text)
        for ideal in enumerate_ideals(ring):
            back = annihilator(ring, annihilator(ring, ideal))
            assert ideal.elements <= back.elements


def test_maximal_ideals_and_locality():
    z8 = _ring("Z/8")
    assert [sorted(i.elements) for i in maximal_ideals(z8)] == [[0, 2, 4, 6]]
    assert is_local(z8)
    z12 = _ring("Z/12")
    assert {frozenset(i.elements) for i in maximal_ideals(z12)} == {
        frozenset({0, 2, 4, 6, 8, 10}),
        frozenset({0, 3, 6, 9}),
    }
    assert not is_local(z12)
    z5 = _ring("Z/5")
    assert [sorted(i.elements) for i in maximal_ideals(z5)] == [[0]]
    assert is_local(z5)
    assert unique_maximal_ideal(z5).is_zero


def test_jacobson_radical():
    assert jacobson_radical(_ring("Z/12")).elements == {0, 6}
    assert jacobson_radical(_ring("Z/6")).elements == {0}
    assert jacobson_radical(_ring("Z/4")).elements == {0, 2}


def test_idempotent_decomposition_examples():
    dec12 = idempotent_decomposition(_ring("Z/12"))
    assert dec12.idempotents == (4, 9)
    assert [f.order for f in dec12.factor_rings] == [3, 4]
    dec8 = idempotent_decomposition(_ring("Z/8"))
    assert dec8.idempotents == (1,)
    dec6 = idempotent_decomposition(_ring("Z/6"))
    assert dec6.idempotents == (3, 4)
    assert [f.order for f in dec6.factor_rings] == [2, 3]


def test_decomposition_components_round_trip():
    ring = _ring("Z/12")
    dec = idempotent_decomposition(ring)
    for x in ring.elements:
        total = ring.zero
        for e in dec.idempotents:
            total = ring.add(total, ring.mul(e, x))
        assert total == x


def test_local_ring_is_its_own_factor():
    z8 = _ring("Z/8")
    dec = idempotent_decomposition(z8)
    assert dec.factor_rings == (z8,)
    assert enumerate_ideals(dec.factor_rings[0]) is enumerate_ideals(z8)


def test_factor_rings_behave_as_rings():
    ring = _ring("Z/12")
    dec = idempotent_decomposition(ring)
    factor = dec.factor_rings[1]  # the order-4 factor at idempotent 9
    assert factor.one == 9
    assert factor.order == 4
    assert factor.mul(9, 9) == 9
    assert is_local(factor)
    assert len(enumerate_ideals(factor)) == 3


def test_lattice_guard():
    guards = Guards(max_lattice_order=8)
    ring = build_ring(Zmod(12), guards)
    with pytest.raises(GuardExceeded):
        enumerate_ideals(ring)
