"""Products of rings read their ideal lattice, annihilators, idempotent
split and operation tables off their parts.  Each is checked here against
the route every ring takes that has no parts to read: tables from the
position ops over the whole grid, the lattice as the closure of {0} under
adding principal ideals in Python-int bitsets, annihilators from the
multiplication table, and the split from the table's idempotents.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finring.classify import _PAIR_BASIS, catalog_specs, classify
from finring.ideals import (
    annihilator,
    enumerate_ideals,
    ideal_generated,
    idempotent_decomposition,
)
from finring.modules import (
    direct_sum,
    free_summand_split,
    quotient_by_ideal,
    regular_module,
)
from finring.parsing import parse_ring_spec
from finring.rings import ProductRing, Ring, build_ring, spec_order, units_mask


def _ring(text):
    return build_ring(parse_ring_spec(text))


def _bits(positions) -> int:
    mask = np.zeros(np.max(positions) + 1, dtype=bool)
    mask[positions] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _members(bits: int) -> np.ndarray:
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


class _Reference:
    """The closure, bitset and table route over (+, *, -) position tables."""

    def __init__(self, add, mul, neg):
        self.add, self.mul, self.neg = add, mul, neg
        n = len(add)
        principal = {_bits(mul[x]) for x in range(n)}
        found = [1]  # {0}: position 0 is zero
        for ideal in found:  # grows while it is scanned
            found += {self.plus(ideal, p) for p in principal}.difference(found)
        keyed = sorted((tuple(_members(a).tolist()), a) for a in found)
        keyed.sort(key=lambda kb: len(kb[0]))
        self.lattice = [(idx, self.generators(a)) for idx, a in keyed]

    @classmethod
    def of(cls, ring):
        ar = np.arange(ring.order)
        grid = ar[:, None], ar
        return cls(ring._add(*grid), ring._mul(*grid), ring._neg(ar))

    def plus(self, a, b):
        members, total, rest = _members(a), a, b & ~a
        while rest:
            low = (rest & -rest).bit_length() - 1
            total |= _bits(self.add[members, low])
            rest &= ~total
        return total

    def generators(self, target):
        span, gens = 1, []
        while target & ~span:
            rest = target & ~span
            gens.append((rest & -rest).bit_length() - 1)
            span = self.plus(span, _bits(self.mul[gens[-1]]))
        return tuple(gens)

    def annihilator(self, positions):
        return tuple(np.flatnonzero((self.mul[:, list(positions)] == 0).all(axis=1)).tolist())

    def split(self):
        """The atoms, and for each its projection and its factor's (+, *, -) tables."""
        ar = np.arange(len(self.mul))
        idem = ar[(self.mul[ar, ar] == ar) & (ar != 0)]
        below = self.mul[np.ix_(idem, idem)] == idem[:, None]
        np.fill_diagonal(below, False)
        atoms = idem[~below.any(axis=0)].tolist()
        out = []
        for e in atoms:
            sub = np.unique(self.mul[e])
            pos = np.full(len(ar), -1)
            pos[sub] = np.arange(len(sub))
            tables = (pos[self.add[np.ix_(sub, sub)]], pos[self.mul[np.ix_(sub, sub)]], pos[self.neg[sub]])
            out.append((pos[self.mul[e]], tables))
        return atoms, out


def _assert_lattice_matches(ring, ref):
    lattice = enumerate_ideals(ring)
    assert [(i.indices, i.generator_indices) for i in lattice] == ref.lattice
    for ideal in lattice:
        ann = annihilator(ideal)
        assert ann.indices == ref.annihilator(ideal.indices)
        assert any(ann is other for other in lattice)


def _assert_parts_route_matches(ring):
    assert isinstance(ring, ProductRing)
    ref = _Reference.of(ring)
    _assert_lattice_matches(ring, ref)
    assert np.array_equal(units_mask(ring), (ref.mul == ring._one_pos).any(axis=1))
    for mine, theirs in zip(ring.tables(), (ref.add, ref.mul, ref.neg)):
        assert np.array_equal(mine, theirs)
    dec = idempotent_decomposition(ring)
    atoms, factors = ref.split()
    assert dec.idempotents == tuple(ring.elements[e] for e in atoms)
    for f, proj, (ref_proj, tables) in zip(dec.factor_rings, dec.projections, factors):
        assert np.array_equal(proj, ref_proj)
        for mine, theirs in zip(f.tables(), tables):
            assert np.array_equal(mine, theirs)
        _assert_lattice_matches(f, _Reference(*tables))


def test_every_catalog_product_matches_the_table_route():
    products = [t for _, t in catalog_specs() if " x " in t]
    assert len(products) == 164
    for text in products + ["Z/12 x Z/4", "Z/4 x GF(9) x Z/2", "Z/12 x Z/2 x GF(4)"]:
        _assert_parts_route_matches(_ring(text))


_SMALL_PRODUCTS = [
    " x ".join(specs)
    for k in (2, 3)
    for specs in itertools.product(_PAIR_BASIS, repeat=k)
    if spec_order(parse_ring_spec(" x ".join(specs))) <= 256
]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_SMALL_PRODUCTS))
def test_random_products_match_the_table_route(text):
    _assert_parts_route_matches(_ring(text))


def test_product_factors_build_no_tables(monkeypatch):
    built = []
    original = Ring._build_tables

    def counting(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(Ring, "_build_tables", counting)
    ring = _ring("Z/12 x GF(4) x Z/9")
    dec = idempotent_decomposition(ring)
    for f in dec.factor_rings:
        f.tables()
        enumerate_ideals(f)
    assert len(dec.factor_rings) == 4
    assert not any(r is f for r in built for f in dec.factor_rings)


def test_classifying_an_order_256_product_builds_no_principal_ideals():
    ring = _ring("Z/16 x GF(16)")
    assert ring.order == 256
    report = classify(ring)
    assert not report.is_local and len(report.factors) == 2
    bitsets = ring._cache.get("ideal_bitsets")
    assert bitsets is None or not {"principal", "killers"} & set(vars(bitsets))
    assert ring._tables is None


def test_free_summand_complement_is_presented_minimally():
    ring = _ring("Z/9")
    m = direct_sum(quotient_by_ideal(ideal_generated(ring, [3])), regular_module(ring))
    rank, rest = free_summand_split(m)
    assert (rank, rest.k, rest.cardinality) == (1, 1, 3)
