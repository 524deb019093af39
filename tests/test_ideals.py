import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import ring_lists
from finring.classify import SQUARE_ZERO_PAIR, catalog_specs
from finring.errors import ConsistencyError, GuardExceeded
from finring.guards import Guards
from finring.ideals import (
    IdempotentFactorRing,
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
    assert annihilator(two).elements == {0, 4}
    z4 = _ring("Z/4")
    m = ideal_generated(z4, [2])
    assert annihilator(m).elements == {0, 2}
    assert annihilator(ideal_generated(z4, [])).elements == set(z4.elements)
    # brute oracle on a non-chain ring: scan against every ideal element
    sc = _ring(SQUARE_ZERO_PAIR)
    for ideal in enumerate_ideals(sc):
        brute = {
            x
            for x in sc.elements
            if all(sc.mul(x, g) == sc.zero for g in ideal.elements)
        }
        assert annihilator(ideal).elements == brute


def test_double_annihilator_containment():
    for text in ["Z/12", "Z/16", SQUARE_ZERO_PAIR, "GF(3)[x]/(x^2)"]:
        ring = _ring(text)
        for ideal in enumerate_ideals(ring):
            back = annihilator(annihilator(ideal))
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


def test_a_factor_carrier_open_under_the_parent_sum_is_refused():
    ring = _ring("Z/12")
    ring._sum = lambda i, j: (i + j + 1) % 12  # leaves 4 * Z/12 = {0, 4, 8}
    with pytest.raises(ConsistencyError, match="^factor ring carrier is not closed under operations$"):
        IdempotentFactorRing(ring, 4)


def test_idempotent_projections_are_ring_isomorphisms():
    # the reference for what idempotent_decomposition's checks imply: on every
    # split catalog ring, x -> (e_i x) is a bijection onto the product of the
    # factors and preserves + and * on the tables
    split, above_64 = 0, 0
    for _, text in catalog_specs("default"):
        ring = _ring(text)
        dec = idempotent_decomposition(ring)
        if dec.is_trivial:
            continue
        split += 1
        above_64 += ring.order > 64
        add, mul, _ = ring.tables()
        flat = np.zeros(ring.order, dtype=np.int64)
        for f, p in zip(dec.factor_rings, dec.projections):
            fadd, fmul, _ = f.tables()
            assert np.array_equal(p[add], fadd[p[:, None], p[None, :]]), text
            assert np.array_equal(p[mul], fmul[p[:, None], p[None, :]]), text
            flat = flat * f.order + p
        assert np.array_equal(np.sort(flat), np.arange(ring.order)), text
    assert above_64 == 64 and split > above_64


def test_lattice_guard():
    guards = Guards(max_lattice_order=8)
    ring = build_ring(Zmod(12), guards)
    with pytest.raises(GuardExceeded):
        enumerate_ideals(ring)


# -- the set-based ideal code the bitsets replaced, kept as the reference -----
# Each returns (indices, generator_indices), the two fields of an Ideal.


def _ref_greedy_generator_indices(ring, indices):
    addl, mull = ring_lists(ring)
    zero = ring.index[ring.zero]
    target = set(indices)
    span = {zero}
    gens = []
    for i in indices:  # ascending
        if len(span) == len(target):
            break
        if i in span:
            continue
        gens.append(i)
        row = set(mull[i])
        span = {addl[a][b] for a in span for b in row}
    assert span == target, "generator search failed to span the ideal"
    return tuple(gens)


def _ref_wrap(ring, indices, generator_indices=None):
    idx = tuple(sorted(int(i) for i in set(indices)))
    if generator_indices is None:
        generator_indices = _ref_greedy_generator_indices(ring, idx)
    return idx, tuple(int(g) for g in generator_indices)


def _ref_ideal_generated(ring, gen_idx):
    addl, mull = ring_lists(ring)
    span = {ring.index[ring.zero]}
    for gi in gen_idx:
        row = set(mull[gi])
        span = {addl[a][b] for a in span for b in row}
    return _ref_wrap(ring, span, gen_idx)


def _ref_enumerate_ideals(ring):
    """Principal ideals closed under pairwise sums to a fixpoint."""
    addl, mull = ring_lists(ring)
    known = {tuple(sorted(set(mull[i]))) for i in range(ring.order)}
    while True:
        new = {
            tuple(sorted({addl[a][b] for a in ka for b in kb}))
            for ka, kb in itertools.combinations(sorted(known), 2)
            if not (set(ka) <= set(kb) or set(kb) <= set(ka))
        } - known
        if not new:
            break
        known |= new
    return [_ref_wrap(ring, t) for t in sorted(known, key=lambda t: (len(t), t))]


def _ref_annihilator(ring, generator_indices):
    _, mull = ring_lists(ring)
    zero = ring.index[ring.zero]
    return _ref_wrap(
        ring,
        [x for x in range(ring.order) if all(mull[x][g] == zero for g in generator_indices)],
    )


def _ref_maximal_ideals(ring, lattice):
    proper = [i for i in lattice if len(i[0]) < ring.order]
    return [i for i in proper if not any(set(i[0]) < set(j[0]) for j in proper)]


def _fields(ideal):
    return ideal.indices, ideal.generator_indices


def _factor(text, k):
    """A fresh factor ring of a non-local ring at its k-th primitive idempotent."""
    ring = _ring(text)
    return IdempotentFactorRing(ring, idempotent_decomposition(ring).idempotents[k])


# Z/n, GF(q), quotient towers, the non-QF control, products (some above order
# 64, whose tables are read from their factors' tables) and idempotent factors
_REF_RINGS = {
    **{f"Z/{n}": lambda n=n: _ring(f"Z/{n}") for n in (2, 6, 8, 12, 16, 27, 30, 36)},
    **{t: lambda t=t: _ring(t) for t in ("GF(4)", "GF(9)", "GF(16)")},
    **{
        t: lambda t=t: _ring(t)
        for t in (
            "GF(2)[x]/(x^3)",
            "Z/4[x]/(x^2+2)",
            "GF(2)[x]/(x^2)[x]/(x^2+1)",
            SQUARE_ZERO_PAIR,
            "Z/4 x Z/3",
            "Z/2 x GF(2)[x]/(x^2)",
            f"Z/2 x {SQUARE_ZERO_PAIR}",
            "Z/4 x GF(9) x Z/2",
            "GF(4) x GF(4) x Z/6",
        )
    },
    "factor 0 of Z/4 x GF(2)[x]/(x^2)": lambda: _factor("Z/4 x GF(2)[x]/(x^2)", 0),
    "factor 1 of Z/4 x GF(2)[x]/(x^2)": lambda: _factor("Z/4 x GF(2)[x]/(x^2)", 1),
    "factor 1 of Z/4 x GF(9) x Z/2": lambda: _factor("Z/4 x GF(9) x Z/2", 1),
    "factor 0 of Z/36": lambda: _factor("Z/36", 0),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_REF_RINGS)), st.data())
@example("Z/12", [4, 3])
@example(SQUARE_ZERO_PAIR, [2, 4])
def test_bitset_ideals_match_set_reference(name, data):
    ring = _REF_RINGS[name]()  # a fresh ring: nothing cached yet
    gens = data if isinstance(data, list) else data.draw(
        st.lists(st.integers(0, ring.order - 1), max_size=3)
    )
    els = ring.elements
    # before the lattice exists: new Ideals with greedy generators
    generated = ideal_generated(ring, [els[g] for g in gens])
    assert _fields(generated) == _ref_ideal_generated(ring, gens)
    ann = annihilator(generated)
    assert _fields(ann) == _ref_annihilator(ring, generated.generator_indices)
    assert "ideal_lattice" not in ring._cache
    # the lattice: element sets, generator tuples and order
    lattice = enumerate_ideals(ring)
    reference = _ref_enumerate_ideals(ring)
    assert [_fields(i) for i in lattice] == reference
    for ideal in lattice:
        assert _fields(annihilator(ideal)) == _ref_annihilator(
            ring, ideal.generator_indices
        )
    # after it: the same answers, now the lattice's own objects
    assert annihilator(generated) in lattice
    assert _fields(annihilator(generated)) == _fields(ann)
    again = ideal_generated(ring, [els[g] for g in gens])
    assert _fields(again) == _fields(generated)
    maximal = maximal_ideals(ring)
    assert [_fields(i) for i in maximal] == _ref_maximal_ideals(ring, reference)
    common = set(range(ring.order))
    for idx, _ in _ref_maximal_ideals(ring, reference):
        common &= set(idx)
    assert _fields(jacobson_radical(ring)) == _ref_wrap(ring, common)


def test_annihilator_returns_the_lattice_ideal():
    ring = _ring("Z/36")
    lattice = enumerate_ideals(ring)
    for ideal in lattice:
        ann = annihilator(ideal)
        assert any(ann is other for other in lattice)
