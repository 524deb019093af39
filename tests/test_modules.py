import collections
import contextlib
import functools
import itertools
import types
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brute_force import BruteModule, ring_lists
from memos import forget_memos
from finring.classify import SQUARE_ZERO_PAIR, catalog_specs
from finring.errors import (
    ConsistencyError,
    GuardExceeded,
    NonLocalRingError,
    PreconditionError,
    RingMismatchError,
    ValidationError,
)
from finring import modules
from finring.guards import Guards
from finring.homology import dual_hom
from finring.ideals import (
    annihilator,
    enumerate_ideals,
    ideal_generated,
    idempotent_decomposition,
    is_local,
    quasi_frobenius_certificate,
    unique_maximal_ideal,
)
from finring.modules import (
    Module,
    ModuleHom,
    Presentation,
    cokernel,
    compose,
    decompose_over_product,
    direct_sum,
    free_cover,
    free_module,
    free_summand_split,
    hom_set,
    ideal_as_module,
    image,
    is_isomorphic,
    is_projective,
    iter_homs,
    _verify_decomposition,
    kernel,
    minimal_generators,
    quotient_by_ideal,
    regular_module,
    submodule,
)
from finring.parsing import parse_element, parse_presentation, parse_ring_spec
from finring.rings import Ring, Zmod, build_ring, spec_order, units_mask
from finring.verify import _sample_modules


def _ring(text):
    return build_ring(parse_ring_spec(text))


def _mod(ring, rel_text):
    return Module(parse_presentation(ring, rel_text))


def _mask(ambient, subset):
    """The boolean position mask of the elements ``subset`` of ``ambient``."""
    mask = np.zeros(ambient.cardinality, dtype=bool)
    mask[[ambient.index[el] for el in subset]] = True
    return mask


def test_presented_module_sizes():
    z4 = _ring("Z/4")
    assert _mod(z4, "2").cardinality == 2
    z8 = _ring("Z/8")
    assert _mod(z8, "2,0;0,4").cardinality == 8
    assert _mod(z8, "").cardinality == 1  # zero module


def test_cardinality_times_span_is_full_space():
    z8 = _ring("Z/8")
    for rel in ["", "2", "4", "2,0;0,4", "0;0"]:
        m = _mod(z8, rel)
        assert m.cardinality * len(m.span) == z8.order**m.k


def test_free_modules():
    z4 = _ring("Z/4")
    assert free_module(z4, 1).cardinality == 4
    assert free_module(_ring("Z/8"), 2).cardinality == 64
    assert free_module(z4, 0).cardinality == 1


def test_zero_span_labels_no_cosets(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a zero span was labelled")

    monkeypatch.setattr(modules, "_label_cosets", refuse)
    z8 = _ring("Z/8")
    factor = idempotent_decomposition(_ring("Z/12")).factor_rings[1]
    for m in (
        free_module(z8, 2),
        Module(Presentation(z8, 2, ((0, 0),))),
        regular_module(factor),
    ):
        n, k = m.ring.order, m.k
        assert m.elements == list(itertools.product(range(n), repeat=k))
        assert np.array_equal(m.rep, np.arange(n**k))


def test_direct_sum():
    z8 = _ring("Z/8")
    two = _mod(z8, "4")  # R/(4), 4 elements
    four = _mod(z8, "2")  # R/(2), 2 elements
    assert direct_sum(two, four).cardinality == 8
    m = _mod(z8, "2")
    padded = direct_sum(m, _mod(z8, ""))
    assert is_isomorphic(padded, m)[0]
    # distinct ring objects must be rejected
    with pytest.raises(RingMismatchError):
        direct_sum(two, _mod(_ring("Z/8"), "2"))
    z4 = _ring("Z/4")
    assert direct_sum(free_module(z4, 1), free_module(z4, 1)).cardinality == 16


def test_hom_set_counts():
    z4 = _ring("Z/4")
    small = _mod(z4, "2")
    homs = hom_set(small, regular_module(z4))
    assert [h.images for h in homs] == [((0,),), ((2,),)]
    # Hom(R, M) always has |M| elements
    z8 = _ring("Z/8")
    for rel in ["2", "4", "2,0;0,4"]:
        m = _mod(z8, rel)
        assert len(hom_set(regular_module(z8), m)) == m.cardinality
    # maps from R/(2) into the submodule 2R of R over Z/8
    two_r, _ = ideal_as_module(ideal_generated(z8, [2]))
    assert len(hom_set(_mod(z8, "2"), two_r)) == 2


def test_homs_are_linear_exhaustively():
    z9 = _ring("Z/9")
    m1 = _mod(z9, "3")
    m2 = regular_module(z9)
    ref1, ref2 = BruteModule.of(m1), BruteModule.of(m2)
    for h in hom_set(m1, m2):
        for a in m1.elements:
            for b in m1.elements:
                assert h.apply(ref1.add(a, b)) == ref2.add(h.apply(a), h.apply(b))
            for r in range(z9.order):
                assert h.apply(ref1.scal(r, a)) == ref2.scal(r, h.apply(a))


def test_kernel_image_cokernel():
    z4 = _ring("Z/4")
    reduction = ModuleHom(regular_module(z4), _mod(z4, "2"), ((1,),))
    ker, emb = kernel(reduction)
    assert ker.cardinality == 2
    assert {emb.apply(el) for el in ker.elements} == {(0,), (2,)}
    m = _mod(z4, "2")
    ident = ModuleHom(m, m, m._rows(m._unit_positions()).tolist())
    assert kernel(ident)[0].cardinality == 1
    assert cokernel(ident)[0].cardinality == 1
    r = regular_module(z4)
    zero = ModuleHom(m, r, (r.zero,) * m.k)
    assert kernel(zero)[0].cardinality == 2
    assert image(zero)[0].cardinality == 1


def test_counting_laws_over_all_homs():
    z8 = _ring("Z/8")
    m1 = _mod(z8, "4")
    m2 = _mod(z8, "2,0;0,4")
    for h in hom_set(m1, m2):
        ker, _ = kernel(h)
        img, _ = image(h)
        cok, _ = cokernel(h)
        assert ker.cardinality * img.cardinality == m1.cardinality
        assert cok.cardinality * img.cardinality == m2.cardinality


def test_isomorphism_examples():
    z4 = _ring("Z/4")
    two_ideal, _ = ideal_as_module(ideal_generated(z4, [2]))
    ok, witness = is_isomorphic(two_ideal, _mod(z4, "2"))
    assert ok and witness.source.cardinality == witness.target.cardinality
    assert witness.is_injective()
    z8 = _ring("Z/8")
    assert not is_isomorphic(_mod(z8, "2"), _mod(z8, "4"))[0]
    two_r, _ = ideal_as_module(ideal_generated(z8, [2]))
    assert is_isomorphic(two_r, _mod(z8, "4"))[0]


def test_isomorphism_is_equivalence_on_a_catalog():
    z8 = _ring("Z/8")
    mods = [
        _mod(z8, "2"),
        _mod(z8, "4"),
        regular_module(z8),
        _mod(z8, "2,0;0,4"),
        ideal_as_module(ideal_generated(z8, [4]))[0],
    ]
    n = len(mods)
    rel = [[is_isomorphic(a, b)[0] for b in mods] for a in mods]
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_kill_counts_reject_a_pair_that_the_old_filters_passed(monkeypatch):
    # R/(2x) + R/(x) and R/(2x) + R/(2, 2x) over Z/4[x]/(x^2): both have 32
    # elements, annihilator {0, 2x} and two minimal generators, but 2 kills 8
    # elements of the first and 16 of the second, so no hom is scanned
    ring = _ring("Z/4[x]/(x^2)")
    m1, m2 = _mod(ring, "2*x,0;0,x"), _mod(ring, "2*x,0,0;0,2,2*x")
    a1, a2 = m1.kill_counts(), m2.kill_counts()
    assert m1.cardinality == m2.cardinality == a1[0] == a2[0] == 32
    assert [r for r, a in enumerate(a1) if a == 32] == [r for r, a in enumerate(a2) if a == 32]
    assert minimal_generators(m1)[0] == minimal_generators(m2)[0] == 2
    two = ring.index[parse_element(ring, "2")]
    assert (a1[two], a2[two]) == (8, 16)

    def refuse(*_args):
        raise AssertionError("the hom scan ran")

    monkeypatch.setattr(modules, "iter_homs", refuse)
    assert is_isomorphic(m1, m2) == (False, None)


def test_minimal_generators():
    z8 = _ring("Z/8")
    m = _mod(z8, "2,0;0,4")
    ref = BruteModule.of(m)
    # oracle: |M/mM| = 4 = 2^2 over the residue field GF(2)
    mm = set()
    for r in [0, 2, 4, 6]:
        for x in m.elements:
            mm.add(ref.scal(z8.index[r], x))
    closure = {m.zero}
    for p in mm:
        closure |= {ref.add(a, p) for a in closure}
    while True:
        bigger = {ref.add(a, b) for a in closure for b in closure}
        if bigger == closure:
            break
        closure = bigger
    assert m.cardinality // len(closure) == 4
    count, gens = minimal_generators(m)
    assert count == 2
    assert len(gens) == 2
    assert minimal_generators(free_module(z8, 3))[0] == 3
    assert minimal_generators(_mod(z8, ""))[0] == 0
    with pytest.raises(NonLocalRingError):
        minimal_generators(regular_module(_ring("Z/12")))


def test_is_projective():
    z4 = _ring("Z/4")
    assert is_projective(regular_module(z4))
    assert not is_projective(_mod(z4, "2"))
    prod = _ring("Z/4 x Z/3")
    assert is_projective(regular_module(prod))
    assert not is_projective(_mod(prod, "(2,1)"))


def _catalog_rings_up_to(order):
    for label, text in catalog_specs("default"):
        spec = parse_ring_spec(text)
        if spec_order(spec) <= order:
            yield label, build_ring(spec)


def test_is_projective_matches_the_free_cover_route(monkeypatch):
    # the deleted route, kept as the reference: the minimal cover is bijective
    def by_cover(m):
        cover = free_cover(m)
        return cover.source.cardinality == cover.target.cardinality and cover.is_injective()

    def refuse(m):
        raise AssertionError("is_projective built a free cover")

    cases = []
    for label, ring in _catalog_rings_up_to(27):
        if not idempotent_decomposition(ring).is_trivial:
            continue
        mods = [m for _, m in _sample_modules(ring, include_sums=True)]
        mods += [free_module(ring, 2), free_module(ring, 0)]
        cases += [(label, m, by_cover(m)) for m in mods]
    with monkeypatch.context() as patch:
        patch.setattr(modules, "free_cover", refuse)
        for label, m, expected in cases:
            assert is_projective(m) == expected, (label, m)
    assert {expected for _, _, expected in cases} == {True, False}
    # over a product, the answer is the AND of the component answers
    prod_ring = _ring("Z/4 x Z/3")
    answers = set()
    for name, m in _sample_modules(prod_ring, include_sums=True):
        parts = [by_cover(c) for c in decompose_over_product(m)]
        assert is_projective(m) == all(parts), name
        answers.add(all(parts))
    assert answers == {True, False}


def test_submodules_are_presented_on_their_unit_vectors():
    # kernel, image and submodule present a module on minimal generators
    # (Nakayama), and in canonical code order the unit vectors u*e_{k-1} <
    # ... < u*e_0 come first, for u the ring's least unit (one, unless a
    # field's order puts another unit first), so its own minimal generators
    # are those unit vectors, last first
    def units_last_first(m):
        u = int(units_mask(m.ring).argmax())
        units = [tuple(u if i == j else 0 for i in range(m.k)) for j in reversed(range(m.k))]
        return minimal_generators(m) == (m.k, units)

    checked = collections.Counter()
    for label, ring in _catalog_rings_up_to(16):
        if not is_local(ring):
            continue
        mods = [m for _, m in _sample_modules(ring, include_sums=True)]
        for ideal in enumerate_ideals(ring):
            sub, _ = ideal_as_module(ideal)
            assert units_last_first(sub), (label, ideal)
            checked["submodule"] += 1
        for source, target in itertools.product(mods[:4], mods):
            for h in hom_set(source, target):
                for kind, (sub, _) in (("kernel", kernel(h)), ("image", image(h))):
                    assert units_last_first(sub), (label, kind, h.images)
                    checked[kind] += 1
    assert set(checked) == {"submodule", "kernel", "image"}, checked


def test_decomposition_projections_are_the_value_level_projections():
    kinds = set()
    for label, ring in _catalog_rings_up_to(64):
        dec = idempotent_decomposition(ring)
        if dec.is_trivial:
            assert dec.projections[0].tolist() == list(range(ring.order))
            continue
        kinds.add(" x " in label)
        for e, factor, proj in zip(dec.idempotents, dec.factor_rings, dec.projections):
            assert not proj.flags.writeable
            reference = [factor.index[ring.mul(e, x)] for x in ring.elements]
            assert proj.tolist() == reference, label
    assert kinds == {True, False}  # products and Z/n alike


class _CountingIndex(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_decompose_over_product_reads_the_projections(monkeypatch):
    ring = _ring("Z/4 x Z/9")
    dec = idempotent_decomposition(ring)
    mods = [regular_module(ring), _mod(ring, "(2,3)"), free_module(ring, 2)]

    def refuse(*args):
        raise AssertionError("value-level ring arithmetic")

    monkeypatch.setattr(Ring, "mul", refuse)
    monkeypatch.setattr(ring, "index", None)  # no lookup in the parent ring
    for m in mods:
        counters = [_CountingIndex(f.index) for f in dec.factor_rings]
        for f, counter in zip(dec.factor_rings, counters):
            monkeypatch.setattr(f, "index", counter)
        comps = decompose_over_product(m)
        _verify_decomposition(m, dec, comps)
        # each component is built from the projected relation positions, so
        # no factor index is read
        assert [c.lookups for c in counters] == [0] * len(counters)


def test_decompose_over_product():
    z12 = _ring("Z/12")
    dec = idempotent_decomposition(z12)
    m = _mod(z12, "6")  # six-element cyclic module
    comps = decompose_over_product(m)
    assert [c.cardinality for c in comps] == [3, 2]
    free = regular_module(z12)
    for comp, factor in zip(decompose_over_product(free), dec.factor_rings):
        assert comp.cardinality == factor.order
    zero = _mod(z12, "")
    assert [c.cardinality for c in decompose_over_product(zero)] == [1, 1]


def test_free_summand_split():
    z4 = _ring("Z/4")
    mixed = direct_sum(free_module(z4, 1), _mod(z4, "2"))
    rank, rest = free_summand_split(mixed)
    assert rank == 1 and rest.cardinality == 2
    rank, rest = free_summand_split(_mod(z4, "2"))
    assert rank == 0 and rest.cardinality == 2
    z8 = _ring("Z/8")
    rank, rest = free_summand_split(free_module(z8, 2))
    assert rank == 2 and rest.cardinality == 1
    with pytest.raises(NonLocalRingError):
        free_summand_split(regular_module(_ring("Z/12")))
    with pytest.raises(PreconditionError):
        free_summand_split(regular_module(_ring(SQUARE_ZERO_PAIR)))


@pytest.mark.parametrize(
    "images, error",
    [
        (((3,),), "hom image is not a target element"),  # 3 = 1 + 2: not a representative
        (((4,),), "hom image is not a target element"),
        (((-1,),), "hom image is not a target element"),
        (((1, 1),), "hom image is not a target element"),
        ((("a",),), "hom image is not a target element"),
        (((1.0,),), "hom image is not a target element"),
        ((), "one image per source generator required"),
        (([1],), None),
        (((np.int64(1),),), None),
    ],
)
def test_hom_images_are_target_elements_read_back_as_int_tuples(images, error):
    z4 = _ring("Z/4")
    source, q = regular_module(z4), _mod(z4, "2")
    if error is not None:
        with pytest.raises(ValidationError, match=f"^{error}$"):
            ModuleHom(source, q, images)
        return
    h = ModuleHom(source, q, images)
    assert h.images == ((1,),) and type(h.images[0][0]) is int
    with pytest.raises(ValidationError, match=r"^\(5,\) is not an element of a module over Z/4$"):
        h.apply((5,))


@pytest.mark.parametrize("value, shown", [([1], r"\[1\]"), (9, "9")], ids=["unhashable", "nine"])
def test_a_relation_entry_that_is_not_an_element_names_the_ring(value, shown):
    # an unhashable entry is a ValidationError too, not a bare TypeError
    with pytest.raises(ValidationError, match=f"^{shown} is not an element of Z/8$"):
        Presentation(build_ring(Zmod(8)), 1, ((value,),))


def test_a_negative_generator_count_is_refused():
    with pytest.raises(ValidationError, match="^generator count must be >= 0$"):
        Presentation(build_ring(Zmod(8)), -1, ())


def test_a_relation_column_of_the_wrong_length_is_refused():
    with pytest.raises(ValidationError, match="^relation column length must equal generator count$"):
        Presentation(build_ring(Zmod(8)), 2, ((2, 0), (4,)))


def test_split_complement_has_torsion_only():
    z4 = _ring("Z/4")
    mixed = direct_sum(direct_sum(free_module(z4, 1), _mod(z4, "2")), _mod(z4, "2"))
    rank, rest = free_summand_split(mixed)
    assert rank == 1
    assert not rest.free_element_mask().any()
    resum = direct_sum(free_module(z4, rank), rest)
    assert is_isomorphic(resum, mixed)[0]


# the local quasi-Frobenius catalog rings of order <= 27, with their ideals
_QF_LOCALS = {
    label: (ring, enumerate_ideals(ring))
    for label, ring in _catalog_rings_up_to(27)
    if is_local(ring) and quasi_frobenius_certificate(ring) is None
}


@st.composite
def _qf_quotient_sums(draw):
    """R/I_1 + ... + R/I_k over a local QF ring: I = 0 gives a free summand."""
    ring, ideals = _QF_LOCALS[draw(st.sampled_from(sorted(_QF_LOCALS)))]
    k = draw(st.integers(1, 3 if ring.order <= 9 else 2))
    picks = draw(st.lists(st.sampled_from(ideals), min_size=k, max_size=k))
    return functools.reduce(direct_sum, [quotient_by_ideal(i) for i in picks])


@settings(max_examples=60, deadline=None)
@given(_qf_quotient_sums())
def test_free_rank_is_the_socle_multiple_dimension(m):
    # soc R is simple over a local QF ring and lies in every nonzero ideal,
    # so s * x != 0 for s in soc R exactly when x is free: s * M = soc(R)^f
    # for M = R^f + N, and f = log_q |s * M| with q = |R/m|
    ring = m.ring
    _, mul, _ = ring.tables()
    maximal = list(unique_maximal_ideal(ring).indices)
    s = next(s for s in range(1, ring.order) if not mul[s, maximal].any())
    ref = BruteModule.of(m)
    size = len({ref.scal(s, x) for x in m.elements})
    rank, rest = free_summand_split(m)
    assert (ring.order // len(maximal)) ** rank == size
    assert rest.cardinality * ring.order**rank == m.cardinality


def test_free_summand_split_takes_cokernels_not_hom_searches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("free summand found by a hom search")

    monkeypatch.setattr(modules, "iter_homs", refuse)
    z4 = _ring("Z/4")
    rank, rest = free_summand_split(direct_sum(free_module(z4, 2), _mod(z4, "2")))
    assert rank == 2 and rest.cardinality == 2


def test_submodule_round_trip():
    z8 = _ring("Z/8")
    free = regular_module(z8)
    subset = [(0,), (2,), (4,), (6,)]
    mod, emb = submodule(free, _mask(free, subset))
    assert mod.cardinality == 4
    assert {emb.apply(el) for el in mod.elements} == set(subset)


def test_local_submodules_are_presented_on_minimal_generators():
    # R as the kernel of R -> 0: the least-first picks x and 1 are not minimal
    r = _ring("GF(2)[x]/(x^2)")
    ker, _ = kernel(ModuleHom(regular_module(r), _mod(r, "1"), [(0,)]))
    assert ker.k == 1
    r2 = _ring("GF(2)[x]/(x^2)[x]/(x^2)")
    ideal, _ = ideal_as_module(unique_maximal_ideal(r2))
    assert ideal.k == 2


def test_submodule_rejects_a_mask_that_is_not_a_submodule():
    z8 = _ring("Z/8")
    free = regular_module(z8)
    # {0, 2} is not closed under addition: 2 + 2 = 4 is missing
    with pytest.raises(ConsistencyError, match="^subset is not a submodule$"):
        submodule(free, _mask(free, [(0,), (2,)]))


def test_module_guard():
    guards = Guards(max_module_raw=10)
    ring = build_ring(Zmod(8), guards)
    with pytest.raises(GuardExceeded):
        free_module(ring, 2)


def test_hom_rejects_images_that_break_a_relation():
    z4 = _ring("Z/4")
    # g0 -> 1 in Z/4 would need 2 * 1 = 0
    with pytest.raises(ValidationError, match="do not satisfy the source relations"):
        ModuleHom(_mod(z4, "2"), regular_module(z4), ((1,),))
    assert ModuleHom(_mod(z4, "2"), regular_module(z4), ((2,),)).images == ((2,),)


def test_compose_and_identity():
    z4 = _ring("Z/4")
    m = _mod(z4, "2")
    ident = ModuleHom(m, m, m._rows(m._unit_positions()).tolist())
    assert compose(ident, ident).images == ident.images


@pytest.mark.parametrize(
    "m",
    [
        pytest.param(regular_module(_ring("Z/12")), id="exhaustive-12"),
        pytest.param(free_module(_ring("Z/12"), 2), id="sampled-144"),
    ],
)
def test_decomposition_check_rejects_a_wrong_component(m):
    dec = idempotent_decomposition(m.ring)
    comps = decompose_over_product(m)
    _verify_decomposition(m, dec, comps)
    # a component too small to re-sum: the Z/4 part with its first coordinate killed
    four = next(i for i, f in enumerate(dec.factor_rings) if f.order == 4)
    f = dec.factor_rings[four]
    killed = Module(Presentation(f, m.k, ((f.one,) + (f.zero,) * (m.k - 1),)))
    small = list(comps)
    small[four] = killed
    with pytest.raises(ConsistencyError):
        _verify_decomposition(m, dec, small)


def test_decomposition_check_reads_no_ring_table(monkeypatch):
    ring = _ring(f"Z/8 x {SQUARE_ZERO_PAIR}")
    dec = idempotent_decomposition(ring)
    mods = [m for _, m in _sample_modules(ring, include_sums=True)] + [free_module(ring, 2)]
    pairs = [(m, decompose_over_product(m)) for m in mods]

    def refuse(self):
        raise AssertionError("a ring table was read")

    monkeypatch.setattr(Ring, "tables", refuse)
    for m, comps in pairs:
        _verify_decomposition(m, dec, comps)


def _additive_generators(ring):
    """Least-first element values whose sums reach every element of ``ring``."""
    gens, reached = [], {ring.zero}
    for x in ring.elements:
        if x not in reached:
            gens.append(x)
            while new := {ring.add(y, g) for y in reached for g in gens} - reached:
                reached |= new
    return gens


def _on_indices(ring, op):
    """The value-level ``op`` of ``ring`` on element indices, each pair evaluated once."""
    els, index = ring.elements, ring.index

    @functools.cache
    def apply(i, j):
        return index[op(els[i], els[j])]

    return apply


_SMALL_PRODUCTS = [
    text for _, text in catalog_specs("default")
    if " x " in text and spec_order(parse_ring_spec(text)) <= 64
]


@pytest.mark.parametrize("text", _SMALL_PRODUCTS)
def test_decomposition_map_is_additive_and_linear(text):
    # the reference for what _verify_decomposition leaves to the construction:
    # phi_i(x) = e_i x, reduced in the i-th component, is additive and
    # R-linear.  A = {b * g_j}, b running over additive generators of R and
    # g_j over M's generators, spans (M, +); so phi(x + a) = phi(x) + phi(a)
    # on M x A gives additivity, and then phi(r a) = (e_i r) phi(a) on R x A
    # gives linearity
    ring = _ring(text)
    dec = idempotent_decomposition(ring)
    add, mul = _on_indices(ring, ring.add), _on_indices(ring, ring.mul)
    mods = [m for _, m in _sample_modules(ring, include_sums=True)] + [free_module(ring, 2)]
    scalars = [ring.index[b] for b in _additive_generators(ring)]
    for m in mods:
        least, pos = BruteModule.of(m).least, m.index
        units = m._rows(m._unit_positions()).tolist()  # the classes of the basis vectors
        span = {least(tuple(mul(b, t) for t in g)) for b in scalars for g in units}
        span = sorted(span)
        # positions in M of x + a, [a, x], and of r * a, [a, r]
        sums = np.array([[pos[least(tuple(map(add, x, a)))] for x in m.elements] for a in span])
        scaled = np.array(
            [[pos[least(tuple(mul(r, t) for t in a))] for r in range(ring.order)] for a in span]
        )
        for e, f, comp in zip(dec.idempotents, dec.factor_rings, decompose_over_product(m)):
            fleast, fpos, fels = BruteModule.of(comp).least, comp.index, comp.elements
            fadd, fmul = _on_indices(f, f.add), _on_indices(f, f.mul)
            proj = [f.index[ring.mul(e, r)] for r in ring.elements]
            phi = np.array([fpos[fleast(tuple(proj[t] for t in x))] for x in m.elements])
            phi_span = [fels[phi[pos[a]]] for a in span]
            # phi(x) + phi(a) over the positions u = phi(x) of comp, [a, u]
            add_phi = np.array(
                [[fpos[fleast(tuple(map(fadd, u, pa)))] for u in fels] for pa in phi_span]
            )
            assert np.array_equal(phi[sums], add_phi[:, phi]), (text, m)
            scale_phi = np.array(
                [[fpos[fleast(tuple(fmul(p, t) for t in pa))] for p in proj] for pa in phi_span]
            )
            assert np.array_equal(phi[scaled], scale_phi), (text, m)


_PROPERTY_RINGS = {
    text: _ring(text) for text in ("Z/4", "Z/8", "Z/9", "GF(2)[x]/(x^2)", "Z/2 x Z/3")
}
# an IdempotentFactorRing: the order-4 factor of Z/12
_PROPERTY_RINGS["e Z/12"] = idempotent_decomposition(_ring("Z/12")).factor_rings[1]


@st.composite
def _presentations(draw):
    ring = _PROPERTY_RINGS[draw(st.sampled_from(sorted(_PROPERTY_RINGS)))]
    k = draw(st.integers(0, 3 if ring.order < 9 else 2))
    entry = st.integers(0, ring.order - 1)
    cols = draw(st.lists(st.tuples(*[entry] * k), max_size=3))
    return ring, k, cols


@settings(max_examples=60, deadline=None)
@given(_presentations(), st.data())
def test_module_arithmetic_matches_brute_force(pres, data):
    ring, k, cols = pres
    ref = BruteModule(ring, k, cols)
    least, addl, mull = ref.least, ref.addl, ref.mull
    m = Module(Presentation(ring, k, tuple(tuple(ring.elements[i] for i in c) for c in cols)))
    assert m.cardinality * len(ref.span) == ring.order**k
    pick = st.sampled_from(m.elements)
    a, b = data.draw(pick), data.draw(pick)
    r = data.draw(st.integers(0, ring.order - 1))
    assert least(a) == a
    # a + b and r * a on positions: digitwise table lookups, then the coset
    add, mul, _ = ring.tables()
    da, db = m._digits[m.index[a]], m._digits[m.index[b]]
    assert m._locate(add[da, db]) == m.index[least(tuple(addl[x][y] for x, y in zip(a, b)))]
    assert m._locate(mul[r, da]) == m.index[least(tuple(mull[r][x] for x in a))]
    if ring.order**k <= 64:
        reps = {least(raw) for raw in np.ndindex(*(ring.order,) * k)}
        assert m.elements == sorted(reps)


@settings(max_examples=60, deadline=None)
@given(_presentations())
def test_free_element_mask_matches_brute_force(pres):
    ring, k, cols = pres
    m = Module(Presentation(ring, k, tuple(tuple(ring.elements[i] for i in c) for c in cols)))
    ref = BruteModule(ring, k, cols)
    # x is free when r * x = 0 only for r = 0
    free = [
        [r for r in range(ring.order) if ref.scal(r, x) == ref.zero] == [0]
        for x in m.elements
    ]
    assert m.free_element_mask().tolist() == free


@settings(max_examples=60, deadline=None)
@given(_presentations())
def test_kill_counts_match_brute_force(pres):
    ring, k, cols = pres
    m = Module._on(ring, k, np.array(cols, dtype=np.intp).reshape(len(cols), k))
    ref = BruteModule(ring, k, cols)
    counts = [sum(ref.scal(r, x) == ref.zero for x in m.elements) for r in range(ring.order)]
    assert list(m.kill_counts()) == counts


@settings(max_examples=60, deadline=None)
@given(_presentations(), st.data())
def test_kill_counts_do_not_depend_on_the_presentation(pres, data):
    # a unit multiple of a column, a redundant sum of columns and a
    # permutation of the generators present the same module
    ring, k, cols = pres
    add, mul, _ = ring.tables()
    cols = np.array(cols, dtype=np.intp).reshape(len(cols), k)
    changed = cols.copy()
    if len(cols):
        i = data.draw(st.integers(0, len(cols) - 1))
        unit = data.draw(st.sampled_from(units_mask(ring).nonzero()[0].tolist()))
        changed[i] = mul[unit, cols[i]]
        a, b = data.draw(st.integers(0, len(cols) - 1)), data.draw(st.integers(0, len(cols) - 1))
        r = data.draw(st.integers(0, ring.order - 1))
        changed = np.concatenate([changed, add[mul[r, cols[a]], cols[b]][None, :]])
    changed = changed[:, data.draw(st.permutations(range(k)))]
    changed = changed[data.draw(st.permutations(range(len(changed))))]
    m1, m2 = Module._on(ring, k, cols), Module._on(ring, k, changed)
    assert m1.kill_counts() == m2.kill_counts()
    try:
        found, witness = is_isomorphic(m1, m2)
    except GuardExceeded:  # R^3 over Z/8 offers 511^3 injective candidates
        return
    assert found and witness.is_injective() and witness.is_surjective()


@settings(max_examples=60, deadline=None)
@given(_presentations())
def test_modules_built_from_positions_equal_the_public_build(pres):
    # the private constructor the library uses and the public one meet in
    # the same build: same cosets, same span, same positional relations, and
    # the derived presentation is the one the public build was given
    ring, k, cols = pres
    given_pres = Presentation(ring, k, tuple(tuple(ring.elements[i] for i in c) for c in cols))
    public = Module(given_pres)
    built = Module._on(ring, k, np.array(cols, dtype=np.intp).reshape(len(cols), k))
    assert public.presentation is given_pres
    for m in (public, built):
        assert m.relation_columns.dtype == np.intp and not m.relation_columns.flags.writeable
        assert m.relation_columns.tolist() == [list(c) for c in cols]
    assert np.array_equal(built._digits, public._digits)
    assert np.array_equal(built.rep, public.rep)
    assert np.array_equal(built.span, public.span)
    assert built.presentation == given_pres


# -- brute-force references for submodules, kernels, images and hom sets -----
#
# These are the scalar loops the array code replaced: the generator rule over
# Python sets, the relation search over every coefficient tuple, and the hom
# filter over every tuple of images.


def _ref_greedy(add, scal, order, zero, subset, span=None):
    """Least-first generators of a submodule given as an ascending element
    list, outside the submodule ``span`` (default: zero alone)."""
    target = set(subset)
    span = span or {zero}
    gens = []
    for el in subset:
        if len(span) == len(target):
            break
        if el in span:
            continue
        gens.append(el)
        multiples = {scal(r, el) for r in range(order)}
        span = {add(a, b) for a in span for b in multiples}
    assert span == target
    return gens


def _ref_maximal(ring):
    """The non-units of ``ring`` when they form its maximal ideal (a local
    ring), else None."""
    addl, mull = ring_lists(ring)
    nonunits = [r for r in range(ring.order) if ring.index[ring.one] not in mull[r]]
    if any(addl[a][b] not in nonunits for a in nonunits for b in nonunits):
        return None
    return nonunits


def _ref_generators(ring, add, scal, zero, subset):
    """The documented generator rule: least-first picks and, over a local
    ring, least-first picks again starting from mS, the span of the maximal
    ideal times the first picks."""
    gens = _ref_greedy(add, scal, ring.order, zero, subset)
    maximal = _ref_maximal(ring)
    if maximal is None:
        return gens
    ms = {zero}
    for p in {scal(a, g) for a in maximal for g in gens}:
        ms = {add(s, scal(r, p)) for s in ms for r in range(ring.order)}
    return _ref_greedy(add, scal, ring.order, zero, subset, ms)


def _ref_submodule(ambient, subset):
    """(generators, relation columns, cardinality) of the presented submodule."""
    ring = ambient.ring
    subset = sorted(set(subset), key=ambient.index.__getitem__)
    ref = BruteModule.of(ambient)
    gens = _ref_generators(ring, ref.add, ref.scal, ambient.zero, subset)
    relations = [
        a
        for a in itertools.product(range(ring.order), repeat=len(gens))
        if ref.combination(a, gens) == ambient.zero
    ]
    free = BruteModule(ring, len(gens))
    rel_gens = _ref_generators(ring, free.add, free.scal, free.zero, sorted(relations))
    cols = tuple(tuple(ring.elements[i] for i in col) for col in rel_gens)
    return gens, cols, len(subset)


def _ref_homs(m1, m2):
    ref = BruteModule.of(m2)
    return [
        images
        for images in itertools.product(m2.elements, repeat=m1.k)
        if all(ref.combination(col, images) == m2.zero for col in m1.relation_columns)
    ]


@st.composite
def _hom_pairs(draw):
    ring = _PROPERTY_RINGS[draw(st.sampled_from(sorted(_PROPERTY_RINGS)))]
    entry = st.integers(0, ring.order - 1)

    def module():
        k = draw(st.integers(0, 2))
        cols = draw(st.lists(st.tuples(*[entry] * k), max_size=3))
        values = tuple(tuple(ring.elements[i] for i in c) for c in cols)
        return Module(Presentation(ring, k, values))

    return module(), module()


@functools.cache
def _two_generator_modules(text):
    """Every R^2 / (c) and R/(a) + R/(b) over ``_PROPERTY_RINGS[text]`` with at
    most 27 elements: pairs of equal order, isomorphic or not, are common
    among them, where two independent ``_hom_pairs`` draws rarely have
    equal order unless both are zero."""
    ring = _PROPERTY_RINGS[text]
    cols = [[c] for c in itertools.product(range(ring.order), repeat=2)]
    cols += [[(a, 0), (0, b)] for a, b in itertools.product(range(ring.order), repeat=2)]
    mods = [Module._on(ring, 2, np.array(c, dtype=np.intp)) for c in cols]
    return [m for m in mods if m.cardinality <= 27]


@st.composite
def _equal_order_pairs(draw):
    mods = _two_generator_modules(draw(st.sampled_from(sorted(_PROPERTY_RINGS))))
    m1 = draw(st.sampled_from(mods))
    return m1, draw(st.sampled_from([m for m in mods if m.cardinality == m1.cardinality]))


@settings(max_examples=80, deadline=None)
@given(_equal_order_pairs())
def test_isomorphic_exactly_when_a_brute_force_hom_is_bijective(pair):
    # the reference has no filter: every hom, each checked on every coset
    m1, m2 = pair
    ref1, ref2 = BruteModule.of(m1), BruteModule.of(m2)
    cosets = {ref1.least(raw) for raw in itertools.product(range(m1.ring.order), repeat=m1.k)}
    bijective = [
        images
        for images in _ref_homs(m1, m2)
        if len({ref2.combination(x, images) for x in cosets}) == m2.cardinality
    ]
    found, witness = is_isomorphic(m1, m2)
    assert found == bool(bijective)
    assert witness is None if not found else witness.images == bijective[0]


@settings(max_examples=40, deadline=None)
@given(_hom_pairs())
def test_building_a_hom_accepts_exactly_the_enumerated_homs(pair):
    # the two relation paths: iter_homs' test of a run of candidates, and
    # the check on building a hom from given images
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 729)
    homs = {h.images: h for h in hom_set(m1, m2)}
    for images in itertools.product(m2.elements, repeat=m1.k):
        if images in homs:
            built = ModuleHom(m1, m2, images)
            assert built == homs[images]
            assert np.array_equal(built.table, homs[images].table)
        else:
            with pytest.raises(ValidationError, match="source relations"):
                ModuleHom(m1, m2, images)


@contextlib.contextmanager
def _chunked(chunk, ring):
    """Run the body with ``modules._CHUNK`` set to ``chunk`` (None keeps it).

    A tiny chunk runs every chunked loop over many small pieces.  The ring
    keeps every module it derives, and a module read back from there runs
    no loop at all, so they are forgotten first.  Yields a record: the
    modules built in the body (``built``) and, for each of the chunked loops
    ``_grow``, ``_label_cosets`` and ``_accepted`` that ran, the values of
    ``_CHUNK`` its calls saw (``chunks``).
    """
    saved, build = modules._CHUNK, Module._build
    loops = {name: getattr(modules, name) for name in ("_grow", "_label_cosets", "_accepted")}
    record = types.SimpleNamespace(built=[], chunks=collections.defaultdict(set))

    def spy(loop):
        def call(*args):
            record.chunks[loop.__name__].add(modules._CHUNK)
            return loop(*args)

        return call

    def spy_build(self, *args):
        record.built.append(self)
        return build(self, *args)

    forget_memos(ring)
    modules._CHUNK, Module._build = chunk or saved, spy_build
    for name, loop in loops.items():
        setattr(modules, name, spy(loop))
    try:
        yield record
    finally:
        modules._CHUNK, Module._build = saved, build
        for name, loop in loops.items():
            setattr(modules, name, loop)


def _built_in(record, *mods):
    """Whether every one of ``mods`` was built in the body that ``record`` spied."""
    return all(any(m is b for b in record.built) for m in mods)


@settings(max_examples=40, deadline=None)
@given(_presentations(), st.integers(0, 2), st.sampled_from([None, 7]))
def test_homs_from_a_free_module_are_all_image_tuples(pres, k, chunk):
    ring, g, cols = pres
    m = Module(Presentation(ring, g, tuple(tuple(ring.elements[i] for i in c) for c in cols)))
    assume(m.cardinality**k <= 6561)
    with _chunked(chunk, ring) as record:
        free = free_module(ring, k)
        images = [h.images for h in hom_set(free, m)]
    assert _built_in(record, free) and record.chunks == {"_accepted": {chunk or modules._CHUNK}}
    # a source without relations: every tuple of images is a hom
    assert images == list(itertools.product(m.elements, repeat=k))


@settings(max_examples=60, deadline=None)
@given(_hom_pairs(), st.sampled_from([None, 7]), st.data())
def test_submodules_and_homs_match_brute_force(pair, chunk, data):
    m1, m2 = pair
    derived = []
    with _chunked(chunk, m1.ring) as record:
        homs = list(iter_homs(m1, m2))
        assert [h.images for h in homs] == _ref_homs(m1, m2)
        h = data.draw(st.sampled_from(homs))  # never empty: the zero hom
        ref2 = BruteModule.of(m2)
        values = [ref2.combination(el, h.images) for el in m1.elements]
        assert [h.apply(el) for el in m1.elements] == values
        kernel_subset = [el for el, v in zip(m1.elements, values) if v == m2.zero]
        for (mod, emb), ambient, subset in (
            (kernel(h), m1, kernel_subset),
            (image(h), m2, values),
            (submodule(m2, _mask(m2, values)), m2, values),
        ):
            gens, cols, size = _ref_submodule(ambient, subset)
            assert list(emb.images) == gens
            assert mod.presentation.relations == cols
            assert mod.cardinality == size
            if _ref_maximal(m1.ring) is not None:
                assert mod.k == minimal_generators(mod)[0]
            derived.append(mod)
        coker, _ = cokernel(h)
        img = sorted(set(values), key=m2.index.__getitem__)
        extra = _ref_generators(m2.ring, ref2.add, ref2.scal, m2.zero, img)
        assert coker.presentation.relations == tuple(m2.presentation.relations) + tuple(
            tuple(m2.ring.elements[i] for i in g) for g in extra
        )
    # every derived module was built under the chunk, and a nonzero source
    # has a nonzero kernel or image, whose span ``_grow`` marks
    assert _built_in(record, coker, *derived)
    patched = {chunk or modules._CHUNK}
    assert all(seen == patched for seen in record.chunks.values())
    assert "_grow" in record.chunks or m1.cardinality == 1


# the rings of the Ext^1 property in test_homology, a nonzero Ext among them
_LABEL_RINGS = {
    text: _ring(text)
    for text in (
        "Z/4", "Z/8", "Z/9", "GF(2)[x]/(x^2)", SQUARE_ZERO_PAIR, f"Z/2 x {SQUARE_ZERO_PAIR}"
    )
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_LABEL_RINGS)), st.data())
def test_submodules_labelled_from_their_map_match_the_presented_build(text, data):
    # kernel and image label their cosets from the combinations that found
    # their relations; Module(presentation) grows the span and labels it
    ring = _LABEL_RINGS[text]
    entry = st.integers(0, ring.order - 1)

    def module():
        k = data.draw(st.integers(0, 2 if ring.order < 16 else 1))
        cols = data.draw(st.lists(st.tuples(*[entry] * k), max_size=2))
        values = tuple(tuple(ring.elements[i] for i in c) for c in cols)
        return Module(Presentation(ring, k, values))

    m1, m2 = module(), module()
    count = modules._hom_count(m1, m2)
    pick = data.draw(st.integers(0, min(count, 512) - 1))
    h = next(itertools.islice(iter_homs(m1, m2), pick, None))
    with _chunked(None, ring) as record:
        subs = [kernel(h)[0], image(h)[0]]
    assert "_label_cosets" not in record.chunks
    for sub in subs:
        ref = Module(sub.presentation)
        assert np.array_equal(sub.rep, ref.rep)
        assert np.array_equal(sub._digits, ref._digits)
        assert np.array_equal(sub.span, ref.span)
        assert sub.cardinality == ref.cardinality


# -- the annihilator-filtered hom search --------------------------------------


def test_image_choices_filter_by_annihilator_but_keep_the_relation_test():
    z8 = _ring("Z/8")
    # R^2 / (2, 4): Ann(e_0) = {0, 4}, so e_0 can go only to the 4 elements
    # killed by 4; e_1 is free.  Of those 4 * 8 candidates, 2 t_0 + 4 t_1 = 0
    # holds on 16.
    m = _mod(z8, "2;4")
    r = regular_module(z8)
    choices = modules._image_choices(m, r)
    assert [c.tolist() for c in choices] == [[0, 2, 4, 6], list(range(8))]
    assert prod(len(c) for c in choices) == 32
    assert len(hom_set(m, r)) == 16
    assert [h.images for h in hom_set(m, r)] == _ref_homs(m, r)


@st.composite
def _non_diagonal_pairs(draw):
    """(m1, m2): m1 on two generators with a relation column that has two
    nonzero entries, so an annihilator filter alone does not decide homs."""
    ring = _PROPERTY_RINGS[draw(st.sampled_from(sorted(_PROPERTY_RINGS)))]
    entry = st.integers(0, ring.order - 1)
    nonzero = st.integers(1, ring.order - 1)
    cols = [draw(st.tuples(nonzero, nonzero))]
    cols += draw(st.lists(st.tuples(entry, entry), max_size=2))
    values = tuple(tuple(ring.elements[i] for i in c) for c in draw(st.permutations(cols)))
    m1 = Module(Presentation(ring, 2, values))
    k = draw(st.integers(1, 2))
    cols2 = draw(st.lists(st.tuples(*[entry] * k), max_size=2))
    m2 = Module(Presentation(ring, k, tuple(tuple(ring.elements[i] for i in c) for c in cols2)))
    return m1, m2


@settings(max_examples=60, deadline=None)
@given(_non_diagonal_pairs(), st.sampled_from([None, 7]))
def test_filtered_hom_search_matches_brute_force_on_non_diagonal_presentations(pair, chunk):
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 6561)
    saved = modules._CHUNK
    modules._CHUNK = chunk or saved
    try:
        homs = [h.images for h in iter_homs(m1, m2)]
        choices = modules._image_choices(m1, m2)
    finally:
        modules._CHUNK = saved
    assert homs == _ref_homs(m1, m2)
    # every hom image lies in its generator's choices
    for images in homs:
        for j, im in enumerate(images):
            assert m2.index[im] in choices[j]


@settings(max_examples=60, deadline=None)
@given(_hom_pairs(), st.sampled_from([None, 7]))
def test_batched_injectivity_matches_per_hom_test(pair, chunk):
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 6561)
    saved = modules._CHUNK
    modules._CHUNK = chunk or saved
    try:
        batched = list(iter_homs(m1, m2, injective=True))
    finally:
        modules._CHUNK = saved
    # the reference side is brute force: iter_homs shares the batched scan
    single = [ModuleHom(m1, m2, images) for images in _ref_homs(m1, m2)]
    single = [h for h in single if h.is_injective()]
    assert [h.images for h in batched] == [h.images for h in single]
    for b, h in zip(batched, single):
        assert np.array_equal(b.positions, h.positions)
        assert np.array_equal(b.table, h.table)


@settings(max_examples=60, deadline=None)
@given(_hom_pairs(), st.data())
def test_the_public_constructor_rebuilds_every_internal_hom(pair, data):
    # homs built from positions read back the images the public constructor
    # parses into the same positions and table; bad positions are refused
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 729)
    homs = hom_set(m1, m2)
    h = data.draw(st.sampled_from(homs))
    built = [h, kernel(h)[1], image(h)[1], cokernel(h)[1]]
    built += [compose(cokernel(h)[1], h), compose(h, kernel(h)[1])]
    if is_local(m1.ring):
        built += [free_cover(m1), free_cover(m2), compose(h, free_cover(m1))]
    free = free_module(m1.ring, data.draw(st.integers(0, 2)))
    entry = st.integers(0, free.cardinality - 1)
    endo = data.draw(st.lists(entry, min_size=free.k, max_size=free.k))
    endo = ModuleHom._at(free, free, np.array(endo, dtype=np.intp))
    built += [endo, dual_hom(endo)]
    for hom in built:
        ref = ModuleHom(hom.source, hom.target, hom.images)
        assert ref == hom
        assert np.array_equal(ref.positions, hom.positions)
        assert np.array_equal(ref.table, hom.table)
    entry = st.integers(0, m2.cardinality - 1)
    positions = np.array(data.draw(st.lists(entry, min_size=m1.k, max_size=m1.k)), dtype=np.intp)
    if tuple(map(tuple, m2._rows(positions).tolist())) in {g.images for g in homs}:
        assert np.array_equal(ModuleHom._at(m1, m2, positions).positions, positions)
    else:
        with pytest.raises(ValidationError, match="images do not satisfy the source relations"):
            ModuleHom._at(m1, m2, positions)


# -- one hom scan, one hom count ------------------------------------------------


def _ref_image_choices(m1, m2, injective):
    """The generator filter read off the multiplication table, as the scan
    computed it before reading annihilators off ``rep``: the reference."""
    _, mul, _ = m1._tables
    units = np.zeros((m1.k, m1.k), dtype=np.intp)
    np.fill_diagonal(units, m1.ring._one_pos)
    positions = m1._locate(units)
    ann = m1._locate(mul[:, m1._rows(positions)]) == 0
    ann[0] = False
    choices = []
    for rest, x in zip(ann.T, positions):
        keep = np.ones(m2.cardinality, dtype=bool)
        while rest.any():
            a = int(rest.argmax())
            rest[mul[a]] = False
            keep &= m2._locate(mul[a, m2._digits]) == 0
        if injective and x:
            keep[0] = False
        choices.append(keep.nonzero()[0].tolist())
    return positions.tolist(), choices


@settings(max_examples=80, deadline=None)
@given(_hom_pairs(), st.booleans())
def test_generator_filter_reads_annihilators_off_rep(pair, injective):
    # r * x_j is the class of the raw row with r in coordinate j, so the
    # annihilators need no table gather
    m1, m2 = pair
    positions, choices = _ref_image_choices(m1, m2, injective)
    assert m1._unit_positions().tolist() == positions
    got = modules._image_choices(m1, m2, injective=injective)
    assert [c.tolist() for c in got] == choices


@settings(max_examples=80, deadline=None)
@given(_hom_pairs(), st.integers(0, 2), st.booleans())
def test_generator_filter_matches_a_brute_force_annihilator_filter(pair, zero_columns, injective):
    # zero_columns > 0 makes the source free: R^k, with no relation columns
    # or with columns that span zero alone
    m1, m2 = pair
    if zero_columns:
        zero = (m1.ring.zero,) * m1.k
        m1 = Module(Presentation(m1.ring, m1.k, (zero,) * (zero_columns - 1)))
    ref1, ref2 = BruteModule.of(m1), BruteModule.of(m2)
    expected = []
    for j in range(m1.k):
        x = ref1.least(tuple(m1.ring._one_pos if i == j else 0 for i in range(m1.k)))
        ann = [r for r in range(m1.ring.order) if ref1.scal(r, x) == ref1.zero]
        keep = [
            p
            for p, t in enumerate(m2.elements)
            if all(ref2.scal(a, t) == ref2.zero for a in ann)
            and not (injective and x != ref1.zero and p == 0)
        ]
        expected.append(keep)
    got = modules._image_choices(m1, m2, injective=injective)
    assert [c.tolist() for c in got] == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(_hom_pairs(), _equal_order_pairs()), st.sampled_from([None, 7]))
def test_injective_scan_is_the_injective_part_of_the_full_scan(pair, chunk):
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 6561)
    saved = modules._CHUNK
    modules._CHUNK = chunk or saved
    try:
        every = list(iter_homs(m1, m2))
        injective = list(iter_homs(m1, m2, injective=True))
    finally:
        modules._CHUNK = saved
    assert [h.images for h in injective] == [h.images for h in every if h.is_injective()]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_hom_pairs(), _equal_order_pairs()), st.booleans(), st.sampled_from([None, 7]))
def test_every_scanned_hom_passes_the_public_relation_check(pair, injective, chunk):
    # iter_homs builds its homs without a relation check of their own, as
    # _accepted keeps only the candidates on which every relation vanishes;
    # the public constructor runs the full check on each
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 6561)
    with _chunked(chunk, m1.ring) as record:
        homs = list(iter_homs(m1, m2, injective=injective))
    assert record.chunks["_accepted"] == {chunk or modules._CHUNK}
    for h in homs:
        ref = ModuleHom(m1, m2, h.images)
        assert np.array_equal(ref.positions, h.positions)
        assert np.array_equal(ref.table, h.table)


@settings(max_examples=60, deadline=None)
@given(_hom_pairs(), st.sampled_from([None, 7]))
def test_hom_count_is_the_size_of_the_hom_set(pair, chunk):
    m1, m2 = pair
    assume(m2.cardinality**m1.k <= 6561)
    saved = modules._CHUNK
    modules._CHUNK = chunk or saved
    try:
        count = modules._hom_count(m1, m2)
    finally:
        modules._CHUNK = saved
    assert count == len(hom_set(m1, m2))


def test_product_components_drop_relation_columns_that_project_to_zero():
    ring = _ring("Z/4 x Z/9")
    # (2,0) relates only the Z/4 part, (0,3) only the Z/9 part
    m = _mod(ring, "(2,0),(0,3)")
    comps = decompose_over_product(m)
    assert [len(c.relation_columns) for c in comps] == [1, 1]
    assert sorted(c.cardinality for c in comps) == [2, 3]
    for comp in decompose_over_product(free_module(ring, 2)):
        assert comp.relation_columns.shape == (0, 2)


# -- one module per presentation ------------------------------------------------


def test_equal_presentations_on_one_ring_give_one_module():
    z8 = _ring("Z/8")
    m = Module._on(z8, 2, [[2, 0], [0, 4]])
    assert Module._on(z8, 2, np.array([[2, 0], [0, 4]], dtype=np.intp)) is m
    assert regular_module(z8) is free_module(z8, 1)
    h = ModuleHom(regular_module(z8), regular_module(z8), ((2,),))
    assert kernel(h)[0] is kernel(h)[0] and cokernel(h)[0] is cokernel(h)[0]
    # the key is the columns' shape as well as their bytes
    assert Module._on(z8, 0, np.zeros((1, 0), dtype=np.intp)) is not free_module(z8, 0)


def test_two_builds_of_one_spec_share_no_module():
    # modules over two builds do not mix, so neither does their memo
    first, second = _ring("Z/8"), _ring("Z/8")
    assert regular_module(first) is not regular_module(second)
    assert regular_module(second).ring is second
    m1, m2 = Module._on(first, 1, [[2]]), Module._on(second, 1, [[2]])
    assert m1 is not m2 and m1.ring is first and m2.ring is second


def test_ideal_constructions_live_over_the_ideal_s_ring():
    # R/I, I as a module and Ann(I) take their ring from I alone
    first, second = _ring("Z/8"), _ring("Z/8")
    product = _ring("Z/4 x Z/3")
    factor = idempotent_decomposition(product).factor_rings[0]
    for ring in (first, second, _ring("GF(2)[x]/(x^3)"), factor, product):
        for ideal in enumerate_ideals(ring):
            assert quotient_by_ideal(ideal).ring is ring
            assert ideal_as_module(ideal)[0].ring is ring
            assert annihilator(ideal).ring is ring


def test_reordered_relation_columns_give_distinct_modules():
    z8 = _ring("Z/8")
    m = Module._on(z8, 2, [[2, 0], [0, 4]])
    swapped = Module._on(z8, 2, [[0, 4], [2, 0]])
    assert swapped is not m
    assert swapped.presentation.relations == ((0, 4), (2, 0))
    assert is_isomorphic(m, swapped)[0]


def test_the_public_constructor_makes_a_new_module_on_every_call():
    z8 = _ring("Z/8")
    pres = Presentation(z8, 1, ((2,),))
    first, second = Module(pres), Module(pres)
    assert first is not second and first is not Module._on(z8, 1, [[2]])
    assert first.presentation is pres and second.presentation is pres


def test_components_are_decomposed_and_verified_once(monkeypatch):
    ring = _ring("Z/4 x Z/9")
    m = _mod(ring, "(2,3)")
    comps = decompose_over_product(m)
    checked = []
    monkeypatch.setattr(modules, "_verify_decomposition", lambda *args: checked.append(args))
    again = decompose_over_product(m)
    assert again == comps and again is not comps and not checked
    assert all(a is b for a, b in zip(again, comps))
