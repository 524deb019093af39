import gc
import itertools
import json
import re
import weakref
from dataclasses import astuple, replace
from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brute_force import BruteModule
from memos import forget_memos
from finring import cli, homology, modules, rings
from finring.classify import SQUARE_ZERO_PAIR, catalog_specs, nonzero_proper_ideals
from finring.errors import (
    ConsistencyError,
    GuardExceeded,
    NonLocalRingError,
    ValidationError,
)
from finring.guards import Guards
from finring.homology import (
    ExtGroup,
    SgpObstruction,
    SgpWitness,
    _verify_resolution_exactness,
    check_complete_resolution,
    dual_hom,
    ext1,
    find_sgp_witness,
    free_cover,
    free_resolution,
    is_strongly_gorenstein_projective,
    strongly_complete_resolution,
    witness_rank,
)
from finring.ideals import (
    enumerate_ideals,
    ideal_generated,
    idempotent_decomposition,
    unique_maximal_ideal,
)
from finring.modules import (
    Module,
    ModuleHom,
    Presentation,
    cokernel,
    decompose_over_product,
    direct_sum,
    free_module,
    free_summand_split,
    hom_set,
    ideal_as_module,
    image,
    is_isomorphic,
    kernel,
    quotient_by_ideal,
    regular_module,
)
from finring.parsing import parse_presentation, parse_ring_spec
from finring.rings import build_ring, spec_order, table_owner


def _ring(text):
    return build_ring(parse_ring_spec(text))


def _mod(ring, rel_text):
    return Module(parse_presentation(ring, rel_text))


@pytest.mark.parametrize(
    "ring_order,square,rank",
    [
        (8, 1, 0),  # the zero module: R^0
        (8, 64, 2),
        (8, 4096, 4),
        (4, 16, 2),
        (8, 16, 2),  # not a power of 8: the least n with 8^n >= 16
        (9, 10, 2),
        (2, 2, 1),
    ],
)
def test_witness_rank_is_the_least_rank_reaching_the_square(ring_order, square, rank):
    assert witness_rank(ring_order, square) == rank
    assert ring_order**rank >= square
    assert rank == 0 or ring_order ** (rank - 1) < square


def test_internal_paths_build_no_element_tuples(monkeypatch, capsys):
    # element and hom-image tuples are the public form only: the SGP
    # decision, resolutions, splitting and Ext all run on positions, every
    # hom is built from positions, not parsed from its images, and every
    # module the library derives is built from positions, not presented by
    # element values
    def refuse(self):
        raise AssertionError("element tuples built on an internal path")

    monkeypatch.setattr(Module, "elements", property(refuse))
    monkeypatch.setattr(Module, "index", property(refuse))
    monkeypatch.setattr(ModuleHom, "__post_init__", refuse)
    argv = ["module", "sgp", "--ring", "Z/8", "--rel", "2,0;0,4", "--json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    z8 = _ring("Z/8")
    m, m2 = _mod(z8, "2,0;0,4"), _mod(z8, "2")
    tower = _mod(_ring("GF(2)[x]/(x^4)"), "x,0;0,x^3")
    product = _mod(_ring("Z/4 x Z/3"), "(2,0)")
    residue = _mod(_ring("GF(2)[x]/(x^2)[x]/(x^2)"), "(x),x")
    monkeypatch.setattr(Presentation, "__post_init__", refuse)  # the inputs are built
    verdict = is_strongly_gorenstein_projective(m)
    assert verdict.decision
    assert check_complete_resolution(strongly_complete_resolution(verdict.witness)).passed
    assert free_resolution(tower, 3).length == 3
    assert free_resolution(residue, 4).ranks == (1, 2, 3, 4)
    assert free_summand_split(direct_sum(m, regular_module(z8)))[0] == 1
    assert ext1(m2, regular_module(z8)).is_zero
    assert is_strongly_gorenstein_projective(product).components


def test_free_cover():
    z4 = _ring("Z/4")
    cover = free_cover(_mod(z4, "2"))
    assert cover.source.k == 1
    assert cover.is_surjective()
    z8 = _ring("Z/8")
    cover = free_cover(_mod(z8, "2,0;0,4"))
    assert cover.source.k == 2
    cover = free_cover(free_module(z8, 2))
    assert cover.source.k == 2 and cover.source.cardinality == cover.target.cardinality
    assert cover.is_injective()
    with pytest.raises(NonLocalRingError):
        free_cover(regular_module(_ring("Z/12")))


def test_resolution_of_residue_field_over_z4():
    z4 = _ring("Z/4")
    res = free_resolution(_mod(z4, "2"), 3)
    assert res.ranks == (1, 1, 1)
    # multiplication by 2 at every stage
    assert [d.images for d in res.differentials] == [((2,),), ((2,),)]


def test_resolution_alternates_over_z8():
    z8 = _ring("Z/8")
    res = free_resolution(_mod(z8, "2"), 4)
    assert res.ranks == (1, 1, 1, 1)
    assert [d.images for d in res.differentials] == [((2,),), ((4,),), ((2,),)]


def test_resolution_of_projective_terminates():
    z8 = _ring("Z/8")
    res = free_resolution(regular_module(z8), 3)
    assert res.ranks == (1, 0, 0)


def test_resolution_differentials_compose_to_zero():
    z8 = _ring("Z/8")
    res = free_resolution(_mod(z8, "2,0;0,4"), 3)
    d1, d2 = res.differentials
    for el in d2.source.elements:
        assert d1.apply(d2.apply(el)) == d1.target.zero


def test_ext_vanishes_over_chain_rings():
    z4 = _ring("Z/4")
    ext = ext1(_mod(z4, "2"), regular_module(z4))
    assert ext.order == 1 and ext.is_zero
    z8 = _ring("Z/8")
    assert ext1(_mod(z8, "2"), regular_module(z8)).order == 1


def test_ext_nonzero_over_square_zero_algebra():
    ring = _ring(SQUARE_ZERO_PAIR)
    m = unique_maximal_ideal(ring)
    ext = ext1(quotient_by_ideal(m), regular_module(ring))
    # by hand: kernel m x m (16 elements) over image {(0,0), (x,y)} (2)
    assert ext.kernel_order == 16
    assert ext.image_order == 2
    assert ext.order == 8


def test_ext_scans_are_counted_by_the_hom_guard():
    # Ext^1(R/m, R) over the square-zero algebra: the syzygy m has two
    # generators, each killed by m, so its hom candidates are the 4 x 4
    # tuples of socle elements, and the cover scan offers R/m's generator,
    # also killed by m, the same 4 elements.  Neither scan counts the 8^2
    # tuples of R^2.
    def ext(**guards):
        ring = build_ring(parse_ring_spec(SQUARE_ZERO_PAIR), Guards(**guards))
        m = quotient_by_ideal(unique_maximal_ideal(ring))
        found = ext1(m, regular_module(ring))
        return found.order, found.kernel_order, found.image_order

    assert ext(max_hom_candidates=20) == ext() == (8, 16, 2)
    with pytest.raises(GuardExceeded) as info:
        ext(max_hom_candidates=15)
    assert (info.value.guard, info.value.requested, info.value.limit) == (
        "max_hom_candidates",
        16,
        15,
    )


def test_ext_cover_scan_offers_only_images_the_annihilators_allow():
    # Ext^1(R/(2), R) over Z/4: R/(2)'s generator is killed by 2, so the
    # cover scan offers it the 2 elements of R killed by 2, not all 4, and
    # the syzygy 2R has the same 2 images
    ring = build_ring(parse_ring_spec("Z/4"), Guards(max_hom_candidates=2))
    found = ext1(_mod(ring, "2"), regular_module(ring))
    assert (found.order, found.kernel_order, found.image_order) == (1, 2, 2)


def test_ext_over_product_ring():
    z12 = _ring("Z/12")
    assert ext1(_mod(z12, "6"), regular_module(z12)).order == 1


def test_ext_over_product_with_nonzero_component():
    # Z/8 x (square-zero algebra): modding out Z/8 x m leaves the algebra's
    # residue field, whose Ext against R has order 8; the Z/8 component is zero
    prod = _ring(f"Z/8 x {SQUARE_ZERO_PAIR}")
    mixed = ideal_generated(
        prod, [(1, (0, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1))]
    )
    assert mixed.order == 32  # Z/8 x m
    ext = ext1(quotient_by_ideal(mixed), regular_module(prod))
    assert ext.order == 8


def test_witness_for_maximal_ideal_of_z4():
    z4 = _ring("Z/4")
    w = find_sgp_witness(_mod(z4, "2"))
    assert isinstance(w, SgpWitness)
    assert w.rank == 1
    assert w.embedding.images == ((2,),)
    assert w.projection.is_surjective()


def test_witness_cardinality_obstruction():
    z8 = _ring("Z/8")
    out = find_sgp_witness(_mod(z8, "2"))
    assert isinstance(out, SgpObstruction)
    assert out.kind == "cardinality"


def test_witness_for_mixed_module_over_z8():
    z8 = _ring("Z/8")
    w = find_sgp_witness(_mod(z8, "2,0;0,4"))
    assert isinstance(w, SgpWitness)
    assert w.rank == 2
    # lexicographically first valid embedding: g0 -> (0,4), g1 -> (2,0)
    assert w.embedding.images == ((0, 4), (2, 0))
    coker_size = w.embedding.target.cardinality // 8
    assert coker_size == 8


def test_witness_search_needs_local_ring():
    with pytest.raises(NonLocalRingError):
        find_sgp_witness(regular_module(_ring("Z/12")))


def test_sgp_verdicts_over_z8():
    z8 = _ring("Z/8")
    assert not is_strongly_gorenstein_projective(_mod(z8, "2")).decision
    v4 = is_strongly_gorenstein_projective(_mod(z8, "4"))
    assert not v4.decision and v4.obstruction.kind == "cardinality"
    total = is_strongly_gorenstein_projective(_mod(z8, "2,0;0,4"))
    assert total.decision
    assert total.witness.rank == 2
    assert total.ext.is_zero


def test_projective_modules_are_sgp():
    z4 = _ring("Z/4")
    verdict = is_strongly_gorenstein_projective(regular_module(z4))
    assert verdict.decision and verdict.witness.rank == 2


@pytest.mark.parametrize("rel_text", ["0;0", "1;0;0"])
def test_a_projective_module_past_the_hom_guard_takes_the_split_witness(rel_text):
    m = _mod(_ring("Z/8"), rel_text)  # R^2, on two or three generators
    with pytest.raises(GuardExceeded, match="hom enumeration"):
        find_sgp_witness(m)
    verdict = is_strongly_gorenstein_projective(m)
    w = verdict.witness
    assert verdict.decision and verdict.ext.is_zero and w.rank == 4
    # M goes into the first summand of R^2 + R^2, and the second maps onto M
    assert all(img[2:] == (0, 0) for img in w.embedding.images)
    assert all(pos == 0 for pos in w.projection.positions[:2])
    assert verdict.resolution.passed


def test_a_module_that_is_not_projective_still_stops_at_the_hom_guard():
    m = _mod(_ring("Z/25"), "5,0;0,0")  # R/(5) + R
    with pytest.raises(GuardExceeded, match="hom enumeration"):
        is_strongly_gorenstein_projective(m)


def test_a_projective_module_within_the_guard_keeps_the_first_witness():
    m = _mod(_ring("Z/4"), "0;0")
    found = find_sgp_witness(m)
    assert is_strongly_gorenstein_projective(m).witness.embedding.images == (
        found.embedding.images
    )


def test_zero_module_is_sgp():
    z8 = _ring("Z/8")
    verdict = is_strongly_gorenstein_projective(_mod(z8, ""))
    assert verdict.decision and verdict.witness.rank == 0


def test_sgp_over_product_carries_components():
    z12 = _ring("Z/12")
    verdict = is_strongly_gorenstein_projective(_mod(z12, "6"))
    assert verdict.decision
    assert verdict.witness is None
    assert len(verdict.components) == 2
    assert all(c.decision for c in verdict.components)
    # over Z/8 x Z/3 the component Z/2 over the chain factor fails
    prod = _ring("Z/8 x Z/3")
    bad = is_strongly_gorenstein_projective(_mod(prod, "(2,1)"))
    assert not bad.decision
    # the Z/8 factor fails (canonical order puts Z/3 first), and the product's
    # verdict carries that factor's own obstruction
    assert [c.decision for c in bad.components] == [True, False]
    assert bad.obstruction is bad.components[1].obstruction
    assert bad.obstruction.kind == "cardinality"


def test_a_witness_with_a_nonexact_dual_is_ext_nonzero(monkeypatch, capsys):
    # no module within the guards has a witness whose dual complex is not
    # exact, so the dual report of Z/4's witness for R/2R is made to read a
    # dual quotient of order 2
    real = homology.check_complete_resolution
    monkeypatch.setattr(
        homology, "check_complete_resolution", lambda f: replace(real(f), dual_image_order=1)
    )
    verdict = is_strongly_gorenstein_projective(_mod(_ring("Z/4"), "2"))
    assert not verdict.decision
    assert (verdict.obstruction.kind, verdict.obstruction.detail) == (
        "ext_nonzero",
        "Ext^1(M, R) has order 2",
    )
    assert verdict.ext.order == 2
    assert cli.main(["module", "sgp", "--ring", "Z/4", "--rel", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["obstruction"], report["ext1_order"]) == ("ext_nonzero", 2)


def test_sgp_closed_under_sums_but_not_summands():
    z8 = _ring("Z/8")
    small = _mod(z8, "2")
    medium = _mod(z8, "4")
    total = direct_sum(small, medium)
    assert not is_strongly_gorenstein_projective(small).decision
    assert not is_strongly_gorenstein_projective(medium).decision
    assert is_strongly_gorenstein_projective(total).decision


def test_witness_law_on_found_witnesses():
    for text, rel in [("Z/4", "2"), ("Z/9", "3"), ("Z/8", "2,0;0,4")]:
        ring = _ring(text)
        verdict = is_strongly_gorenstein_projective(_mod(ring, rel))
        if verdict.decision:
            w = verdict.witness
            assert ring.order**w.rank == w.module.cardinality**2


def test_cyclic_sgp_ideal_annihilator_law():
    z4 = _ring("Z/4")
    two = ideal_generated(z4, [2])
    mod, _ = ideal_as_module(two)
    assert is_strongly_gorenstein_projective(mod).decision
    from finring.ideals import annihilator

    ann = annihilator(two)
    ann_mod, _ = ideal_as_module(ann)
    assert is_isomorphic(ann_mod, mod)[0]
    assert annihilator(ann).elements == ann.elements


def test_strongly_complete_resolution_round_trip():
    z4 = _ring("Z/4")
    w = find_sgp_witness(_mod(z4, "2"))
    f = strongly_complete_resolution(w)
    assert w.rank == 1
    # f is multiplication by 2 on R
    assert f.images == ((2,),)
    report = check_complete_resolution(f)
    assert report.passed
    assert report.image_order == report.kernel_order == 2
    assert report.dual_image_order == report.dual_kernel_order == 2


def test_periodic_check_negative_controls():
    z8 = _ring("Z/8")
    free = regular_module(z8)
    times2 = ModuleHom(free, free, ((2,),))
    report = check_complete_resolution(times2)
    assert not report.forward_exact
    assert report.image_order == 4 and report.kernel_order == 2
    ident = ModuleHom(free, free, ((1,),))
    report = check_complete_resolution(ident)
    assert not report.forward_exact
    assert report.image_order == 8 and report.kernel_order == 1
    with pytest.raises(ValidationError):
        # the public constructor makes a new module, so this is not an endo
        check_complete_resolution(ModuleHom(free, Module(Presentation(z8, 1, ())), ((1,),)))


def test_dual_hom_is_transpose():
    z8 = _ring("Z/8")
    free = free_module(z8, 2)
    # f(e0) = (1, 2), f(e1) = (3, 4): dual must have rows as images
    f = ModuleHom(free, free, ((1, 2), (3, 4)))
    d = dual_hom(f)
    assert d.images == ((1, 3), (2, 4))


def test_dual_hom_accepts_a_free_module_with_zero_relations():
    z4 = _ring("Z/4")
    free = Module(Presentation(z4, 2, ((0, 0),)))  # the relation spans zero
    assert free.cardinality == 16 and len(free.span) == 1
    report = check_complete_resolution(ModuleHom(free, free, ((2, 0), (0, 2))))
    assert report.passed
    assert report.image_order == report.kernel_order == 4
    assert report.dual_image_order == report.dual_kernel_order == 4
    # a relation with a nonzero span is still refused
    quotient = Module(Presentation(z4, 1, ((2,),)))
    with pytest.raises(ValidationError, match="free module"):
        dual_hom(ModuleHom(quotient, quotient, ((1,),)))


def test_periodic_map_over_z8_witness():
    z8 = _ring("Z/8")
    w = find_sgp_witness(_mod(z8, "2,0;0,4"))
    res = strongly_complete_resolution(w)
    report = check_complete_resolution(res)
    assert report.passed
    assert report.image_order == 8 and report.kernel_order == 8


def _bad_witness(kind):
    """A hand-built witness over Z/4 that breaks one of the sequence's laws."""
    z4 = _ring("Z/4")
    if kind == "module":
        # a valid sequence for Z/2, but the witness names another module
        w = find_sgp_witness(_mod(z4, "2"))
        return replace(w, module=_mod(z4, "2"))
    if kind == "rank":
        # the same valid sequence, but |R|^2 = 16 is not |Z/2|^2 = 4
        return replace(find_sgp_witness(_mod(z4, "2")), rank=2)
    m = _mod(z4, "2")
    if kind == "free":
        # 0 -> Z/2 -> Z/2 + Z/2 -> Z/2 -> 0 by the first inclusion and the second
        # projection: exact, and |R| = |Z/2|^2, but the middle term is not R
        middle = direct_sum(m, m)
        embedding = ModuleHom(m, middle, ((1, 0),))
        return SgpWitness(m, 1, embedding, ModuleHom(middle, m, ((0,), (1,))))
    free = regular_module(z4)
    if kind == "embedding":
        # 0 -> Z/2 -0-> R -> Z/2 -> 0: the embedding kills the generator
        embedding = ModuleHom(m, free, ((0,),))
        return SgpWitness(m, 1, embedding, ModuleHom(free, m, ((1,),)))
    if kind == "projection":
        # 0 -> Z/2 -2-> R -0-> Z/2 -> 0: the projection kills everything
        embedding = ModuleHom(m, free, ((2,),))
        return SgpWitness(m, 1, embedding, ModuleHom(free, m, ((0,),)))
    # 0 -> R -> R^2 -> R -> 0 by the first inclusion and the first projection:
    # both maps are fine, but the image (a, 0) is not the kernel (0, b)
    m = regular_module(z4)
    free = free_module(z4, 2)
    embedding = ModuleHom(m, free, ((1, 0),))
    return SgpWitness(m, 2, embedding, ModuleHom(free, m, ((1,), (0,))))


@pytest.mark.parametrize(
    "kind,message",
    [
        ("module", "witness maps do not start and end at the module"),
        ("rank", "witness middle term is not R^rank"),
        ("free", "witness middle term is not R^rank"),
        ("embedding", "witness embedding is not injective"),
        ("projection", "witness projection is not surjective"),
        ("middle", "witness sequence is not exact in the middle"),
    ],
)
def test_strongly_complete_resolution_validates_the_witness(kind, message):
    # a witness checks its sequence when it is built
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        _bad_witness(kind)


def test_witness_search_tries_each_image_once(monkeypatch):
    # every embedding of (Z/3)^2 into (Z/9)^2 has the socle 3R^2 as its
    # image, so its 48 embeddings give one cokernel
    m = _mod(_ring("Z/9"), "3,0;0,3")
    scanned, built = [], []

    def spy_homs(*args, **kwargs):
        for h in modules.iter_homs(*args, **kwargs):
            scanned.append(h)
            yield h

    def spy_cokernel(h):
        built.append(h)
        return modules.cokernel(h)

    monkeypatch.setattr(homology, "iter_homs", spy_homs)
    monkeypatch.setattr(homology, "cokernel", spy_cokernel)
    monkeypatch.setattr(homology, "is_isomorphic", lambda *args: (False, None))
    assert find_sgp_witness(m).kind == "no_embedding_with_self_cokernel"
    assert len(scanned) == 48 and len(built) == 1


def test_periodic_map_is_read_off_the_validated_witness(monkeypatch):
    # image(f) = kernel(f) = image(embedding) follows from the witness laws,
    # so no image is presented and no isomorphism or hom search runs
    z8 = _ring("Z/8")
    w = find_sgp_witness(_mod(z8, "2,0;0,4"))

    def refuse(*args, **kwargs):
        raise AssertionError("the periodic map was re-derived")

    monkeypatch.setattr(homology, "is_isomorphic", refuse)
    monkeypatch.setattr(modules, "submodule", refuse)
    monkeypatch.setattr(modules, "iter_homs", refuse)
    monkeypatch.setattr(homology, "iter_homs", refuse)
    f = strongly_complete_resolution(w)
    assert f.source is f.target is w.embedding.target
    assert f.source.k == w.rank == 2
    report = check_complete_resolution(f)
    assert report.passed
    assert report.image_order == report.kernel_order == w.module.cardinality


def test_resolution_exactness_implies_composites_vanish(monkeypatch):
    z4 = _ring("Z/4")
    m = _mod(z4, "2")
    free = regular_module(z4)
    cover = ModuleHom(free, m, ((1,),))
    # stage 0 is exact (image 2R = kernel of the cover), but d1 . d2 = 2 != 0,
    # which the per-stage image = kernel test catches at stage 1
    d1 = ModuleHom(free, free, ((2,),))
    d2 = ModuleHom(free, free, ((1,),))
    with pytest.raises(ConsistencyError, match="resolution is not exact at stage 1"):
        _verify_resolution_exactness([cover], [d1, d2])
    # and a true resolution passes with no composite formed
    res = free_resolution(_mod(_ring("Z/8"), "4"), 3)

    def refuse(*args, **kwargs):
        raise AssertionError("composite formed")

    monkeypatch.setattr(homology, "compose", refuse)
    _verify_resolution_exactness(res.covers, res.differentials)


# -- the scalar Ext^1 loops the array code replaced, kept as the reference ----


def _ref_ext1(m, q):
    """(order, kernel order, image order) of Ext^1(m, q)."""
    ring = m.ring
    dec = idempotent_decomposition(ring)
    if not dec.is_trivial:
        parts = [
            _ref_ext1(mc, qc)
            for mc, qc in zip(
                decompose_over_product(m), decompose_over_product(q)
            )
        ]
        return tuple(prod(p[i] for p in parts) for i in range(3))
    res = free_resolution(m, 3)
    d1, d2 = res.differentials
    g0, g1, _ = res.ranks
    ref = BruteModule.of(q)

    def transpose_apply(columns, w):
        return tuple(ref.combination(col, w) for col in columns)

    image_set = {
        transpose_apply(d1.images, w) for w in itertools.product(q.elements, repeat=g0)
    }
    zero_vec = (q.zero,) * len(d2.images)
    kernel_list = [
        v
        for v in itertools.product(q.elements, repeat=g1)
        if transpose_apply(d2.images, v) == zero_vec
    ]
    assert image_set <= set(kernel_list)
    return len(kernel_list) // len(image_set), len(kernel_list), len(image_set)


_EXT_RINGS = {
    text: _ring(text)
    for text in (
        "Z/4",
        "Z/8",
        "Z/9",
        "GF(2)[x]/(x^2)",
        SQUARE_ZERO_PAIR,  # nonzero Ext
        f"Z/2 x {SQUARE_ZERO_PAIR}",
    )
}


# targets: R and R/I over the first two nonzero proper ideals, so that the
# annihilator filter also runs on torsion targets
_EXT_TARGETS = {
    text: [regular_module(ring)]
    + [quotient_by_ideal(ideal) for ideal in nonzero_proper_ideals(ring)[:2]]
    for text, ring in _EXT_RINGS.items()
}


@st.composite
def _ext_presentations(draw):
    text = draw(st.sampled_from(sorted(_EXT_RINGS)))
    order = _EXT_RINGS[text].order
    k = draw(st.integers(0, 2 if order < 16 else 1))
    cols = draw(st.lists(st.tuples(*[st.integers(0, order - 1)] * k), max_size=2))
    target = draw(st.integers(0, len(_EXT_TARGETS[text]) - 1))
    return text, k, cols, target


@pytest.mark.parametrize("chunk", [None, 7])
@settings(max_examples=40, deadline=None)
@given(_ext_presentations())
@example(("Z/8", 2, [], 0))  # free: g1 = 0
@example(("Z/8", 0, [], 0))  # zero module: g0 = 0
@example(("Z/8", 2, [(2, 0), (0, 4)], 0))  # Z/2 + Z/4: F1 -> F0 not symmetric
@example((f"Z/2 x {SQUARE_ZERO_PAIR}", 1, [(1,), (2,)], 0))  # Ext nonzero on a factor
# Ext^1(Z/4, Z/4) over Z/8 has order 2: the syzygy 4R is killed by 2, which
# keeps 2 of Z/4's 4 elements as its image
@example(("Z/8", 1, [(4,)], 1))
def test_ext1_matches_scalar_loops(chunk, pres):
    text, k, cols, target = pres
    ring = _EXT_RINGS[text]
    values = tuple(tuple(ring.elements[i] for i in c) for c in cols)
    m = Module(Presentation(ring, k, values))
    q = _EXT_TARGETS[text][target]
    saved, accepted = modules._CHUNK, modules._accepted
    chunks = []

    def spy(*args):
        chunks.append(modules._CHUNK)
        return accepted(*args)

    # a tiny chunk runs every chunked loop over many small pieces; a memo hit
    # would run none of them, so every call computes afresh
    forget_memos()
    modules._CHUNK, modules._accepted = chunk or saved, spy
    try:
        ext = ext1(m, q)
    finally:
        modules._CHUNK, modules._accepted = saved, accepted
    assert chunks and set(chunks) == {chunk or saved}
    assert astuple(ext) == _ref_ext1(m, q)


# -- a derived module takes the span its maker already holds -----------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_EXT_RINGS)), st.data())
def test_derived_modules_take_the_span_their_maker_holds(text, data):
    # the cokernel passes the preimage of the image and a submodule its
    # relation mask; each must be the span the relation columns grow to
    ring = _ring(text)  # a new build, whose module memo is its own
    entry = st.integers(0, ring.order - 1)

    def module():
        k = data.draw(st.integers(0, 2 if ring.order < 16 else 1))
        cols = data.draw(st.lists(st.tuples(*[entry] * k), max_size=2))
        values = tuple(tuple(ring.elements[i] for i in c) for c in cols)
        return Module(Presentation(ring, k, values))

    m1, m2 = module(), module()
    assume(m2.cardinality**m1.k <= 4096)
    h = data.draw(st.sampled_from(hom_set(m1, m2)))
    for make in (cokernel, kernel, image):
        forget_memos(ring)  # so the maker builds what it returns
        derived, _ = make(h)
        grown = object.__new__(Module)
        grown._build(ring, derived.k, derived.relation_columns)
        for attr in ("span", "rep", "_digits"):
            assert np.array_equal(getattr(derived, attr), getattr(grown, attr)), (make, attr)


# -- Ext^1 is kept on its ring's table owner, keyed by the presentations ------


# two-part products of catalog parts of order at most 64: each product built
# in a test shares its kept parts, and their Ext^1 memos, with the others
_SHARED_PRODUCTS = (
    "Z/4 x Z/3",
    "Z/4 x Z/5",
    "Z/12 x Z/9",  # a non-local part
    f"Z/2 x {SQUARE_ZERO_PAIR}",  # nonzero Ext
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_SHARED_PRODUCTS)), st.data())
def test_ext1_memo_is_sound_across_shared_parts(text, data):
    ring = _ring(text)  # a new build over the kept parts
    assert ring.factors == tuple(rings.kept_ring(f, ring.guards) for f in ring.spec.factors)
    ideals = enumerate_ideals(ring)
    index = st.integers(0, len(ideals) - 1)
    picks = data.draw(st.lists(index, min_size=1, max_size=2))
    parts = [quotient_by_ideal(ideals[i]) for i in picks]
    m = parts[0] if len(parts) == 1 else direct_sum(*parts)
    for q in (regular_module(ring), quotient_by_ideal(ideals[data.draw(index)])):
        ext = ext1(m, q)
        try:
            ref = _ref_ext1(m, q)
        except GuardExceeded:  # the reference's third syzygy outgrows R^k
            assume(False)
        assert astuple(ext) == ref


def test_ext1_over_a_second_product_reuses_its_live_part(monkeypatch):
    covers = []

    def spy(m):
        covers.append(table_owner(m.ring))
        return free_cover(m)

    monkeypatch.setattr(homology, "free_cover", spy)
    first, second = _ring("Z/4 x Z/3"), _ring("Z/4 x Z/5")
    z4 = first.factors[0]
    assert second.factors[0] is z4
    owner = table_owner(z4)
    forget_memos()
    ext = ext1(_mod(first, "(2,0)"), regular_module(first))
    assert ext.is_zero and covers.count(owner) == 1
    # over the second product, the Z/4 components of R/(2,0) and of R have
    # the presentations they had over the first, on the same part's owner:
    # only the Z/5 component is computed
    covers.clear()
    ext = ext1(_mod(second, "(2,0)"), regular_module(second))
    assert ext.is_zero and owner not in covers
    forget_memos()
    assert astuple(ext1(_mod(second, "(2,0)"), regular_module(second))) == astuple(ext)
    assert covers.count(owner) == 1


def test_rings_with_equal_tables_share_one_ext1_memo(monkeypatch):
    z2 = _ring("Z/2")
    factor = next(f for f in idempotent_decomposition(_ring("Z/6")).factor_rings if f.one == 3)
    # {0, 3} in Z/6 adds and multiplies on positions as Z/2 does
    assert table_owner(factor) is table_owner(z2)
    covers = []

    def spy(m):
        covers.append(m.ring)
        return free_cover(m)

    monkeypatch.setattr(homology, "free_cover", spy)
    forget_memos()
    ext = ext1(quotient_by_ideal(unique_maximal_ideal(z2)), regular_module(z2))
    assert ext.is_zero and covers == [z2]
    residue = quotient_by_ideal(unique_maximal_ideal(factor))
    assert ext1(residue, regular_module(factor)) is ext and covers == [z2]


def test_a_product_factor_is_owned_through_its_kept_part():
    # asked first, the factor still resolves to its part's owner, so what
    # the owner keeps outlives the product
    guards = Guards(max_hom_candidates=123_459)  # no other ring has these guards
    product = build_ring(parse_ring_spec("Z/4 x Z/27"), guards)
    factors = idempotent_decomposition(product).factor_rings
    owners = [table_owner(f) for f in factors]
    parts = [rings.kept_ring(parse_ring_spec(t), guards) for t in ("Z/27", "Z/4")]
    assert owners == parts


def test_a_table_owner_lives_no_longer_than_its_rings():
    guards = Guards(max_hom_candidates=123_457)  # no other ring has these guards

    def owners():
        return sum(key[0] == guards for key in rings._OWNERS.keys())

    def decide():
        ring = build_ring(parse_ring_spec("Z/9"), guards)
        ext1(_mod(ring, "3"), regular_module(ring))
        assert table_owner(ring) is ring and owners() == 1
        return weakref.ref(ring)

    # each build registers one owner, which goes with its ring: nothing
    # accumulates across builds
    for _ in range(3):
        ref = decide()
        gc.collect()
        assert ref() is None and owners() == 0


# -- the SGP verdict reads Ext^1(M, R) off its own witness ---------------------


# the catalog rings of order <= 27: the local ones, SQUARE_ZERO_PAIR among
# them, and the products
_SGP_RINGS = {
    text: build_ring(spec)
    for _, text in catalog_specs()
    if spec_order(spec := parse_ring_spec(text)) <= 27
}


def _quotient_sum(text, picks):
    ring = _SGP_RINGS[text]
    ideals = enumerate_ideals(ring)
    parts = [quotient_by_ideal(ideals[i]) for i in picks]
    return parts[0] if len(parts) == 1 else direct_sum(*parts)


# R/I and R/I + R/J of at most |R| elements, so that every witness search
# runs over R^1 or R^2 and ends within milliseconds
_SGP_MODULES = [
    (text, picks)
    for text, ring in _SGP_RINGS.items()
    for ideals in [enumerate_ideals(ring)]
    for picks in itertools.chain(
        itertools.combinations(range(len(ideals)), 1),
        itertools.combinations_with_replacement(range(len(ideals)), 2),
    )
    if prod(ring.order // ideals[i].order for i in picks) <= ring.order
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SGP_MODULES))
@example(("Z/8", (1, 2)))  # Z/4 + Z/2: SGP with a rank-2 witness
@example((f"Z/2 x {SQUARE_ZERO_PAIR}", (0,)))  # a product, free in each factor
def test_verdict_ext_matches_ext1_on_every_witness(case):
    m = _quotient_sum(*case)
    verdict = is_strongly_gorenstein_projective(m)
    if verdict.decision:
        assert ext1(m, regular_module(m.ring)).is_zero
    for local in verdict.components or (verdict,):
        if local.witness is not None:
            assert local.ext.order == ext1(local.module, regular_module(local.module.ring)).order
            assert local.resolution == check_complete_resolution(local.periodic)
            assert local.periodic == strongly_complete_resolution(local.witness)


def test_sgp_verdict_computes_no_second_ext(monkeypatch):
    # the witness's dual periodic complex gives Ext^1(M, R): no free cover of
    # M is built to compute it again
    def refuse(*args):
        raise AssertionError("Ext^1 recomputed on the SGP path")

    monkeypatch.setattr(homology, "ext1", refuse)
    verdict = is_strongly_gorenstein_projective(_mod(_ring("Z/8"), "2,0;0,4"))
    assert verdict.decision and verdict.ext.is_zero
    # |ker f*| = |im f*| = |M*| = |Hom(Z/2 + Z/4, Z/8)| = 8
    assert (verdict.ext.kernel_order, verdict.ext.image_order) == (8, 8)
    product = is_strongly_gorenstein_projective(_mod(_ring("Z/4 x Z/3"), "(2,0)"))
    assert product.decision and all(c.ext.is_zero for c in product.components)


def _derived(ring, rel_text):
    """The module the library derives for this presentation: the ring's own."""
    given = _mod(ring, rel_text)
    return Module._on(ring, given.k, given.relation_columns)


def test_sgp_verdict_is_kept_on_its_module(monkeypatch):
    z8, product = _ring("Z/8"), _ring("Z/4 x Z/3")
    local, split = _derived(z8, "2,0;0,4"), _derived(product, "(2,0)")
    verdicts = [is_strongly_gorenstein_projective(m) for m in (local, split)]

    def refuse(*args):
        raise AssertionError("a decided module searched again")

    monkeypatch.setattr(homology, "find_sgp_witness", refuse)
    assert is_strongly_gorenstein_projective(_derived(z8, "2,0;0,4")) is verdicts[0]
    assert is_strongly_gorenstein_projective(split) is verdicts[1]
    for comp, verdict in zip(decompose_over_product(split), verdicts[1].components):
        assert is_strongly_gorenstein_projective(comp) is verdict


@pytest.mark.parametrize(
    "text,rel_text",
    [("Z/8", "2,0;0,4"), ("Z/8 x Z/3", "(2,1),(0,0);(0,0),(4,1)")],
)
def test_a_guarded_build_raises_after_a_default_build_decided(text, rel_text):
    # each build keeps its own modules and verdicts: a default-guard verdict
    # does not answer for a build whose guard stops the witness search
    assert is_strongly_gorenstein_projective(_derived(_ring(text), rel_text)).decision
    guarded = build_ring(parse_ring_spec(text), Guards(max_hom_candidates=3))
    m = _derived(guarded, rel_text)
    for _ in range(2):  # a guard hit is not kept as a verdict
        with pytest.raises(GuardExceeded, match="hom enumeration would scan 45 candidates"):
            is_strongly_gorenstein_projective(m)
    assert "sgp" not in m._cache


def test_ext_group_checks_its_quotient():
    assert ExtGroup(2, 8, 4).order == 2
    with pytest.raises(ConsistencyError, match="Ext quotient size is not integral"):
        ExtGroup(1, 8, 4)


# -- Ext^1 counts both Hom groups on their modules' own presentations ----------


@pytest.mark.parametrize(
    "k,cols",
    [
        (1, ((2,),)),  # R/(2) on one generator
        (2, ((2, 0), (0, 1))),  # the second generator is killed outright
        (2, ((1, 7), (2, 0))),  # x_0 = x_1, and 2 x_0 = 0
    ],
)
def test_ext1_is_independent_of_the_presentation(k, cols):
    # R/(2) over Z/8 is Z/2: Ext^1 into R vanishes (Z/8 is self-injective),
    # into R/(4) = Z/4 it is Z/4 / 2Z/4, of order 2
    z8 = _ring("Z/8")
    m = Module(Presentation(z8, k, tuple(tuple(z8.elements[i] for i in c) for c in cols)))
    assert m.cardinality == 2
    for q, order in ((regular_module(z8), 1), (_mod(z8, "4"), 2)):
        ext = ext1(m, q)
        assert ext.order == order
        assert (ext.order, ext.kernel_order, ext.image_order) == _ref_ext1(m, q)
