"""Free resolutions, Ext groups, and strongly-Gorenstein-projective decisions.

A module M over a local ring is strongly Gorenstein projective when it sits
in a short exact sequence 0 -> M -i-> R^n -p-> M -> 0 and Ext^1(M, Q)
vanishes for every projective Q.  Both halves are decided here with
explicit data: a witness embedding plus projection, or a named obstruction.
The search tries each image of an embedding M -> R^n once, as equal images
give one cokernel.  A witness checks its sequence when it is made, and
that its middle term is R^n: n generators and no relation.  So splicing it
with itself yields the doubly infinite periodic complex ... -> R^n -f->
R^n -f-> ... with f = i . p and nothing left to check: kernel(f) =
image(f) = image(i), as i is injective and p onto.
``check_complete_resolution`` verifies image(f) = kernel(f) together with
exactness of the Hom(-, R) dual.

The Ext half is read off that dual, so no second resolution is built.
Hom(-, R) turns the witness into 0 -> M* -p*-> (R^n)* -i*-> M* ->
Ext^1(M, R) -> 0.  As f* = p* . i* with p* injective, kernel(f*) =
kernel(i*) = image(p*), which is M*, and image(f*) is image(i*), so
|Ext^1(M, R)| = |kernel f*| / |image f*|.

Testing Ext against Q = R alone suffices: over a finite ring Ext^1 out of a
finitely presented module commutes with finite direct sums in the second
argument, and every projective is a direct summand of a free module of
finite rank here.

Over a product ring ``modules._per_factor``, the one product rule, takes every
decision factor by factor, and each local Ext^1 is kept on its factor's table
owner (see ``ext1``); a witness in a free module of one rank need not exist
there (component ranks can differ), so a product verdict carries its factors'
verdicts, a negative one its first negative factor's obstruction.  Each SGP
verdict is kept on its module, which its ring keeps once per presentation, so
a module is decided once a request (a free module R^k once for its ring).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from math import prod

import numpy as np

from .errors import (
    ConsistencyError,
    GuardExceeded,
    NonLocalRingError,
    RingMismatchError,
    ValidationError,
)
from .ideals import is_local
from .modules import (
    Module,
    ModuleHom,
    _hom_count,
    _per_factor,
    compose,
    cokernel,
    free_cover,
    free_module,
    is_isomorphic,
    is_projective,
    iter_homs,
    kernel,
)
from .rings import kept, request_memo, table_owner


# ---------------------------------------------------------------------------
# resolutions


@dataclass(frozen=True)
class FreeResolution:
    """length free terms F_0..F_{length-1} resolving a module.

    ``covers[i]`` is the minimal cover of the i-th syzygy by F_i (the 0-th
    syzygy is the module itself); ``differentials[i]`` is F_{i+1} -> F_i.
    Exactness (image = kernel, elementwise) is verified at construction.
    """

    module: Module
    covers: tuple
    differentials: tuple
    ranks: tuple

    @property
    def length(self) -> int:
        return len(self.covers)


#: longest resolution built: over a chain ring the ranks repeat with period
#: at most 2, and elsewhere the module guard stops the growth within a few steps
MAX_RESOLUTION_LENGTH = 64


def free_resolution(m: Module, length: int) -> FreeResolution:
    if not 1 <= length <= MAX_RESOLUTION_LENGTH:
        raise ValidationError(
            f"resolution length must be between 1 and {MAX_RESOLUTION_LENGTH}, got {length}"
        )
    covers = []
    diffs = []
    target = m
    prev_embed = None
    for step in range(length):
        cover = free_cover(target)
        covers.append(cover)
        if prev_embed is not None:
            diffs.append(compose(prev_embed, cover))
        if step < length - 1:  # the syzygy after the last term is never used
            target, prev_embed = kernel(cover)
    _verify_resolution_exactness(covers, diffs)
    return FreeResolution(
        m, tuple(covers), tuple(diffs), tuple(c.source.k for c in covers)
    )


def _verify_resolution_exactness(covers, diffs) -> None:
    # image(d_{i+1}) = kernel(d_i) at every stage, which forces d_i . d_{i+1} = 0
    for i, upstream in enumerate(diffs):
        downstream = covers[i] if i == 0 else diffs[i - 1]
        if not _exactness(upstream, downstream)[0]:
            raise ConsistencyError(f"resolution is not exact at stage {i}")


def _exactness(f: ModuleHom, g: ModuleHom):
    """(image f == kernel g, |image f|, |kernel g|) for maps A -f-> B -g-> C."""
    if f.target is not g.source:
        raise ConsistencyError("exactness needs maps through one middle module")
    in_image = f.image_mask()
    in_kernel = g.table == 0
    return (
        bool((in_image == in_kernel).all()),
        int(in_image.sum()),
        int(in_kernel.sum()),
    )


# ---------------------------------------------------------------------------
# Ext^1


@dataclass(frozen=True)
class ExtGroup:
    """Ext^1(M, Q) as a finite group, for a presentation 0 -> S -> F -> M
    -> 0 with F free: its order, the order of Hom(S, Q), and the order of
    the image of Hom(F, Q) in it.  ``ext1`` takes the minimal free cover;
    an SGP verdict takes its witness, S = M and F = R^n, and Q = R."""

    order: int
    kernel_order: int
    image_order: int

    def __post_init__(self):
        if self.order * self.image_order != self.kernel_order:
            raise ConsistencyError("Ext quotient size is not integral")

    @property
    def is_zero(self) -> bool:
        return self.order == 1


def ext1(m: Module, q: Module) -> ExtGroup:
    """Ext^1(m, q) by the exact sequence 0 -> Hom(m, q) -> Hom(F, q) ->
    Hom(S, q) -> Ext^1(m, q) -> 0, for m's minimal free cover F = R^{g0}
    and its first syzygy S.

    Both hom orders are counted on their modules' own presentations
    (``_hom_count``), each scan within the hom guard: |Hom(S, q)|, and
    |Hom(m, q)|, which is the same for any presentation of m.  The image of
    Hom(F, q) in Hom(S, q) has |q|^{g0} / |Hom(m, q)| elements.  Over a
    product ring both modules are decomposed and the component orders
    multiplied (Ext is additive).  A local result is kept on the ring's
    ``table_owner`` for the request (``rings.request_memo``), keyed by both
    presentations, so rings with equal tables (a kept part and the factors
    of products over it, Z/2 and a factor of Z/6) compute each component once.
    """
    if m.ring is not q.ring:
        raise RingMismatchError("ext needs modules over the same ring")
    if (parts := _per_factor(ext1, m, q)) is not None:
        return ExtGroup(*map(prod, zip(*map(astuple, parts))))
    memo = request_memo(table_owner(m.ring), "ext1")
    pair = m.relation_columns, q.relation_columns
    key = tuple(x for c in pair for x in (c.shape, c.tobytes()))
    if key in memo:
        return memo[key]
    cover = free_cover(m)
    syzygy, _ = kernel(cover)
    kernel_order = _hom_count(syzygy, q)
    image_order, rest = divmod(q.cardinality**cover.source.k, _hom_count(m, q))
    if rest:
        raise ConsistencyError("Ext quotient size is not integral")
    memo[key] = ExtGroup(kernel_order // image_order, kernel_order, image_order)
    return memo[key]


# ---------------------------------------------------------------------------
# strongly Gorenstein projective decisions


@dataclass(frozen=True)
class SgpWitness:
    """A short exact sequence 0 -> M -> R^rank -> M -> 0, checked when it
    is made: a witness that breaks a law raises ``ConsistencyError``."""

    module: Module
    rank: int
    embedding: ModuleHom
    projection: ModuleHom

    def __post_init__(self):
        m = self.module
        if self.embedding.source is not m or self.projection.target is not m:
            raise ConsistencyError("witness maps do not start and end at the module")
        free = self.embedding.target
        if free.k != self.rank or len(free.span) > 1:
            raise ConsistencyError("witness middle term is not R^rank")
        if not self.embedding.is_injective():
            raise ConsistencyError("witness embedding is not injective")
        if not self.projection.is_surjective():
            raise ConsistencyError("witness projection is not surjective")
        if not _exactness(self.embedding, self.projection)[0]:
            raise ConsistencyError("witness sequence is not exact in the middle")


@dataclass(frozen=True)
class SgpObstruction:
    #: one of "cardinality", "no_embedding_with_self_cokernel", "ext_nonzero"
    kind: str
    detail: str


@dataclass(frozen=True)
class SgpVerdict:
    """A decision and its evidence: over a local ring a positive verdict holds
    its witness, the periodic map f and f's report, which gives ``ext``."""

    decision: bool
    module: Module
    witness: SgpWitness | None = None
    obstruction: SgpObstruction | None = None
    ext: ExtGroup | None = None
    components: tuple | None = None
    periodic: ModuleHom | None = None
    resolution: CompleteResolutionReport | None = None


def witness_rank(ring_order: int, square: int) -> int:
    """The least n with |R|^n >= |M|^2 (``square``): the only rank an SGP
    witness 0 -> M -> R^n -> M -> 0 can have, as it forces |R|^n = |M|^2."""
    rank, power = 0, 1
    while power < square:
        power *= ring_order
        rank += 1
    return rank


def find_sgp_witness(m: Module):
    """First (lexicographic) embedding M -> R^n with cokernel isomorphic to M.

    Returns an :class:`SgpWitness` or an :class:`SgpObstruction` naming why
    the search cannot succeed (no integer n with |R|^n = |M|^2) or that it
    was exhausted.
    """
    ring = m.ring
    if not is_local(ring):
        raise NonLocalRingError(
            "witness search runs over local rings; decompose over a product first"
        )
    square = m.cardinality**2
    rank = witness_rank(ring.order, square)
    if ring.order**rank != square:
        return SgpObstruction(
            "cardinality",
            f"|M|^2 = {square} is not a power of |R| = {ring.order}",
        )
    tried = set()  # equal images give one cokernel, so each image is tried once
    for h in iter_homs(m, free_module(ring, rank), injective=True):
        image = h.image_mask().tobytes()
        if image in tried:
            continue
        tried.add(image)
        coker, proj = cokernel(h)
        found, iso = is_isomorphic(coker, m)
        if found:
            return SgpWitness(m, rank, h, compose(iso, proj))
    return SgpObstruction(
        "no_embedding_with_self_cokernel",
        f"no injective map into R^{rank} has cokernel isomorphic to the module",
    )


def _split_witness(m: Module) -> SgpWitness:
    """0 -> M -> R^g + R^g -> M -> 0 for a projective M, which its minimal
    cover R^g -> M maps onto bijectively: M goes into the first summand
    through the cover's inverse, and the second summand onto M through the
    cover.  R^2g's positions are raw codes, first coordinate most significant."""
    cover = free_cover(m)
    g, size = cover.source.k, cover.source.cardinality
    inclusion = cover.table.argsort()[m._unit_positions()] * size
    free = free_module(m.ring, 2 * g)
    projection = np.concatenate([np.zeros(g, dtype=np.intp), cover.positions])
    return SgpWitness(
        m, 2 * g, ModuleHom._at(m, free, inclusion), ModuleHom._at(free, m, projection)
    )


@kept("sgp")
def is_strongly_gorenstein_projective(m: Module) -> SgpVerdict:
    """Witness search, then Ext^1(M, R) = 0 read off the witness's dual
    periodic complex; componentwise over products.  A projective module
    whose search a guard stops takes the split witness instead.  The
    verdict is kept on the module; a search stopped by a guard keeps nothing."""
    if (parts := _per_factor(is_strongly_gorenstein_projective, m)) is not None:
        failed = next((v.obstruction for v in parts if not v.decision), None)
        return SgpVerdict(failed is None, m, obstruction=failed, components=parts)
    try:
        outcome = find_sgp_witness(m)
    except GuardExceeded:  # a projective module has a witness by construction
        if not is_projective(m):
            raise
        outcome = _split_witness(m)
    if isinstance(outcome, SgpObstruction):
        return SgpVerdict(False, m, obstruction=outcome)
    periodic = strongly_complete_resolution(outcome)
    report = check_complete_resolution(periodic)
    kernel_order, image_order = report.dual_kernel_order, report.dual_image_order
    ext = ExtGroup(kernel_order // image_order, kernel_order, image_order)
    if ext.is_zero:
        return SgpVerdict(True, m, outcome, ext=ext, periodic=periodic, resolution=report)
    obstruction = SgpObstruction("ext_nonzero", f"Ext^1(M, R) has order {ext.order}")
    return SgpVerdict(False, m, obstruction=obstruction, ext=ext)


# ---------------------------------------------------------------------------
# periodic complexes


def strongly_complete_resolution(w: SgpWitness) -> ModuleHom:
    """The periodic map f = embedding . projection of a witness, whose
    complex ... -> R^n -f-> R^n -f-> ... has M = image(f).

    The witness was checked when it was made, and the rest follows: the
    embedding is injective, so kernel(f) = kernel(projection) =
    image(embedding); the projection is surjective, so image(f) =
    image(embedding).  So f is exact and the embedding maps M onto image(f).
    """
    return compose(w.embedding, w.projection)


@dataclass(frozen=True)
class CompleteResolutionReport:
    forward_exact: bool
    dual_exact: bool
    image_order: int
    kernel_order: int
    dual_image_order: int
    dual_kernel_order: int

    @property
    def passed(self) -> bool:
        return self.forward_exact and self.dual_exact


def dual_hom(h: ModuleHom) -> ModuleHom:
    """Transpose action on Hom(R^n, R) identified with R^n."""
    free = h.source
    if free is not h.target or len(free.span) > 1:
        raise ValidationError("dualization expects an endomorphism of a free module")
    return ModuleHom._at(free, free, free._locate(free._rows(h.positions).T))


def check_complete_resolution(hom: ModuleHom) -> CompleteResolutionReport:
    """Verify image = kernel for a periodic map and for its Hom(-, R) dual.

    Failures are reported, not raised, so degenerate maps can be inspected.
    """
    if hom.source is not hom.target:
        raise ValidationError("periodic check expects an endomorphism")
    dual = dual_hom(hom)
    exact, im, ker = _exactness(hom, hom)
    dual_exact, dual_im, dual_ker = _exactness(dual, dual)
    return CompleteResolutionReport(
        forward_exact=exact,
        dual_exact=dual_exact,
        image_order=im,
        kernel_order=ker,
        dual_image_order=dual_im,
        dual_kernel_order=dual_ker,
    )
