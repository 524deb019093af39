"""Finitely presented modules over a finite ring.

A module is R^k modulo the span of the columns of a relation matrix.  A raw
vector x in R^k is a tuple of *element indices* into ``ring.elements``; it is
stored as the mixed-radix integer code sum_i x_i * n^(k-1-i), with n = |R|
and the first coordinate most significant, so code order is tuple order.
Every coset is carried by its least code, i.e. its lexicographically least
tuple, and the module's elements are these representatives in ascending
code order: code order is the canonical order of module elements.
``Module.rep`` maps each raw code to the position of its coset, so addition
and scalar multiplication are table lookups: apply the ring table to each
coordinate, then look the resulting code up in ``rep``.  ``Presentation``
holds element values, the public-facing form.

Everything here is immutable after construction and deterministic: greedy
generator searches pick the least candidate in canonical order, hom sets are
enumerated lexicographically by generator-image tuples.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    ConsistencyError,
    GuardExceeded,
    NonLocalRingError,
    PreconditionError,
    RingMismatchError,
    ValidationError,
)
from .ideals import (
    Ideal,
    IdempotentDecomposition,
    idempotent_decomposition,
    is_local,
    quasi_frobenius_certificate,
    unique_maximal_ideal,
)
from .rings import Ring

# entries per temporary array in the vectorised loops (int64: 256 KiB)
_CHUNK = 1 << 15


@dataclass(frozen=True)
class Presentation:
    """k generators and a relation matrix, stored as columns of element values."""

    ring: Ring
    generators: int
    relations: tuple

    def __post_init__(self):
        if self.generators < 0:
            raise ValidationError("generator count must be >= 0")
        for col in self.relations:
            if len(col) != self.generators:
                raise ValidationError("relation column length must equal generator count")
            for v in col:
                if v not in self.ring.index:
                    raise ValidationError(f"{v!r} is not an element of the ring")


def _span_rows(add, mul, zero: int, columns, weights, raw: int) -> np.ndarray:
    """The R-span of ``columns`` in R^k as index rows, sorted by code.

    ``add`` and ``mul`` are the ring's index tables, ``zero`` the index of 0.
    """
    n, k = len(add), len(weights)
    member = np.zeros(raw, dtype=bool)
    rows = np.full((1, k), zero, dtype=np.intp)
    member[rows @ weights] = True
    for col in columns:
        code = 0
        for c in col:
            code = code * n + c
        if member[code]:
            continue  # R * col already lies in the span
        rows = add[rows[:, None, :], mul[:, col][None, :, :]].reshape(-1, k)
        member[rows @ weights] = True
        rows = member.nonzero()[0][:, None] // weights % n
    return rows


def _label_cosets(add, span: np.ndarray, weights, raw: int):
    """(rep, codes): the coset position of every raw code, and each coset's
    least code in ascending order.

    The loop runs over the smaller of the span and the quotient, whose sizes
    multiply to |R|^k.
    """
    n, k = len(add), span.shape[1]
    if len(span) ** 2 <= raw:
        # label[x] = least code of x + s over the span, a few span rows at once
        label = np.arange(raw)
        shifted = add[:, span] * weights  # [x_i, s, i] -> w_i * (x_i + s_i)
        step = max(1, _CHUNK // raw)
        for lo in range(0, len(span), step):
            part = shifted[:, lo : lo + step]
            # outer sum over the coordinates: acc[s, x] = code of x + s
            acc = np.zeros((part.shape[1], 1), dtype=np.intp)
            for i in range(k):
                acc = (acc[:, :, None] + part[:, :, i].T[:, None, :]).reshape(
                    len(acc), -1
                )
            np.minimum(label, acc.min(axis=0), out=label)
        codes = (label == np.arange(raw)).nonzero()[0]
        pos = np.empty(raw, dtype=np.intp)
        pos[codes] = np.arange(len(codes))
        return pos[label], codes
    # the least unlabelled code is the least element of its coset
    rep = np.full(raw, -1, dtype=np.intp)
    columns = np.ascontiguousarray(span.T)
    wl = weights.tolist()
    codes = []
    code = 0
    while True:
        digits = [code // w % n for w in wl]
        rep[weights @ add[np.array(digits)[:, None], columns]] = len(codes)
        codes.append(code)
        step = int(rep[code:].argmin())
        if rep[code + step] >= 0:
            return rep, np.array(codes, dtype=np.intp)
        code += step


class Module:
    """Enumerated cosets of R^k modulo the relation-column span."""

    def __init__(self, presentation: Presentation):
        ring = presentation.ring
        k = presentation.generators
        n = ring.order
        raw = n**k
        if raw > ring.guards.max_module_raw:
            raise GuardExceeded(
                f"module over {ring.describe()} with {k} generators needs "
                f"{raw} raw tuples (guard {ring.guards.max_module_raw})"
            )
        self.ring = ring
        self.presentation = presentation
        self.k = k
        self._n = n
        self._addl, self._mull, self._negl = ring.tables_list()
        self.relation_columns = [
            tuple(ring.index[v] for v in col) for col in presentation.relations
        ]
        self._weights = np.array([n ** (k - 1 - i) for i in range(k)], dtype=np.intp)
        add, mul, _ = ring.tables()
        zero = ring.index[ring.zero]
        span = _span_rows(add, mul, zero, self.relation_columns, self._weights, raw)
        self.span = span @ self._weights
        self.rep, codes = _label_cosets(add, span, self._weights, raw)
        self._rep = memoryview(self.rep)
        self._digits = codes[:, None] // self._weights % n
        self.elements = list(map(tuple, self._digits.tolist()))
        self.index = dict(zip(self.elements, range(len(self.elements))))
        self.zero = (zero,) * k
        self._cache: dict = {}
        if len(self.elements) * len(self.span) != raw:
            raise ConsistencyError("coset count times span size misses |R|^k")

    # -- structure -----------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return (
            f"<module over {self.ring.describe()} on {self.k} generators, "
            f"{self.cardinality} elements>"
        )

    def _locate(self, rows) -> np.ndarray:
        """Element positions of the cosets of raw index rows (last axis k)."""
        return self.rep[rows @ self._weights]

    def add(self, a, b):
        addl, n = self._addl, self._n
        code = 0
        for x, y in zip(a, b):
            code = code * n + addl[x][y]
        return self.elements[self._rep[code]]

    def neg(self, a):
        negl, n = self._negl, self._n
        code = 0
        for x in a:
            code = code * n + negl[x]
        return self.elements[self._rep[code]]

    def scal(self, r_idx: int, a):
        row, n = self._mull[r_idx], self._n
        code = 0
        for x in a:
            code = code * n + row[x]
        return self.elements[self._rep[code]]

    def generator_images(self) -> list:
        """Classes of the standard basis vectors of R^k."""
        units = np.full((self.k, self.k), self.ring.index[self.ring.zero])
        np.fill_diagonal(units, self.ring.index[self.ring.one])
        return [self.elements[p] for p in self._locate(units).tolist()]

    def annihilator_index_set(self) -> frozenset:
        """Ring elements (as indices) killing the whole module."""
        if "ann" not in self._cache:
            self._cache["ann"] = frozenset(
                r
                for r in range(self.ring.order)
                if all(self.scal(r, x) == self.zero for x in self.elements)
            )
        return self._cache["ann"]

    def element_annihilator_is_zero(self, el) -> bool:
        """True iff no nonzero ring element kills ``el``."""
        zero_idx = self.ring.index[self.ring.zero]
        return all(
            self.scal(r, el) != self.zero
            for r in range(self.ring.order)
            if r != zero_idx
        )


def free_module(ring: Ring, rank: int) -> Module:
    return Module(Presentation(ring, rank, ()))


def regular_module(ring: Ring) -> Module:
    """R as a module over itself (free of rank 1); cached on the ring."""
    if "regular_module" not in ring._cache:
        ring._cache["regular_module"] = free_module(ring, 1)
    return ring._cache["regular_module"]


def quotient_by_ideal(ring: Ring, ideal: Ideal) -> Module:
    """R/I, presented on one generator with I's generators as relations."""
    cols = tuple((g,) for g in ideal.generators)
    return Module(Presentation(ring, 1, cols))


def ideal_as_module(ring: Ring, ideal: Ideal):
    """The ideal as a submodule of R; returns (module, embedding)."""
    free1 = regular_module(ring)
    subset = [(i,) for i in ideal.indices]
    return submodule(free1, subset)


def direct_sum(m1: Module, m2: Module) -> Module:
    if m1.ring is not m2.ring:
        raise RingMismatchError("direct sum needs modules over the same ring")
    ring = m1.ring
    z = ring.zero
    cols = [tuple(col) + (z,) * m2.k for col in m1.presentation.relations]
    cols += [(z,) * m1.k + tuple(col) for col in m2.presentation.relations]
    return Module(Presentation(ring, m1.k + m2.k, tuple(cols)))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class ModuleHom:
    """A hom determined by generator images; well-definedness checked on build."""

    source: Module
    target: Module
    images: tuple

    def __post_init__(self):
        if self.source.ring is not self.target.ring:
            raise RingMismatchError("hom endpoints live over different rings")
        if len(self.images) != self.source.k:
            raise ValidationError("one image per source generator required")
        for im in self.images:
            if im not in self.target.index:
                raise ValidationError("hom image is not a target element")
        t = self.target
        for col in self.source.relation_columns:
            acc = t.zero
            for coeff, im in zip(col, self.images):
                acc = t.add(acc, t.scal(coeff, im))
            if acc != t.zero:
                raise ValidationError("images do not satisfy the source relations")

    def apply(self, el):
        t = self.target
        zero_idx = self.source.ring.index[self.source.ring.zero]
        acc = t.zero
        for coeff, im in zip(el, self.images):
            if coeff != zero_idx:
                acc = t.add(acc, t.scal(coeff, im))
        return acc

    def image_elements(self) -> list:
        seen = set()
        out = []
        for el in self.source.elements:
            y = self.apply(el)
            if y not in seen:
                seen.add(y)
                out.append(y)
        out.sort(key=self.target.index.__getitem__)
        return out

    def is_injective(self) -> bool:
        seen = set()
        for el in self.source.elements:
            y = self.apply(el)
            if y in seen:
                return False
            seen.add(y)
        return True

    def is_surjective(self) -> bool:
        return len(self.image_elements()) == self.target.cardinality

    def is_bijective(self) -> bool:
        return (
            self.source.cardinality == self.target.cardinality and self.is_injective()
        )

    def is_zero(self) -> bool:
        return all(im == self.target.zero for im in self.images)


def compose(outer: ModuleHom, inner: ModuleHom) -> ModuleHom:
    if inner.target is not outer.source:
        raise RingMismatchError("homs do not compose: target/source mismatch")
    return ModuleHom(inner.source, outer.target, tuple(outer.apply(im) for im in inner.images))


def identity_hom(m: Module) -> ModuleHom:
    return ModuleHom(m, m, tuple(m.generator_images()))


def zero_hom(m1: Module, m2: Module) -> ModuleHom:
    return ModuleHom(m1, m2, (m2.zero,) * m1.k)


def iter_homs(m1: Module, m2: Module):
    """All homs m1 -> m2 in lexicographic generator-image order."""
    if m1.ring is not m2.ring:
        raise RingMismatchError("hom set needs modules over the same ring")
    guards = m1.ring.guards
    count = m2.cardinality ** m1.k
    if count > guards.max_hom_candidates:
        raise GuardExceeded(
            f"hom enumeration would scan {count} candidates "
            f"(guard {guards.max_hom_candidates})"
        )
    rels = m1.relation_columns
    zero_idx = m1.ring.index[m1.ring.zero]
    for images in itertools.product(m2.elements, repeat=m1.k):
        ok = True
        for col in rels:
            acc = m2.zero
            for coeff, im in zip(col, images):
                if coeff != zero_idx:
                    acc = m2.add(acc, m2.scal(coeff, im))
            if acc != m2.zero:
                ok = False
                break
        if ok:
            yield ModuleHom(m1, m2, images)


def hom_set(m1: Module, m2: Module) -> list:
    return list(iter_homs(m1, m2))


# ---------------------------------------------------------------------------
# submodules, kernels, images, cokernels


def _greedy_submodule_generators(ambient: Module, subset) -> list:
    """Least-element-first generators of a submodule given as an element list."""
    ring = ambient.ring
    target = set(subset)
    span = {ambient.zero}
    gens = []
    for el in subset:
        if len(span) == len(target):
            break
        if el in span:
            continue
        gens.append(el)
        multiples = {ambient.scal(r, el) for r in range(ring.order)}
        span = {ambient.add(a, b) for a in span for b in multiples}
    if span != target:
        raise ConsistencyError("subset is not a submodule")
    return gens


def submodule(ambient: Module, subset, gens=None):
    """Present a submodule (given by its element list) and return (module, embedding).

    Generators default to the greedy canonical choice; relations are found by
    exhaustively evaluating R^k onto the generators.
    """
    ring = ambient.ring
    subset = sorted(set(subset), key=ambient.index.__getitem__)
    if gens is None:
        gens = _greedy_submodule_generators(ambient, subset)
    k = len(gens)
    n = ring.order
    if n**k > ring.guards.max_module_raw:
        raise GuardExceeded(
            f"relation search over {n ** k} tuples exceeds the module guard"
        )
    rel_subset = []
    for a in itertools.product(range(n), repeat=k):
        acc = ambient.zero
        for coeff, g in zip(a, gens):
            acc = ambient.add(acc, ambient.scal(coeff, g))
        if acc == ambient.zero:
            rel_subset.append(a)
    rel_gens = _greedy_free_generators(ring, k, rel_subset)
    cols = tuple(tuple(ring.elements[i] for i in col) for col in rel_gens)
    mod = Module(Presentation(ring, k, cols))
    if mod.cardinality != len(subset):
        raise ConsistencyError("recovered presentation has the wrong cardinality")
    embedding = ModuleHom(mod, ambient, tuple(gens))
    return mod, embedding


def _greedy_free_generators(ring: Ring, k: int, subset) -> list:
    """Greedy generators of a submodule of R^k given as raw index tuples."""
    addl, mull, _ = ring.tables_list()
    zero_idx = ring.index[ring.zero]
    zero = (zero_idx,) * k
    target = set(subset)
    span = {zero}
    gens = []
    for a in sorted(subset):
        if len(span) == len(target):
            break
        if a in span:
            continue
        gens.append(a)
        multiples = {tuple(mull[r][c] for c in a) for r in range(ring.order)}
        span = {
            tuple(addl[s][t] for s, t in zip(u, m)) for u in span for m in multiples
        }
    if span != target:
        raise ConsistencyError("relation subset is not a submodule of R^k")
    return gens


def kernel(h: ModuleHom):
    """Kernel as a presented module plus its embedding into the source."""
    subset = [el for el in h.source.elements if h.apply(el) == h.target.zero]
    return submodule(h.source, subset)


def image(h: ModuleHom):
    """Image as a presented module plus its embedding into the target."""
    return submodule(h.target, h.image_elements())


def cokernel(h: ModuleHom):
    """Cokernel as a presented module plus the projection from the target."""
    t = h.target
    ring = t.ring
    img = h.image_elements()
    img_gens = _greedy_submodule_generators(t, img)
    extra = tuple(tuple(ring.elements[i] for i in g) for g in img_gens)
    pres = Presentation(ring, t.k, tuple(t.presentation.relations) + extra)
    coker = Module(pres)
    proj = ModuleHom(t, coker, tuple(coker.generator_images()))
    return coker, proj


# ---------------------------------------------------------------------------
# structural decisions


def is_isomorphic(m1: Module, m2: Module):
    """(found, witness): brute-force search with invariant pre-filters.

    Filters: cardinality, module annihilator, and (over local rings) minimal
    generator count.  The witness is the first bijective hom in canonical
    order.
    """
    if m1.ring is not m2.ring:
        raise RingMismatchError("isomorphism test needs modules over the same ring")
    if m1.cardinality != m2.cardinality:
        return False, None
    if m1.annihilator_index_set() != m2.annihilator_index_set():
        return False, None
    if is_local(m1.ring):
        if minimal_generators(m1)[0] != minimal_generators(m2)[0]:
            return False, None
    for h in iter_homs(m1, m2):
        if h.is_bijective():
            return True, h
    return False, None


def minimal_generators(m: Module):
    """(count, generator list) over a local ring.

    The count is the dimension of M/mM over the residue field; the list is
    the greedy canonical choice realizing it (least element outside the span
    of the picks so far plus mM).
    """
    if "minimal" in m._cache:
        return m._cache["minimal"]
    ring = m.ring
    if not is_local(ring):
        raise NonLocalRingError(
            "minimal generators are only well-behaved over local rings; decompose first"
        )
    max_ideal = unique_maximal_ideal(ring)
    products = {m.scal(r, x) for r in max_ideal.indices for x in m.elements}
    mm = _additive_closure(m, products)
    span_plus = set(mm)
    gens = []
    while len(span_plus) < m.cardinality:
        x = next(el for el in m.elements if el not in span_plus)
        gens.append(x)
        multiples = {m.scal(r, x) for r in range(ring.order)}
        span_plus = {m.add(a, b) for a in span_plus for b in multiples}
    q = ring.order // max_ideal.order
    if len(mm) * q ** len(gens) != m.cardinality:
        raise ConsistencyError("generator count disagrees with dim M/mM")
    m._cache["minimal"] = (len(gens), gens)
    return m._cache["minimal"]


def _additive_closure(m: Module, seed) -> set:
    closure = {m.zero}
    for p in sorted(seed):
        if p in closure:
            continue
        cyc = [p]
        cur = m.add(p, p)
        while cur != p:
            cyc.append(cur)
            cur = m.add(cur, p)
        closure = {m.add(a, b) for a in closure for b in cyc}
    return closure


def is_projective(m: Module) -> bool:
    """Projective = free over a finite local ring; componentwise over products."""
    dec = idempotent_decomposition(m.ring)
    if not dec.is_trivial:
        return all(is_projective(c) for c in decompose_over_product(m, dec))
    g, gens = minimal_generators(m)
    if m.cardinality != m.ring.order**g:
        return False
    cover = ModuleHom(free_module(m.ring, g), m, tuple(gens))
    return cover.is_bijective()


def decompose_over_product(m: Module, dec: IdempotentDecomposition) -> list:
    """Components e_i M as modules over the local factors; re-sum is verified."""
    ring = m.ring
    if dec.ring is not ring:
        raise PreconditionError("decomposition belongs to a different ring")
    comps = []
    for e_val, fring in zip(dec.idempotents, dec.factor_rings):
        cols = tuple(
            tuple(ring.mul(e_val, v) for v in col) for col in m.presentation.relations
        )
        comps.append(Module(Presentation(fring, m.k, cols)))
    _verify_decomposition(m, dec, comps)
    return comps


def _verify_decomposition(m: Module, dec: IdempotentDecomposition, comps) -> None:
    """Check that x -> (e_i x) is an isomorphism onto the sum of components.

    Bijectivity is verified on every element.  The additive and scalar laws
    are verified exhaustively for modules of at most 64 elements and on a
    fixed-seed sample of pairs above that, mirroring the ring axiom checks.
    """
    ring = m.ring
    add, mul, _ = ring.tables()
    # projections[i][r]: index of e_i * r in the i-th factor ring
    projections = []
    for e_val, fring in zip(dec.idempotents, dec.factor_rings):
        row = mul[ring.index[e_val]].tolist()
        projections.append(np.array([fring.index[ring.elements[j]] for j in row]))
    # phi[i][x]: position in comps[i] of e_i x, for every element x of m
    phi = [c._locate(p[m._digits]) for c, p in zip(comps, projections)]
    flat = np.zeros(m.cardinality, dtype=np.intp)
    for c, ph in zip(comps, phi):
        flat = flat * c.cardinality + ph
    if (
        prod(c.cardinality for c in comps) != m.cardinality
        or len(np.unique(flat)) != m.cardinality
    ):
        raise ConsistencyError("module does not re-sum to its product decomposition")

    factor_tables = [c.ring.tables() for c in comps]

    def laws_hold(xs, ys, rs, zs) -> bool:
        # phi(x + y) = phi(x) + phi(y) and phi(r z) = (e_i r) phi(z), per factor
        sums = m._locate(add[m._digits[xs], m._digits[ys]])
        prods = m._locate(mul[rs[:, None], m._digits[zs]])
        for c, p, ph, (fadd, fmul, _) in zip(comps, projections, phi, factor_tables):
            want_sums = c._locate(fadd[c._digits[ph[xs]], c._digits[ph[ys]]])
            want_prods = c._locate(fmul[p[rs][:, None], c._digits[ph[zs]]])
            if (ph[sums] != want_sums).any() or (ph[prods] != want_prods).any():
                return False
        return True

    size = m.cardinality
    if size <= 64:
        # every pair (x, y) and every (r, z), numbered and taken a chunk at a time
        n_pairs, n_scaled = size * size, ring.order * size
        step = max(1, _CHUNK // max(m.k, 1))

        def chunk_holds(lo) -> bool:
            pairs = np.arange(lo, min(lo + step, n_pairs))
            scaled = np.arange(lo, min(lo + step, n_scaled))
            return laws_hold(pairs // size, pairs % size, scaled // size, scaled % size)

        ok = all(chunk_holds(lo) for lo in range(0, max(n_pairs, n_scaled), step))
    else:
        # the fixed-seed draws, in the order x, y, r, z for each sample
        rnd = random.Random(ring.guards.axiom_seed)
        draws = [
            (
                rnd.randrange(size),
                rnd.randrange(size),
                rnd.randrange(ring.order),
                rnd.randrange(size),
            )
            for _ in range(ring.guards.axiom_sample_count)
        ]
        ok = laws_hold(*np.array(draws, dtype=np.intp).reshape(-1, 4).T)
    if not ok:
        raise ConsistencyError("componentwise map does not preserve the module laws")


def free_summand_split(m: Module):
    """Maximal split M = R^rank + N with every element of N annihilated by
    something nonzero.  Requires a local quasi-Frobenius ring.

    An element with zero annihilator spans a free cyclic submodule, which is
    injective over a quasi-Frobenius ring and therefore splits off; the
    splitting hom is found by explicit search over Hom(M, R).
    """
    ring = m.ring
    if not is_local(ring):
        raise NonLocalRingError("free-summand splitting requires a local ring")
    if quasi_frobenius_certificate(ring) is not None:
        raise PreconditionError(
            "free-summand splitting requires a quasi-Frobenius ring"
        )
    one_idx = ring.index[ring.one]
    rank = 0
    current = m
    while True:
        pivot = None
        for el in current.elements:
            if el != current.zero and current.element_annihilator_is_zero(el):
                pivot = el
                break
        if pivot is None:
            break
        r1 = regular_module(ring)
        splitting = None
        for cand in iter_homs(current, r1):
            if cand.apply(pivot) == (one_idx,):
                splitting = cand
                break
        if splitting is None:
            raise ConsistencyError(
                "free cyclic submodule failed to split over a quasi-Frobenius ring"
            )
        complement, _ = kernel(splitting)
        if complement.cardinality * ring.order != current.cardinality:
            raise ConsistencyError("split does not multiply out to the module size")
        current = complement
        rank += 1
    return rank, current
