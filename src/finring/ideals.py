"""Ideal-theoretic data: lattices, annihilators, radicals, idempotent splitting.

An ideal is a Python-int bitset over element positions (bit p set when
position p belongs to it), ``Ideal.bits``; its sorted positions,
``Ideal.indices``, are derived on first use.  Over a ring with no parts to
read, the bitsets come from the ring's cached operation tables.  Every
principal ideal xR, and the annihilator of every element, comes from one
pass over the multiplication table, on first use.  I + J is I translated
over coset representatives of I inside J, |I + J| table reads in all.  The
lattice is the closure of the zero ideal under adding principal ideals,
which is complete for finite rings because every ideal is a finite sum of
principal ideals.  Canonical generators are greedy: adjoin the least
position not yet generated, the rule of ``modules._greedy_span``.  An
``Ideal`` carries its ring, so ``annihilator(ideal)`` takes nothing else.

A product of rings R_0 x ... x R_(k-1), whose position is a digit string
of its parts' positions, reads the same structure off its parts by three
theorems.  Its ideals are exactly the products I_0 x ... x I_(k-1) of the
parts' ideals (multiply by the idempotent of each digit), so the lattice
is formed from the parts' lattices, and the greedy generators have a
closed form (:func:`_product_lattice`).  Ann(I_0 x ... x I_(k-1)) is the
product of the Ann(I_t), a few dict lookups.  Its primitive idempotents
are those of its parts, each in its own digit, and the factor at one of
them is order-isomorphic to the part's factor, whose tables, bitsets and
lattice it shares (:func:`_split_product`).  Its units are the tuples of
its parts' units (``rings.units_mask``), and the locality test sums its
nonunits through its ops, so classifying or splitting a product builds no
table of its own, and only :func:`ideal_generated` builds the bitsets of
its principal ideals.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .errors import ConsistencyError, GuardExceeded, NonLocalRingError
from .rings import _CHUNK, ProductRing, Ring, kept, units_mask


@dataclass(frozen=True)
class Ideal:
    """An ideal, carried as a bitset over element positions plus a generator witness.

    ``bits`` has bit p set when position p belongs to the ideal, and
    ``indices``, derived from it on first use, is the full element set
    (sorted, canonical order).  ``generator_indices`` is a generating set:
    the elements are exactly the closure of the generators under addition
    and external multiplication.
    """

    ring: Ring
    bits: int
    generator_indices: tuple

    @cached_property
    def indices(self) -> tuple:
        return tuple(_positions(self.bits, self.ring.order).tolist())

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    @property
    def elements(self) -> frozenset:
        els = self.ring.elements
        return frozenset(els[i] for i in self.indices)

    @property
    def generators(self) -> tuple:
        els = self.ring.elements
        return tuple(els[i] for i in self.generator_indices)

    def sorted_elements(self) -> list:
        els = self.ring.elements
        return [els[i] for i in self.indices]

    @property
    def is_zero(self) -> bool:
        return self.order == 1

    @property
    def is_proper(self) -> bool:
        return self.order < self.ring.order

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"<ideal ({gens}) of order {self.order}>"


def _low(bits: int) -> int:
    return (bits & -bits).bit_length() - 1  # the least set position


def _positions(bits: int, n: int) -> np.ndarray:
    """The set positions of a bitset over n positions, ascending."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


@functools.cmp_to_key
def _lattice_order(a: Ideal, b: Ideal) -> int:
    """By cardinality, then by sorted positions.  Of two sets of one size,
    the lesser holds the least position in which they differ: below it
    their sorted lists agree, and there one list has it and the other a
    larger one."""
    if a.order != b.order:
        return a.order - b.order
    diff = a.bits ^ b.bits
    return 0 if not diff else -1 if a.bits & diff & -diff else 1


class _Bitsets:
    """A ring's ideals as bitsets over element positions, with memos.  The
    bits of every principal ideal xR and every Ann(x) are read off the
    multiplication table on first use, in one pass each."""

    def __init__(self, ring: Ring):
        self.ring, self.nbytes = ring, (ring.order + 7) // 8
        self.zero = 1 << ring.index[ring.zero]
        self._members, self._sums = {}, {}  # queries recur across a ring's checks

    @cached_property
    def principal(self) -> list:  # [x]: the bits of xR
        _, mul, _ = self.ring.tables()
        rows = np.zeros(mul.shape, dtype=bool)
        rows[np.arange(len(mul))[:, None], mul] = True
        return self._ints(rows)

    @cached_property
    def killers(self) -> list:  # [x]: the bits of Ann(x)
        _, mul, _ = self.ring.tables()
        return self._ints(mul.T == self.ring.index[self.ring.zero])

    def _ints(self, masks) -> list:
        packed = np.packbits(masks, axis=-1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def bits(self, positions) -> int:
        mask = np.zeros(8 * self.nbytes, dtype=bool)
        mask[positions] = True
        return self._ints(mask[None])[0]

    def positions(self, bits: int) -> np.ndarray:
        if bits not in self._members:
            self._members[bits] = _positions(bits, self.ring.order)
        return self._members[bits]

    def plus(self, a: int, b: int) -> int:
        """The ideal sum a + b: cosets of the larger one over the other's elements."""
        if b & ~a == 0 or a & ~b == 0:
            return a | b
        if a.bit_count() < b.bit_count():
            a, b = b, a
        if (a, b) not in self._sums:
            add = self.ring.tables()[0]
            members, total, rest = self.positions(a), a, b & ~a
            while rest:
                total |= self.bits(add[members, _low(rest)])
                rest &= ~total
            self._sums[a, b] = total
        return self._sums[a, b]

    def generators(self, target: int) -> tuple:
        """Canonical generators: repeatedly adjoin the least position not yet generated."""
        span, gens = self.zero, []
        while target & ~span:
            gens.append(_low(target & ~span))
            span = self.plus(span, self.principal[gens[-1]])
        if span != target:
            raise ConsistencyError("generator search failed to span the ideal")
        return tuple(gens)


@kept("ideal_bitsets")
def _bitsets(ring: Ring) -> _Bitsets:
    """A ring's bitsets; a ring that mirrors another (a product's factor)
    shares its mirror's, as their tables are equal."""
    mirror = getattr(ring, "mirror", None)
    return _Bitsets(ring) if mirror is None else _bitsets(mirror)


def _ideal_of(ring: Ring, bits: int) -> Ideal:
    """The ideal with these bits: the lattice's own object when the lattice
    is cached, else a new one with greedy generators."""
    known = ring._cache.get("ideal_index", {}).get(bits)
    if known is not None:
        return known
    return Ideal(ring, bits, tuple(int(g) for g in _bitsets(ring).generators(bits)))


def ideal_generated(ring: Ring, gens) -> Ideal:
    """Smallest ideal containing ``gens`` (element values)."""
    gen_idx = tuple(ring._position(g) for g in gens)
    return Ideal(ring, _span_bits(ring, gen_idx), gen_idx)


def _span_bits(ring: Ring, positions) -> int:
    """The bits of the ideal generated by the elements at ``positions``."""
    b = _bitsets(ring)
    span = b.zero
    for g in positions:
        span = b.plus(span, b.principal[g])
    return span


def _product_lattice(ring: ProductRing) -> list:
    """The ideals I_0 x ... x I_(k-1), from the parts' lattices (module docstring).

    Their canonical generators are the parts' in reverse digit order, g of
    I_t at position g * stride_t (the digit weight ``ring._weights[t]``),
    which is what the greedy rule picks.  While digits t+1.. are spanned in
    full and digit t by J, a proper part of I_t, the span is
    0 x ... x J x I_(t+1) x ...; a position with a nonzero digit
    before t exceeds every position whose digits before t are zero, so the
    least position outside the span is g * stride_t for the least g of I_t
    outside J, the part's own greedy pick, and adjoining it adds gR_t in
    digit t.  The components of each ideal are kept, so an annihilator is
    the product of the parts' (:func:`annihilator`).
    """
    strides = ring._weights
    components, by_components, ideals = {}, {}, []
    for combo in itertools.product(*map(enumerate_ideals, ring.factors)):
        bits = combo[-1].bits
        for part, stride in zip(combo[-2::-1], strides[-2::-1]):
            bits = functools.reduce(operator.or_, (bits << d * stride for d in part.indices))
        gens = [g * s for part, s in zip(combo[::-1], strides[::-1]) for g in part.generator_indices]
        ideals.append(Ideal(ring, bits, tuple(gens)))
        components[bits] = combo
        by_components[tuple(part.bits for part in combo)] = ideals[-1]
    ring._cache["ideal_components"] = components
    ring._cache["ideal_by_components"] = by_components
    return ideals


@kept("ideal_lattice")
def enumerate_ideals(ring: Ring) -> list:
    """The complete ideal lattice, sorted by cardinality then element list.

    A product of rings takes the products of its parts' ideals, and a factor
    ring that mirrors another ring (:class:`IdempotentFactorRing`) that
    ring's ideals.  Any other ring takes the closure of the zero ideal under
    adding principal ideals.
    """
    if ring.order > ring.guards.max_lattice_order:
        raise GuardExceeded(
            f"ideal enumeration over a ring of order {ring.order} exceeds the "
            f"lattice guard ({ring.guards.max_lattice_order})",
            "max_lattice_order", ring.order, ring.guards.max_lattice_order,
        )
    mirror = getattr(ring, "mirror", None)
    if mirror is not None:
        ideals = [Ideal(ring, i.bits, i.generator_indices) for i in enumerate_ideals(mirror)]
    elif isinstance(ring, ProductRing):
        ideals = _product_lattice(ring)
    else:
        b = _bitsets(ring)
        principal, found = set(b.principal), [b.zero]
        for ideal in found:  # grows while it is scanned
            found += {b.plus(ideal, p) for p in principal}.difference(found)
        ideals = [Ideal(ring, a, b.generators(a)) for a in found]
    ideals.sort(key=_lattice_order)
    ring._cache["ideal_index"] = {ideal.bits: ideal for ideal in ideals}
    return ideals


def annihilator(ideal: Ideal) -> Ideal:
    """Ann(I) = {x : x*g = 0 for every g in I}; generators suffice.  In a
    product of rings with its lattice built, Ann(I_0 x ... x I_(k-1)) is
    the product of the Ann(I_t)."""
    ring = ideal.ring
    components = ring._cache.get("ideal_components", {}).get(ideal.bits)
    if components is not None:
        anns = (annihilator(c).bits for c in components)
        return ring._cache["ideal_by_components"][tuple(anns)]
    bits = -1
    for g in ideal.generator_indices:
        bits &= _bitsets(ring).killers[g]
    return _ideal_of(ring, bits & ((1 << ring.order) - 1))


@kept("maximal_ideals")
def maximal_ideals(ring: Ring) -> list:
    proper = [i for i in enumerate_ideals(ring) if i.is_proper]
    return [i for i in proper if not any(i is not j and i.bits & ~j.bits == 0 for j in proper)]


@kept("is_local")
def is_local(ring: Ring) -> bool:
    """True iff the ring has a unique maximal ideal.

    Runs both the lattice route and the nonunits-closed-under-addition route
    and insists they agree.
    """
    via_lattice = len(maximal_ideals(ring)) == 1
    units = units_mask(ring)
    nonunits = np.flatnonzero(~units)
    # the sums of nonunits a block of rows at a time, through the table if
    # built, else the ops (a product builds none to be classified), stopping
    # at a unit
    step = max(1, _CHUNK // len(nonunits))
    via_nonunits = not any(
        units[ring._sum(nonunits[s : s + step, None], nonunits)].any()
        for s in range(0, len(nonunits), step)
    )
    if via_lattice != via_nonunits:
        raise ConsistencyError(
            f"locality tests disagree on {ring.describe()}: "
            f"lattice={via_lattice}, nonunits={via_nonunits}"
        )
    return via_lattice


def unique_maximal_ideal(ring: Ring) -> Ideal:
    if not is_local(ring):
        raise NonLocalRingError(f"{ring.describe()} is not local")
    return maximal_ideals(ring)[0]


def jacobson_radical(ring: Ring) -> Ideal:
    """Intersection of all maximal ideals."""
    common = -1
    for ideal in maximal_ideals(ring):
        common &= ideal.bits
    return _ideal_of(ring, common)


# ---------------------------------------------------------------------------
# idempotent decomposition into local factors


class IdempotentFactorRing(Ring):
    """The factor eR of a ring at an idempotent e, with unit e: a view of
    three operation tables set when it is made, with no arithmetic of its own.

    The carrier is a subset of the parent's elements; the embedding back
    into the parent is the identity on values.  A position is an index into
    the sorted parent positions of the carrier (``_pos`` maps a parent
    position to it, -1 off the carrier).  The tables are a ``mirror``'s, a
    ring with the same tables on positions, as a product's factor has its
    part's factor's (this ring then also shares its ideal bitsets and copies
    its lattice), or else the parent's ``+``, ``*`` and ``-`` on the
    carrier, which must be closed under them.
    """

    def __init__(self, parent: Ring, e, mirror: Ring | None = None):
        super().__init__(parent.guards)
        self.parent, self.idempotent, self.mirror = parent, e, mirror
        sub = np.flatnonzero(np.bincount(parent._prod(parent._position(e), np.arange(parent.order))))
        self._pos = np.full(parent.order, -1, dtype=np.int64)
        self._pos[sub] = np.arange(len(sub))
        self.elements = [parent.elements[p] for p in sub.tolist()]
        self.zero = parent.zero
        self.one = e
        if mirror is not None:
            if mirror.order != len(sub):
                raise ConsistencyError("factor ring and its mirror differ in order")
            self._tables = mirror.tables()
            return
        grid = sub[:, None], sub
        ops = parent._sum(*grid), parent._prod(*grid), parent._minus(sub)
        tables = [self._pos[t] for t in ops]
        if any(np.any(t < 0) for t in tables):
            raise ConsistencyError("factor ring carrier is not closed under operations")
        self._tables = tuple(t.astype(np.int32) for t in tables)

    def _describe(self):
        return f"factor of {self.parent.describe()} at idempotent {self.idempotent!r}"


@dataclass(frozen=True)
class IdempotentDecomposition:
    """Primitive orthogonal idempotents summing to 1, with their factor rings.

    Each factor ring e_i R keeps the parent's element values, so it sits
    inside the parent ring by the identity inclusion.  ``projections[i]``, a
    read-only array, is the projection r -> e_i r on positions: entry r is the
    position in ``factor_rings[i]`` of e_i * r (the identity for a local ring).
    Together they are a ring isomorphism onto the product of the factors,
    which the checks of :func:`idempotent_decomposition` imply.
    """

    ring: Ring
    idempotents: tuple
    factor_rings: tuple
    projections: tuple = field(repr=False, compare=False)

    @property
    def is_trivial(self) -> bool:
        return len(self.idempotents) == 1


def _split_by_tables(ring: Ring):
    """(atoms, factors, projections) read off the multiplication table."""
    _, mul_np, _ = ring.tables()
    zero = ring.index[ring.zero]
    ar = np.arange(ring.order)
    nonzero = ar[(mul_np[ar, ar] == ar) & (ar != zero)]
    # f lies below e when f*e == f; the atoms are the minimal nonzero idempotents
    below = mul_np[np.ix_(nonzero, nonzero)] == nonzero[:, None]
    np.fill_diagonal(below, False)
    atoms = nonzero[~below.any(axis=0)].tolist()
    if len(atoms) == 1:  # a local ring is its own factor, lattice and all
        return atoms, (ring,), (ar,)
    factors = tuple(IdempotentFactorRing(ring, ring.elements[e]) for e in atoms)
    return atoms, factors, tuple(f._pos[mul_np[e]] for f, e in zip(factors, atoms))


def _split_product(ring: ProductRing):
    """(atoms, factors, projections) from the parts' splits.

    The primitive idempotents of R_0 x ... x R_(k-1) are those of each part,
    placed in its digit with zeros elsewhere, taken in position order.  At
    an atom e of part t, eR is 0 x ... x eR_t x ... x 0, whose positions,
    digit t times stride_t, are in the order of eR_t's: the factor mirrors
    the part's factor, and projects r through the part's projection of r's
    digit t.
    """
    ar = np.arange(ring.order)
    pieces = sorted(
        (part.index[e] * stride, part, stride, i)
        for part, stride in zip(ring.factors, ring._weights)
        for i, e in enumerate(idempotent_decomposition(part).idempotents)
    )
    atoms, factors, projections = [], [], []
    for atom, part, stride, i in pieces:
        split = idempotent_decomposition(part)
        atoms.append(atom)
        factors.append(IdempotentFactorRing(ring, ring.elements[atom], split.factor_rings[i]))
        projections.append(split.projections[i][ar // stride % part.order])
    return atoms, tuple(factors), tuple(projections)


@kept("idempotent_decomposition")
def idempotent_decomposition(ring: Ring) -> IdempotentDecomposition:
    """Split the ring into local factors along its primitive idempotents: a
    product of rings from its parts' splits, any other ring from its table.

    Checked: the atoms are nonzero, pairwise orthogonal and sum to 1, the
    factor orders multiply to |R|, and each factor is local.  With the ring
    laws, these make x -> (e_i x) a ring isomorphism, so it is not checked
    on the tables: e_i (x + y) = e_i x + e_i y, e_i (xy) = (e_i x)(e_i y)
    since e_i^2 = e_i, and x = sum of the e_i x makes it injective, hence
    bijective by the orders.
    """
    split = _split_product if isinstance(ring, ProductRing) else _split_by_tables
    atoms, factors, projections = split(ring)
    zero = ring.index[ring.zero]
    els = ring.elements
    # laws: nonzero, pairwise orthogonal, summing to 1
    if zero in atoms:
        raise ConsistencyError("a primitive idempotent is zero")
    if functools.reduce(ring._sum, atoms, zero) != ring._one_pos:
        raise ConsistencyError("primitive idempotents do not sum to 1")
    for a, b in itertools.combinations(atoms, 2):
        if ring._prod(a, b) != zero:
            raise ConsistencyError("primitive idempotents are not orthogonal")
    if prod(f.order for f in factors) != ring.order:
        raise ConsistencyError("factor cardinalities do not multiply to the ring order")
    for f in factors:
        if not is_local(f):
            raise ConsistencyError(f"factor {f.describe()} is not local")
    for p in projections:
        p.setflags(write=False)
    return IdempotentDecomposition(ring, tuple(els[e] for e in atoms), factors, projections)


# ---------------------------------------------------------------------------
# ring-level tests built from the lattice


def quasi_frobenius_certificate(ring: Ring):
    """None if Ann(Ann(I)) == I for every ideal, else the first failing ideal."""
    for ideal in enumerate_ideals(ring):
        if annihilator(annihilator(ideal)).bits != ideal.bits:
            return ideal
    return None
