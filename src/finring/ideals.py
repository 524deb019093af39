"""Ideal-theoretic data: lattices, annihilators, radicals, idempotent splitting.

Internally an ideal is a Python-int bitset over element positions (bit p set
when position p belongs to it), read off the ring's cached operation tables;
the public :class:`Ideal` exposes sorted positions and element values.  Every
principal ideal xR, and the annihilator of every element, comes from one
pass over the multiplication table.  I + J is I translated over coset
representatives of I inside J, |I + J| table reads in all.  The lattice is
the closure of the zero ideal under adding principal ideals, which is
complete for finite rings because every ideal is a finite sum of principal
ideals.  Canonical generators are greedy: adjoin the least position not yet
generated, the rule of ``modules._greedy_span``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import ConsistencyError, GuardExceeded, NonLocalRingError, ValidationError
from .rings import Ring, units_mask


@dataclass(frozen=True)
class Ideal:
    """An ideal, carried as sorted element indices plus a generator witness.

    ``indices`` is the full element set (sorted, canonical order) and
    ``generator_indices`` a generating set: the elements are exactly the
    closure of the generators under addition and external multiplication.
    """

    ring: Ring
    indices: tuple
    generator_indices: tuple

    @property
    def order(self) -> int:
        return len(self.indices)

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


class _Bitsets:
    """A ring's ideals as bitsets over element positions, with memos."""

    def __init__(self, ring: Ring):
        add, mul, _ = ring.tables()
        n, zero = ring.order, ring.index[ring.zero]
        self.add, self.nbytes, self.zero = add, (n + 7) // 8, 1 << zero
        rows = np.zeros((n, n), dtype=bool)
        rows[np.arange(n)[:, None], mul] = True
        self.principal = self._ints(rows)  # [x]: the bits of xR
        self.killers = self._ints(mul.T == zero)  # [x]: the bits of Ann(x)
        self._members, self._sums = {}, {}  # queries recur across a ring's checks

    def _ints(self, masks) -> list:
        packed = np.packbits(masks, axis=-1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def bits(self, positions) -> int:
        mask = np.zeros(8 * self.nbytes, dtype=bool)
        mask[positions] = True
        return self._ints(mask[None])[0]

    def positions(self, bits: int) -> np.ndarray:
        if bits not in self._members:
            raw = np.frombuffer(bits.to_bytes(self.nbytes, "little"), dtype=np.uint8)
            self._members[bits] = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
        return self._members[bits]

    def plus(self, a: int, b: int) -> int:
        """The ideal sum a + b: cosets of the larger one over the other's elements."""
        if b & ~a == 0 or a & ~b == 0:
            return a | b
        if a.bit_count() < b.bit_count():
            a, b = b, a
        if (a, b) not in self._sums:
            members, total, rest = self.positions(a), a, b & ~a
            while rest:
                total |= self.bits(self.add[members, _low(rest)])
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


def _bitsets(ring: Ring) -> _Bitsets:
    if "ideal_bitsets" not in ring._cache:
        ring._cache["ideal_bitsets"] = _Bitsets(ring)
    return ring._cache["ideal_bitsets"]


def _ideal_of(ring: Ring, bits: int, generator_indices=None) -> Ideal:
    """The ideal with these bits: the lattice's own object when the lattice
    is cached, else a new one, with greedy generators unless given."""
    b = _bitsets(ring)
    if generator_indices is None:
        known = ring._cache.get("ideal_index", {}).get(bits)
        if known is not None:
            return known
        generator_indices = b.generators(bits)
    indices = tuple(b.positions(bits).tolist())
    return Ideal(ring, indices, tuple(int(g) for g in generator_indices))


def ideal_generated(ring: Ring, gens) -> Ideal:
    """Smallest ideal containing ``gens`` (element values)."""
    for g in gens:
        if g not in ring.index:
            raise ValidationError(f"{g!r} is not an element of {ring.describe()}")
    b = _bitsets(ring)
    gen_idx = [ring.index[g] for g in gens]
    span = b.zero
    for g in gen_idx:
        span = b.plus(span, b.principal[g])
    return _ideal_of(ring, span, gen_idx)


def enumerate_ideals(ring: Ring) -> list:
    """The complete ideal lattice, sorted by cardinality then element list:
    the closure of the zero ideal under adding principal ideals."""
    if "ideal_lattice" in ring._cache:
        return ring._cache["ideal_lattice"]
    if ring.order > ring.guards.max_lattice_order:
        raise GuardExceeded(
            f"ideal enumeration over a ring of order {ring.order} exceeds the "
            f"lattice guard ({ring.guards.max_lattice_order})",
            "max_lattice_order", ring.order, ring.guards.max_lattice_order,
        )
    b = _bitsets(ring)
    principal, found = set(b.principal), [b.zero]
    for ideal in found:  # grows while it is scanned
        found += {b.plus(ideal, p) for p in principal}.difference(found)
    keyed = sorted((tuple(b.positions(a).tolist()), a) for a in found)
    keyed.sort(key=lambda kb: len(kb[0]))
    index = {a: Ideal(ring, idx, b.generators(a)) for idx, a in keyed}
    ring._cache["ideal_index"] = index
    ring._cache["ideal_lattice"] = list(index.values())
    return ring._cache["ideal_lattice"]


def annihilator(ring: Ring, ideal: Ideal) -> Ideal:
    """Ann(I) = {x : x*g = 0 for every g in I}; generators suffice."""
    bits = -1
    for g in ideal.generator_indices:
        bits &= _bitsets(ring).killers[g]
    return _ideal_of(ring, bits & ((1 << ring.order) - 1))


def maximal_ideals(ring: Ring) -> list:
    if "maximal_ideals" not in ring._cache:
        enumerate_ideals(ring)
        proper = [(a, i) for a, i in ring._cache["ideal_index"].items() if i.is_proper]
        ring._cache["maximal_ideals"] = [
            ideal for a, ideal in proper if not any(a != b and a & ~b == 0 for b, _ in proper)
        ]
    return ring._cache["maximal_ideals"]


def is_local(ring: Ring) -> bool:
    """True iff the ring has a unique maximal ideal.

    Runs both the lattice route and the nonunits-closed-under-addition route
    and insists they agree.
    """
    if "is_local" in ring._cache:
        return ring._cache["is_local"]
    via_lattice = len(maximal_ideals(ring)) == 1
    units = units_mask(ring)
    nonunit_idx = np.nonzero(~units)[0]
    add_np, _, _ = ring.tables()
    sums = add_np[np.ix_(nonunit_idx, nonunit_idx)]
    via_nonunits = not units[sums].any()
    if via_lattice != via_nonunits:
        raise ConsistencyError(
            f"locality tests disagree on {ring.describe()}: "
            f"lattice={via_lattice}, nonunits={via_nonunits}"
        )
    ring._cache["is_local"] = via_lattice
    return via_lattice


def unique_maximal_ideal(ring: Ring) -> Ideal:
    if not is_local(ring):
        raise NonLocalRingError(f"{ring.describe()} is not local")
    return maximal_ideals(ring)[0]


def jacobson_radical(ring: Ring) -> Ideal:
    """Intersection of all maximal ideals."""
    common = -1
    for ideal in maximal_ideals(ring):
        common &= _bitsets(ring).bits(list(ideal.indices))
    return _ideal_of(ring, common)


# ---------------------------------------------------------------------------
# idempotent decomposition into local factors


class IdempotentFactorRing(Ring):
    """The factor eR of a ring at an idempotent e, with unit e.

    The carrier is a subset of the parent's elements; the embedding back
    into the parent is the identity on values.  A position is an index into
    the sorted parent positions of the carrier, and the arithmetic is the
    parent's.
    """

    def __init__(self, parent: Ring, e):
        super().__init__(parent.guards)
        self.parent = parent
        self.idempotent = e
        sub = np.flatnonzero(np.bincount(parent._prod(parent.index[e], np.arange(parent.order))))
        self._sub = sub
        self._pos = np.full(parent.order, -1, dtype=np.int64)
        self._pos[sub] = np.arange(len(sub))
        self.elements = [parent.elements[p] for p in sub.tolist()]
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = parent.zero
        self.one = e

    def _describe(self):
        return f"factor of {self.parent.describe()} at idempotent {self.idempotent!r}"

    def _back(self, parent_positions):
        pos = self._pos[parent_positions]
        if np.any(pos < 0):
            raise ConsistencyError("factor ring carrier is not closed under operations")
        return pos

    def _add(self, i, j):
        return self._back(self.parent._sum(self._sub[i], self._sub[j]))

    def _mul(self, i, j):
        return self._back(self.parent._prod(self._sub[i], self._sub[j]))

    def _neg(self, i):
        return self._back(self.parent._neg(self._sub[i]))


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


def idempotent_decomposition(ring: Ring) -> IdempotentDecomposition:
    """Split the ring into local factors along its primitive idempotents.

    Checked: the atoms are nonzero, pairwise orthogonal and sum to 1, the
    factor orders multiply to |R|, and each factor is local.  With the ring
    laws, these make x -> (e_i x) a ring isomorphism, so it is not checked
    on the tables: e_i (x + y) = e_i x + e_i y, e_i (xy) = (e_i x)(e_i y)
    since e_i^2 = e_i, and x = sum of the e_i x makes it injective, hence
    bijective by the orders.
    """
    if "idempotent_decomposition" in ring._cache:
        return ring._cache["idempotent_decomposition"]
    _, mul_np, _ = ring.tables()
    n = ring.order
    zero = ring.index[ring.zero]
    ar = np.arange(n)
    nonzero = ar[(mul_np[ar, ar] == ar) & (ar != zero)]
    # f lies below e when f*e == f; the atoms are the minimal nonzero idempotents
    below = mul_np[np.ix_(nonzero, nonzero)] == nonzero[:, None]
    np.fill_diagonal(below, False)
    atoms = nonzero[~below.any(axis=0)].tolist()
    els = ring.elements
    # laws: pairwise orthogonal, summing to 1
    total = ring.zero
    for e in atoms:
        total = ring.add(total, els[e])
    if total != ring.one:
        raise ConsistencyError("primitive idempotents do not sum to 1")
    for a in range(len(atoms)):
        for b in range(a + 1, len(atoms)):
            if mul_np[atoms[a], atoms[b]] != zero:
                raise ConsistencyError("primitive idempotents are not orthogonal")
    if len(atoms) == 1:  # a local ring is its own factor, lattice and all
        factors, projections = (ring,), (ar,)
    else:
        factors = tuple(IdempotentFactorRing(ring, els[e]) for e in atoms)
        projections = tuple(f._pos[mul_np[e]] for f, e in zip(factors, atoms))
    if prod(f.order for f in factors) != n:
        raise ConsistencyError("factor cardinalities do not multiply to the ring order")
    for f in factors:
        if not is_local(f):
            raise ConsistencyError(f"factor {f.describe()} is not local")
    for p in projections:
        p.setflags(write=False)
    dec = IdempotentDecomposition(ring, tuple(els[e] for e in atoms), factors, projections)
    ring._cache["idempotent_decomposition"] = dec
    return dec


# ---------------------------------------------------------------------------
# ring-level tests built from the lattice


def quasi_frobenius_certificate(ring: Ring):
    """None if Ann(Ann(I)) == I for every ideal, else the first failing ideal."""
    for ideal in enumerate_ideals(ring):
        if annihilator(ring, annihilator(ring, ideal)).indices != ideal.indices:
            return ideal
    return None
