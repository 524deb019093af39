"""Ideal-theoretic data: lattices, annihilators, radicals, idempotent splitting.

Internally everything runs on element indices against the ring's cached
operation tables; the public :class:`Ideal` exposes element values.  Ideal
enumeration starts from all principal ideals and closes under pairwise ideal
sums, which is complete for finite rings because every ideal is a finite sum
of principal ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ConsistencyError, GuardExceeded, ValidationError
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


def _greedy_generator_indices(ring: Ring, indices) -> tuple:
    """Canonical generators: repeatedly adjoin the least element not yet generated."""
    addl, mull, _ = ring.tables_list()
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
    if span != target:
        raise ConsistencyError("generator search failed to span the ideal")
    return tuple(gens)


def wrap_ideal(ring: Ring, indices, generator_indices=None) -> Ideal:
    idx = tuple(sorted(int(i) for i in set(indices)))
    if generator_indices is None:
        generator_indices = _greedy_generator_indices(ring, idx)
    return Ideal(ring, idx, tuple(int(g) for g in generator_indices))


def ideal_generated(ring: Ring, gens) -> Ideal:
    """Smallest ideal containing ``gens`` (element values)."""
    for g in gens:
        if g not in ring.index:
            raise ValidationError(f"{g!r} is not an element of {ring.describe()}")
    addl, mull, _ = ring.tables_list()
    zero = ring.index[ring.zero]
    span = {zero}
    gen_idx = [ring.index[g] for g in gens]
    for gi in gen_idx:
        row = set(mull[gi])  # gi * R is already an additive subgroup
        span = {addl[a][b] for a in span for b in row}
    return wrap_ideal(ring, span, tuple(gen_idx))


def enumerate_ideals(ring: Ring) -> list:
    """The complete ideal lattice, sorted by cardinality then element list.

    All principal ideals are collected first, then the set is closed under
    pairwise ideal sums to a fixpoint.  Includes the zero ideal and the ring.
    """
    if "ideal_lattice" in ring._cache:
        return ring._cache["ideal_lattice"]
    if ring.order > ring.guards.max_lattice_order:
        raise GuardExceeded(
            f"ideal enumeration over a ring of order {ring.order} exceeds the "
            f"lattice guard ({ring.guards.max_lattice_order})"
        )
    add_np, mul_np, _ = ring.tables()
    known: dict[tuple, np.ndarray] = {}
    for i in range(ring.order):
        row = np.unique(mul_np[i])
        known.setdefault(tuple(row.tolist()), row)
    # close under pairwise sums
    done_pairs: set = set()
    while True:
        keys = list(known)
        new = {}
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                pair = (keys[a], keys[b])
                if pair in done_pairs:
                    continue
                done_pairs.add(pair)
                ka, kb = pair
                if set(ka) <= set(kb) or set(kb) <= set(ka):
                    continue
                arr = np.unique(
                    add_np[np.ix_(known[ka], known[kb])].ravel()
                )
                key = tuple(arr.tolist())
                if key not in known:
                    new[key] = arr
        if not new:
            break
        known.update(new)
    ordered = sorted(known, key=lambda t: (len(t), t))
    lattice = [wrap_ideal(ring, t) for t in ordered]
    ring._cache["ideal_lattice"] = lattice
    return lattice


def annihilator(ring: Ring, ideal: Ideal) -> Ideal:
    """Ann(I) = {x : x*g = 0 for every g in I}; generators suffice."""
    _, mul_np, _ = ring.tables()
    zero = ring.index[ring.zero]
    mask = np.ones(ring.order, dtype=bool)
    for g in ideal.generator_indices:
        mask &= mul_np[:, g] == zero
    return wrap_ideal(ring, np.nonzero(mask)[0])


def maximal_ideals(ring: Ring) -> list:
    if "maximal_ideals" in ring._cache:
        return ring._cache["maximal_ideals"]
    lattice = enumerate_ideals(ring)
    proper = [i for i in lattice if i.is_proper]
    sets = [set(i.indices) for i in proper]
    maximal = [
        ideal
        for k, ideal in enumerate(proper)
        if not any(j != k and sets[k] < sets[j] for j in range(len(proper)))
    ]
    ring._cache["maximal_ideals"] = maximal
    return maximal


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
    from .errors import NonLocalRingError

    if not is_local(ring):
        raise NonLocalRingError(f"{ring.describe()} is not local")
    return maximal_ideals(ring)[0]


def jacobson_radical(ring: Ring) -> Ideal:
    """Intersection of all maximal ideals."""
    mats = maximal_ideals(ring)
    common = set(mats[0].indices)
    for m in mats[1:]:
        common &= set(m.indices)
    return wrap_ideal(ring, common)


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
        sub = np.unique(parent._mul(parent.index[e], np.arange(parent.order)))
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
        return self._back(self.parent._add(self._sub[i], self._sub[j]))

    def _mul(self, i, j):
        return self._back(self.parent._mul(self._sub[i], self._sub[j]))

    def _neg(self, i):
        return self._back(self.parent._neg(self._sub[i]))


@dataclass(frozen=True)
class IdempotentDecomposition:
    """Primitive orthogonal idempotents summing to 1, with their factor rings.

    Each factor ring e_i R keeps the parent's element values, so it sits
    inside the parent ring by the identity inclusion.
    """

    ring: Ring
    idempotents: tuple
    factor_rings: tuple

    @property
    def is_trivial(self) -> bool:
        return len(self.idempotents) == 1


def idempotent_decomposition(ring: Ring) -> IdempotentDecomposition:
    """Split the ring into local factors along its primitive idempotents."""
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
    if len(atoms) == 1:
        factors = (ring,)  # a local ring is its own factor, lattice and all
    else:
        factors = tuple(IdempotentFactorRing(ring, els[e]) for e in atoms)
    if prod(f.order for f in factors) != n:
        raise ConsistencyError("factor cardinalities do not multiply to the ring order")
    for f in factors:
        if not is_local(f):
            raise ConsistencyError(f"factor {f.describe()} is not local")
    if n <= 64:
        _check_componentwise_bijection(ring, atoms)
    dec = IdempotentDecomposition(ring, tuple(els[e] for e in atoms), factors)
    ring._cache["idempotent_decomposition"] = dec
    return dec


def _check_componentwise_bijection(ring: Ring, atoms) -> None:
    """x -> (e_i x) must be a ring isomorphism onto the product of factors."""
    add_np, mul_np, _ = ring.tables()
    n = ring.order
    projections = [mul_np[e] for e in atoms]
    combined = np.stack(projections, axis=1)
    if len(np.unique(combined, axis=0)) != n:
        raise ConsistencyError("componentwise idempotent map is not injective")
    for proj in projections:
        if not (proj[add_np] == add_np[np.ix_(proj, proj)]).all():
            raise ConsistencyError("componentwise idempotent map does not preserve +")
        if not (proj[mul_np] == mul_np[np.ix_(proj, proj)]).all():
            raise ConsistencyError("componentwise idempotent map does not preserve *")


# ---------------------------------------------------------------------------
# ring-level tests built from the lattice


def quasi_frobenius_certificate(ring: Ring):
    """None if Ann(Ann(I)) == I for every ideal, else the first failing ideal."""
    for ideal in enumerate_ideals(ring):
        if annihilator(ring, annihilator(ring, ideal)).indices != ideal.indices:
            return ideal
    return None
