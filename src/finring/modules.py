"""Finitely presented modules over a finite ring.

A module is R^k modulo the span of the columns of a relation matrix.  A raw
vector x in R^k is a tuple of *element indices* into ``ring.elements``; it is
stored as the mixed-radix integer code sum_i x_i * n^(k-1-i), with n = |R|
and the first coordinate most significant, so code order is tuple order.
Every coset is carried by its least code, i.e. its lexicographically least
tuple, and the module's elements are these representatives in ascending
code order: code order is the canonical order of module elements.
``Module._digits`` holds their index rows and ``Module.rep`` maps each raw
code to the position of its coset, so sums and scalar multiples are array
lookups: the ring tables on each coordinate, then ``rep``
(``Module._locate``).  A free module -- no relations, or relations that span
only zero -- is R^k itself: ``rep`` is the identity and no coset is
labelled.  The relations are positions as well: ``relation_columns`` holds
one read-only row of k ring positions per column.  ``Presentation`` holds
element values, the public-facing form, which ``Module(presentation)`` turns
into positions once.

Everything above the element level works on these positions as well.  A
submodule is a boolean mask over positions, grown by one greedy span
primitive (``_greedy_span``), and one rule, ``_generators``, picks the
generators of every module and submodule: greedy, then minimal over a local
ring.  A hom carries the target positions of its generator images; the one
combination evaluator ``_combine`` turns them into the position of every
source element (``ModuleHom.table``), checks them against the source
relations, and finds a submodule's relations as the zero positions of the
combinations of its generators over all of R^k, whose values label the
submodule's cosets.  The exhaustive searches
over tuples of target elements take the one stream ``_accepted``: the
tuples on which ``_combine`` of every relation column vanishes, a run of
tuples at a time.  Each search first narrows the images of the source's
generators by two rules (``_image_choices``, which holds the hom guard): a
generator's image is killed by its annihilator, and in an injective search
a nonzero generator's image is not zero.  This keeps the lexicographic
order of the homs and makes the guard count only the tuples a search can
visit.  One scan, ``iter_homs``, serves every hom search: it evaluates the
tables of each accepted run and builds every hom, or only the injective
ones.  One count, ``_hom_count``, sizes a hom group on the source's own
presentation and builds no hom.  Every module the library derives is built
from positions by ``Module._on``, once per ring and request (R^k once per
ring), keyed by its relation columns, and it keeps what it computes (kill
counts, minimal generators, product components, SGP verdict);
``Module(presentation)`` is new on every call.  ``quotient_by_ideal(I)``
and ``ideal_as_module(I)`` take their ring from I, and
``decompose_over_product(m)`` splits M along
``idempotent_decomposition(m.ring)``.  Every hom is built by
``ModuleHom._at``, with the public constructor's relation check unless
``_accepted`` has made it.  Element values and index tuples appear only
at the public edge: ``Module.elements``, ``index`` and ``presentation``
(derived on first use), ``ModuleHom.images`` and ``ModuleHom.apply``.

Everything here is immutable after construction and deterministic: every
generator pick is the least candidate in canonical order, hom sets are
enumerated lexicographically by generator-image tuples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
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
from .rings import _CHUNK, Ring, kept, request_memo


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


# ---------------------------------------------------------------------------
# positions and spans
#
# The helpers below work on the positions of a module: ``_rows`` maps
# positions to raw index rows (last axis k), ``_locate`` maps raw rows, which
# need not be representatives, back to positions.  Zero is always at
# position 0.  While a module is built it is R^k, every raw code its own
# position, and its relation span is grown on that.


def _grow(m, member: np.ndarray, gen) -> None:
    """Mark the span of ``member`` plus R * ``gen`` in ``member``.

    ``member`` is a mask over the positions of the module ``m`` that holds a
    submodule and ``gen`` a raw index row; every sum s + r * gen is formed on
    raw rows, a chunk of span rows at a time, and located back to its
    position.
    """
    add, mul, _ = m._tables
    multiples = mul[:, gen]  # raw row of r * gen for every r
    span = member.nonzero()[0]
    step = max(1, _CHUNK // max(multiples.size, 1))
    for lo in range(0, len(span), step):
        rows = m._rows(span[lo : lo + step])
        member[m._locate(add[rows[:, None, :], multiples[None]])] = True


def _greedy_span(m, target: np.ndarray, member=None):
    """(picks, span): least-first generators of the positions in ``target``.

    Starting from the submodule ``member`` (default: zero alone), repeatedly
    take the least position of ``target`` outside the span so far and add
    its multiples.  The span mask returned is a new array.
    """
    if member is None:
        member = np.zeros(len(target), dtype=bool)
        member[0] = True
    else:
        member = member.copy()
    picks = []
    while True:
        pick = int((target > member).argmax())
        if not target[pick] or member[pick]:
            return picks, member
        picks.append(pick)
        _grow(m, member, m._rows(pick))


def _generators(m, target: np.ndarray) -> list:
    """Canonical generators of the submodule S of ``m`` marked by ``target``.

    The greedy picks of ``_greedy_span``, which checks that S is a submodule;
    over a local ring, the greedy picks of S starting from mS = sum of a * S
    over the maximal ideal's generators a, which number dim S/mS as checked
    by |mS| * |R/m|^count = |S|.  First picks that already number dim S/mS
    are kept: the pass from mS would pick each of them again.
    """
    picks, span = _greedy_span(m, target)
    if not np.array_equal(span, target):
        raise ConsistencyError("subset is not a submodule")
    ring = m.ring
    if len(picks) < 2 or not is_local(ring):  # no pick, or one: already minimal
        return picks
    max_ideal = unique_maximal_ideal(ring)
    scalars = np.array(max_ideal.generator_indices or [0])
    products = m._locate(m._tables[1][scalars[:, None, None], m._rows(span.nonzero()[0])])
    first, every = np.zeros((2, len(span)), dtype=bool)
    first[products[0]] = every[products] = True
    _, ms = _greedy_span(m, every, first)
    q, size = ring.order // max_ideal.order, len(products[0])
    if int(ms.sum()) * q ** len(picks) != size:
        picks, _ = _greedy_span(m, target, ms)
        if int(ms.sum()) * q ** len(picks) != size:
            raise ConsistencyError("generator count disagrees with dim S/mS")
    return picks


def _by_least(least: np.ndarray):
    """(rep, codes) from ``least``, the least code of every raw code's coset."""
    codes = (least == np.arange(len(least))).nonzero()[0]
    pos = np.empty(len(least), dtype=np.intp)
    pos[codes] = np.arange(len(codes))
    return pos[least], codes


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
        return _by_least(label)
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
        index = presentation.ring.index
        cols = [[index[v] for v in col] for col in presentation.relations]
        self._build(presentation.ring, presentation.generators, cols)
        self.presentation = presentation

    @classmethod
    def _on(cls, ring: Ring, k: int, columns=(), span=None, labels=None) -> Module:
        """R^k modulo the span of ``columns``, c rows of k ring positions: the
        build of every module the library derives, whose ``presentation``
        is derived on first read.  One module per presentation and ring,
        keyed by its relation columns: the ring keeps each free module R^k,
        and each other one for the request (``rings.request_memo``).
        A maker that already holds the span, a mask over the raw codes of
        R^k, passes it as ``span``, and the build does not grow it again.
        A maker that holds a linear map on R^k whose kernel is the span
        passes its value at every raw code as ``labels``: the cosets are
        its fibers, each carried by its least code, and no coset is
        labelled by ``_label_cosets``."""
        columns = np.array(columns, dtype=np.intp).reshape(len(columns), k)
        memo = request_memo(ring, "modules") if len(columns) else _free_modules(ring)
        key = k, len(columns), columns.tobytes()
        if key not in memo:
            m = object.__new__(cls)
            m._build(ring, k, columns, span, labels)
            memo[key] = m
        return memo[key]

    def _build(self, ring: Ring, k: int, columns, span=None, labels=None) -> None:
        n = ring.order
        raw = n**k
        if raw > ring.guards.max_module_raw:
            raise GuardExceeded(
                f"module over {ring.describe()} with {k} generators needs "
                f"{raw} raw tuples (guard {ring.guards.max_module_raw})",
                "max_module_raw", raw, ring.guards.max_module_raw,
            )
        self.ring = ring
        self.k = k
        self.relation_columns = np.asarray(columns, dtype=np.intp).reshape(len(columns), k)
        self.relation_columns.flags.writeable = False
        self.zero = (0,) * k
        self._cache: dict = {}
        # first R^k itself: every raw code is its own position, zero is code 0
        self._tables = ring.tables()
        self._weights = n ** np.arange(k - 1, -1, -1, dtype=np.intp)
        if labels is not None:
            # each fiber of the map is a coset, carried by its least code
            least = np.full(int(labels.max()) + 1, raw)
            np.minimum.at(least, labels, np.arange(raw))
            self.rep, codes = _by_least(least[labels])
            self._digits = free_module(ring, k)._digits[codes]
            self.span = (self.rep == 0).nonzero()[0]
        else:
            self.rep = np.arange(raw)
            self._digits = np.indices((n,) * k, dtype=np.intp).reshape(k, raw).T
            # the span of the relation columns, as a mask over raw codes
            if span is None:
                span = np.zeros(raw, dtype=bool)
                span[0] = True
                for col in self.relation_columns:
                    if not span[col @ self._weights]:  # else R * col already lies in the span
                        _grow(self, span, col)
            self.span = span.nonzero()[0]
            if len(self.span) > 1:
                self.rep, codes = _label_cosets(
                    self._tables[0], self._digits[self.span], self._weights, raw
                )
                self._digits = self._digits[codes]
        if len(self._digits) * len(self.span) != raw:
            raise ConsistencyError("coset count times span size misses |R|^k")

    @cached_property
    def presentation(self) -> Presentation:
        """The relations as element values: derived on first use unless given."""
        els = self.ring.elements
        cols = tuple(tuple(els[i] for i in col) for col in self.relation_columns.tolist())
        return Presentation(self.ring, self.k, cols)

    @cached_property
    def elements(self) -> list:
        """The coset representatives as index tuples, built on first use."""
        return list(map(tuple, self._digits.tolist()))

    @cached_property
    def index(self) -> dict:
        return dict(zip(self.elements, range(len(self.elements))))

    # -- structure -----------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self._digits)

    def __repr__(self):
        return (
            f"<module over {self.ring.describe()} on {self.k} generators, "
            f"{self.cardinality} elements>"
        )

    def _rows(self, positions) -> np.ndarray:
        """Raw index rows of the elements at ``positions``."""
        return self._digits[positions]

    def _locate(self, rows) -> np.ndarray:
        """Element positions of the cosets of raw index rows (last axis k)."""
        return self.rep[rows @ self._weights]

    def _unit_positions(self) -> np.ndarray:
        """Positions of the classes of the standard basis vectors of R^k."""
        return self.rep[self.ring._one_pos * self._weights]

    def _kills(self):
        """[r, x]: whether r * x = 0, for every element x and a run of r at a time."""
        _, mul, _ = self._tables
        step = max(1, _CHUNK // max(self._digits.size, 1))
        for lo in range(0, self.ring.order, step):
            yield self._locate(mul[lo : lo + step, self._digits]) == 0

    @kept("kills")
    def kill_counts(self) -> tuple:
        """a_r(M) = |{x : r * x = 0}| = |Hom(R/rR, M)| for every ring position r.

        An isomorphism invariant that anyone can recount: a_0(M) = |M|, and
        r kills M exactly when a_r(M) = |M|, so equal counts mean equal
        cardinality and equal annihilators.
        """
        counts = np.concatenate([part.sum(axis=1) for part in self._kills()])
        return tuple(counts.tolist())

    def free_element_mask(self) -> np.ndarray:
        """Mask over the positions: the elements x with r * x = 0 only for r = 0."""
        return sum(part.sum(axis=0) for part in self._kills()) == 1


_free_modules = kept("free_modules")(lambda ring: {})  # R^k, by Module._on's key


def free_module(ring: Ring, rank: int) -> Module:
    return Module._on(ring, rank)


def regular_module(ring: Ring) -> Module:
    """R as a module over itself (free of rank 1), one per ring."""
    return free_module(ring, 1)


def quotient_by_ideal(ideal: Ideal) -> Module:
    """R/I, presented on one generator with I's generators as relations."""
    return Module._on(ideal.ring, 1, ideal.generator_indices)


def ideal_as_module(ideal: Ideal):
    """The ideal as a submodule of R; returns (module, embedding)."""
    member = np.zeros(ideal.ring.order, dtype=bool)
    member[list(ideal.indices)] = True
    return submodule(regular_module(ideal.ring), member)


def direct_sum(m1: Module, m2: Module) -> Module:
    if m1.ring is not m2.ring:
        raise RingMismatchError("direct sum needs modules over the same ring")
    # block-diagonal columns, padded with zero, which is position 0
    c1 = np.pad(m1.relation_columns, ((0, 0), (0, m2.k)))
    c2 = np.pad(m2.relation_columns, ((0, 0), (m1.k, 0)))
    return Module._on(m1.ring, m1.k + m2.k, np.concatenate([c1, c2]))


# ---------------------------------------------------------------------------
# homomorphisms


def _combine(target: Module, positions, coeffs: np.ndarray) -> np.ndarray:
    """Target positions of sum_j c_j * x_j, with x_j the element at
    ``positions[..., j]``, for every row c of ``coeffs`` (ring indices, one
    column per position).  Leading axes of ``positions`` are batch axes:
    the result has shape ``positions.shape[:-1] + (len(coeffs),)``."""
    positions = np.asarray(positions, dtype=np.intp)
    if positions.shape[-1] == 0:
        return np.zeros(positions.shape[:-1] + (len(coeffs),), dtype=np.intp)
    add, mul, _ = target._tables
    rows = target._rows(positions)[..., None, :, :]  # [..., 1, j, coordinate]
    acc = mul[coeffs[:, :1], rows[..., 0, :]]
    for j in range(1, positions.shape[-1]):
        acc = add[acc, mul[coeffs[:, j, None], rows[..., j, :]]]
    return target._locate(acc)


@dataclass(frozen=True)
class ModuleHom:
    """A hom determined by generator images, held as index tuples
    (``images``, the public form) and as target positions (``positions``).

    ``ModuleHom(source, target, images)`` checks that each image is a target
    element; the library builds its homs from target positions through
    ``_at``.  ``_check_relations`` checks the images against every source
    relation through ``_combine``, unless ``_accepted`` already has.
    """

    source: Module
    target: Module
    images: tuple
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        source, target = self.source, self.target
        if source.ring is not target.ring:
            raise RingMismatchError("hom endpoints live over different rings")
        if len(self.images) != source.k:
            raise ValidationError("one image per source generator required")
        try:
            rows = [[operator.index(v) for v in im] for im in self.images]
            raw = np.array(rows, dtype=np.intp).reshape(source.k, target.k)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("hom image is not a target element") from None
        # a row is an element when it is its own coset's representative; an
        # entry outside the index range changes under the reduction mod |R|
        positions = target._locate(raw % target.ring.order)
        if target._rows(positions).tolist() != rows:
            raise ValidationError("hom image is not a target element")
        object.__setattr__(self, "images", tuple(map(tuple, rows)))
        object.__setattr__(self, "positions", positions)
        self._check_relations()

    @classmethod
    def _at(cls, source: Module, target: Module, positions, table=None) -> ModuleHom:
        """The hom sending generator j to the target element at
        ``positions[j]``, with its ``table`` if ``_accepted`` has checked it."""
        hom = object.__new__(cls)
        images = tuple(map(tuple, target._rows(positions).tolist()))
        hom.__dict__.update(source=source, target=target, images=images, positions=positions)
        if table is None:
            hom._check_relations()
        else:
            hom.__dict__["table"] = table
        return hom

    def _check_relations(self) -> None:
        cols = self.source.relation_columns
        if len(cols) and _combine(self.target, self.positions, cols).any():
            raise ValidationError("images do not satisfy the source relations")

    @cached_property
    def table(self) -> np.ndarray:
        """The target position of every source element, in source order."""
        return _combine(self.target, self.positions, self.source._digits)

    def image_mask(self) -> np.ndarray:
        """Boolean mask over the target positions: which lie in the image."""
        mask = np.zeros(self.target.cardinality, dtype=bool)
        mask[self.table] = True
        return mask

    def apply(self, el):
        """The image of ``el``, an element of the source."""
        return self.target.elements[self.table[self.source.ring._position(el, self.source)]]

    def is_injective(self) -> bool:
        return np.count_nonzero(self.image_mask()) == self.source.cardinality

    def is_surjective(self) -> bool:
        return bool(self.image_mask().all())


def compose(outer: ModuleHom, inner: ModuleHom) -> ModuleHom:
    if inner.target is not outer.source:
        raise RingMismatchError("homs do not compose: target/source mismatch")
    # the images of inner's generators only, not outer's whole table
    values = _combine(outer.target, outer.positions, outer.source._rows(inner.positions))
    return ModuleHom._at(inner.source, outer.target, values)


def _accepted(target: Module, columns, choices):
    """The tuples t, with t_j in ``choices[j]`` (ascending target
    positions), on which sum_j c_j * t_j is zero for every column c (one
    ring index per choice): one array of position rows per run of tuples,
    in lexicographic order.

    The tuples are numbered in mixed radix (t_0 most significant) and
    decoded a run of numbers at a time, and ``_combine`` evaluates the
    columns on each run.  The first run is one tuple long and each next one
    twice as long, up to ``_CHUNK`` raw entries: callers often stop at the
    first accepted tuple.
    """
    count = prod(len(c) for c in choices)
    cap = max(1, _CHUNK // max((len(columns) + len(choices)) * target.k, 1))
    lo, step = 0, 1
    while lo < count:
        numbers = np.arange(lo, min(lo + step, count))
        lo, step = lo + step, min(2 * step, cap)
        tuples = np.empty((len(numbers), len(choices)), dtype=np.intp)
        for j in reversed(range(len(choices))):  # least significant first
            tuples[:, j] = choices[j][numbers % len(choices[j])]
            numbers = numbers // len(choices[j])
        yield tuples[(_combine(target, tuples, columns) == 0).all(axis=1)]


def _image_choices(m1: Module, m2: Module, injective=False) -> list:
    """For each generator x_j of m1, the ascending positions of the elements
    t of m2 with a * t = 0 for every a in Ann(x_j): the only images a hom
    can give x_j.  In an injective scan a nonzero x_j is never offered zero.

    r * x_j is the class of the raw row with r in coordinate j, whose code is
    r * w_j, so Ann(x_j) is read off ``rep`` with no table.  The tests run
    over the least nonzero a of Ann(x_j) not yet settled, and each test
    a * t = 0 settles every multiple r * a as well, so a principal
    annihilator costs one test and a zero one none.  Over R^k, whose
    relations span zero alone, only r = 0 kills a generator, so no
    annihilator is gathered and every position is offered.  The guard
    bounds the number of tuples, which is the number of candidates any scan
    over them visits.
    """
    if len(m1.span) == 1:  # R^k: only r = 0 kills a generator, and none is zero
        choices = [np.arange(int(injective), m2.cardinality)] * m1.k
    else:
        _, mul, _ = m1._tables
        # ann[r, j]: whether r * x_j = 0 in m1, as zero is element 0
        ann = m1.rep[np.arange(m1.ring.order)[:, None] * m1._weights] == 0
        ann[0] = False  # zero kills everything: nothing to test
        choices = []
        for rest, x in zip(ann.T, m1._unit_positions()):
            keep = np.ones(m2.cardinality, dtype=bool)
            while rest.any():
                a = int(rest.argmax())
                rest[mul[a]] = False
                keep &= m2._locate(mul[a, m2._digits]) == 0
            if injective and x:  # an injective hom sends no nonzero element to 0
                keep[0] = False
            choices.append(keep.nonzero()[0])
    guards = m1.ring.guards
    count = prod(len(c) for c in choices)
    if count > guards.max_hom_candidates:
        raise GuardExceeded(
            f"hom enumeration would scan {count} candidates "
            f"(guard {guards.max_hom_candidates})",
            "max_hom_candidates", count, guards.max_hom_candidates,
        )
    return choices


def iter_homs(m1: Module, m2: Module, injective=False):
    """The homs m1 -> m2 in lexicographic generator-image order, or the
    injective ones.

    Candidates are the tuples of ``_image_choices``, whose number the guard
    ``max_hom_candidates`` bounds; filtering each coordinate keeps the order
    of all tuples of m2 elements.  A candidate is a hom when every relation
    column of m1 evaluates to zero on it (``_accepted``).  The homs of each
    accepted run are evaluated into ``_combine`` tables (homs x |m1|
    positions) a slice of at most ``_CHUNK`` raw entries at a time; a hom is
    injective when no nonzero source element -- every position but 0 --
    maps to zero, which is position 0.  Homs are built and yielded lazily,
    so a caller that stops early scans a prefix of the candidates.
    """
    if m1.ring is not m2.ring:
        raise RingMismatchError("hom set needs modules over the same ring")
    choices = _image_choices(m1, m2, injective=injective)
    step = max(1, _CHUNK // max(m1.cardinality * m2.k, 1))
    for batch in _accepted(m2, m1.relation_columns, choices):
        for lo in range(0, len(batch), step):
            part = batch[lo : lo + step]
            tables = _combine(m2, part, m1._digits)
            if injective:
                marked = (tables[:, 1:] != 0).all(axis=1)
                part, tables = part[marked], tables[marked]
            for pos, table in zip(part, tables):
                yield ModuleHom._at(m1, m2, pos, table)


def hom_set(m1: Module, m2: Module) -> list:
    return list(iter_homs(m1, m2))


def _hom_count(m1: Module, m2: Module) -> int:
    """|Hom(m1, m2)|: the accepted candidates of the scan, with no hom built."""
    return sum(map(len, _accepted(m2, m1.relation_columns, _image_choices(m1, m2))))


# ---------------------------------------------------------------------------
# submodules, kernels, images, cokernels


def submodule(ambient: Module, target: np.ndarray):
    """Present a submodule (a boolean mask over ``ambient``'s positions) and
    return (module, embedding).

    Its generators are the positions ``_generators`` picks, minimal over a
    local ring.  The relations are found by an exhaustive search: the
    coefficient vectors a in R^k with sum_j a_j * g_j = 0 are the zero
    positions of ``_combine`` over every element of the free module R^k,
    and form its relation submodule, presented by its own ``_generators``.
    The same evaluation labels the cosets: two vectors lie in one coset
    exactly when their combinations are one ambient position.
    """
    gens = _generators(ambient, target)
    coefficients = free_module(ambient.ring, len(gens))  # its guard bounds the scan of R^k
    values = _combine(ambient, gens, coefficients._digits)
    # R^k is free, so its positions are raw codes: the zeros mark the span
    rel_gens = coefficients._rows(_generators(coefficients, values == 0))
    mod = Module._on(ambient.ring, coefficients.k, rel_gens, labels=values)
    if mod.cardinality != int(target.sum()):
        raise ConsistencyError("recovered presentation has the wrong cardinality")
    embedding = ModuleHom._at(mod, ambient, np.array(gens, dtype=np.intp))
    return mod, embedding


def kernel(h: ModuleHom):
    """Kernel as a presented module plus its embedding into the source."""
    return submodule(h.source, h.table == 0)


def image(h: ModuleHom):
    """Image as a presented module plus its embedding into the target."""
    return submodule(h.target, h.image_mask())


def cokernel(h: ModuleHom):
    """Cokernel, the target modulo the image's ``_generators``, plus the
    projection.  Its span is the preimage of the image in R^k."""
    t = h.target
    image_mask = h.image_mask()
    img_gens = t._rows(_generators(t, image_mask))
    columns = np.concatenate([t.relation_columns, img_gens])
    coker = Module._on(t.ring, t.k, columns, image_mask[t.rep])
    proj = ModuleHom._at(t, coker, coker._unit_positions())
    return coker, proj


# ---------------------------------------------------------------------------
# structural decisions


def is_isomorphic(m1: Module, m2: Module):
    """(found, witness): one invariant, then a search.

    An isomorphism maps {x : r * x = 0} onto {y : r * y = 0}, so modules
    whose ``kill_counts`` differ anywhere are not isomorphic, and the
    differing entry is the certificate.  Otherwise the witness is the first
    bijective hom in canonical order.
    """
    if m1.ring is not m2.ring:
        raise RingMismatchError("isomorphism test needs modules over the same ring")
    if m1.cardinality != m2.cardinality or m1.kill_counts() != m2.kill_counts():
        return False, None
    # equal cardinalities: the first injective hom is bijective
    witness = next(iter_homs(m1, m2, injective=True), None)
    return witness is not None, witness


@kept("minimal")
def minimal_generators(m: Module):
    """(count, generator list) over a local ring: M's own ``_generators``, dim M/mM."""
    if not is_local(m.ring):
        raise NonLocalRingError(
            "minimal generators are only well-behaved over local rings; decompose first"
        )
    picks = _generators(m, np.ones(m.cardinality, dtype=bool))
    return len(picks), list(map(tuple, m._rows(picks).tolist()))


def is_projective(m: Module) -> bool:
    """Projective = free over a finite local ring; componentwise over products."""
    if not idempotent_decomposition(m.ring).is_trivial:
        return all(is_projective(c) for c in decompose_over_product(m))
    # the minimal cover R^g -> M is onto, so it is bijective exactly when |M| = |R|^g
    return m.cardinality == m.ring.order ** minimal_generators(m)[0]


def free_cover(m: Module) -> ModuleHom:
    """Minimal surjection R^g -> M on the canonical minimal generator list."""
    g, gens = minimal_generators(m)
    # each generator is its coset's representative, so it locates its own position
    positions = m._locate(np.array(gens, dtype=np.intp).reshape(g, m.k))
    return ModuleHom._at(free_module(m.ring, g), m, positions)


def decompose_over_product(m: Module) -> list:
    """Components e_i M over the local factors of m's ring; re-sum verified once."""
    return list(_components(m))


@kept("components")
def _components(m: Module) -> tuple:
    dec = idempotent_decomposition(m.ring)
    comps = []
    for fring, proj in zip(dec.factor_rings, dec.projections):
        cols = proj[m.relation_columns]  # a column that projects to zero relates nothing
        comps.append(Module._on(fring, m.k, cols[cols.any(axis=1)]))
    _verify_decomposition(m, dec, comps)
    return tuple(comps)


def _verify_decomposition(m: Module, dec: IdempotentDecomposition, comps) -> None:
    """Check that x -> (e_i x) is a bijection onto the sum of components.

    Only bijectivity needs checking: each projection p_i is a ring
    homomorphism (see :func:`finring.ideals.idempotent_decomposition`) and
    each component is presented on p_i of M's relation columns, so the map
    is additive and R-linear by construction.  No ring table is read.
    """
    # flat[x]: the positions in comps[i] of e_i x, as one mixed-radix number
    flat = np.zeros(m.cardinality, dtype=np.intp)
    for c, p in zip(comps, dec.projections):
        flat = flat * c.cardinality + c._locate(p[m._digits])
    if (
        prod(c.cardinality for c in comps) != m.cardinality
        or np.count_nonzero(np.bincount(flat, minlength=m.cardinality)) != m.cardinality
    ):
        raise ConsistencyError("module does not re-sum to its product decomposition")


def free_summand_split(m: Module):
    """Maximal split M = R^rank + N with every element of N annihilated by
    something nonzero.  Requires a local quasi-Frobenius ring.

    An element x with zero annihilator spans Rx = R, which is injective
    over a quasi-Frobenius ring, so Rx is a summand and M = Rx + M/Rx: the
    complement is the cokernel of R -> M, 1 -> x, for the least such x,
    presented on its minimal generators.
    """
    ring = m.ring
    if not is_local(ring):
        raise NonLocalRingError("free-summand splitting requires a local ring")
    if quasi_frobenius_certificate(ring) is not None:
        raise PreconditionError("free-summand splitting requires a quasi-Frobenius ring")
    r1 = regular_module(ring)
    rank, current = 0, m
    while (free := current.free_element_mask()).any():
        complement, _ = cokernel(ModuleHom._at(r1, current, free.argmax(keepdims=True)))
        if complement.cardinality * ring.order != current.cardinality:
            raise ConsistencyError("split does not multiply out to the module size")
        current = complement
        rank += 1
    if rank:  # a cokernel keeps M's k generators: present it on its own minimal ones
        current, _ = submodule(current, np.ones(current.cardinality, dtype=bool))
    return rank, current
