"""Finite commutative rings with identity.

Rings come from four construction recipes:

* ``Zmod(n)``              integers modulo n,
* ``PolyQuotient(b, f)``   b[x]/(f) for a monic f; a free base-module on the
                           power basis 1, x, ..., x^(deg f - 1),
* ``StructureConstants``   a (Z/n)-algebra given by a basis multiplication
                           table, for rings no univariate quotient tower
                           reaches,
* ``Product(...)``         finite direct products, flattened left-to-right.

Element values are plain immutable Python data: a residue ``int`` for Z/n,
a coefficient tuple for quotients and structure-constant algebras, a tuple of
component values for products.  Equality of elements is equality of values.

Every ring lists its elements in a fixed canonical order (residues ascending,
vectors and tuples lexicographic).  All "first found" choices elsewhere in
the package -- generators, witnesses, certificates -- are taken in this
order, which makes every output of the library deterministic.

An element's position is its index in that order, and it is a mixed-radix
number with the first coordinate most significant: base-ring digits for a
quotient, residues mod n for structure constants, factor positions for a
product.  Those three share one carrier, the product of their parts'
carriers, with ``+`` and ``-`` digitwise.  A quotient and a structure-constant
algebra are one class, free over one base part, whose bilinear ``*`` is read
from the products of its basis vectors (the reduced powers of x, or the
table); a product multiplies digitwise.  Arithmetic is defined exactly once, as
``_add``, ``_mul`` and ``_neg`` on positions, which may be Python ints or
whole numpy arrays at once.  Value-level arithmetic, the operation tables
and the axiom check are all derived from those three in :class:`Ring`.

The ring laws are checked once, where arithmetic is defined, by one of two
rules: the axiom check runs on ``Z/n``, and a free algebra checks its laws
on its basis, exhaustive at every order as its base is a verified
commutative ring and its ``*`` is bilinear over it.  A product acts
digitwise on factors checked on their own, and a product of rings is a
ring, so it is not checked again.

Ring values are immutable after construction and operations are pure, so
rings can be shared freely across threads.  ``kept_ring`` keeps rings up to
order 64, bases and parts included, for the process.  What is derived from
a ring or module is kept in one of two ways: a ``@kept(key)`` function
keeps its value for the object's life (on ``table_owner(ring)``, the first
live ring with equal tables and guards, for what the tables alone decide),
and what a request derives lives in a ``request_memo`` until the next
``new_request``.
"""

from __future__ import annotations

import functools
import itertools
import random
import weakref
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .errors import AxiomViolation, GuardExceeded, ValidationError
from .guards import DEFAULT_GUARDS, Guards

# ---------------------------------------------------------------------------
# construction recipes


@dataclass(frozen=True)
class Zmod:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValidationError(f"Z/n requires an integer n >= 2, got {self.n!r}")


@dataclass(frozen=True)
class PolyQuotient:
    """base[x]/(f).  Coefficients are integers, read as multiples of 1."""

    base: "RingSpec"
    modulus: tuple  # coefficients a0..ad, ascending degree, monic

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.modulus)
        if len(coeffs) < 2:
            raise ValidationError("quotient modulus must have degree >= 1")
        char = spec_char(self.base)
        coeffs = tuple(c % char for c in coeffs)
        if coeffs[-1] != 1 % char:
            raise ValidationError("quotient modulus must be monic")
        object.__setattr__(self, "modulus", coeffs)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1


@dataclass(frozen=True)
class StructureConstants:
    """A commutative (Z/n)-algebra on basis b0..b{dim-1}.

    ``table[i][j][k]`` is the bk-coefficient of bi*bj; ``unit`` is the
    coefficient vector of the multiplicative identity.  Commutativity,
    associativity and the unit law are checked on the basis at build time
    (exhaustive, by bilinearity); distributivity holds for every table.
    """

    n: int
    dim: int
    table: tuple
    unit: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("structure constants need a base Z/n with n >= 2")
        if self.dim < 1:
            raise ValidationError("structure constants need dimension >= 1")
        tab = self.table
        if len(tab) != self.dim or any(
            len(row) != self.dim or any(len(vec) != self.dim for vec in row) for row in tab
        ):
            raise ValidationError("structure-constant table must be dim x dim x dim")
        tab = tuple(
            tuple(tuple(int(c) % self.n for c in vec) for vec in row) for row in tab
        )
        unit = tuple(int(c) % self.n for c in self.unit)
        if len(unit) != self.dim:
            raise ValidationError("unit vector length must equal the dimension")
        if all(c == 0 for c in unit):
            raise ValidationError("unit vector must be nonzero")
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "unit", unit)


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        flat = []
        for f in self.factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 2:  # one factor would describe itself but print as a tuple
            raise ValidationError("a product needs at least two factors")
        object.__setattr__(self, "factors", tuple(flat))


RingSpec = Zmod | PolyQuotient | StructureConstants | Product


#: orders are computed exactly below this bound and read as it above: no ring
#: that large is built, and its decimal text passes Python's 4300-digit limit
ORDER_CAP = 10**4300


def spec_order(spec: RingSpec) -> int:
    """Cardinality of the ring a spec will build, computed without building;
    ``ORDER_CAP`` for every order at or above it, so no huge integer is formed."""
    if isinstance(spec, Zmod):
        return min(spec.n, ORDER_CAP)
    if isinstance(spec, PolyQuotient):
        base = spec_order(spec.base)
        # base^d >= 2^((bits - 1) * d): the cap is passed without the power
        if (base.bit_length() - 1) * spec.degree >= ORDER_CAP.bit_length():
            return ORDER_CAP
        return min(base**spec.degree, ORDER_CAP)
    if isinstance(spec, StructureConstants):  # dim^3 table entries bound dim
        return min(spec.n**spec.dim, ORDER_CAP)
    if isinstance(spec, Product):
        return functools.reduce(
            lambda a, b: min(a * b, ORDER_CAP), map(spec_order, spec.factors)
        )
    raise TypeError(f"not a ring spec: {spec!r}")


def spec_char(spec: RingSpec) -> int:
    """Additive order of 1 in the ring a spec will build."""
    if isinstance(spec, Zmod):
        return spec.n
    if isinstance(spec, PolyQuotient):
        return spec_char(spec.base)
    if isinstance(spec, StructureConstants):
        orders = [spec.n // gcd(spec.n, u) for u in spec.unit]
        return lcm(*orders) if orders else 1
    if isinstance(spec, Product):
        return lcm(*(spec_char(f) for f in spec.factors))
    raise TypeError(f"not a ring spec: {spec!r}")


def power_text(k: int) -> str:
    """The monomial x^k as text; empty for k = 0."""
    return "" if k == 0 else "x" if k == 1 else f"x^{k}"


def sum_text(terms) -> str:
    """``c*m+...`` from the (coefficient, monomial) texts of the nonzero terms.

    An empty coefficient (one, on a monomial) or an empty monomial (a
    constant term) is printed without its ``*``; no terms print ``0``.
    """
    return "+".join("*".join(filter(None, term)) for term in terms) or "0"


def _int_poly_text(coeffs) -> str:
    return sum_text(
        ("" if c == 1 and k else str(c), power_text(k))
        for k, c in enumerate(coeffs)
        if c
    )


def spec_text(spec: RingSpec) -> str:
    """Canonical printer; ``parse_ring_spec(spec_text(s)) == s``."""
    if isinstance(spec, Zmod):
        return f"Z/{spec.n}"
    if isinstance(spec, PolyQuotient):
        return f"{spec_text(spec.base)}[x]/({_int_poly_text(spec.modulus)})"
    if isinstance(spec, StructureConstants):
        flat = ",".join(
            str(c) for row in spec.table for vec in row for c in vec
        )
        unit = ",".join(str(c) for c in spec.unit)
        return f"SC({spec.n};{spec.dim};{flat};{unit})"
    if isinstance(spec, Product):
        return " x ".join(spec_text(f) for f in spec.factors)
    raise TypeError(f"not a ring spec: {spec!r}")


# ---------------------------------------------------------------------------
# realized rings

# entries per block of a vectorised loop's temporaries (int64: 256 KiB),
# shared by the table builder, the ideal and the module layers
_CHUNK = 1 << 15


class Ring:
    """A realized finite commutative ring.

    Subclasses fill in ``elements`` (canonically sorted values), ``index``
    (value -> position), ``zero`` and ``one``, and define the arithmetic
    once, as ``_add``, ``_mul`` and ``_neg`` on element positions.  Those
    take Python ints or numpy integer arrays that broadcast together, and
    position 0 is always zero.  The base class derives the rest: the
    value-level ``add``, ``mul``, ``neg`` and the cached index-level
    operation tables used by the exhaustive searches.
    """

    spec: RingSpec | None = None
    _parts: tuple = ()

    def __init__(self, guards: Guards):
        self.guards = guards
        self._tables = None
        self._cache: dict = {}

    # -- carrier ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def describe(self) -> str:
        if self.spec is not None:
            return spec_text(self.spec)
        return self._describe()

    _one_pos = functools.cached_property(lambda self: self.index[self.one])  # one's position

    def _describe(self) -> str:
        return f"<ring of order {self.order}>"

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()} (order {self.order})>"

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        return self.elements[self._sum(self.index[x], self.index[y])]

    def mul(self, x, y):
        return self.elements[self._prod(self.index[x], self.index[y])]

    def neg(self, x):
        return self.elements[self._neg(self.index[x])]

    # ``+`` and ``*`` on positions as other code reads them: a lookup in the
    # cached table once there is one, else the defining op (building nothing)
    def _sum(self, i, j):
        return self._add(i, j) if self._tables is None else self._tables[0][i, j]

    def _prod(self, i, j):
        return self._mul(i, j) if self._tables is None else self._tables[1][i, j]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    @property
    def char(self) -> int:
        """Additive order of 1."""
        return len(self._int_images)

    @functools.cached_property
    def _int_images(self) -> list:
        # images[k] == k * 1 for 0 <= k < char
        images = [self.zero]
        cur = self.one
        while cur != self.zero:
            images.append(cur)
            cur = self.add(cur, self.one)
        return images

    def scalar_from_int(self, k: int):
        """The image of the integer k, i.e. k * 1."""
        images = self._int_images
        return images[k % len(images)]

    # -- cached operation tables ----------------------------------------------

    def tables(self):
        """Index-level (add, mul, neg) tables as numpy int32 arrays."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def _build_tables(self):
        # the position ops over the whole grid, a block of rows at a time;
        # the parts' tables are smaller, so read them instead of their ops
        for part in set(self._parts):
            part.tables()
        n = self.order
        ar = np.arange(n, dtype=np.int64)
        add = np.empty((n, n), dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        step = max(1, _CHUNK // n)
        for s in range(0, n, step):
            rows = ar[s : s + step, None]
            add[s : s + step] = self._add(rows, ar)
            mul[s : s + step] = self._mul(rows, ar)
        return add, mul, self._neg(ar).astype(np.int32)


class ZmodRing(Ring):
    """Positions are the residues themselves."""

    def __init__(self, spec: Zmod, guards: Guards):
        super().__init__(guards)
        self.spec = spec
        self.n = spec.n
        self.elements = list(range(self.n))
        self.index = {x: x for x in self.elements}
        self.zero = 0
        self.one = 1 % self.n

    def _add(self, i, j):
        return (i + j) % self.n

    def _mul(self, i, j):
        return (i * j) % self.n

    def _neg(self, i):
        return -i % self.n


class _DigitRing(Ring):
    """Positions are digit strings, one position of ``_parts[t]`` per digit t,
    the first digit most significant; addition and negation act digitwise.
    The carrier is the product of the parts' carriers.  Parts are shared,
    verified sub-rings (see :func:`build_ring`); the ops read their tables
    when built, and only a table build here builds them.
    """

    def __init__(self, spec: RingSpec, parts, guards: Guards):
        super().__init__(guards)
        self.spec = spec
        self._parts = tuple(parts)
        self.elements = list(itertools.product(*(p.elements for p in self._parts)))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = tuple(p.zero for p in self._parts)

    def _split(self, p):
        digits = []
        for part in reversed(self._parts):
            p, digit = divmod(p, part.order)
            digits.append(digit)
        return digits[::-1]

    def _join(self, digits):
        p = 0
        for part, digit in zip(self._parts, digits):
            p = p * part.order + digit
        return p

    def _add(self, i, j):
        pairs = zip(self._parts, self._split(i), self._split(j))
        return self._join([f._sum(a, b) for f, a, b in pairs])

    def _neg(self, i):
        return self._join([f._neg(a) for f, a in zip(self._parts, self._split(i))])


class StructureConstantRing(_DigitRing):
    """A free algebra over one verified base part, ``base[x]/(f)`` on the
    powers of x or a structure-constant algebra on b0..b{d-1}: elements are
    coefficient tuples, positions one base digit per basis vector, the first
    most significant.  ``table[s][t]`` gives the base positions of the
    product of basis vectors s and t; ``_mul`` is the bilinear product it
    defines.  The ring laws are checked on the basis when built."""

    def __init__(self, spec: RingSpec, base: Ring, table, unit: tuple, guards: Guards):
        super().__init__(spec, (base,) * len(table), guards)
        self.base, self.dim, self.one = base, len(table), unit
        # {(s, t): [(k, c), ...]}, the nonzero constants only (position 0 is zero)
        self._terms = {
            (s, t): nz
            for s, row in enumerate(table)
            for t, vec in enumerate(row)
            if (nz := [(k, int(c)) for k, c in enumerate(vec) if c])
        }
        self._check_basis_laws()

    def _mul(self, i, j):
        # res_k = sum over (s, t) of x_s * y_t * c_(s,t,k), in the base
        base = self.base
        one = base._one_pos
        x, y = self._split(i), self._split(j)
        res = [0] * len(x)
        for (s, t), terms in self._terms.items():
            xy = base._prod(x[s], y[t])
            for k, c in terms:
                res[k] = base._sum(res[k], xy if c == one else base._prod(xy, c))
        return self._join(res)

    def _check_basis_laws(self):
        # the base is a verified commutative ring and _mul is bilinear over it,
        # so these laws on basis pairs and triples hold on the whole ring, and
        # _add is digitwise, so distributivity holds for any table
        basis = self.base._one_pos * self.base.order ** np.arange(self.dim - 1, -1, -1)

        def mul(a, b):  # a table with no nonzero constant multiplies to the scalar 0
            return np.broadcast_to(self._mul(a, b), np.broadcast(a, b).shape)

        pairs = mul(basis[:, None], basis)  # [i, j] = bi * bj
        for message, broken in (
            ("structure constants are not commutative at b{}*b{}", pairs != pairs.T),
            ("unit vector does not act as identity on b{}", mul(self._one_pos, basis) != basis),
            ("structure constants are not associative at (b{},b{},b{})",
             mul(pairs[:, :, None], basis) != mul(basis[:, None, None], pairs)),
        ):
            if broken.any():  # the first in row-major order, as loops would meet it
                raise AxiomViolation(message.format(*np.argwhere(broken)[0]))


def _power_table(base: Ring, coeffs: tuple) -> list:
    """The basis products of base[x]/(f), f's integer coefficients ``coeffs``
    ascending: ``table[s][t]`` holds the base positions of x^(s+t) reduced
    by x^d = -(f0 + ... + f_{d-1} x^{d-1})."""
    d = len(coeffs) - 1
    xd = [base._neg(base.index[base.scalar_from_int(c)]) for c in coeffs[:-1]]
    pows = [[base._one_pos if k == e else 0 for k in range(d)] for e in range(d)]
    for _ in range(d - 1):
        *low, top = pows[-1]
        pows.append([base._add(s, base._mul(top, c)) for s, c in zip([0, *low], xd)])
    return [[pows[s + t] for t in range(d)] for s in range(d)]


class ProductRing(_DigitRing):
    """Positions are digit strings of factor positions; all three ops act digitwise."""

    def __init__(self, spec: Product, factors: list[Ring], guards: Guards):
        super().__init__(spec, factors, guards)
        self.factors = self._parts
        self.one = tuple(f.one for f in factors)

    def _mul(self, i, j):
        pairs = zip(self._parts, self._split(i), self._split(j))
        return self._join([f._prod(a, b) for f, a, b in pairs])


# ---------------------------------------------------------------------------
# construction and verification


def kept(key: str):
    """Decorator: compute ``fn(obj)`` once and keep it in ``obj._cache[key]``
    for the life of ``obj``, a ring or a module.  A call that raises keeps
    nothing, so the next call computes again."""
    def keep(fn):
        @functools.wraps(fn)
        def once(obj):
            if key not in obj._cache:
                obj._cache[key] = fn(obj)
            return obj._cache[key]
        return once
    return keep


@kept("table_key")
def _table_key(ring: Ring) -> tuple:
    add, mul, _ = ring.tables()
    return ring.guards, ring.order, add.tobytes(), mul.tobytes()


# the first live ring per (guards, order, table bytes); an entry dies with its ring
_OWNERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def table_owner(ring: Ring) -> Ring:
    """The first live ring with ``ring``'s guards and operation tables; a
    ring that mirrors another (a product's factor) has its mirror's owner."""
    ring = getattr(ring, "mirror", None) or ring
    return _OWNERS.setdefault(_table_key(ring), ring)


# the rings holding request memos, which the next request drops
_REQUEST_HOLDERS: weakref.WeakSet = weakref.WeakSet()


def new_request() -> None:
    """Start a request: drop every memo :func:`request_memo` handed out."""
    for ring in _REQUEST_HOLDERS:
        ring._cache.pop("request", None)
    _REQUEST_HOLDERS.clear()


def request_memo(ring: Ring, name: str) -> dict:
    """``ring``'s memo ``name`` until the next :func:`new_request`; with the
    ring, for a caller that never starts a request."""
    if "request" not in ring._cache:
        ring._cache["request"] = {}
        _REQUEST_HOLDERS.add(ring)
    return ring._cache["request"].setdefault(name, {})


def _construct(spec: RingSpec, guards: Guards) -> Ring:
    order = spec_order(spec)
    if order > guards.max_ring_order:
        shown = order if order < ORDER_CAP else "at least 10^4300"
        raise GuardExceeded(
            f"ring of order {shown} exceeds the construction guard "
            f"({guards.max_ring_order})",
            "max_ring_order", order, guards.max_ring_order,
        )
    if isinstance(spec, Zmod):
        ring = ZmodRing(spec, guards)
        verify_ring_axioms(ring)
        return ring
    if isinstance(spec, Product):  # a product of rings is a ring
        return ProductRing(spec, [kept_ring(f, guards) for f in spec.factors], guards)
    if isinstance(spec, PolyQuotient):
        base = kept_ring(spec.base, guards)
        table = _power_table(base, spec.modulus)
        unit = (base.one,) + (base.zero,) * (spec.degree - 1)
    elif isinstance(spec, StructureConstants):
        base = kept_ring(Zmod(spec.n), guards)
        table, unit = spec.table, spec.unit
    else:
        raise TypeError(f"not a ring spec: {spec!r}")
    return StructureConstantRing(spec, base, table, unit, guards)


_kept = functools.lru_cache(maxsize=64)(_construct)


def kept_ring(spec: RingSpec, guards: Guards) -> Ring:
    """The one verified ring per spec and guards of order at most 64, the 64
    most recently used kept for the process; a larger ring is built anew."""
    return (_construct if spec_order(spec) > EXHAUSTIVE_ORDER else _kept)(spec, guards)


def build_ring(spec: RingSpec, guards: Guards | None = None) -> Ring:
    """Realize a spec, its ring laws checked where its arithmetic is defined.

    ``Z/n`` goes through :func:`verify_ring_axioms`, each quotient level
    and structure-constant ring checks its laws on its basis, and a product
    inherits its factors'.  Each call returns a new ring, distinct from every
    other (modules over two builds do not mix), but its bases and factors
    come from :func:`kept_ring`: up to order 64 they are verified once for
    the process.
    """
    return _construct(spec, guards or DEFAULT_GUARDS)


def _ring_laws(add, mul, neg, a, b, c, x, z, e):
    """(message, lhs, rhs) for each ring law, over triples a, b, c and elements x."""
    yield "addition is not commutative", add(a, b), add(b, a)
    yield "multiplication is not commutative", mul(a, b), mul(b, a)
    yield "addition is not associative", add(add(a, b), c), add(a, add(b, c))
    yield "multiplication is not associative", mul(mul(a, b), c), mul(a, mul(b, c))
    yield "zero is not an additive identity", add(z, x), x
    yield "negation is not an additive inverse", add(x, neg(x)), z
    yield "one is not a multiplicative identity", mul(e, x), x
    yield (
        "multiplication does not distribute over addition",
        mul(a, add(b, c)),
        add(mul(a, b), mul(a, c)),
    )


def _additive_generators(add, z) -> list[int]:
    """Least-first positions, zero last, whose ``((g1 + g2) + ...)`` reach all."""
    gens, cols, reached = [], [], {}  # an ordered set
    for p in [*range(z), *range(z + 1, len(add)), z]:
        if p not in reached:
            gens.append(p)
            cols.append(add[:, p].tolist())
            stack = [p, *reached]  # what was reached needs + p too
            reached[p] = None
            while stack:
                s = stack.pop()
                for t in [col[s] for col in cols]:
                    if t not in reached:
                        reached[t] = None
                        stack.append(t)
    return gens


#: the largest order whose ring laws are checked on the whole operation tables;
#: above it they are sampled
EXHAUSTIVE_ORDER = 64


#: triples a, b, c a sampled axiom check draws
AXIOM_SAMPLE_COUNT = 512


def _sample_draws(guards: Guards, n: int) -> np.ndarray:
    """``AXIOM_SAMPLE_COUNT`` triples a, b, c of fixed-seed draws below n,
    from one ``Random(axiom_seed)`` in that order."""
    rnd = random.Random(guards.axiom_seed)
    draws = [rnd.randrange(n) for _ in range(3 * AXIOM_SAMPLE_COUNT)]
    return np.array(draws, dtype=np.int64).reshape(AXIOM_SAMPLE_COUNT, 3)


def verify_ring_axioms(ring: Ring) -> None:
    """Check the ring laws on element positions.

    Construction runs it on ``Z/n`` alone (see :func:`build_ring`); on any
    other ring it is the reference check.  Up to order 64 it is
    exhaustive, via additive generators, on the operation tables.  The
    commutativity laws are checked on every pair, the zero, negation and
    one laws on every element, and each law in three variables only for its
    middle or last variable g in a set G whose left-normed sums reach every
    position (n²·|G| comparisons, not n³).
    The g where a law holds are closed under +, so G proves it on all of R:
    for (x + g) + y = x + (g + y) with no other law assumed (Light's
    associativity test), for x(y + g) = xy + xg given + associative, and
    for (xy)g = x(yg) given distributivity.  Every comparison is an
    instance of a law, so a ring passes exactly when every triple does;
    when one fails, all are checked in the order of ``_ring_laws``.

    Above order 64 no table is built: ``AXIOM_SAMPLE_COUNT`` triples
    drawn from ``Random(axiom_seed)`` (a, b, c per sample) go through the
    ring's position ops, and so do the identity, zero and negation laws on
    every element.
    """
    n = ring.order
    if ring.zero not in ring.index or ring.one not in ring.index:
        raise AxiomViolation("zero or one is not a canonical element")
    z, e = ring.index[ring.zero], ring.index[ring.one]
    x = np.arange(n)
    if n <= EXHAUSTIVE_ORDER:
        add, mul, neg = ring.tables()
        g = _additive_generators(add, z)
        ag, mg = add[g], mul[g]  # [k, y] = g + y and g * y
        sums, prods = add[ag], mul[mg]  # [k, x, y] = (g + x) + y and (g * x) * y
        laws = (
            (add, add.T), (mul, mul.T), (add[z], x), (add[x, neg], z), (mul[e], x),
            # both tables symmetric: (x + g) + y = x + (g + y), x(y + g) = xy + xg
            # and (xy)g = x(yg), each side indexed [k, x, y]
            (sums, sums.transpose(0, 2, 1)),
            (mul[ag].transpose(0, 2, 1), np.take(add, mg[:, :, None] * n + mul)),
            (np.take(mg, mul, axis=1), prods.transpose(0, 2, 1)),
        )
        if all(np.all(lhs == rhs) for lhs, rhs in laws):
            return
        a, b, c = x[:, None, None], x[None, :, None], x[None, None, :]
        ops = (lambda i, j: add[i, j], lambda i, j: mul[i, j], neg.__getitem__)
    else:
        a, b, c = _sample_draws(ring.guards, n).T
        ops = (ring._add, ring._mul, ring._neg)
    for message, lhs, rhs in _ring_laws(*ops, a, b, c, x, z, e):
        if not np.all(lhs == rhs):
            raise AxiomViolation(message)


# ---------------------------------------------------------------------------
# element-level queries


def unit_or_zero_divisor(ring: Ring, x) -> str:
    """Classify x as ``"unit"``, ``"zero_divisor"`` or ``"zero"``.

    In a finite commutative ring every nonzero element is exactly one of
    unit or zero divisor: if x has no inverse, multiplication by x is not
    injective and some nonzero element is killed.
    """
    if x == ring.zero:
        return "zero"
    return "unit" if units_mask(ring)[ring.index[x]] else "zero_divisor"


@kept("units_mask")
def units_mask(ring: Ring) -> np.ndarray:
    """Boolean mask over element indices marking the units.  A product's
    are the tuples of its factors' units, read off without its own table."""
    if isinstance(ring, ProductRing):
        masks = map(units_mask, ring.factors)
        return functools.reduce(lambda a, b: (a[:, None] & b).ravel(), masks)
    _, mul, _ = ring.tables()
    return (mul == ring._one_pos).any(axis=1)
