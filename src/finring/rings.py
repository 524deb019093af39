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

Ring values are immutable after construction and operations are pure, so
rings can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, lcm, prod

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
    associativity, distributivity and the unit law are all checked on the
    basis at build time (which is exhaustive, by bilinearity).
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
        if not flat:
            raise ValidationError("a product needs at least one factor")
        object.__setattr__(self, "factors", tuple(flat))


RingSpec = Zmod | PolyQuotient | StructureConstants | Product


def spec_order(spec: RingSpec) -> int:
    """Cardinality of the ring a spec will build, computed without building."""
    if isinstance(spec, Zmod):
        return spec.n
    if isinstance(spec, PolyQuotient):
        return spec_order(spec.base) ** spec.degree
    if isinstance(spec, StructureConstants):
        return spec.n ** spec.dim
    if isinstance(spec, Product):
        return prod(spec_order(f) for f in spec.factors)
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


def _int_poly_text(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        xk = "x" if k == 1 else f"x^{k}"
        terms.append(xk if c == 1 else f"{c}*{xk}")
    return "+".join(terms) if terms else "0"


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


class Ring:
    """A realized finite commutative ring.

    Subclasses fill in ``elements`` (canonically sorted values), ``index``
    (value -> position), ``zero``, ``one`` and the structural operations
    ``add``, ``mul``, ``neg`` on values.  The base class provides cached
    index-level operation tables used by the exhaustive searches.
    """

    spec: RingSpec | None = None

    def __init__(self, guards: Guards):
        self.guards = guards
        self._tables = None
        self._tables_list = None
        self._int_images = None
        self._cache: dict = {}

    # -- carrier ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def describe(self) -> str:
        if self.spec is not None:
            return spec_text(self.spec)
        return self._describe()

    def _describe(self) -> str:
        return f"<ring of order {self.order}>"

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()} (order {self.order})>"

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    @property
    def char(self) -> int:
        """Additive order of 1."""
        return len(self._one_multiples())

    def _one_multiples(self):
        # images[k] == k * 1 for 0 <= k < char
        if self._int_images is None:
            images = [self.zero]
            cur = self.one
            while cur != self.zero:
                images.append(cur)
                cur = self.add(cur, self.one)
            self._int_images = images
        return self._int_images

    def scalar_from_int(self, k: int):
        """The image of the integer k, i.e. k * 1."""
        images = self._one_multiples()
        return images[k % len(images)]

    # -- cached operation tables ----------------------------------------------

    def tables(self):
        """Index-level (add, mul, neg) tables as numpy int32 arrays."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def tables_list(self):
        """Same tables as nested Python lists, faster for scalar loops."""
        if self._tables_list is None:
            add, mul, neg = self.tables()
            self._tables_list = (add.tolist(), mul.tolist(), neg.tolist())
        return self._tables_list

    def _build_tables(self):
        n = self.order
        idx = self.index
        els = self.elements
        add = np.empty((n, n), dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        for i, x in enumerate(els):
            for j, y in enumerate(els):
                add[i, j] = idx[self.add(x, y)]
                mul[i, j] = idx[self.mul(x, y)]
        neg = np.array([idx[self.neg(x)] for x in els], dtype=np.int32)
        return add, mul, neg


class ZmodRing(Ring):
    def __init__(self, spec: Zmod, guards: Guards):
        super().__init__(guards)
        self.spec = spec
        self.n = spec.n
        self.elements = list(range(self.n))
        self.index = {x: x for x in self.elements}
        self.zero = 0
        self.one = 1 % self.n

    def add(self, x, y):
        return (x + y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def _build_tables(self):
        r = np.arange(self.n, dtype=np.int32)
        add = (r[:, None] + r[None, :]) % self.n
        mul = (r[:, None].astype(np.int64) * r[None, :]) % self.n
        neg = (-r) % self.n
        return add.astype(np.int32), mul.astype(np.int32), neg.astype(np.int32)


class PolyQuotientRing(Ring):
    """base[x]/(f) with f monic: elements are coefficient tuples of length deg f."""

    def __init__(self, spec: PolyQuotient, base: Ring, guards: Guards):
        super().__init__(guards)
        self.spec = spec
        self.base = base
        d = spec.degree
        self.deg = d
        modulus = tuple(base.scalar_from_int(c) for c in spec.modulus)
        if modulus[-1] != base.one:
            raise ValidationError("quotient modulus must be monic over the base ring")
        self.modulus = modulus
        # x^d = -(m0 + m1 x + ... + m_{d-1} x^{d-1}); extend to degree 2d-2
        xd = tuple(base.neg(c) for c in modulus[:-1])
        pows = [xd]
        for _ in range(d - 2):
            prev = pows[-1]
            lead = prev[-1]
            shifted = (base.zero,) + prev[:-1]
            pows.append(
                tuple(base.add(s, base.mul(lead, c)) for s, c in zip(shifted, xd))
            )
        self._pows = pows
        self.elements = list(itertools.product(base.elements, repeat=d))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = (base.zero,) * d
        self.one = (base.one,) + (base.zero,) * (d - 1)

    def add(self, x, y):
        base = self.base
        return tuple(base.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        base = self.base
        return tuple(base.neg(a) for a in x)

    def mul(self, x, y):
        base = self.base
        d = self.deg
        conv = [base.zero] * (2 * d - 1)
        for i, a in enumerate(x):
            if a == base.zero:
                continue
            for j, b in enumerate(y):
                if b == base.zero:
                    continue
                k = i + j
                conv[k] = base.add(conv[k], base.mul(a, b))
        res = conv[:d]
        for t in range(d - 1):
            c = conv[d + t]
            if c != base.zero:
                p = self._pows[t]
                res = [base.add(r, base.mul(c, pc)) for r, pc in zip(res, p)]
        return tuple(res)


class StructureConstantRing(Ring):
    def __init__(self, spec: StructureConstants, guards: Guards):
        super().__init__(guards)
        self.spec = spec
        self.n = spec.n
        self.dim = spec.dim
        terms = {}
        for i in range(spec.dim):
            for j in range(spec.dim):
                nz = [(k, c) for k, c in enumerate(spec.table[i][j]) if c]
                if nz:
                    terms[(i, j)] = nz
        self._terms = terms
        self.elements = list(itertools.product(range(self.n), repeat=self.dim))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = (0,) * self.dim
        self.one = spec.unit
        self._check_basis_laws()

    def add(self, x, y):
        n = self.n
        return tuple((a + b) % n for a, b in zip(x, y))

    def neg(self, x):
        n = self.n
        return tuple((-a) % n for a in x)

    def mul(self, x, y):
        n = self.n
        res = [0] * self.dim
        for (i, j), ks in self._terms.items():
            c = (x[i] * y[j]) % n
            if c:
                for k, tc in ks:
                    res[k] = (res[k] + c * tc) % n
        return tuple(res)

    def _check_basis_laws(self):
        # bilinearity makes basis-level checks exhaustive for the whole ring
        d, tab = self.dim, self.spec.table
        basis = [tuple(1 if t == k else 0 for t in range(d)) for k in range(d)]
        for i in range(d):
            for j in range(d):
                if tab[i][j] != tab[j][i]:
                    raise AxiomViolation(
                        f"structure constants are not commutative at b{i}*b{j}"
                    )
        for j, bj in enumerate(basis):
            if self.mul(self.one, bj) != bj:
                raise AxiomViolation(f"unit vector does not act as identity on b{j}")
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                for k, bk in enumerate(basis):
                    if self.mul(self.mul(bi, bj), bk) != self.mul(bi, self.mul(bj, bk)):
                        raise AxiomViolation(
                            f"structure constants are not associative at (b{i},b{j},b{k})"
                        )
                    lhs = self.mul(bi, self.add(bj, bk))
                    rhs = self.add(self.mul(bi, bj), self.mul(bi, bk))
                    if lhs != rhs:
                        raise AxiomViolation(
                            f"structure constants are not distributive at (b{i},b{j},b{k})"
                        )


class ProductRing(Ring):
    def __init__(self, spec: Product, factors: list[Ring], guards: Guards):
        super().__init__(guards)
        self.spec = spec
        self.factors = tuple(factors)
        self.elements = list(itertools.product(*(f.elements for f in factors)))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def _build_tables(self):
        # the product carrier is ordered row-major over the factors, so the
        # tables compose by index arithmetic
        add, mul, neg = (t.astype(np.int64) for t in self.factors[0].tables())
        size = self.factors[0].order
        for f in self.factors[1:]:
            a2, m2, n2 = (t.astype(np.int64) for t in f.tables())
            n = f.order
            add = (add[:, None, :, None] * n + a2[None, :, None, :]).reshape(
                size * n, size * n
            )
            mul = (mul[:, None, :, None] * n + m2[None, :, None, :]).reshape(
                size * n, size * n
            )
            neg = (neg[:, None] * n + n2[None, :]).reshape(size * n)
            size *= n
        return add.astype(np.int32), mul.astype(np.int32), neg.astype(np.int32)


# ---------------------------------------------------------------------------
# construction and verification


def _construct(spec: RingSpec, guards: Guards) -> Ring:
    if isinstance(spec, Zmod):
        ring = ZmodRing(spec, guards)
    elif isinstance(spec, PolyQuotient):
        base = _construct(spec.base, guards)
        ring = PolyQuotientRing(spec, base, guards)
    elif isinstance(spec, StructureConstants):
        ring = StructureConstantRing(spec, guards)
    elif isinstance(spec, Product):
        factors = [_construct(f, guards) for f in spec.factors]
        ring = ProductRing(spec, factors, guards)
    else:
        raise TypeError(f"not a ring spec: {spec!r}")
    verify_ring_axioms(ring)
    return ring


def build_ring(spec: RingSpec, guards: Guards | None = None) -> Ring:
    """Realize a spec, verifying the ring axioms.

    Exhaustive verification for order <= 64; for larger rings a fixed-seed
    sample of triples plus exhaustive identity/zero/negation rows.
    """
    guards = guards or DEFAULT_GUARDS
    order = spec_order(spec)
    if order > guards.max_ring_order:
        raise GuardExceeded(
            f"ring of order {order} exceeds the construction guard "
            f"({guards.max_ring_order})"
        )
    return _construct(spec, guards)


def verify_ring_axioms(ring: Ring) -> None:
    n = ring.order
    if ring.zero not in ring.index or ring.one not in ring.index:
        raise AxiomViolation("zero or one is not a canonical element")
    if n <= 64:
        add, mul, neg = ring.tables()
        ar = np.arange(n)
        z = ring.index[ring.zero]
        e = ring.index[ring.one]
        if not (add == add.T).all():
            raise AxiomViolation("addition is not commutative")
        if not (mul == mul.T).all():
            raise AxiomViolation("multiplication is not commutative")
        if not (add[add] == add[:, add]).all():
            raise AxiomViolation("addition is not associative")
        if not (mul[mul] == mul[:, mul]).all():
            raise AxiomViolation("multiplication is not associative")
        if not (add[z] == ar).all():
            raise AxiomViolation("zero is not an additive identity")
        if not (add[ar, neg] == z).all():
            raise AxiomViolation("negation is not an additive inverse")
        if not (mul[e] == ar).all():
            raise AxiomViolation("one is not a multiplicative identity")
        if not (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all():
            raise AxiomViolation("multiplication does not distribute over addition")
        return
    els = ring.elements
    z, e = ring.zero, ring.one
    for x in els:
        if ring.mul(e, x) != x:
            raise AxiomViolation("one is not a multiplicative identity")
        if ring.add(z, x) != x:
            raise AxiomViolation("zero is not an additive identity")
        if ring.add(x, ring.neg(x)) != z:
            raise AxiomViolation("negation is not an additive inverse")
    rnd = random.Random(ring.guards.axiom_seed)
    for _ in range(ring.guards.axiom_sample_count):
        a = els[rnd.randrange(n)]
        b = els[rnd.randrange(n)]
        c = els[rnd.randrange(n)]
        if ring.add(a, b) != ring.add(b, a):
            raise AxiomViolation("addition is not commutative")
        if ring.mul(a, b) != ring.mul(b, a):
            raise AxiomViolation("multiplication is not commutative")
        if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
            raise AxiomViolation("addition is not associative")
        if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
            raise AxiomViolation("multiplication is not associative")
        if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
            raise AxiomViolation("multiplication does not distribute over addition")


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


def units_mask(ring: Ring) -> np.ndarray:
    """Boolean mask over element indices marking the units."""
    key = "units_mask"
    if key not in ring._cache:
        _, mul, _ = ring.tables()
        ring._cache[key] = (mul == ring.index[ring.one]).any(axis=1)
    return ring._cache[key]
