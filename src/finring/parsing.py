"""Text formats: the ring-spec grammar, element literals, presentation matrices.

Ring specs (whitespace insignificant)::

    Z/4                        integers mod 4
    GF(9)                      finite field, sugar for Z/3[x]/(2+2*x+x^2)
    GF(2)[x]/(x^2)             monic quotient; binds to the preceding atom
    SC(2;3;<27 ints>;1,0,0)    structure constants over Z/2, table row-major
    Z/4 x Z/3                  direct product, flattened left-to-right

A quotient tower may be at most ``MAX_QUOTIENT_DEPTH`` levels deep (GF(q)
sugar counts as one level).  Every level of degree >= 2 at least doubles
the order, so a deeper tower of such levels exceeds any constructible ring
anyway, and levels of degree 1 add nothing; deeper nesting is a parse
error, raised before any ring is built.  So are, for the same reason, a
modulus of degree d >= log2 ``ORDER_CAP`` (its ring has at least 2^d
elements) and ``GF(q)`` with q >= 2^64.

Element literals: integers for Z/n (reduced mod n), polynomials
``a0+a1*x+...`` for quotients (coefficients are integers, or parenthesized
base literals over a non-prime base), combinations of ``b0..b{d-1}`` for
structure-constant rings, tuples ``(e1,e2)`` for products.

Presentation matrices: rows separated by ``;``, entries by commas, each
entry an element literal.  Row i lists the coefficients of
generator i across the relation columns; ``2,0;0,4`` over Z/8 presents
R^2 / <(2,0), (0,4)>.
"""

from __future__ import annotations

from functools import partial

from .errors import ParseError, ValidationError
from .ideals import IdempotentFactorRing
from .modules import Presentation
from .rings import (
    ORDER_CAP,
    PolyQuotient,
    Product,
    Ring,
    RingSpec,
    StructureConstantRing,
    StructureConstants,
    Zmod,
    power_text,
    spec_text,
    sum_text,
)

# monic irreducible moduli (ascending coefficients) for the GF(p^k) sugar,
# shipped for all prime powers p^k <= 64 with k >= 2
GF_MODULI = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    32: (2, (1, 0, 1, 0, 0, 1)),
    64: (2, (1, 1, 0, 1, 1, 0, 1)),
    9: (3, (2, 2, 1)),
    27: (3, (1, 2, 0, 1)),
    25: (5, (2, 4, 1)),
    49: (7, (3, 6, 1)),
}


def _is_prime(n: int) -> bool:
    """Whether n >= 2 is prime: Miller-Rabin to the prime bases up to 37,
    which is exact for n < 3.3 * 10^24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % a == 0:
            return n == a
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _prime_power(q: int):
    """(p, k) with q = p^k for a prime p, else None; for q < 2^64, whose
    roots of degree k >= 2 a float finds exactly."""
    if q < 2:
        return None
    for k in range(1, q.bit_length()):
        p = q if k == 1 else round(q ** (1 / k))
        if p**k == q and _is_prime(p):
            return p, k
    return None


MAX_QUOTIENT_DEPTH = 64


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.eat(literal):
            raise self.error(f"expected {literal!r}")

    def build(self, start: int, recipe, *args):
        """``recipe(*args)``; its ValidationError is a parse error at ``start``."""
        try:
            return recipe(*args)
        except ValidationError as exc:
            self.pos = start
            raise self.error(str(exc)) from exc

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than Python converts
            self.pos = start
            raise self.error("integer literal too long") from None

    def exponent(self) -> int:
        """The integer after a ``^``; a negative one is a parse error at its sign."""
        if (k := self.integer()) < 0:
            self.pos = self.text.rindex("-", 0, self.pos)
            raise self.error(f"negative exponent {k}")
        return k


# ---------------------------------------------------------------------------
# ring specs


def parse_ring_spec(text: str) -> RingSpec:
    cur = _Cursor(text)
    spec = _parse_product(cur)
    if not cur.at_end():
        raise cur.error("unexpected trailing input")
    return spec


def _parse_product(cur: _Cursor) -> RingSpec:
    factors = [_parse_atom(cur)]
    while True:
        save = cur.pos
        cur.skip_ws()
        if cur.pos < len(cur.text) and cur.text[cur.pos] == "x":
            cur.pos += 1
            factors.append(_parse_atom(cur))
        else:
            cur.pos = save
            break
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_atom(cur: _Cursor) -> RingSpec:
    spec = _parse_base(cur)
    depth = int(isinstance(spec, PolyQuotient))
    while True:
        save = cur.pos
        if cur.eat("["):
            depth += 1
            if depth > MAX_QUOTIENT_DEPTH:
                cur.pos = save
                raise cur.error(
                    f"quotient tower deeper than {MAX_QUOTIENT_DEPTH} levels"
                )
            cur.expect("x")
            cur.expect("]")
            cur.expect("/")
            cur.expect("(")
            coeffs = _parse_int_poly(cur)
            cur.expect(")")
            spec = cur.build(save, PolyQuotient, spec, tuple(coeffs))
        else:
            break
    return spec


def _parse_base(cur: _Cursor) -> RingSpec:
    if cur.eat("Z"):
        cur.expect("/")
        return cur.build(cur.pos, Zmod, cur.integer())
    if cur.eat("GF"):
        cur.expect("(")
        save = cur.pos
        q = cur.integer()
        k = cur.exponent() if cur.eat("^") else 1
        cur.expect(")")
        # |q|^k >= 2^64 once (bits - 1) * k >= 64: such a power is never formed
        if (q.bit_length() - 1) * k >= 64 or (q**k).bit_length() > 64:
            cur.pos = save
            raise cur.error("GF(q) needs q below 2^64")
        q = q**k
        pk = _prime_power(q)
        if pk is None:
            cur.pos = save
            raise cur.error(f"GF({q}): {q} is not a prime power")
        p, k = pk
        if k == 1:
            return Zmod(p)
        if q not in GF_MODULI:
            cur.pos = save
            raise cur.error(f"GF({q}): no modulus shipped for prime powers above 64")
        _, coeffs = GF_MODULI[q]
        return PolyQuotient(Zmod(p), coeffs)
    if cur.eat("SC"):
        cur.expect("(")
        save = cur.pos
        n = cur.integer()
        cur.expect(";")
        dim = cur.integer()
        cur.expect(";")
        flat = [cur.integer()]
        while cur.eat(","):
            flat.append(cur.integer())
        cur.expect(";")
        unit = [cur.integer()]
        while cur.eat(","):
            unit.append(cur.integer())
        cur.expect(")")
        if len(flat) != dim**3:
            cur.pos = save
            raise cur.error(
                f"structure-constant table needs {dim}^3 entries, got {len(flat)}"
            )
        table = tuple(
            tuple(
                tuple(flat[(i * dim + j) * dim + k] for k in range(dim))
                for j in range(dim)
            )
            for i in range(dim)
        )
        return cur.build(save, StructureConstants, n, dim, table, tuple(unit))
    raise cur.error("expected a ring spec (Z/n, GF(q), SC(...) or a quotient)")


def _signed_terms(cur: _Cursor, term):
    """Yield ``(sign, term(cur))`` for each term of ``[-] term (+|- term)*``."""
    sign = -1 if cur.eat("-") else 1
    while True:
        yield sign, term(cur)
        if cur.eat("+"):
            sign = 1
        elif cur.eat("-"):
            sign = -1
        else:
            return


def _power(cur: _Cursor) -> int:
    """The exponent k of an ``x`` or ``x^k`` factor."""
    cur.expect("x")
    return cur.exponent() if cur.eat("^") else 1


def _parse_int_poly(cur: _Cursor) -> list[int]:
    """Polynomial in x with integer coefficients; ascending coefficient list."""
    coeffs: dict[int, int] = {}
    for sign, (coef, power) in _signed_terms(cur, _parse_int_term):
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    degree = max(coeffs)
    if degree >= ORDER_CAP.bit_length():
        raise cur.error(f"a modulus of degree {degree} makes a ring too large to build")
    return [coeffs.get(k, 0) for k in range(degree + 1)]


def _parse_int_term(cur: _Cursor):
    ch = cur.peek()
    if ch.isdigit():
        coef = cur.integer()
        return coef, _power(cur) if cur.eat("*") or cur.peek() == "x" else 0
    if ch == "x":
        return 1, _power(cur)
    raise cur.error("expected a polynomial term")


# ---------------------------------------------------------------------------
# element literals


def parse_element(ring: Ring, text: str):
    cur = _Cursor(text)
    value = _parse_element(ring, cur)
    if not cur.at_end():
        raise cur.error("unexpected trailing input in element literal")
    return value


def _parse_element(ring: Ring, cur: _Cursor):
    if isinstance(ring.spec, Zmod):
        return cur.integer() % ring.spec.n
    if isinstance(ring.spec, Product):
        cur.expect("(")
        parts = []
        for i, factor in enumerate(ring.factors):
            if i:
                cur.expect(",")
            parts.append(_parse_element(factor, cur))
        cur.expect(")")
        return tuple(parts)
    if isinstance(ring.spec, PolyQuotient):
        return _signed_sum(ring, cur, partial(_parse_poly_term, ring, _x(ring)))
    if isinstance(ring.spec, StructureConstants):
        return _signed_sum(ring, cur, partial(_parse_sc_term, ring))
    if isinstance(ring, IdempotentFactorRing):
        value = _parse_element(ring.parent, cur)
        if value not in ring.index:
            raise cur.error("element lies outside the factor ring")
        return value
    raise cur.error(f"no literal syntax for {type(ring).__name__}")


def _signed_sum(ring: Ring, cur: _Cursor, term):
    """The ring value of a literal ``[-] term (+|- term)*``."""
    result = ring.zero
    for sign, value in _signed_terms(cur, term):
        result = ring.add(result, value) if sign == 1 else ring.sub(result, value)
    return result


def _x(ring: StructureConstantRing):
    """The class of x in the quotient; in degree 1, x itself reduces to -m0."""
    base = ring.base
    if ring.dim >= 2:
        return (base.zero, base.one) + (base.zero,) * (ring.dim - 2)
    return (base.neg(base.scalar_from_int(ring.spec.modulus[0])),)


def _parse_poly_term(ring: StructureConstantRing, x, cur: _Cursor):
    base = ring.base
    ch = cur.peek()
    coeff = None
    if ch == "(":
        # parenthesized coefficient literal of the base ring
        cur.expect("(")
        coeff = _parse_element(base, cur)
        cur.expect(")")
    elif ch.isdigit() or ch in "+-":
        coeff = base.scalar_from_int(cur.integer())
    if coeff is not None:
        power = _power(cur) if cur.eat("*") or cur.peek() == "x" else 0
        return _embed_coeff_times_power(ring, coeff, x, power)
    if ch == "x":
        return _embed_coeff_times_power(ring, base.one, x, _power(cur))
    raise cur.error("expected a polynomial element term")


def _embed_coeff_times_power(ring: StructureConstantRing, coeff, x, power: int):
    """coeff * x^power, by square-and-multiply."""
    result = (coeff,) + (ring.base.zero,) * (ring.dim - 1)
    while power:
        if power & 1:
            result = ring.mul(result, x)
        x, power = ring.mul(x, x), power >> 1
    return result


def _parse_sc_term(ring: StructureConstantRing, cur: _Cursor):
    n, dim = ring.spec.n, ring.dim
    ch = cur.peek()
    if ch.isdigit() or ch in "+-":
        coef = cur.integer()
        if not (cur.eat("*") or cur.peek() == "b"):
            return ring.scalar_from_int(coef)
    elif ch == "b":
        coef = 1
    else:
        raise cur.error("expected a structure-constant element term")
    cur.expect("b")
    i = cur.integer()
    if not 0 <= i < dim:
        raise cur.error(f"basis name b{i} out of range (dimension {dim})")
    return tuple((coef % n) if t == i else 0 for t in range(dim))


def format_element(ring: Ring, value) -> str:
    """Canonical literal printer; round-trips through :func:`parse_element`."""
    if isinstance(ring.spec, Zmod):
        return str(value)
    if isinstance(ring.spec, Product):
        parts = [format_element(f, v) for f, v in zip(ring.factors, value)]
        return "(" + ",".join(parts) + ")"
    if isinstance(ring.spec, PolyQuotient):
        base = ring.base
        # coefficients over a base other than Z/n print as parenthesized literals
        wrap = "{}" if isinstance(base.spec, Zmod) else "({})"
        return sum_text(
            (
                "" if c == base.one and k else wrap.format(format_element(base, c)),
                power_text(k),
            )
            for k, c in enumerate(value)
            if c != base.zero
        )
    if isinstance(ring.spec, StructureConstants):
        return sum_text(
            ("" if c == 1 else str(c), f"b{k}") for k, c in enumerate(value) if c
        )
    if isinstance(ring, IdempotentFactorRing):
        return format_element(ring.parent, value)
    raise ValidationError(f"no literal syntax for {type(ring).__name__}")


# ---------------------------------------------------------------------------
# presentation matrices


def parse_presentation(ring: Ring, text: str) -> Presentation:
    """Parse a relation matrix into a Presentation over ``ring``.

    An empty string presents the zero module (no generators).  One cursor
    reads the whole matrix, so every error points into ``text``.
    """
    cur = _Cursor(text)
    if cur.at_end():
        return Presentation(ring, 0, ())
    rows, row = [], []
    while True:
        row.append(_parse_element(ring, cur))
        if cur.eat(","):
            continue
        if rows and len(row) != len(rows[0]):
            raise cur.error("ragged presentation matrix")
        rows.append(row)
        row = []
        if not cur.eat(";"):
            break
    if not cur.at_end():
        raise cur.error("expected ',', ';' or the end of the matrix")
    # drop all-zero columns; they present nothing
    columns = tuple(c for c in zip(*rows) if any(v != ring.zero for v in c))
    return Presentation(ring, len(rows), columns)


__all__ = [
    "GF_MODULI",
    "MAX_QUOTIENT_DEPTH",
    "format_element",
    "parse_element",
    "parse_presentation",
    "parse_ring_spec",
    "spec_text",
]
