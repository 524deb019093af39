import gc
import itertools
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finring.classify import SQUARE_ZERO_PAIR, catalog_specs
from finring.errors import AxiomViolation, GuardExceeded, ValidationError
from finring import rings
from finring.guards import DEFAULT_GUARDS, Guards
from finring.ideals import IdempotentFactorRing, ideal_generated, idempotent_decomposition
from finring.parsing import parse_ring_spec
from finring.rings import (
    PolyQuotient,
    Product,
    StructureConstants,
    Zmod,
    ZmodRing,
    build_ring,
    spec_char,
    spec_order,
    unit_or_zero_divisor,
    verify_ring_axioms,
)


def test_zmod_carrier():
    ring = build_ring(Zmod(4))
    assert ring.elements == [0, 1, 2, 3]
    assert ring.add(2, 3) == 1
    assert ring.mul(2, 2) == 0
    assert ring.neg(1) == 3


def test_poly_quotient_carrier_matches_coefficient_vectors():
    ring = build_ring(parse_ring_spec("GF(2)[x]/(x^2)"))
    # independent oracle: all coefficient vectors over the base
    expected = sorted(itertools.product([0, 1], repeat=2))
    assert ring.elements == expected
    assert ring.mul((0, 1), (0, 1)) == (0, 0)  # x * x = 0
    assert ring.one == (1, 0)


def test_product_is_crt_image_of_z12():
    ring = build_ring(parse_ring_spec("Z/4 x Z/3"))
    assert ring.order == 12
    assert ring.mul((2, 2), (2, 2)) == (0, 1)
    # independent oracle: x -> (x mod 4, x mod 3) is a ring isomorphism
    z12 = build_ring(Zmod(12))
    iso = {x: (x % 4, x % 3) for x in z12.elements}
    assert sorted(iso.values()) == ring.elements
    for a in z12.elements:
        for b in z12.elements:
            assert iso[z12.add(a, b)] == ring.add(iso[a], iso[b])
            assert iso[z12.mul(a, b)] == ring.mul(iso[a], iso[b])


def test_unit_or_zero_divisor():
    z9 = build_ring(Zmod(9))
    assert (2 * 5) % 9 == 1  # oracle for the unit case
    assert unit_or_zero_divisor(z9, 2) == "unit"
    assert (3 * 3) % 9 == 0  # oracle for the zero-divisor case
    assert unit_or_zero_divisor(z9, 3) == "zero_divisor"
    assert unit_or_zero_divisor(z9, 0) == "zero"


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda r: r.add(9, 1), "9"),
        (lambda r: r.mul(1, 8), "8"),
        (lambda r: r.neg(-1), "-1"),
        (lambda r: r.sub(3, [1]), r"\[1\]"),
        (lambda r: unit_or_zero_divisor(r, 8), "8"),
        (lambda r: ideal_generated(r, [2, "2"]), "'2'"),
    ],
    ids=["add", "mul", "neg", "sub", "unit_or_zero_divisor", "ideal_generated"],
)
def test_a_value_that_is_not_an_element_is_a_validation_error(call, value):
    with pytest.raises(ValidationError, match=f"^{value} is not an element of Z/8$"):
        call(build_ring(Zmod(8)))


def test_every_nonzero_element_is_unit_or_zero_divisor():
    for text in ["Z/12", "GF(8)", "GF(3)[x]/(x^2)"]:
        ring = build_ring(parse_ring_spec(text))
        for x in ring.elements:
            kind = unit_or_zero_divisor(ring, x)
            if x == ring.zero:
                assert kind == "zero"
            else:
                # reference: search every element for an inverse
                unit = any(ring.mul(x, y) == ring.one for y in ring.elements)
                assert kind == ("unit" if unit else "zero_divisor")


def test_structure_constant_validation():
    # b1*b1 = b0 with b0 the unit but b0*b1 = 0: breaks the identity law
    dim = 2
    table = (
        ((1, 0), (0, 0)),
        ((0, 0), (1, 0)),
    )
    with pytest.raises(AxiomViolation, match=r"^unit vector does not act as identity on b1$"):
        build_ring(StructureConstants(2, dim, table, (1, 0)))
    # non-commutative table
    table = (
        ((1, 0), (0, 1)),
        ((0, 0), (0, 0)),
    )
    with pytest.raises(
        AxiomViolation, match=r"^structure constants are not commutative at b0\*b1$"
    ):
        build_ring(StructureConstants(2, dim, table, (1, 0)))
    # b1^2 = b2, b2^2 = b1, b1*b2 = 0 beside the unit b0: commutative and
    # unital, but (b1*b1)*b2 = b1 while b1*(b1*b2) = 0
    table = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0), (0, 1, 0)),
    )
    with pytest.raises(
        AxiomViolation, match=r"^structure constants are not associative at \(b1,b1,b2\)$"
    ):
        build_ring(StructureConstants(2, 3, table, (1, 0, 0)))


@pytest.mark.parametrize("text", ["SC(2;1;0;1)", "SC(2;2;0,0,0,0,0,0,0,0;1,0)"])
def test_a_table_with_no_nonzero_constant_breaks_the_unit_law(text):
    # every product is the scalar 0 here, not an array of positions
    with pytest.raises(AxiomViolation, match=r"^unit vector does not act as identity on b0$"):
        build_ring(parse_ring_spec(text))


def _first_broken_basis_law(table, unit, n):
    """The message a basis check reports first, from loops over the basis of
    a (Z/n)-algebra whose ``table[i][j]`` is the coefficient vector of bi*bj."""
    d = len(table)

    def mul(x, y):
        return tuple(
            sum(x[s] * y[t] * table[s][t][k] for s in range(d) for t in range(d)) % n
            for k in range(d)
        )

    basis = [tuple(int(t == k) for t in range(d)) for k in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        if mul(basis[i], basis[j]) != mul(basis[j], basis[i]):
            return f"structure constants are not commutative at b{i}*b{j}"
    for j in range(d):
        if mul(unit, basis[j]) != basis[j]:
            return f"unit vector does not act as identity on b{j}"
    for i, j, k in itertools.product(range(d), repeat=3):
        bi, bj, bk = basis[i], basis[j], basis[k]
        if mul(mul(bi, bj), bk) != mul(bi, mul(bj, bk)):
            return f"structure constants are not associative at (b{i},b{j},b{k})"
    return None


@pytest.mark.parametrize("pairs,k", [([(1, 2)], 7), ([(1, 2), (2, 1)], 0), ([(3, 3)], 7)])
def test_a_broken_quotient_above_order_64_names_its_first_broken_law(monkeypatch, pairs, k):
    # x^8 over GF(2) has 256 elements: its laws are still checked on the whole
    # basis, not on sampled triples; flip the x^k coefficient of bi*bj
    real = rings._power_table
    broken = []

    def power_table(base, coeffs):
        table = [[list(vec) for vec in row] for row in real(base, coeffs)]
        for i, j in pairs:
            table[i][j][k] ^= 1
        broken.append(table)
        return table

    monkeypatch.setattr(rings, "_power_table", power_table)
    spec = parse_ring_spec("GF(2)[x]/(x^8)")
    assert spec_order(spec) == 256
    with pytest.raises(AxiomViolation) as raised:
        build_ring(spec)
    want = _first_broken_basis_law(broken[0], (1,) + (0,) * 7, 2)
    assert want is not None and str(raised.value) == want


def test_structure_constant_shape_validation():
    with pytest.raises(ValidationError):
        StructureConstants(2, 2, ((0,),), (1, 0))
    with pytest.raises(ValidationError):
        StructureConstants(2, 1, (((1,),),), (0,))  # zero unit vector


# every structure-constant ring the tests and the catalogs build
_SC_TEXTS = [
    "SC(2;1;1;1)",
    "SC(2;2;0,0,1,0,1,0,0,1;0,1)",
    "SC(2;3;1,0,0,0,1,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0;1,0,0)",
] + [text for name in ("default", "quick") for _, text in catalog_specs(name)]


def _algebra_levels(spec):
    """Every quotient level and structure-constant spec inside ``spec``."""
    if isinstance(spec, Product):
        return {level for f in spec.factors for level in _algebra_levels(f)}
    if isinstance(spec, PolyQuotient):
        return {spec} | _algebra_levels(spec.base)
    return {spec} if isinstance(spec, StructureConstants) else set()


def test_structure_constant_rings_pass_the_full_axiom_check():
    # a free algebra is checked only on its basis laws; the generic check,
    # distributivity among its laws, is the reference
    specs = set()
    for text in _SC_TEXTS + [f"{SQUARE_ZERO_PAIR}[x]/(x^2)"]:
        specs |= _algebra_levels(parse_ring_spec(text))
    kinds = [type(spec) for spec in specs]
    # the three texts above, the square-zero pair the last, and nine quotient
    # levels, the tower over the square-zero pair among them
    assert (kinds.count(StructureConstants), kinds.count(PolyQuotient)) == (3, 9)
    for spec in specs:
        verify_ring_axioms(build_ring(spec))


def _draw_algebra(data):
    """A structure-constant spec over Z/2, Z/3 or Z/4 of order <= 64; half
    are drawn commutative with unit b0, so that some of them are rings."""
    n = data.draw(st.sampled_from([2, 3, 4]), label="n")
    dim = data.draw(st.integers(1, {2: 6, 3: 3, 4: 3}[n]), label="dim")
    coeff = st.integers(0, n - 1)
    flat = data.draw(st.lists(coeff, min_size=dim**3, max_size=dim**3), label="table")
    rows = [flat[s : s + dim] for s in range(0, dim**3, dim)]
    table = [rows[i * dim : (i + 1) * dim] for i in range(dim)]
    if data.draw(st.booleans(), label="commutative with unit b0"):
        for i, j in itertools.product(range(dim), repeat=2):
            table[i][j] = table[min(i, j)][max(i, j)]
            if 0 in (i, j):
                table[i][j] = [int(k == i + j) for k in range(dim)]
        unit = (1,) + (0,) * (dim - 1)
    else:
        unit = tuple(data.draw(st.lists(coeff, min_size=dim, max_size=dim), label="unit"))
        assume(any(unit))
    nested = tuple(tuple(tuple(vec) for vec in row) for row in table)
    return StructureConstants(n, dim, nested, unit)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_basis_check_agrees_with_the_reference_check(data):
    spec = _draw_algebra(data)
    try:
        build_ring(spec)
    except AxiomViolation as error:
        checked = str(error)
    else:
        checked = None
    with mock.patch.object(rings.StructureConstantRing, "_check_basis_laws"):
        unchecked = build_ring(spec)
    try:
        verify_ring_axioms(unchecked)
    except AxiomViolation:
        assert checked is not None
    else:
        assert checked is None
    # the reported law is the first one that loops over the basis meet
    assert checked == _first_broken_basis_law(spec.table, spec.unit, spec.n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 2), st.data())
def test_structure_constants_distribute_for_every_table(n, dim, data):
    # why the basis check has no distributivity test: the product is
    # bilinear by its formula and the sum digitwise, whatever the table
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=dim**3, max_size=dim**3))
    nested = tuple(
        tuple(tuple(table[(i * dim + j) * dim + k] for k in range(dim)) for j in range(dim))
        for i in range(dim)
    )
    spec = StructureConstants(n, dim, nested, (1,) + (0,) * (dim - 1))
    base = rings.kept_ring(Zmod(n), DEFAULT_GUARDS)
    with mock.patch.object(rings.StructureConstantRing, "_check_basis_laws"):
        ring = rings.StructureConstantRing(spec, base, spec.table, spec.unit, DEFAULT_GUARDS)
    add, mul, _ = ring.tables()
    a, b, c = np.ix_(*[np.arange(ring.order)] * 3)
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


def test_construction_guard():
    with pytest.raises(GuardExceeded):
        build_ring(Zmod(5000))


def test_only_rings_that_compute_arithmetic_run_the_axiom_check(monkeypatch):
    verified, checked = [], []
    real = rings.verify_ring_axioms
    monkeypatch.setattr(rings, "verify_ring_axioms", lambda r: (verified.append(r), real(r)))
    basis_laws = rings.StructureConstantRing._check_basis_laws
    monkeypatch.setattr(
        rings.StructureConstantRing,
        "_check_basis_laws",
        lambda r: (checked.append(r), basis_laws(r)),
    )
    guards = Guards(max_hom_candidates=999_999)  # fresh sub-rings: nothing is shared with other tests
    texts = (
        "Z/4 x GF(9) x Z/2",
        SQUARE_ZERO_PAIR,
        f"Z/8 x {SQUARE_ZERO_PAIR}",
        "GF(2)[x]/(x^2)[x]/(x^2+1)",
        "GF(2)[x]/(x^8)",
    )
    for text in texts:
        build_ring(parse_ring_spec(text), guards)
    assert verified == []
    # a Z/n part builds no table until something reads one
    assert all(rings.kept_ring(Zmod(n), guards)._tables is None for n in (2, 3, 4, 8))
    # each quotient level and structure-constant ring once when it is built:
    # a top-level ring on every build, a kept part (order <= 64) once
    assert [r.describe() for r in checked] == [
        "Z/3[x]/(2+2*x+x^2)",
        SQUARE_ZERO_PAIR,
        SQUARE_ZERO_PAIR,
        "Z/2[x]/(x^2)",
        "Z/2[x]/(x^2)[x]/(1+x^2)",
        "Z/2[x]/(x^8)",
    ]
    assert all(r._tables is None for r in checked)  # the basis check builds no table


def test_large_zmod_computes_without_a_table():
    ring = build_ring(Zmod(2048))
    assert ring.order == 2048
    assert ring.mul(1024, 2) == 0
    assert ring._tables is None  # nothing checks Z/n, and no table was read


def test_spec_order_and_char():
    spec = parse_ring_spec("Z/4 x GF(9)")
    assert spec_order(spec) == 36
    assert spec_char(spec) == 12
    assert spec_char(parse_ring_spec("GF(8)")) == 2


def test_canonical_order_is_sorted():
    for text in ["Z/7", "GF(9)", "Z/4 x Z/3", "GF(2)[x]/(x^3)"]:
        ring = build_ring(parse_ring_spec(text))
        assert ring.elements == sorted(ring.elements)
        assert ring.elements[0] == ring.zero


def test_scalar_from_int():
    gf4 = build_ring(parse_ring_spec("GF(4)"))
    assert gf4.scalar_from_int(3) == gf4.one  # characteristic 2
    assert gf4.scalar_from_int(2) == gf4.zero
    assert gf4.char == 2


def test_nested_quotient_tower():
    tower = build_ring(parse_ring_spec("GF(2)[x]/(x^2)[x]/(x^2+1)"))
    assert tower.order == 16
    assert tower.mul(tower.one, tower.elements[5]) == tower.elements[5]


# ---------------------------------------------------------------------------
# reference arithmetic: the value-level recipes, written out per spec


def reference(spec):
    """zero, one, add, mul, neg on element values, straight from the recipe."""
    if isinstance(spec, Zmod):
        n = spec.n
        return SimpleNamespace(
            zero=0,
            one=1 % n,
            add=lambda x, y: (x + y) % n,
            mul=lambda x, y: (x * y) % n,
            neg=lambda x: -x % n,
        )
    if isinstance(spec, StructureConstants):
        n, d, tab = spec.n, spec.dim, spec.table

        def sc_mul(x, y):
            res = [0] * d
            for i, j, k in itertools.product(range(d), repeat=3):
                res[k] += x[i] * y[j] * tab[i][j][k]
            return tuple(r % n for r in res)

        return SimpleNamespace(
            zero=(0,) * d,
            one=spec.unit,
            add=lambda x, y: tuple((a + b) % n for a, b in zip(x, y)),
            mul=sc_mul,
            neg=lambda x: tuple(-a % n for a in x),
        )
    if isinstance(spec, Product):
        parts = [reference(f) for f in spec.factors]
        return SimpleNamespace(
            zero=tuple(p.zero for p in parts),
            one=tuple(p.one for p in parts),
            add=lambda x, y: tuple(p.add(a, b) for p, a, b in zip(parts, x, y)),
            mul=lambda x, y: tuple(p.mul(a, b) for p, a, b in zip(parts, x, y)),
            neg=lambda x: tuple(p.neg(a) for p, a in zip(parts, x)),
        )
    if isinstance(spec, PolyQuotient):
        b = reference(spec.base)
        d = spec.degree

        def scalar(c):
            value = b.zero
            for _ in range(c):
                value = b.add(value, b.one)
            return value

        modulus = [scalar(c) for c in spec.modulus]

        def poly_mul(x, y):
            # convolution, then long division by the monic modulus from the top
            conv = [b.zero] * (2 * d - 1)
            for i, j in itertools.product(range(d), repeat=2):
                conv[i + j] = b.add(conv[i + j], b.mul(x[i], y[j]))
            for top in range(2 * d - 2, d - 1, -1):
                c = conv[top]
                for t in range(d):
                    conv[top - d + t] = b.add(
                        conv[top - d + t], b.neg(b.mul(c, modulus[t]))
                    )
            return tuple(conv[:d])

        return SimpleNamespace(
            zero=(b.zero,) * d,
            one=(b.one,) + (b.zero,) * (d - 1),
            add=lambda x, y: tuple(b.add(p, q) for p, q in zip(x, y)),
            mul=poly_mul,
            neg=lambda x: tuple(b.neg(p) for p in x),
        )
    raise TypeError(spec)


def assert_matches_reference(ring, ref, pairs):
    for x, y in pairs:
        assert ring.add(x, y) == ref.add(x, y)
        assert ring.mul(x, y) == ref.mul(x, y)
    for x in {x for pair in pairs for x in pair}:
        assert ring.neg(x) == ref.neg(x)


REFERENCE_SPECS = [
    "Z/12",
    "Z/2",
    "GF(4)",
    "GF(9)",
    "GF(8)",
    "GF(2)[x]/(x^2)[x]/(x^2+1)",
    SQUARE_ZERO_PAIR,
    "Z/4 x GF(4) x Z/3",
    "Z/4 x GF(9) x Z/2",  # order 72: no law check of its own, table read from the factors'
    # the bilinear quotient product on chain rings, a degree-1 modulus, a
    # non-unit constant term, a Galois ring and a tower
    "GF(2)[x]/(x^4)",
    "GF(3)[x]/(x^3)",
    "GF(3)[x]/(x+1)",
    "Z/4[x]/(x^2+2)",
    "Z/4[x]/(x^2+x+1)",
    "GF(2)[x]/(x^3)[x]/(x^2)",
]


@pytest.mark.parametrize("text", REFERENCE_SPECS)
def test_arithmetic_and_tables_match_reference(text):
    spec = parse_ring_spec(text)
    ring = build_ring(spec)
    ref = reference(spec)
    els, idx = ring.elements, ring.index
    assert (ring.zero, ring.one) == (ref.zero, ref.one)
    pairs = list(itertools.product(els, repeat=2))
    assert_matches_reference(ring, ref, pairs)
    add, mul, neg = ring.tables()
    assert add.dtype == mul.dtype == neg.dtype == np.int32
    assert add.tolist() == [[idx[ref.add(x, y)] for y in els] for x in els]
    assert mul.tolist() == [[idx[ref.mul(x, y)] for y in els] for x in els]
    assert neg.tolist() == [idx[ref.neg(x)] for x in els]


def _digit_rings(ring):
    if isinstance(ring, rings._DigitRing):
        yield ring
    for part in set(ring._parts):
        yield from _digit_rings(part)


@pytest.mark.parametrize("text", REFERENCE_SPECS)
def test_digit_ring_carrier_is_the_product_of_its_parts(text):
    for ring in _digit_rings(build_ring(parse_ring_spec(text))):
        parts = ring._parts
        assert ring.elements == list(itertools.product(*(p.elements for p in parts)))
        assert ring.zero == tuple(p.zero for p in parts)


def test_idempotent_factor_matches_parent_reference():
    for text in ("Z/4 x GF(2)[x]/(x^2)", "Z/12", "Z/36", "GF(2)[x]/(x^2+x)"):
        ring = build_ring(parse_ring_spec(text))
        ref = reference(parse_ring_spec(text))
        dec = idempotent_decomposition(ring)
        assert len(dec.factor_rings) == 2
        # a product's split factors mirror its parts' factors; a factor made
        # at the same idempotent with no mirror reads the parent's tables
        assert all((f.mirror is not None) == (" x " in text) for f in dec.factor_rings)
        fresh = [IdempotentFactorRing(ring, e) for e in dec.idempotents]
        assert all(f._tables is not None and f.mirror is None for f in fresh)
        for factor in [*dec.factor_rings, *fresh]:
            els, idx = factor.elements, factor.index
            assert els == [x for x in ring.elements if ref.mul(factor.one, x) == x]
            assert_matches_reference(factor, ref, list(itertools.product(els, repeat=2)))
            add, mul, neg = factor.tables()
            assert add.dtype == mul.dtype == neg.dtype == np.int32
            assert add.tolist() == [[idx[ref.add(x, y)] for y in els] for x in els]
            assert mul.tolist() == [[idx[ref.mul(x, y)] for y in els] for x in els]
            assert neg.tolist() == [idx[ref.neg(x)] for x in els]


_DIGIT_SPECS = [
    "Z/4 x GF(9) x Z/2",
    "Z/2 x GF(2)[x]/(x^11)",
    "GF(2)[x]/(x^2)[x]/(x^2+1)",
    "Z/4[x]/(x^2+2)",
    "GF(8)",
    SQUARE_ZERO_PAIR,
    f"Z/3 x {SQUARE_ZERO_PAIR}",
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_DIGIT_SPECS), st.data())
def test_digit_weights_split_and_join_every_position(text, data):
    for ring in _digit_rings(build_ring(parse_ring_spec(text))):
        ar = np.arange(ring.order)
        assert np.array_equal(ring._join(ring._split(ar)), ar)
        p = data.draw(st.integers(0, ring.order - 1), label=f"position in {ring.describe()}")
        digits = ring._split(p)
        assert ring._join(digits) == p
        parts = [part.elements[d] for part, d in zip(ring._parts, digits)]
        assert parts == list(ring.elements[p])


def test_large_quotient_matches_reference_without_tables():
    for text in ("GF(2)[x]/(x^7)", "GF(2)[x]/(x^10)"):
        spec = parse_ring_spec(text)
        ring = build_ring(spec)
        assert ring._tables is None  # the basis check builds no table
        ref = reference(spec)
        rnd = random.Random(7)
        pairs = [(rnd.choice(ring.elements), rnd.choice(ring.elements)) for _ in range(300)]
        assert_matches_reference(ring, ref, pairs)
        assert ring._tables is None


# ---------------------------------------------------------------------------
# fault injection: each ring breaks exactly one law of verify_ring_axioms


def _skip_one(p):
    # a permutation of the positions fixing 0 and 1 that is not additive
    return np.where(p >= 2, p ^ 1, p)


FAULTS = {
    "addition is not commutative": dict(add=lambda r, i, j: (i + 2 * j) % r.n),
    "multiplication is not commutative": dict(mul=lambda r, i, j: (i * j + i) % r.n),
    "addition is not associative": dict(add=lambda r, i, j: -(i + j) % r.n),
    "multiplication is not associative": dict(mul=lambda r, i, j: (i * j + 1) % r.n),
    "zero is not an additive identity": dict(add=lambda r, i, j: (i + j + 1) % r.n),
    "negation is not an additive inverse": dict(neg=lambda r, i: i),
    "one is not a multiplicative identity": dict(mul=lambda r, i, j: 2 * i * j % r.n),
    "multiplication does not distribute over addition": dict(
        mul=lambda r, i, j: _skip_one(_skip_one(i) * _skip_one(j) % r.n)
    ),
}


def _faulty_zmod(n, add=None, mul=None, neg=None):
    class Faulty(ZmodRing):
        def _add(self, i, j):
            return add(self, i, j) if add else super()._add(i, j)

        def _mul(self, i, j):
            return mul(self, i, j) if mul else super()._mul(i, j)

        def _neg(self, i):
            return neg(self, i) if neg else super()._neg(i)

    return Faulty(Zmod(n), DEFAULT_GUARDS)


@pytest.mark.parametrize("n", [8, 128], ids=["exhaustive", "large"])
@pytest.mark.parametrize("message", list(FAULTS))
def test_verify_ring_axioms_names_the_broken_law(n, message):
    with pytest.raises(AxiomViolation) as info:
        verify_ring_axioms(_faulty_zmod(n, **FAULTS[message]))
    assert str(info.value) == message


def test_verify_ring_axioms_accepts_the_unbroken_ring():
    for n in (8, 128):
        verify_ring_axioms(_faulty_zmod(n))
    # a factor ring above order 64 has no ops of its own: the check reads
    # its tables
    dec = idempotent_decomposition(build_ring(parse_ring_spec("Z/128 x Z/3")))
    (factor,) = [f for f in dec.factor_rings if f.order == 128]
    assert isinstance(factor, IdempotentFactorRing)
    verify_ring_axioms(factor)


@pytest.mark.parametrize("n", [*range(2, 65), 65, 125, 128])
def test_zmod_rings_pass_the_reference_check(n):
    # construction checks no Z/n: its laws are integer arithmetic, and this
    # is the check that pins its three ops
    verify_ring_axioms(build_ring(Zmod(n)))


def _small_catalog_specs():
    return [text for _, text in catalog_specs("default") if spec_order(parse_ring_spec(text)) <= 64]


def test_small_catalog_rings_pass_the_reference_check():
    # products, towers, SC rings and Z/n alike; only the algebras among them
    # were checked when they were built
    texts = _small_catalog_specs()
    assert any(" x " in text for text in texts) and any("[x]" in text for text in texts)
    for text in texts:
        verify_ring_axioms(build_ring(parse_ring_spec(text)))


def _table_view(tables, elements, one):
    """A ring that is only its (add, mul, neg) tables, as a factor ring is:
    ``verify_ring_axioms`` reads it through ``Ring``'s table lookups."""
    ring = rings.Ring(DEFAULT_GUARDS)
    ring.elements, ring.zero, ring.one, ring._tables = elements, elements[0], one, tables
    return ring


def _tables_ring(add, mul, one):
    """Hand-written tables on positions 0..n-1 with zero at 0 and x + x = 0."""
    n = len(add)
    tables = (np.array(add, dtype=np.int32), np.array(mul, dtype=np.int32), np.arange(n))
    return _table_view(tables, list(range(n)), one)


def test_hand_built_broken_rings_name_their_law():
    # + associates at the middle 1, not at 2: (2 + 2) + 1 = 1, 2 + (2 + 1) = 0
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 0, 0]]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 3]]
    with pytest.raises(AxiomViolation, match="^addition is not associative$"):
        verify_ring_axioms(_tables_ring(add, mul, 1))
    # GF(2) + u + v with u^2 = v, v^2 = u, uv = 0: commutative, distributive,
    # unital (1 at position 4), but (uu)v = u while u(uv) = 0
    basis = {4: {4: 4, 2: 2, 1: 1}, 2: {4: 2, 2: 1, 1: 0}, 1: {4: 1, 2: 0, 1: 2}}
    add = np.bitwise_xor.outer(np.arange(8), np.arange(8))
    mul = [[0] * 8 for _ in range(8)]
    for x, y, a, b in itertools.product(range(8), range(8), basis, basis):
        if x & a and y & b:
            mul[x][y] ^= basis[a][b]
    with pytest.raises(AxiomViolation, match="^multiplication is not associative$"):
        verify_ring_axioms(_tables_ring(add, mul, 4))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_small_catalog_specs()), st.data())
def test_every_one_entry_mutation_breaks_a_law(text, data):
    ring = build_ring(parse_ring_spec(text))
    n = ring.order
    add, mul, neg = (t.copy() for t in ring.tables())
    table = data.draw(st.sampled_from([add, mul]), label="table")
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
    value = data.draw(st.integers(0, n - 1).filter(lambda v: v != table[i, j]), label="value")
    table[i, j] = value
    if data.draw(st.booleans(), label="symmetric"):
        table[j, i] = value
    with pytest.raises(AxiomViolation):
        verify_ring_axioms(_table_view((add, mul, neg), ring.elements, ring.one))


# ---------------------------------------------------------------------------
# shared sub-rings and tables read from part tables


def test_large_product_builds_no_table_on_it_or_its_large_part():
    ring = build_ring(parse_ring_spec("Z/2 x GF(2)[x]/(x^11)"))
    small, large = ring.factors
    assert (ring.order, large.order) == (4096, 2048)
    assert ring._tables is None and large._tables is None
    # the kept Z/2 part is also the large part's base
    assert large.base is small


def test_table_build_reads_the_part_tables():
    ring = build_ring(parse_ring_spec("Z/4 x GF(9) x Z/5"))
    gf9 = ring.factors[1]
    assert ring._tables is None
    ring.tables()
    assert all(f._tables is not None for f in ring.factors)
    # the same tables as each factor's defining ops give, digit by digit
    add, mul, _ = ring.tables()
    x = np.arange(ring.order)
    xs, ys = ring._split(x[:, None]), ring._split(x[None, :])
    for table, op in ((add, "_add"), (mul, "_mul")):
        parts = [getattr(f, op)(a, b) for f, a, b in zip(ring.factors, xs, ys)]
        assert np.array_equal(table, ring._join(parts))
    assert gf9.mul((1, 2), (2, 2)) == gf9.elements[gf9._mul(5, 8)]


def test_structure_constant_rings_share_their_verified_digit_ring():
    first = build_ring(parse_ring_spec(SQUARE_ZERO_PAIR))
    second = build_ring(parse_ring_spec(SQUARE_ZERO_PAIR))
    assert first is not second
    assert first._parts[0] is second._parts[0]
    assert first._parts[0] is rings.kept_ring(Zmod(first.spec.n), DEFAULT_GUARDS)


def test_products_share_their_kept_factors(monkeypatch):
    verified = []
    real = rings.verify_ring_axioms
    monkeypatch.setattr(rings, "verify_ring_axioms", lambda r: (verified.append(r), real(r)))
    first = build_ring(parse_ring_spec("Z/59 x GF(49)"))
    verified.clear()
    second = build_ring(parse_ring_spec("GF(49) x Z/59"))
    # the factors are the same verified objects, and a product of them is
    # not checked again
    assert second.factors[0] is first.factors[1]
    assert second.factors[1] is first.factors[0]
    assert verified == []
    # quotient bases are shared the same way, and so is the ring the
    # command line hands out for a spec
    tower = build_ring(parse_ring_spec("GF(49)[x]/(x^2)"))
    assert tower.base is first.factors[1]
    assert rings.kept_ring(parse_ring_spec("GF(49)"), DEFAULT_GUARDS) is tower.base
    # the top level is a new ring on every call, and other guards build their own
    assert build_ring(parse_ring_spec("Z/59 x GF(49)")) is not first
    guarded = build_ring(parse_ring_spec("Z/59 x GF(49)"), Guards(max_hom_candidates=999_998))
    assert guarded.factors[1] is not first.factors[1]
    assert guarded.factors[1].guards == Guards(max_hom_candidates=999_998)
    # a part outlives every ring built over it
    part = first.factors[0]
    del first, second, tower, guarded
    gc.collect()
    assert build_ring(parse_ring_spec("Z/59 x Z/3")).factors[0] is part


def test_a_part_above_order_64_is_built_for_each_ring():
    first = build_ring(parse_ring_spec("Z/67 x Z/2"))
    second = build_ring(parse_ring_spec("Z/67 x Z/3"))
    assert first.factors[0] is not second.factors[0]
    assert first.factors[1] is rings.kept_ring(Zmod(2), DEFAULT_GUARDS)
