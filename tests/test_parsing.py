import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring.classify import SQUARE_ZERO_PAIR
from finring.errors import ParseError, ValidationError
from finring.ideals import idempotent_decomposition
from finring.parsing import (
    _prime_power,
    format_element,
    parse_element,
    parse_presentation,
    parse_ring_spec,
)
from finring.rings import (
    ORDER_CAP,
    PolyQuotient,
    Product,
    StructureConstants,
    Zmod,
    build_ring,
    spec_char,
    spec_order,
    spec_text,
)


def test_grammar_base_cases():
    assert parse_ring_spec("Z/4") == Zmod(4)
    assert parse_ring_spec("Z/4 x Z/3") == Product((Zmod(4), Zmod(3)))
    assert parse_ring_spec("GF(2)[x]/(x^2)") == PolyQuotient(Zmod(2), (0, 0, 1))


def test_whitespace_is_insignificant():
    assert parse_ring_spec(" Z / 4  x  Z/3 ") == parse_ring_spec("Z/4xZ/3")
    assert parse_ring_spec("GF( 2 ) [x] / ( x^2 )") == parse_ring_spec("GF(2)[x]/(x^2)")


def test_products_flatten():
    spec = parse_ring_spec("Z/2 x Z/3 x Z/5")
    assert spec == Product((Zmod(2), Zmod(3), Zmod(5)))
    nested = Product((Product((Zmod(2), Zmod(3))), Zmod(5)))
    assert nested == spec


@pytest.mark.parametrize("factors", [(), (Zmod(8),), (PolyQuotient(Zmod(2), (0, 0, 1)),)])
def test_a_product_needs_two_factors(factors):
    # a one-factor product would describe itself as its factor, which
    # parses back to the factor, yet print its elements as 1-tuples
    with pytest.raises(ValidationError, match="at least two factors"):
        Product(factors)
    assert Product((Product((Zmod(2), Zmod(3))),)) == parse_ring_spec("Z/2 x Z/3")


def test_gf_sugar():
    assert parse_ring_spec("GF(5)") == Zmod(5)
    assert parse_ring_spec("GF(4)") == PolyQuotient(Zmod(2), (1, 1, 1))
    assert parse_ring_spec("GF(2^2)") == parse_ring_spec("GF(4)")
    with pytest.raises(ParseError):
        parse_ring_spec("GF(6)")
    with pytest.raises(ParseError):
        parse_ring_spec("GF(121)")  # prime-power above the shipped table


def _ref_prime_power(q):
    """The trial-division reference the Miller-Rabin test replaced."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)


def test_prime_power_matches_trial_division_up_to_1e5():
    assert all(_prime_power(q) == _ref_prime_power(q) for q in range(-2, 100_001))


@pytest.mark.parametrize(
    "q,expected",
    [
        (10**18 + 3, (10**18 + 3, 1)),  # prime
        (1_000_000_007**2, (1_000_000_007, 2)),
        (2**63, (2, 63)),
        (3**40, (3, 40)),
        (2**64 - 59, (2**64 - 59, 1)),  # the largest prime below 2^64
        (4_294_967_291 * 4_294_967_279, None),  # two primes near 2^32
        (3_215_031_751, None),  # a strong pseudoprime to the bases 2, 3, 5, 7
    ],
)
def test_prime_power_of_large_q(q, expected):
    assert _prime_power(q) == expected


def test_gf_beyond_2_64_is_refused_before_the_power_is_formed():
    assert parse_ring_spec("GF(18446744073709551557)") == Zmod(2**64 - 59)
    for text in ("GF(18446744073709551616)", "GF(2^64)", "GF(2^99999999999)", "GF(-2^64)"):
        with pytest.raises(ParseError, match="GF\\(q\\) needs q below 2\\^64"):
            parse_ring_spec(text)


def test_spec_order_saturates_at_the_cap():
    assert spec_order(parse_ring_spec("GF(2)" + "[x]/(x^2)" * 12)) == 2**4096
    assert spec_order(parse_ring_spec("GF(2)" + "[x]/(x^2)" * 14)) == ORDER_CAP
    assert spec_order(parse_ring_spec("GF(2)" + "[x]/(x^64)" * 6)) == ORDER_CAP
    assert spec_order(parse_ring_spec("Z/3 x GF(2)[x]/(x^14000)")) == 3 * 2**14000
    assert spec_order(parse_ring_spec("GF(2)[x]/(x^14280) x Z/9 x Z/11")) == ORDER_CAP


def test_modulus_degree_is_bounded_before_its_coefficients_are_listed():
    degree = ORDER_CAP.bit_length()
    assert spec_order(parse_ring_spec(f"GF(2)[x]/(x^{degree - 1})")) == 2 ** (degree - 1)
    with pytest.raises(ParseError, match=f"modulus of degree {degree} "):
        parse_ring_spec(f"GF(2)[x]/(x^{degree})")
    with pytest.raises(ParseError, match="modulus of degree 100000000 "):
        parse_ring_spec("Z/4[x]/(x^2+x^100000000)")


def test_integer_literals_beyond_pythons_digit_limit_are_parse_errors():
    with pytest.raises(ParseError, match="integer literal too long") as err:
        parse_ring_spec("Z/" + "9" * 5000)
    assert err.value.position == 2


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_gf_moduli_really_give_fields(q):
    ring = build_ring(parse_ring_spec(f"GF({q})"))
    assert ring.order == q
    for x in ring.elements:
        if x == ring.zero:
            continue
        assert any(ring.mul(x, y) == ring.one for y in ring.elements)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_ring_spec("Z/")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_ring_spec("Z/4 x")
    with pytest.raises(ParseError):
        parse_ring_spec("Z/4 junk")


@pytest.mark.parametrize(
    "parse,text,position",
    [
        ("element", "x^-1", 2),
        ("element", "x^-2+x", 2),
        ("element", "1+3*x^-1", 6),
        ("spec", "GF(2)[x]/(x^2+x^-1)", 16),
        ("spec", "GF(2^-1)", 5),
    ],
)
def test_negative_exponents_are_parse_errors_at_the_sign(parse, text, position):
    # read as a signed integer, x^-1 would be 1 and GF(2^-1) of order 0.5:
    # the error stands at the sign
    with pytest.raises(ParseError, match="negative exponent -") as err:
        if parse == "element":
            parse_element(build_ring(parse_ring_spec("GF(2)[x]/(x^3)")), text)
        else:
            parse_ring_spec(text)
    assert err.value.position == position
    assert text[position] == "-"


def test_unsigned_and_plus_signed_exponents_still_parse():
    ring = build_ring(parse_ring_spec("GF(2)[x]/(x^3)"))
    assert parse_element(ring, "x^0") == (1, 0, 0)
    assert parse_element(ring, "x^+2") == (0, 0, 1)
    assert parse_ring_spec("GF(2^+2)") == parse_ring_spec("GF(4)")


def test_validation_errors():
    with pytest.raises(ParseError):
        parse_ring_spec("Z/1")
    with pytest.raises(ParseError):
        parse_ring_spec("Z/4[x]/(2*x^2+1)")  # non-monic
    # leading coefficient that reduces to 1 is monic
    assert parse_ring_spec("Z/4[x]/(5*x^2+2)") == PolyQuotient(Zmod(4), (2, 0, 1))


@pytest.mark.parametrize(
    "text",
    [
        "Z/4",
        "Z/4 x Z/3",
        "GF(4)",
        "GF(9)",
        "Z/4[x]/(x^2+2)",
        "GF(2)[x]/(x^3)",
        "Z/2 x Z/9 x Z/4",
        "SC(2;3;1,0,0,0,1,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0;1,0,0)",
    ],
)
def test_printer_round_trip(text):
    spec = parse_ring_spec(text)
    assert parse_ring_spec(spec_text(spec)) == spec


@st.composite
def _structure_constants(draw):
    n, dim = draw(st.integers(2, 9)), draw(st.integers(1, 2))
    entry = st.integers(-2 * n, 2 * n)  # reduced mod n by the spec
    table = draw(st.lists(entry, min_size=dim**3, max_size=dim**3))
    unit = draw(st.lists(entry, min_size=dim, max_size=dim).filter(lambda u: any(c % n for c in u)))
    nested = tuple(
        tuple(tuple(table[(i * dim + j) * dim + k] for k in range(dim)) for j in range(dim))
        for i in range(dim)
    )
    return StructureConstants(n, dim, nested, tuple(unit))


@st.composite
def _quotient(draw, base):
    base = draw(base)
    char = spec_char(base)
    lower = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
    lead = 1 + char * draw(st.integers(0, 2))  # reduces to a monic leading 1
    return PolyQuotient(base, (*lower, lead))


_ATOMS = st.recursive(
    st.one_of(st.integers(2, 10**6).map(Zmod), _structure_constants()),
    _quotient,
    max_leaves=3,
)
_SPECS = st.one_of(
    _ATOMS, st.lists(_ATOMS, min_size=2, max_size=3).map(lambda fs: Product(tuple(fs)))
)


@settings(max_examples=150, deadline=None)
@given(_SPECS)
def test_printer_round_trip_property(spec):
    assert parse_ring_spec(spec_text(spec)) == spec


@pytest.mark.parametrize(
    "text",
    ["Z/6", "Z/9", "GF(4)", "GF(2)[x]/(x^3)", "Z/4 x Z/3",
     "SC(2;3;1,0,0,0,1,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0;1,0,0)"],
)
def test_element_literals_round_trip(text):
    ring = build_ring(parse_ring_spec(text))
    for value in ring.elements:
        literal = format_element(ring, value)
        assert parse_element(ring, literal) == value


def test_element_literal_forms():
    gf4 = build_ring(parse_ring_spec("GF(4)"))
    assert parse_element(gf4, "1+x") == (1, 1)
    assert parse_element(gf4, "x") == (0, 1)
    z9 = build_ring(parse_ring_spec("Z/9"))
    assert parse_element(z9, "-2") == 7
    prod = build_ring(parse_ring_spec("Z/4 x Z/3"))
    assert parse_element(prod, "(2, 1)") == (2, 1)
    sc = build_ring(
        parse_ring_spec("SC(2;3;1,0,0,0,1,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0;1,0,0)")
    )
    assert parse_element(sc, "b1+b2") == (0, 1, 1)
    assert parse_element(sc, "1") == (1, 0, 0)


def test_x_over_a_degree_one_quotient_is_minus_the_constant_term():
    # under x + 1, x reduces to -1, which is 2 in GF(3)
    ring = build_ring(parse_ring_spec("GF(3)[x]/(x+1)"))
    assert parse_element(ring, "x") == (2,)


def test_literals_over_a_factor_ring_are_the_parent_s_inside_the_factor():
    z6 = build_ring(parse_ring_spec("Z/6"))
    factor = next(f for f in idempotent_decomposition(z6).factor_rings if f.one == 3)
    assert parse_element(factor, format_element(factor, 3)) == 3
    with pytest.raises(ParseError, match="element lies outside the factor ring"):
        parse_element(factor, "2")


def test_powers_reduce_in_literals():
    gf4 = build_ring(parse_ring_spec("GF(4)"))
    # x^2 = x + 1 under x^2+x+1
    assert parse_element(gf4, "x^2") == (1, 1)


def test_huge_powers_in_literals_take_logarithmic_time():
    dual = build_ring(parse_ring_spec("GF(2)[x]/(x^2)"))
    assert parse_element(dual, "x^1000000000000000000") == (0, 0)
    assert parse_element(dual, "1+x^1000000000000000000") == (1, 0)
    gf4 = build_ring(parse_ring_spec("GF(4)"))
    # x has order 3 in GF(4)^*: x^(3m+1) = x
    assert parse_element(gf4, f"x^{3 * 10**18 + 1}") == (0, 1)
    assert parse_element(gf4, f"(1)*x^{3 * 10**18 + 2}") == (1, 1)


def test_presentation_parsing():
    z8 = build_ring(parse_ring_spec("Z/8"))
    pres = parse_presentation(z8, "2,0;0,4")
    assert pres.generators == 2
    assert pres.relations == ((2, 0), (0, 4))
    assert parse_presentation(z8, "").generators == 0
    # all-zero columns present nothing and are dropped
    assert parse_presentation(z8, "0;0").generators == 2
    assert parse_presentation(z8, "0;0").relations == ()
    with pytest.raises(ParseError):
        parse_presentation(z8, "2,0;4")


def test_presentation_with_tuple_entries():
    prod = build_ring(parse_ring_spec("Z/4 x Z/3"))
    pres = parse_presentation(prod, "(2,0),(0,1);(1,2),(3,0)")
    assert pres.generators == 2
    assert pres.relations == (((2, 0), (1, 2)), ((0, 1), (3, 0)))


def _signed_literal(signs, terms):
    """``[-] t0 (+|- t_i)*`` from one sign per term."""
    head = ("-" if signs[0] < 0 else "") + terms[0]
    return head + "".join(
        (" + " if s > 0 else " - ") + t for s, t in zip(signs[1:], terms[1:])
    )


_POWER = st.sampled_from(["", "x", "x^0", "x^1", "x^2", "x^3", "x^5"])


@st.composite
def _poly_term(draw, parenthesized):
    power = draw(_POWER)
    coef = draw(st.one_of(st.just(""), st.integers(0, 20).map(str)))
    if coef and parenthesized and draw(st.booleans()):
        coef = f"({coef})"
    if not coef:
        return power or "1"
    return coef + (draw(st.sampled_from(["*", ""])) + power if power else "")


@st.composite
def _sc_term(draw):
    basis = draw(st.sampled_from(["", "b0", "b1", "b2"]))
    coef = draw(st.one_of(st.just(""), st.integers(0, 20).map(str)))
    if not coef:
        return basis or "1"
    return coef + ("*" + basis if basis else "")


_LITERAL_RINGS = {
    "Z/4[x]/(x^2+2)": _poly_term(True),
    "GF(9)": _poly_term(False),
    SQUARE_ZERO_PAIR: _sc_term(),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_LITERAL_RINGS)), st.data())
def test_signed_literal_is_the_fold_of_its_terms(spec, data):
    ring = build_ring(parse_ring_spec(spec))
    terms = data.draw(st.lists(_LITERAL_RINGS[spec], min_size=1, max_size=5))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(terms), max_size=len(terms)))
    expected = ring.zero
    for sign, term in zip(signs, terms):
        value = parse_element(ring, term)
        expected = ring.add(expected, value) if sign > 0 else ring.sub(expected, value)
    assert parse_element(ring, _signed_literal(signs, terms)) == expected


def _int_term(coef, power):
    """The spellings of coef*x^power in the integer-polynomial syntax."""
    spellings = [f"{coef}*x^{power}", f"{coef}x^{power}"]
    if power == 1:
        spellings += [f"{coef}*x", f"{coef}x"]
    if power == 0:
        spellings.append(str(coef))
    if coef == 1:
        spellings += [f"x^{power}"] + (["x"] if power == 1 else [])
    return st.sampled_from(spellings)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.data())
def test_signed_modulus_is_the_sum_of_its_terms(n, degree, data):
    lower = data.draw(
        st.lists(
            st.tuples(st.sampled_from([1, -1]), st.integers(0, 30), st.integers(0, degree - 1)),
            max_size=5,
        )
    )
    lead = data.draw(st.integers(0, len(lower)))
    parts = lower[:lead] + [(1, 1, degree)] + lower[lead:]  # the monic leading term
    text = _signed_literal(
        [s for s, _, _ in parts], [data.draw(_int_term(c, k)) for _, c, k in parts]
    )
    coeffs = [0] * (degree + 1)
    for sign, coef, power in parts:
        coeffs[power] += sign * coef
    expected = PolyQuotient(Zmod(n), tuple(c % n for c in coeffs))
    assert parse_ring_spec(f"Z/{n}[x]/({text})") == expected
