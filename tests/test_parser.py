"""Expression grammar and the parse/print round trip."""

import random
import sys
from fractions import Fraction

import pytest

from ghrv.errors import ParseError, UnknownVariable
from ghrv.fields import QQ, prime_field
from ghrv.parser import parse_poly
from ghrv.poly import Poly, PolyRing


@pytest.fixture(scope="module")
def ring():
    return PolyRing(prime_field(5), ("x1", "x2"), ("x", "y"))


def test_basic_expressions(ring):
    x1 = ring.variable("x1")
    x = ring.variable("x")
    assert parse_poly(ring, "x1") == x1
    assert parse_poly(ring, "x^2*x1 + y^2*x2") == x * x * x1 + ring.variable("y") ** 2 * ring.variable("x2")
    assert parse_poly(ring, "0") == ring.zero()
    assert parse_poly(ring, "3") == ring.from_int(3)
    assert parse_poly(ring, "-x1") == -x1
    assert parse_poly(ring, "x1 - x1") == ring.zero()
    trailing = parse_poly(ring, "x1 + 1   ")  # trailing blanks
    assert trailing == x1 + ring.one() and str(trailing) == "x1 + 1"


def test_precedence_and_parentheses(ring):
    x1, x2 = ring.variable("x1"), ring.variable("x2")
    assert parse_poly(ring, "x1 + x2*x1^2") == x1 + x2 * x1 * x1
    assert parse_poly(ring, "(x1 + x2)*x1") == (x1 + x2) * x1
    assert parse_poly(ring, "2*(x1 + x2)^2") == (x1 + x2) * (x1 + x2) * 2
    # unary minus binds the whole leading term
    assert parse_poly(ring, "-2*x1 + x2") == x1 * -2 + x2


def test_power_of_parenthesized(ring):
    x1, y = ring.variable("x1"), ring.variable("y")
    assert parse_poly(ring, "(x1 + y)^3") == (x1 + y) ** 3


def test_rational_literals():
    rq = PolyRing(QQ, ("a",), ())
    p = parse_poly(rq, "3/4*a + 1/2")
    assert p == rq.variable("a").scale(Fraction(3, 4)) + rq.const(Fraction(1, 2))
    # over a prime field a/b is a*inv(b)
    r5 = PolyRing(prime_field(5), ("a",), ())
    assert parse_poly(r5, "3/4") == r5.const(r5.field.from_int(3 * 4))  # inv(4) = 4 mod 5


def test_errors(ring):
    with pytest.raises(UnknownVariable):
        parse_poly(ring, "x1 + z")
    with pytest.raises(ParseError):
        parse_poly(ring, "x1 +")
    with pytest.raises(ParseError):
        parse_poly(ring, "(x1")
    with pytest.raises(ParseError):
        parse_poly(ring, "x1^y")
    with pytest.raises(ParseError):
        parse_poly(ring, "x1 x2")
    with pytest.raises(ParseError):
        parse_poly(ring, "1/0")
    with pytest.raises(ParseError):
        parse_poly(ring, "x1 @ x2")
    # a number is ASCII decimal digits: another script's digit (\u0665 is the
    # Arabic-Indic five) or an underscore is an unexpected character
    for text, bad, pos in (("\u0665*x1", "\u0665", 0), ("x1 + 2\u0665", "\u0665", 6), ("1_0*x1", "_", 1)):
        with pytest.raises(ParseError, match=f"^unexpected character {bad!r} \\(at position {pos}\\)$"):
            parse_poly(ring, text)


def test_deep_nesting_is_a_parse_error(ring):
    # each level of parentheses is one level of the recursive descent
    x1 = ring.variable("x1")
    assert parse_poly(ring, "(" * 100 + "x1" + ")" * 100) == x1
    for depth in (300, 10**4):
        with pytest.raises(ParseError, match="^expression nested too deeply$"):
            parse_poly(ring, "(" * depth + "x1" + ")" * depth)
    # the parser is left usable
    assert parse_poly(ring, "((x1))") == x1


def test_a_literal_past_the_digit_limit_is_a_parse_error(ring):
    # int() refuses a decimal string longer than the interpreter's limit; the
    # parser names the limit and the literal's position instead
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert parse_poly(ring, "9" * 4300) == ring.from_int(4)
        with pytest.raises(ParseError, match=r"^number literal of 5000 digits exceeds the limit of 4300 "
                                             r"digits \(at position 5\)$"):
            parse_poly(ring, "x1 + " + "9" * 5000)
    finally:
        sys.set_int_max_str_digits(old)


def _random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randrange(7)):
        mono = tuple(rng.randrange(4) for _ in range(ring.nvars))
        if ring.field == QQ:
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        else:
            c = ring.field.from_int(rng.randrange(ring.field.order))
        if not ring.field.is_zero(c):
            terms[mono] = c
    return Poly(ring, terms)


def test_round_trip_prime_field(ring):
    rng = random.Random(41)
    for _ in range(80):
        p = _random_poly(ring, rng)
        assert parse_poly(ring, p.to_string()) == p


def test_round_trip_rationals():
    rq = PolyRing(QQ, ("x1", "x2"), ("t",))
    rng = random.Random(43)
    for _ in range(60):
        p = _random_poly(rq, rng)
        assert parse_poly(rq, p.to_string()) == p


def test_round_trip_extension_prime_subfield():
    from ghrv.fields import make_extension

    f9 = make_extension(3, 2)
    r9 = PolyRing(f9, ("x1", "x2"), ())
    p = r9.variable("x1") * 2 + r9.variable("x2")
    assert parse_poly(r9, p.to_string()) == p


def test_strict_printing_rejects_proper_extension_coefficients():
    from ghrv.errors import NotSerializable
    from ghrv.fields import make_extension

    f9 = make_extension(3, 2)
    r9 = PolyRing(f9, ("x1",), ())
    g = f9.generator()
    assert not f9.in_prime_subfield(g)
    p = r9.variable("x1").scale(g)
    with pytest.raises(NotSerializable):
        p.to_string(strict=True)
    p.to_string(strict=False)  # display form always available
