"""Field arithmetic against brute-force oracles.

Prime fields are checked against plain integer arithmetic mod p, extension
fields against exhaustive enumeration (the fields are tiny) and their
log/Zech tables against the coefficient-list route, and the irreducibility
certificate against trial division over all lower-degree monic polynomials.
"""

import random
import re
import time
from fractions import Fraction

import pytest

from ghrv.errors import BoundExceeded, FieldError, NotIrreducible
from ghrv.fields import (
    MAX_EMBEDDING_ORDER,
    QQ,
    ExtensionField,
    PrimeField,
    _fp_add,
    _fp_divmod,
    _fp_mul,
    _fp_trim,
    _horner_embedding,
    embedding,
    field_name,
    finite_field,
    is_irreducible,
    make_extension,
    parse_field,
    prime_field,
)
from ghrv.variety import extension_of


def test_prime_field_matches_integer_arithmetic():
    f = prime_field(7)
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(7), rng.randrange(7)
        assert f.add(a, b) == (a + b) % 7
        assert f.mul(a, b) == (a * b) % 7
        assert f.add(a, f.neg(b)) == (a - b) % 7
        assert f.neg(a) == (-a) % 7
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1
    # an element is an int in [0, p); nothing else is one
    assert all(f.contains(a) for a in f.elements())
    assert not any(f.contains(a) for a in (-1, 7, 1.0, "a", (1,), Fraction(1, 2)))


def test_prime_field_division_and_pow():
    f = prime_field(13)
    for a in range(1, 13):
        for b in range(1, 13):
            assert f.mul(f.mul(a, f.inv(b)), b) == a
        assert f.pow(a, 12) == 1  # Fermat
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(FieldError):
        prime_field(6)
    with pytest.raises(FieldError):
        prime_field(1)


def test_rationals_are_exact():
    q = QQ
    a = q.from_int(1)
    third = q.mul(a, q.inv(q.from_int(3)))
    assert third == Fraction(1, 3)
    assert q.add(third, third) == Fraction(2, 3)
    assert not q.finite
    assert q.contains(-4) and q.contains(third)
    assert not any(q.contains(a) for a in (0.5, "1/3", (1, 3)))


def _in_form(v) -> bool:
    """An int, or a Fraction in lowest terms with denominator above 1."""
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def test_rationals_match_fraction_arithmetic_in_their_form():
    # an integral rational is an int and any other a Fraction; on seeded
    # operands in that form, and on Fractions with denominator 1 as a
    # caller may pass them, every result equals Fraction arithmetic's, and
    # add, mul, inv and pow give the form (neg keeps it), never a float
    rng = random.Random(30)

    def operand():
        v = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4, 6, 9)))
        return v.numerator if v.denominator == 1 and rng.random() < 0.7 else v

    for _ in range(400):
        a, b, k = operand(), operand(), rng.randint(0, 4)
        fa, fb = Fraction(a), Fraction(b)
        for got, want in ((QQ.add(a, b), fa + fb), (QQ.mul(a, b), fa * fb), (QQ.pow(a, k), fa**k)):
            assert got == want and _in_form(got), (a, b, k, got)
        assert QQ.neg(a) == -fa
        if _in_form(a):
            assert _in_form(QQ.neg(a))
        if a != 0:
            n = rng.randint(-4, -1)
            assert QQ.inv(a) == 1 / fa and _in_form(QQ.inv(a)), a
            assert QQ.pow(a, n) == fa**n and _in_form(QQ.pow(a, n)), (a, n)
    assert type(QQ.mul(QQ.inv(2), 4)) is int and QQ.mul(QQ.inv(2), 4) == 2
    assert type(QQ.inv(3)) is Fraction and QQ.inv(3) == Fraction(1, 3)
    assert [type(QQ.inv(v)) for v in (1, -1, Fraction(1, 5), Fraction(-1, 5))] == [int] * 4
    assert QQ.inv(Fraction(-1, 5)) == -5
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert (QQ.zero, QQ.one, QQ.from_int(7)) == (0, 1, 7)
    assert all(type(v) is int for v in (QQ.zero, QQ.one, QQ.from_int(7)))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


# -- extension fields -------------------------------------------------------

def _all_monic(p, degree):
    """Every monic polynomial of the given degree over GF(p), as coefficient
    lists low-to-high."""
    def rec(d):
        if d == 0:
            yield []
            return
        for tail in rec(d - 1):
            for c in range(p):
                yield [c] + tail
    for body in rec(degree):
        yield body + [1]


def _poly_mod_divides(a, b, p):
    # does a divide b over GF(p)? naive long division
    b = list(b)
    da, db = len(a) - 1, len(b) - 1
    inv_lead = pow(a[-1], p - 2, p)
    while db >= da and any(b):
        if b[db] == 0:
            db -= 1
            continue
        coef = b[db] * inv_lead % p
        shift = db - da
        for i, ai in enumerate(a):
            b[i + shift] = (b[i + shift] - coef * ai) % p
        db -= 1
    return not any(b)


def test_irreducibility_certificate_matches_trial_division():
    rng = random.Random(23)
    for p in (2, 3, 5):
        for e in (2, 3, 4):
            for _ in range(12):
                coeffs = [rng.randrange(p) for _ in range(e)] + [1]
                naive = not any(
                    _poly_mod_divides(d, coeffs, p)
                    for deg in range(1, e // 2 + 1)
                    for d in _all_monic(p, deg)
                )
                assert is_irreducible(coeffs, p) == naive, coeffs


def test_divmod_gives_a_trimmed_quotient_and_remainder():
    # a = q*b + r with len(r) < len(b), q and r without trailing zeros, on
    # seeded dividends of degree up to 12 (some with trailing zeros, some
    # shorter than the divisor) by divisors of every leading coefficient.
    rng = random.Random(31)
    for p in (2, 5, 7):
        for _ in range(150):
            b = [rng.randrange(p) for _ in range(rng.randrange(6))] + [rng.randrange(1, p)]
            a = [rng.randrange(p) for _ in range(rng.randrange(14))]
            q, r = _fp_divmod(a, b, p)
            assert _fp_add(_fp_mul(q, b, p), r, p) == _fp_trim(list(a)), (p, a, b)
            assert len(r) < len(b), (p, a, b)
            assert (not q or q[-1]) and (not r or r[-1]), (p, a, b)


def test_reducible_product_of_two_quadratics_is_rejected():
    # (t^2+1)(t^2+t+2) over GF(3) has no roots but is reducible; the Rabin
    # gcd step must catch it
    a = [1, 0, 1]
    b = [2, 1, 1]
    prod = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % 3
    assert not any(_poly_mod_divides([r, 1], prod, 3) for r in range(3))
    assert not is_irreducible(prod, 3)


TABLE_FIELDS = [
    make_extension(p, e) for p, e in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4))
]
# above the table cap, so arithmetic takes the coefficient-list route
LIST_FIELDS = [make_extension(101, 2), make_extension(2, 13)]


@pytest.mark.parametrize("f", TABLE_FIELDS + LIST_FIELDS, ids=str)
def test_extension_field_is_a_field(f):
    """Field axioms, and every operation equal to the coefficient-list
    route: on all pairs below the table cap, on a seeded sample above it."""
    q = f.order
    rng = random.Random(5)
    if f in LIST_FIELDS:
        elems = [f.zero, f.one] + rng.sample(list(f.elements()), 30)
    else:
        elems = list(f.elements())
        assert len(elems) == q and len(set(elems)) == q
    for a in elems:
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        assert f.pow(a, q) == a  # Frobenius fixed by q-power
        assert f.neg(a) == f._neg_list(a)
        if not f.is_zero(a):
            assert f._mul_list(a, f.inv(a)) == f.one
            assert f.mul(a, f.inv(a)) == f.one
        for b in elems:
            assert f.add(a, b) == f._add_list(a, b)
            assert f.add(a, f.neg(b)) == f._add_list(a, f._neg_list(b))
            assert f.mul(a, b) == f._mul_list(a, b)
    # commutativity and distributivity on a sample
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    # a tuple that is not a reduced element is no element, and raises; it is
    # never read as zero
    assert all(f.contains(a) for a in elems)
    assert not any(f.contains(a) for a in (list(f.one), "a", 1, ([1],) + f.one[1:]))
    for bad in ((f.p,) + (0,) * (f.e - 1), (0,) * (f.e + 1), (1,) * (f.e - 1)):
        assert not f.contains(bad)
        for op in (
            lambda: f.add(bad, f.zero),
            lambda: f.add(f.zero, f.neg(bad)),
            lambda: f.mul(bad, f.zero),
            lambda: f.mul(f.one, bad),
            lambda: f.neg(bad),
            lambda: f.inv(bad),
        ):
            with pytest.raises(FieldError):
                op()
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_each_extension_is_built_once():
    f9 = make_extension(3, 2)
    assert parse_field("GF(9)") is f9
    assert parse_field("GF(3^2)") is f9
    assert extension_of(prime_field(3), 2) is f9


def test_equal_fields_hash_alike_and_unequal_ones_differ():
    # a field's hash is formed in __init__ from ints alone; fields built
    # apart with equal parameters must still be one key of embedding's cache
    f9 = make_extension(3, 2)
    again = ExtensionField(3, 2, f9.modulus)
    other = ExtensionField(3, 2, (2, 2, 1))  # t^2 + 2t + 2, irreducible mod 3
    assert again == f9 and hash(again) == hash(f9)
    assert other != f9 and PrimeField(5) != PrimeField(7) and PrimeField(3) != f9
    assert PrimeField(5) == prime_field(5) and hash(PrimeField(5)) == hash(prime_field(5))
    assert len({f9, again, other, PrimeField(3), PrimeField(3), QQ}) == 4
    assert embedding(PrimeField(3), again) is embedding(prime_field(3), f9)


def test_extension_field_multiplicative_group_order():
    f8 = make_extension(2, 3)
    orders = set()
    for a in f8.elements():
        if f8.is_zero(a):
            continue
        k, x = 1, a
        while x != f8.one:
            x = f8.mul(x, a)
            k += 1
        orders.add(k)
    assert all(7 % k == 0 for k in orders)
    assert 7 in orders  # a generator exists


def test_make_extension_bound():
    with pytest.raises(BoundExceeded, match="extension degree 65 exceeds bound 64"):
        make_extension(3, 65)
    # degree 64 still builds, in either spelling
    for p in (2, 3):
        assert parse_field(f"GF({p}^64)") is parse_field(f"GF({p**64})") is make_extension(p, 64)


@pytest.mark.parametrize("text", ["GF(2^65)", f"GF({2**65})", "GF(2^300)"])
def test_large_extension_degrees_fail_fast(text):
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="exceeds bound 64"):
        parse_field(text)
    assert time.perf_counter() - start < 1.0


def test_finite_field_dispatch_and_names():
    assert isinstance(finite_field(9), ExtensionField)
    assert field_name(finite_field(9)) == "GF(9)"
    assert field_name(prime_field(5)) == "GF(5)"
    assert field_name(QQ) == "QQ"
    with pytest.raises(FieldError):
        finite_field(12)


def test_parse_field_round_trip():
    for name in ("GF(2)", "GF(5)", "GF(9)", "GF(27)", "QQ"):
        assert field_name(parse_field(name)) == name
    with pytest.raises(FieldError):
        parse_field("GF(10)")
    with pytest.raises(FieldError):
        parse_field("ZZ")
    # a body that is not ASCII decimal digits, and an exponent below 1, name
    # the text: no underscores, signs, spaces or other scripts' digits
    # (\u0665 is the Arabic-Indic five), which int() would read
    for text in ("GF(x)", "GF()", "GF(5^0)", "GF(5^-1)", "GF(5^x)", "GF(^2)",
                 "GF(1_3)", "GF(5_0)", "GF(\u0665)", "GF(+5)", "GF( 5)", "GF(5^+2)", "GF(5^\u0662)",
                 "GF(5^1_0)", "GF(" + "9" * 5000 + ")"):
        with pytest.raises(FieldError, match=f"^unrecognized field {re.escape(repr(text))}; expected QQ or GF\\(q\\)$"):
            parse_field(text)


def test_large_prime_orders_parse_fast():
    # trial division stops at isqrt(q), so a large prime costs sqrt(q) steps
    start = time.perf_counter()
    field = parse_field("GF(10000019)")
    assert time.perf_counter() - start < 0.2
    assert field_name(field) == "GF(10000019)"
    assert finite_field(1000003) == prime_field(1000003)
    assert finite_field(7**3) is make_extension(7, 3)
    for q in (1000003 * 1000033, 10007**2 * 3, 12):
        with pytest.raises(FieldError, match=f"^{q} is not a prime power$"):
            finite_field(q)
    for p in (12, 1, 1000003**2):
        with pytest.raises(FieldError, match=f"^{p} is not prime$"):
            PrimeField(p)


def test_trial_division_cap():
    # trial division stops at 10^7: a number with no factor up to it and a
    # square root past it is refused in under a second; the prime 10^14 + 31,
    # whose square root is 10^7, squares of primes below 10^7 and numbers
    # with a small factor are not
    for n in (2**61 - 1, 10000019 * 10000079):
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match=f"^{n} has no factor up to the trial-division cap"):
            parse_field(f"GF({n})")
        assert time.perf_counter() - start < 1.0
    assert field_name(parse_field("GF(1000000000039)")) == "GF(1000000000039)"
    assert prime_field(10**14 + 31).p == 10**14 + 31
    assert parse_field(f"GF({9999991**2})") is make_extension(9999991, 2)
    assert parse_field(f"GF({2**64})") is make_extension(2, 64)
    with pytest.raises(FieldError, match=f"^{3 * (2**61 - 1)} is not a prime power$"):
        finite_field(3 * (2**61 - 1))


def test_embedding_is_a_field_homomorphism():
    f3 = prime_field(3)
    f9 = make_extension(3, 2)
    emb = embedding(f3, f9)
    for a in range(3):
        for b in range(3):
            assert emb(f3.add(a, b)) == f9.add(emb(a), emb(b))
            assert emb(f3.mul(a, b)) == f9.mul(emb(a), emb(b))
    assert emb(f3.one) == f9.one


def test_embedding_into_towers():
    f9 = make_extension(3, 2)
    f81 = make_extension(3, 4)
    emb = embedding(f9, f81)
    elems = list(f9.elements())
    for a in elems:
        for b in elems:
            assert emb(f9.mul(a, b)) == f81.mul(emb(a), emb(b))
            assert emb(f9.add(a, b)) == f81.add(emb(a), emb(b))


@pytest.mark.parametrize("p, m, e", [(2, 2, 4), (3, 2, 4)], ids=["GF(4)->GF(16)", "GF(9)->GF(81)"])
def test_embedding_table_equals_horner(p, m, e):
    src, dst = make_extension(p, m), make_extension(p, e)
    emb = embedding(src, dst)
    assert emb is embedding(src, dst)

    def modulus_at(r):
        acc = dst.zero
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, r), dst.from_int(c))
        return acc

    # the generator goes to the first root of src's modulus in dst's order
    root = next(r for r in dst.elements() if modulus_at(r) == dst.zero)
    assert emb(src.generator()) == root
    horner = _horner_embedding(src, dst)
    for a in src.elements():
        assert emb(a) == horner(a)
        image = dst.zero
        for c in reversed(a):
            image = dst.add(dst.mul(image, root), dst.from_int(c))
        assert emb(a) == image
    for foreign in ((p,) + (0,) * (m - 1), (0,) * (m + 1), dst.one):
        with pytest.raises(FieldError):
            emb(foreign)


def test_incompatible_embedding_rejected():
    from ghrv.errors import RingMismatch

    with pytest.raises(RingMismatch):
        embedding(prime_field(3), prime_field(5))
    with pytest.raises(RingMismatch):
        embedding(make_extension(3, 2), make_extension(3, 3))
    # degrees that do not divide are refused before the destination's size
    with pytest.raises(RingMismatch, match="^GF\\(3\\^2\\) does not embed in GF\\(3\\^21\\)$"):
        embedding(make_extension(3, 2), make_extension(3, 21))
    for src, dst in ((QQ, prime_field(5)), (prime_field(5), QQ)):
        with pytest.raises(RingMismatch):
            embedding(src, dst)


@pytest.mark.parametrize("p, m, e", [(2, 13, 26), (2, 12, 24), (3, 7, 14), (3, 2, 20), (5, 2, 12), (67, 2, 4)])
def test_embedding_refuses_a_destination_past_the_cap(p, m, e):
    # the root search would scan more than MAX_EMBEDDING_ORDER elements of
    # the destination; it is refused before the search, naming both fields
    src, dst = make_extension(p, m), make_extension(p, e)
    assert MAX_EMBEDDING_ORDER == 10**6 < dst.order
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=re.escape(f"embedding {src} -> {dst} searches more than the cap "
                                                      f"of {MAX_EMBEDDING_ORDER} elements")):
        embedding(src, dst)
    assert time.perf_counter() - start < 1.0
