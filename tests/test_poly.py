"""Polynomial arithmetic, grading, order, and division.

Two independent oracles: evaluation at random points (ring maps commute with
evaluation) and sympy's expand over QQ.  Division is checked against its
defining contract p = q*d + r with no term of r divisible by LM(d).
"""

import random
import re
from fractions import Fraction

import pytest
import sympy

from ghrv.errors import RingMismatch
from ghrv.fields import QQ, make_extension, prime_field
from ghrv.poly import Poly, PolyRing, divide_single, exact_div, monomial_divides, order_key


def _random_poly(ring, rng, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_exp) for _ in range(ring.nvars))
        if ring.field == QQ:
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        else:
            c = ring.field.from_int(rng.randrange(ring.field.order))
        if not ring.field.is_zero(c):
            terms[mono] = c
    return Poly(ring, terms)


@pytest.fixture(scope="module")
def rq():
    return PolyRing(QQ, ("x1", "x2"), ("x", "y"))


@pytest.fixture(scope="module")
def r5():
    return PolyRing(prime_field(5), ("x1", "x2"), ("x", "y"))


def test_ring_constructor_rejects_bad_names():
    with pytest.raises(ValueError):
        PolyRing(QQ, ("x", "x"), ())
    with pytest.raises(ValueError):
        PolyRing(QQ, ("a b",), ())


def test_arithmetic_commutes_with_evaluation(r5):
    rng = random.Random(7)
    fld = r5.field
    names = r5.vars
    for _ in range(40):
        p = _random_poly(r5, rng)
        q = _random_poly(r5, rng)
        pt = {n: fld.from_int(rng.randrange(5)) for n in names}
        pv, qv = p.evaluate(pt), q.evaluate(pt)
        assert (p + q).evaluate(pt) == fld.add(pv, qv)
        assert (p * q).evaluate(pt) == fld.mul(pv, qv)
        assert (p - q).evaluate(pt) == fld.add(pv, fld.neg(qv))
        assert (-p).evaluate(pt) == fld.neg(pv)
        assert (p**2).evaluate(pt) == fld.mul(pv, pv)


def _sympy_of(p, syms):
    acc = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            term *= s**e
        acc += term
    return acc


def test_product_matches_sympy_over_qq(rq):
    rng = random.Random(13)
    syms = sympy.symbols(" ".join(rq.vars))
    for _ in range(15):
        p = _random_poly(rq, rng)
        q = _random_poly(rq, rng)
        ours = _sympy_of(p * q, syms)
        theirs = sympy.expand(_sympy_of(p, syms) * _sympy_of(q, syms))
        assert sympy.simplify(ours - theirs) == 0


def test_zero_conventions(rq):
    z = rq.zero()
    assert z.is_zero()
    assert z.x_degrees() == set()
    with pytest.raises(ValueError):
        z.leading_monomial()


def test_x_grading(rq):
    x1, x2 = rq.variable("x1"), rq.variable("x2")
    u, v = rq.variable("x"), rq.variable("y")
    p = x1 * x1 * u + x1 * x2 * v * v
    assert p.x_degrees() == {2}
    mixed = x1 + u
    assert mixed.x_degrees() == {0, 1}
    # y-only polynomials sit in x-degree 0
    assert (u * v + rq.one()).x_degrees() == {0}


def test_grevlex_order_facts():
    # in k[a, b, c]: b^2 > a*c in grevlex (same degree, last exponent smaller)
    assert order_key((0, 2, 0)) > order_key((1, 0, 1))
    # degree dominates
    assert order_key((0, 0, 3)) > order_key((2, 0, 0))
    # x-block-first: the leading monomial of w = x^2*x1 + y^2*x2
    assert order_key((1, 0, 2, 0)) > order_key((0, 1, 0, 2))


def test_leading_data_of_w(rq):
    w = rq.variable("x1") * rq.variable("x") ** 2 + rq.variable("x2") * rq.variable("y") ** 2
    assert w.leading_monomial() == (1, 0, 2, 0)
    assert w.leading_coeff() == Fraction(1)


def test_division_contract(r5):
    rng = random.Random(29)
    for _ in range(60):
        p = _random_poly(r5, rng)
        d = _random_poly(r5, rng, max_terms=3)
        if d.is_zero():
            continue
        q, r = divide_single(p, d)
        assert q * d + r == p
        lm = d.leading_monomial()
        assert all(not monomial_divides(lm, m) for m in r.terms)


def test_division_by_zero(r5):
    with pytest.raises(ZeroDivisionError):
        divide_single(r5.one(), r5.zero())
    with pytest.raises(RingMismatch, match="^divisor in a different ring$"):
        divide_single(r5.one(), PolyRing(r5.field, ("a",), ()).variable("a"))


def test_exact_div_round_trip(r5):
    rng = random.Random(31)
    for _ in range(40):
        p = _random_poly(r5, rng)
        d = _random_poly(r5, rng, max_terms=2)
        if d.is_zero():
            continue
        assert exact_div(p * d, d) == p
    x1 = r5.variable("x1")
    with pytest.raises(ArithmeticError):
        exact_div(x1 + r5.one(), x1)
    # a divisor of two terms goes through divide_single
    x2 = r5.variable("x2")
    with pytest.raises(ArithmeticError):
        exact_div(x1**2 + x2, x1 + x2)


def test_monic_and_scale(r5):
    p = r5.variable("x1") * 3 + r5.variable("x2")
    m = p.monic()
    assert m.leading_coeff() == 1
    assert p.scale(r5.field.inv(3)) == m
    assert r5.zero().monic().is_zero()


def test_substitute_agrees_with_evaluation(r5):
    rng = random.Random(37)
    fld = r5.field
    for _ in range(25):
        p = _random_poly(r5, rng)
        vals = {n: rng.randrange(5) for n in r5.vars}
        subbed = p.substitute({n: r5.from_int(v) for n, v in vals.items()})
        assert subbed.is_constant()
        assert subbed.constant_term() == p.evaluate({n: fld.from_int(v) for n, v in vals.items()})


def test_substitute_composes(r5):
    x1, x2 = r5.variable("x1"), r5.variable("x2")
    u = r5.variable("x")
    p = x1 * x1 + x2 * u
    q = p.substitute({"x1": x2 + u})
    assert q == (x2 + u) * (x2 + u) + x2 * u


def test_evaluate_through_extension():
    r3 = PolyRing(prime_field(3), ("x1", "x2"), ())
    f9 = make_extension(3, 2)
    g = f9.generator()
    p = r3.variable("x1") ** 2 + r3.from_int(2)
    val = p.evaluate({"x1": g, "x2": f9.zero}, target=f9)
    assert val == f9.add(f9.mul(g, g), f9.from_int(2))


def test_evaluate_requires_all_mentioned_vars(r5):
    p = r5.variable("x1") + r5.variable("y")
    with pytest.raises(ValueError):
        p.evaluate({"x1": r5.field.one})


def test_map_coefficients_to_extension():
    r3 = PolyRing(prime_field(3), ("x1",), ("t",))
    f9 = make_extension(3, 2)
    r9 = PolyRing(f9, ("x1",), ("t",))
    p = r3.variable("x1") * 2 + r3.variable("t")
    q = p.map_coefficients(r9)
    assert q.ring is r9
    assert set(q.terms) == set(p.terms)
    wrong = PolyRing(f9, ("a",), ("t",))
    with pytest.raises(RingMismatch):
        p.map_coefficients(wrong)


def test_cross_ring_arithmetic_rejected(rq, r5):
    with pytest.raises(RingMismatch):
        rq.one() + r5.one()


def _power_ring(field):
    return PolyRing(field, ("x1", "x2"), ("x", "y"))


def _nonzero_elems(field):
    if field == QQ:
        return [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2)]
    return [e for e in field.elements() if not field.is_zero(e)]


def _sized_poly(ring, rng, elems, size):
    terms = {}
    while len(terms) < size:
        terms[tuple(rng.randrange(3) for _ in range(ring.nvars))] = rng.choice(elems)
    return Poly(ring, terms)


FIELDS = [prime_field(5), make_extension(3, 2), QQ]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_monic_returns_a_monic_polynomial_itself(field):
    # a leading coefficient of one leaves nothing to scale: the same object
    # comes back; any other is scaled into a new polynomial
    ring = PolyRing(field, ("x1", "x2"), ("x", "y"))
    rng = random.Random(41)
    monic_seen = scaled = 0
    for _ in range(60):
        p = _random_poly(ring, rng)
        if p.is_zero():
            continue
        m = p.monic()
        assert m.leading_coeff() == field.one
        assert m == p.scale(field.inv(p.leading_coeff()))
        assert m.monic() is m
        if p.leading_coeff() == field.one:
            assert m is p
            monic_seen += 1
        else:
            assert m is not p and p.terms != m.terms
            scaled += 1
    assert monic_seen and scaled


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_monic_keeps_the_leading_monomial(field, monkeypatch):
    # scaling keeps every monomial, so a scaled monic copy carries the
    # leading monomial over and never searches its terms for it
    ring = PolyRing(field, ("x1", "x2"), ("x", "y"))
    rng = random.Random(43)
    polys = [p for p in (_random_poly(ring, rng) for _ in range(40)) if p.terms]
    for p in polys:
        p.leading_monomial()
    searched = []
    monkeypatch.setattr("ghrv.poly.order_key", lambda m: searched.append(m) or m)
    scaled = [p.monic() for p in polys if p.leading_coeff() != field.one]
    assert scaled
    assert [m.leading_monomial() for m in scaled] == [
        p.leading_monomial() for p in polys if p.leading_coeff() != field.one]
    assert searched == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_power_equals_repeated_product(field):
    ring = _power_ring(field)
    rng = random.Random(61)
    elems = _nonzero_elems(field)
    polys = [ring.zero(), ring.one(), ring.const(elems[-1]),
             ring.monomial((1, 0, 2, 0), elems[0])]
    for size in (2, 3, 6):
        polys.append(_sized_poly(ring, rng, elems, size))

    def product(p, n):
        acc = ring.one()
        for _ in range(n):
            acc = acc * p
        return acc

    # ascending, descending and shuffled exponents, each order on its own
    # copies and all polynomials interleaved, so a power kept on one
    # polynomial can never stand in for another's
    orders = [list(range(8)), list(range(7, -1, -1)), rng.sample(range(8), 8)]
    for order in orders:
        fresh = [Poly(ring, p.terms) for p in polys]
        for n in order:
            for p in fresh:
                assert p ** n == product(p, n), (str(p), n)


def test_power_leaves_the_polynomial_unchanged(r5):
    x1, x2, u = (r5.variable(n) for n in ("x1", "x2", "x"))
    p = x1 * 2 + x2 * u + r5.one()
    before = dict(p.terms)
    assert p ** 5 == (p ** 2) * (p ** 3)
    assert p ** 3 is p ** 3  # kept, not recomputed
    assert p.terms == before
    q = x1 + x2
    assert q ** 2 == x1 * x1 + x1 * x2 * 2 + x2 * x2
    assert p.terms == before and q.terms == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}
    for base in (p, x1, r5.zero()):
        with pytest.raises(ValueError):
            base ** -1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_substitute_equals_the_term_by_term_sum(field):
    ring = _power_ring(field)
    rng = random.Random(67)
    elems = _nonzero_elems(field)
    for _ in range(15):
        p = _sized_poly(ring, rng, elems, rng.randrange(9))
        names = rng.sample(ring.vars, rng.randrange(1, ring.nvars + 1))
        bindings = {n: _sized_poly(ring, rng, elems, rng.randrange(4)) for n in names}
        want = ring.zero()
        for m, c in p.terms.items():
            term = ring.const(c)
            for name, e in zip(ring.vars, m):
                for _ in range(e):
                    term = term * bindings.get(name, ring.variable(name))
            want = want + term
        assert p.substitute(bindings) == want
    # terms that cancel leave no zero coefficient behind
    x1, x2 = ring.variable("x1"), ring.variable("x2")
    assert (x1 + x2).substitute({"x1": -x2}).terms == {}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_exact_div_by_a_monomial_matches_divide_single(field):
    ring = _power_ring(field)
    rng = random.Random(71)
    elems = _nonzero_elems(field)
    for _ in range(40):
        p = _sized_poly(ring, rng, elems, rng.randrange(7))
        d = _sized_poly(ring, rng, elems, 1)
        assert exact_div(p * d, d) == divide_single(p * d, d)[0] == p
        q, r = divide_single(p, d)
        if r.is_zero():
            assert exact_div(p, d) == q
        else:
            with pytest.raises(ArithmeticError, match=re.escape(f"inexact division: remainder {r}")):
                exact_div(p, d)
    x1, x2 = ring.variable("x1"), ring.variable("x2")
    with pytest.raises(ArithmeticError):
        exact_div(x1, x2)
    with pytest.raises(RingMismatch):
        exact_div(x1, PolyRing(field, ("a",), ()).variable("a"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_division_returns_an_undivisible_dividend_as_is(field):
    # the contract on seeded pairs; when LM(d) divides no term of p, the
    # quotient is zero and the remainder is p itself
    ring = _power_ring(field)
    rng = random.Random(73)
    elems = _nonzero_elems(field)
    undivisible = 0
    for _ in range(80):
        p = _sized_poly(ring, rng, elems, rng.randrange(7))
        d = _sized_poly(ring, rng, elems, rng.randrange(1, 4))
        q, r = divide_single(p, d)
        lm = d.leading_monomial()
        assert q * d + r == p
        assert all(not monomial_divides(lm, m) for m in r.terms)
        if not any(monomial_divides(lm, m) for m in p.terms):
            undivisible += 1
            assert q.is_zero() and r == p
    assert undivisible > 10
    x1, x2, y = ring.variable("x1"), ring.variable("x2"), ring.variable("y")
    q, r = divide_single(x2 + y, x1 * y)
    assert q.is_zero() and r == x2 + y


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kept_leading_monomial_stays_the_largest_term(field):
    ring = _power_ring(field)
    rng = random.Random(79)
    elems = _nonzero_elems(field)
    for _ in range(30):
        p = _sized_poly(ring, rng, elems, rng.randrange(1, 7))
        d = _sized_poly(ring, rng, elems, rng.randrange(1, 3))
        for _ in range(3):
            assert p.leading_monomial() == max(p.terms, key=order_key)
            assert p.leading_coeff() == p.terms[max(p.terms, key=order_key)]
            divide_single(p * d, p)
            divide_single(d, p)
            p ** 2
    for _ in range(2):  # a failed search is not kept
        with pytest.raises(ValueError):
            ring.zero().leading_monomial()
