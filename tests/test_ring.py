"""Hypersurface ring data: construction guards, normal forms, the k[x]
image, and specialization."""

import random

import pytest
import sympy

from ghrv.errors import (
    BadArity,
    NotInMaximalIdeal,
    NotRegularSequence,
    VariableLeak,
)
from ghrv.fields import QQ, make_extension, prime_field
from ghrv.poly import Poly
from ghrv.ring import make_alpha, make_ring, residue, specialize


def test_worked_ring_data(ring5):
    assert ring5.c == 2 and ring5.d == 2
    w = ring5.parse("x^2*x1 + y^2*x2")
    assert ring5.w == w
    assert ring5.regularity_verified


def test_make_ring_guards(f5):
    with pytest.raises(BadArity):
        make_ring(f5, ("y",), ("x1",), ("y",))
    with pytest.raises(ValueError):
        make_ring(f5, ("y",), ("x1", "x2"), ("y",))
    with pytest.raises(NotRegularSequence):
        make_ring(f5, ("y",), ("x1", "x2"), ("y", "0"))
    with pytest.raises(NotRegularSequence):
        # monomial coefficients sharing a variable
        make_ring(f5, ("y",), ("x1", "x2"), ("y", "y^2"))
    with pytest.raises(NotInMaximalIdeal):
        make_ring(f5, ("y", "z"), ("x1", "x2"), ("y + 1", "z"))
    with pytest.raises(VariableLeak):
        make_ring(f5, ("y", "z"), ("x1", "x2"), ("y*x1", "z"))


def test_non_monomial_coefficients_are_trusted_not_verified(f5):
    r = make_ring(f5, ("y", "z"), ("x1", "x2"), ("y^2 + y*z", "z^2"))
    assert not r.regularity_verified


def test_normal_form_is_canonical_mod_w(ring5):
    rng = random.Random(83)
    amb = ring5.ambient
    names = amb.vars
    for _ in range(30):
        terms = {}
        for _ in range(rng.randrange(6)):
            mono = tuple(rng.randrange(3) for _ in names)
            c = ring5.field.from_int(rng.randrange(5))
            if c:
                terms[mono] = c
        p = Poly(amb, terms)
        h = Poly(amb, {tuple(rng.randrange(2) for _ in names): ring5.field.one})
        # class representatives agree
        assert ring5.normal_form(p + h * ring5.w) == ring5.normal_form(p)
        # idempotent
        nf = ring5.normal_form(p)
        assert ring5.normal_form(nf) == nf
    assert ring5.normal_form(ring5.w).is_zero()


def test_normal_form_difference_is_divisible_by_w_sympy_oracle(ringq):
    x1, x2, x, y = sympy.symbols("x1 x2 x y")
    syms = (x1, x2, x, y)
    w = x**2 * x1 + y**2 * x2
    rng = random.Random(89)
    amb = ringq.ambient
    for _ in range(10):
        p = amb.zero()
        for _ in range(4):
            mono = tuple(rng.randrange(3) for _ in range(4))
            p = p + amb.monomial(mono, QQ.from_int(rng.randrange(1, 5)))
        nf = ringq.normal_form(p)
        p_s = sum(sympy.Rational(c) * sympy.prod([s**e for s, e in zip(syms, m)]) for m, c in p.terms.items())
        nf_s = sum(sympy.Rational(c) * sympy.prod([s**e for s, e in zip(syms, m)]) for m, c in nf.terms.items())
        q, r = sympy.div(sympy.expand(p_s - nf_s), w, x1, x2, x, y)
        assert r == 0


def test_image_in_kx(ring5):
    p = ring5.parse("x1^2 + x*x2 + y^2 + 3")
    img = ring5.image_in_kx(p)
    assert img == ring5.kx.variable("x1") ** 2 + ring5.kx.from_int(3)
    # well defined on classes: w maps to zero
    assert ring5.image_in_kx(ring5.w).is_zero()
    assert ring5.image_in_kx(ring5.parse("x1*x2") + ring5.w).to_string() == "x1*x2"


def test_element_wrapper(ring5):
    assert ring5.normal_form("x^2*x1 + y^2*x2").is_zero()
    assert not ring5.normal_form("x1").is_zero()


def test_one_ambient_ring_per_field(ring5):
    f25 = make_extension(5, 2)
    assert ring5.ambient_over(ring5.field) is ring5.ambient
    over = ring5.ambient_over(f25)
    assert over is ring5.ambient_over(make_extension(5, 2))
    assert over.field == f25 and over.vars == ring5.ambient.vars
    assert make_alpha(ring5, (1, 0), field=f25).preimages[0].ring is over


def test_make_alpha_guards(ring5):
    with pytest.raises(ValueError):
        make_alpha(ring5, (0, 0))
    with pytest.raises(ValueError):
        make_alpha(ring5, (1,))
    with pytest.raises(ValueError):
        make_alpha(ring5, (1, 0), preimages=("1 + y", "1"))  # wrong constant term
    with pytest.raises(VariableLeak):
        make_alpha(ring5, (1, 0), preimages=("1 + x1", "0"))
    a = make_alpha(ring5, (3, 1), preimages=("3 + y", "1 + x*y"))
    assert a.point == (3, 1)


def test_specialize_constant_preimages_is_evaluation(ring5):
    rng = random.Random(97)
    fld = ring5.field
    for _ in range(20):
        coords = (fld.from_int(rng.randrange(5)), fld.from_int(rng.randrange(1, 5)))
        alpha = make_alpha(ring5, coords)
        p = ring5.parse("x1^2*x2 + x*y*x1 + y^3")
        spec = specialize(p, alpha, ring5)
        # reducing y -> 0 afterwards equals full evaluation at (alpha, 0)
        assert residue(spec, ring5) == p.evaluate(
            {"x1": coords[0], "x2": coords[1], "x": fld.zero, "y": fld.zero}
        )


def test_specialized_modulus(ring5):
    alpha = make_alpha(ring5, (2, 3))
    w_a = specialize(ring5.w, alpha, ring5)
    expected = ring5.ambient.variable("x") ** 2 * 2 + ring5.ambient.variable("y") ** 2 * 3
    assert w_a == expected


def test_specialize_with_nonconstant_preimages(ring5):
    alpha = make_alpha(ring5, (1, 2), preimages=("1 + y", "2 + x^2"))
    p = ring5.parse("x1 + x2")
    spec = specialize(p, alpha, ring5)
    assert spec == ring5.parse("3 + y + x^2")
    # residue ignores the perturbation
    assert residue(spec, ring5) == ring5.field.from_int(3)


def test_residue_rejects_x_variables(ring5):
    with pytest.raises(VariableLeak):
        residue(ring5.parse("x1"), ring5)


def test_ring_equality_and_repr(ring5, f5):
    from ghrv.pipelines import worked_ring

    again = worked_ring(f5)
    assert again == ring5
    assert hash(again) == hash(ring5)
    assert "GF(5)" in repr(ring5)
