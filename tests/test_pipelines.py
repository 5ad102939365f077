"""End-to-end pipelines: the Shamash tail for R/(y, x), realizability traces,
module varieties and the scripted worked-example reproduction.

The fixture pair used throughout the worked examples is justified here from
scratch: the Koszul complex on the two y-variables, with the explicit
null-homotopy for w, is folded by hand into its periodic tail and compared
entry by entry against fixture_k.
"""

import pytest

import ghrv.pipelines
from ghrv.complexes import PeriodicComplex, cone_mul, validate_pair
from ghrv.errors import InternalCheckError, InvalidComplex, NotHomogeneousScalar, UnsupportedField
from ghrv.fields import QQ, prime_field
from ghrv.matrix import as_grid
from ghrv.pipelines import (
    FIXTURE_NAMES,
    complete_resolution_of_k,
    describe_report,
    fixture_k,
    fixture_rank_one,
    module_variety,
    named_fixture,
    realize,
    reproduce_examples,
    worked_ring,
)
from ghrv.variety import (
    enumerate_points,
    is_empty,
    rank_variety,
    residue_ranks,
)

from dense import grid_product


def test_worked_ring_shape(ring5, ringq):
    for ring in (ring5, ringq):
        assert (ring.c, ring.d) == (2, 2)
        assert ring.regularity_verified
        assert ring.w == ring.parse("x^2*x1 + y^2*x2")


# -- the Shamash tail for R/(y, x) ---------------------------------------------

def test_complete_resolution_is_minimal_and_certified(ring5):
    res = complete_resolution_of_k(ring5)
    assert res.size == 8
    assert res.certified
    assert validate_pair(res).ok
    fld = ring5.field
    for grid in (res.A, res.B):
        for row in grid:
            for e in row:
                assert fld.is_zero(e.constant_term())


def test_complete_resolution_is_contractible_at_every_point(ring5):
    # x_i acts invertibly at any specialization, so R/(y, x) dies and every
    # specialized complex splits; the variety is genuinely empty
    res = complete_resolution_of_k(ring5)
    for pt in enumerate_points(ring5.field, 2):
        assert residue_ranks(res, pt) == (4, 4)
    assert is_empty(rank_variety(res))


def test_fixture_k_is_the_folded_y_koszul(ring5):
    # Koszul complex on (x, y) over R: F0 = R, F1 = R e_x + R e_y, F2 = R exy
    amb = ring5.ambient
    u, v = amb.variable("x"), amb.variable("y")
    s, t = amb.variable("x1"), amb.variable("x2")
    a, b = u * s, v * t  # w = a*u + b*v
    d1 = as_grid([[u, v]])
    d2 = as_grid([[-v], [u]])
    s0 = as_grid([[a], [b]])
    s1 = as_grid([[-b, a]])

    # the homotopy identities d s + s d = w and s s = 0
    w = ring5.w
    assert grid_product(d1, s0, amb)[0][0] == w
    assert grid_product(s1, d2, amb)[0][0] == w
    mid = grid_product(s0, d1, amb)
    mid2 = grid_product(d2, s1, amb)
    for i in range(2):
        for j in range(2):
            total = mid[i][j] + mid2[i][j]
            assert total == (w if i == j else amb.zero())
    assert grid_product(s1, s0, amb)[0][0].is_zero()

    # folding: G_3 = F1, G_2 = F2 + F0, G_4 = F2 + F0; the two differentials
    # of the periodic tail stack [s1 / d1] and [d2 | s0]
    tail_odd = as_grid([[s1[0][0], s1[0][1]], [d1[0][0], d1[0][1]]])
    tail_even = as_grid([[d2[0][0], s0[0][0]], [d2[1][0], s0[1][0]]])
    k = fixture_k(ring5)
    assert k.A == tail_even
    assert k.B == tail_odd


# -- realizability -------------------------------------------------------------

def test_realize_grows_by_cones(ring5):
    trace = realize(ring5, ["x1", "x2"])
    assert trace.sizes == [8, 16, 32]
    assert trace.final.size == 32
    assert trace.final.certified
    assert trace.requested.describe() == "Z(x1, x2)"
    # two cone stages, six base points each
    assert trace.verified_points == 12
    # the starting complex already has empty pointwise data, so every stage
    # must as well (the law only ever shrinks the set)
    for stage in trace.stages:
        assert stage.noncontractible == ()


def test_realize_refuses_a_broken_intersection_law(ring5, monkeypatch):
    # a verdict that breaks the law at one cone stage and one point raises
    # InternalCheckError naming them: here the 16x16 stage at (1:1)
    contractible_at = ghrv.pipelines.contractible_at

    def flipped(C, pt):
        verdict = contractible_at(C, pt)
        return not verdict if C.size == 16 and str(pt) == "(1:1)" else verdict

    monkeypatch.setattr(ghrv.pipelines, "contractible_at", flipped)
    with pytest.raises(InternalCheckError, match=r"^cone stage 1 breaks the intersection law at \(1:1\)$"):
        realize(ring5, ["x1", "x2"])


def test_realize_without_verification(ring5):
    trace = realize(ring5, ["x1*x2"], verify=False)
    assert trace.sizes == [8, 16]
    assert trace.verified_points == 0
    assert all(stage.noncontractible is None for stage in trace.stages)


def test_realize_over_the_rationals(ringq):
    # no enumerable points; the trace still builds and certifies
    trace = realize(ringq, ["x1"])
    assert trace.sizes == [8, 16]
    assert trace.final.certified
    assert all(stage.noncontractible is None for stage in trace.stages)


def test_realize_rejects_inhomogeneous_scalars(ring5):
    with pytest.raises(NotHomogeneousScalar):
        realize(ring5, ["x1 + x1*x2"], verify=False)


# -- modules --------------------------------------------------------------------

def test_module_variety_matches_the_complex(ring5):
    pair = fixture_rank_one(ring5)
    assert module_variety(pair).describe() == rank_variety(pair).describe()


def test_module_presentation_needs_certification(ring5):
    pair = fixture_rank_one(ring5)
    loose = PeriodicComplex(
        ring5,
        pair.A,
        pair.B,
        pair.degrees0,
        pair.degrees1,
        certified=False,
    )
    with pytest.raises(InvalidComplex):
        module_variety(loose)


# -- fixtures and the scripted checks -------------------------------------------

def test_named_fixtures(ring5):
    assert set(FIXTURE_NAMES) == {"k5-example", "k-resolution", "rank-one-pair"}
    cone = named_fixture("k5-example", ring5)
    assert cone.size == 4
    assert cone == cone_mul(fixture_k(ring5), ring5.parse("x1*x2"))
    assert named_fixture("k-resolution", ring5) == fixture_k(ring5)
    assert named_fixture("rank-one-pair", ring5) == fixture_rank_one(ring5)
    with pytest.raises(ValueError):
        named_fixture("nope", ring5)


def test_reproduce_examples_default_field():
    report = reproduce_examples()
    assert report.field.order == 5
    assert len(report.claims) == 10
    assert report.all_passed, describe_report(report)


def test_reproduce_examples_other_field():
    report = reproduce_examples(prime_field(3), seed=7)
    assert report.all_passed, describe_report(report)
    text = describe_report(report)
    assert "GF(3)" in text and "seed 7" in text
    assert "all claims hold" in text
    assert text.count("[ok]") == 10


def test_reproduce_needs_finite_field():
    with pytest.raises(UnsupportedField):
        reproduce_examples(QQ)
