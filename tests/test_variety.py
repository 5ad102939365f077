"""Rank computation over R, minor-ideal images, and pointwise variety data.

rank_over_R goes through the x_1 elimination; every test here plays it
against the exhaustive minor search, and membership is played against the
specialize-and-reduce contractibility test, which never looks at ideals.
The residue pencil y -> 0, which both the minor images and the pointwise
verdicts read, is played against the routes it replaced: normal forms mod w
before the image in k[x], and specialize-then-residue along preimages.
"""

import random
import time
from itertools import combinations

import pytest

import ghrv.ring
import ghrv.variety
from ghrv.complexes import PeriodicComplex, cone_mul, direct_sum, dual, shift, trivial_pair, validate_pair
from ghrv.errors import (
    BoundExceeded,
    CertificationFailed,
    InvalidComplex,
    NotAComplex,
    RingMismatch,
    UnsupportedField,
)
from ghrv.fields import QQ, make_extension, prime_field
from ghrv.matrix import all_minors, identity, mat_mul
from ghrv.pipelines import (
    complete_resolution_of_k,
    documented_cone_pair,
    fixture_k,
    fixture_rank_one,
    realize,
    worked_ring,
)
from ghrv.poly import Poly, PolyRing, evaluator, order_key
from ghrv.ring import RingSpec, lift_point, make_ring, residue, specialize
from ghrv.serialize import load_complex, save_trace
from ghrv.variety import (
    MAX_POINTS,
    ProjPoint,
    _canonical_gens,
    contractible_at,
    enumerate_points,
    extension_of,
    is_empty,
    membership,
    minor_ideal_image,
    points_up_to,
    preimage_independence_check,
    proj_point,
    rank_over_R,
    rank_over_R_by_minors,
    rank_variety,
    ranks_over_R,
    residue_ranks,
)

from dense import dense_grids, dense_rank


# -- ranks over R -------------------------------------------------------------

def test_rank_matches_minor_oracle_on_fixtures(ring5):
    grids = []
    for c in (fixture_k(ring5), fixture_rank_one(ring5)):
        grids.extend([c.A, c.B])
    grids.extend(documented_cone_pair(ring5))
    for g in grids:
        assert rank_over_R(g, ring5) == rank_over_R_by_minors(g, ring5)
    zero = [[ring5.ambient.zero()] * 2] * 2
    assert rank_over_R(zero, ring5) == rank_over_R_by_minors(zero, ring5) == 0


def _random_grid(rng, ring, m, n, max_terms=3):
    amb = ring.ambient
    elems = [e for e in ring.field.elements()]
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            p = amb.zero()
            for _ in range(rng.randrange(max_terms + 1)):
                mono = tuple(rng.randrange(2) for _ in range(amb.nvars))
                c = elems[rng.randrange(1, len(elems))]
                p = p + amb.monomial(mono, c)
            row.append(p)
        rows.append(row)
    return rows


def test_rank_matches_minor_oracle_random(ring5):
    rng = random.Random(101)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)] * 3:
        g = _random_grid(rng, ring5, m, n)
        rank = rank_over_R(g, ring5)
        assert rank == rank_over_R_by_minors(g, ring5), g
        # The same classes by representatives outside normal form: random
        # multiples of w on every entry, so rank_over_R's normal_form acts.
        shifts = _random_grid(rng, ring5, m, n)
        perturbed = [[e + ring5.w * (q + 1) for e, q in zip(row, qs)] for row, qs in zip(g, shifts)]
        assert any(ring5.normal_form(e) != e for row in perturbed for e in row)
        assert rank_over_R(perturbed, ring5) == rank_over_R_by_minors(perturbed, ring5) == rank, g


def test_rank_degenerate_inputs(ring5):
    assert rank_over_R([], ring5) == 0
    assert rank_over_R([[ring5.ambient.zero()]], ring5) == 0
    assert rank_over_R([[ring5.w]], ring5) == 0  # w is zero in R
    assert rank_over_R([[ring5.ambient.one()]], ring5) == 1


def _elimination_rings():
    """The worked ring, a c = 3 ring, and a ring whose f_1 is not a monomial."""
    return [
        worked_ring(prime_field(5)),
        make_ring(prime_field(3), ["u", "v", "z"], ["x1", "x2", "x3"], ["u^2", "v^2", "z^3"]),
        make_ring(QQ, ["x", "y"], ["x1", "x2"], ["x^2 + x*y", "y^2"]),
    ]


@pytest.mark.parametrize("ring", _elimination_rings(), ids=["worked", "c3", "nonmonomial"])
def test_eliminate_x1_is_row_scaling_mod_w(ring):
    # Row i of the image is f_1^top_i times row i mod w, top_i the row's
    # largest x_1-degree, with x_1 gone; a row without x_1 is passed as is.
    amb = ring.ambient
    idx = amb.var_index(ring.xvars[0])
    rng = random.Random(113)

    def entry():
        p = amb.zero()
        for _ in range(rng.randrange(4)):
            mono = tuple(rng.randrange(3) for _ in range(amb.nvars))
            p = p + amb.monomial(mono, ring.field.from_int(rng.randrange(1, 5)))
        return p

    grids = [[[entry() for _ in range(n)] for _ in range(m)] for m, n in ((2, 3), (3, 3), (4, 2))]
    grids.append([[ring.normal_form(e) for e in row] for row in grids[1]])
    grids.append([[e + ring.w for e in row] for row in grids[2]])
    grids.append([[e * amb.variable(ring.xvars[0]) ** 2 for e in row] for row in grids[0]])
    grids.append([list(ring.f), [amb.zero()] * ring.c, [ring.w] * ring.c])
    tops = set()
    for grid in grids:
        out = ghrv.variety._eliminate_x1(grid, ring)
        assert len(out) == len(grid)
        for row, new_row in zip(grid, out):
            top = max((m[idx] for e in row for m in e.terms), default=0)
            tops.add(top)
            scale = ring.f[0] ** top
            assert len(new_row) == len(row)
            for e, image in zip(row, new_row):
                assert all(m[idx] == 0 for m in image.terms)
                assert ring.normal_form(image - scale * e).is_zero()
            if top == 0:
                assert list(new_row) == list(row)
    assert {0, 1, 2} <= tops and max(tops) >= 4


def _permuted(grid, rng):
    """grid with its rows and its columns in a seeded random order."""
    rows = list(grid)
    cols = list(range(len(rows[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[row[j] for j in cols] for row in rows]


@pytest.mark.parametrize("ring_name", ["ring5", "ring9", "ringq"])
def test_bareiss_ranks_of_the_realize_stages(ring_name, request):
    # The 16x16 and 32x32 realize stages, A and B each eliminated
    # (rank_over_R, not the complement rule): the two ranks partition n,
    # and seeded row and column permutations, which change the pivots the
    # fill-in rule takes, leave each rank as it is.
    ring = request.getfixturevalue(ring_name)
    trace = realize(ring, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False)
    assert trace.sizes == [8, 16, 32]
    rng = random.Random(131)
    for stage in trace.stages[1:]:
        C = stage.complex
        r_a, r_b = rank_over_R(C.A, ring), rank_over_R(C.B, ring)
        assert r_a + r_b == C.size
        for _ in range(2):
            assert rank_over_R(_permuted(C.A, rng), ring) == r_a
            assert rank_over_R(_permuted(C.B, rng), ring) == r_b


def test_bareiss_fill_in_on_a_loaded_32x32_trace(tmp_path, monkeypatch):
    # A of the loaded two-scalar 32x32 realize trace over GF(7): Bareiss
    # builds at most 300 polynomials (274 with the fill-in pivot rule; 484
    # when the pivot was the first one-term entry in row order).
    ring = worked_ring(prime_field(7))
    trace = realize(ring, ["3*x1 + 2*x2", "x1^2 + 4*x1*x2 + 5*x2^2"], verify=False)
    save_trace(trace, tmp_path / "trace.json")
    C = load_complex(tmp_path / "trace.json")
    assert C.size == 32
    built = 0
    init = Poly.__init__
    rank_over_domain = ghrv.variety.rank_over_domain

    def counting_init(self, ring, terms):
        nonlocal built
        built += 1
        init(self, ring, terms)

    def counted(rows, ring):
        monkeypatch.setattr(Poly, "__init__", counting_init)
        try:
            return rank_over_domain(rows, ring)
        finally:
            monkeypatch.setattr(Poly, "__init__", init)

    monkeypatch.setattr(ghrv.variety, "rank_over_domain", counted)
    assert rank_over_R(C.A, C.ring) == 16
    assert 0 < built <= 300


def test_x1_multipliers_are_kept_on_the_ring(monkeypatch):
    # rank_over_R builds each multiplier u^t f_1^(top - t) once per ring,
    # however many calls meet it, and _eliminate_x1 expands each distinct
    # (entry object, top) pair once per call.
    ring = worked_ring(prime_field(5))  # a ring no other test has ranked over
    C = realize(ring, ["x1 + 2*x2"], verify=False).final
    idx = ring.ambient.var_index(ring.xvars[0])
    powers = built = 0
    pow_, init = Poly.__pow__, Poly.__init__

    def counting_pow(self, n):
        nonlocal powers
        powers += 1
        return pow_(self, n)

    def counting_init(self, ring, terms):
        nonlocal built
        built += 1
        init(self, ring, terms)

    monkeypatch.setattr(Poly, "__pow__", counting_pow)
    r = rank_over_R(C.A, ring)
    first = powers
    assert first > 0 and ring._x1_multipliers
    for _ in range(3):
        assert rank_over_R(C.A, ring) == r
    assert powers == first
    pairs = set()
    for row in C.A:
        top = max((m[idx] for e in row for m in e.terms), default=0)
        if top:
            pairs |= {(id(e), top) for e in row if e.terms}
    assert len(pairs) < sum(1 for row in C.A for e in row if e.terms)
    monkeypatch.setattr(Poly, "__init__", counting_init)
    ghrv.variety._eliminate_x1(C.A, ring)
    assert built == len(pairs)


# -- the complement rule ------------------------------------------------------

def _exact_factorizations(ring):
    """Every exact factorization the tests build over a worked ring: the
    fixtures and the 8x8 resolution tail, their shifts, duals, cones and
    pairwise sums, and the 16x16 and 32x32 realize stages."""
    amb = ring.ambient
    x1, x2 = (amb.variable(n) for n in ring.xvars)
    base = [fixture_k(ring), fixture_rank_one(ring), complete_resolution_of_k(ring)]
    out = []
    for C in base:
        out += [C, shift(C), dual(C), cone_mul(C, x1 * x2)]
    out += [direct_sum(C, D) for C, D in combinations(base, 2)]
    trace = realize(ring, [x1 * x2, x1 + x2 * 2], verify=False)
    assert trace.sizes == [8, 16, 32]
    return out + [stage.complex for stage in trace.stages[1:]]


@pytest.mark.parametrize("ring_name", ["ring5", "ringq"])
def test_complement_rule_on_every_exact_factorization(ring_name, request, monkeypatch):
    # B is eliminated on its own too, up to the 32x32 realize stage, where
    # the minors cannot be enumerated: the two ranks partition n, and
    # neither falls below the residue rank at a point of the base field.
    ring = request.getfixturevalue(ring_name)
    pairs = _exact_factorizations(ring)
    if ring.field.finite:
        points = enumerate_points(ring.field, 2)
    else:
        points = [proj_point(ring.field, c) for c in ((1, 0), (0, 1), (1, 1), (1, -2), (2, 1))]
    for C in pairs:
        assert C.certified and C.is_factorization
        r_a, r_b = rank_over_R(C.A, ring), rank_over_R(C.B, ring)
        assert r_b == C.size - r_a
        assert ranks_over_R(C) == (r_a, r_b)
        for pt in points:
            s_a, s_b = residue_ranks(C, pt)
            assert r_a >= s_a and r_b >= s_b, (C.size, str(pt))
    # ranks_over_R eliminates A only
    eliminated = []
    rank = ghrv.variety.rank_over_R
    monkeypatch.setattr(ghrv.variety, "rank_over_R", lambda g, R: eliminated.append(g) or rank(g, R))
    for C in pairs:
        ranks_over_R(C)
        assert eliminated.pop() is C.A and not eliminated


def test_complement_rule_reads_the_grids_not_the_claim(ring5, monkeypatch):
    k = fixture_k(ring5)
    unclaimed = PeriodicComplex(ring5, k.A, k.B, k.degrees0, k.degrees1, certified=False)
    assert unclaimed.is_factorization and ranks_over_R(unclaimed) == (1, 1)
    # a claim the grids break: both matrices are eliminated
    amb = ring5.ambient
    tampered = [[k.A[0][0] + amb.variable("x1"), k.A[0][1]], list(k.A[1])]
    false_claim = PeriodicComplex(ring5, tampered, k.B, k.degrees0, k.degrees1, certified=True)
    assert not false_claim.is_factorization
    eliminated = []
    rank = ghrv.variety.rank_over_R
    monkeypatch.setattr(ghrv.variety, "rank_over_R", lambda g, R: eliminated.append(g) or rank(g, R))
    assert ranks_over_R(false_claim) == (2, 1)
    assert eliminated == [false_claim.A, false_claim.B]
    zero = amb.zero()
    assert ranks_over_R(PeriodicComplex(ring5, [[zero]], [[zero]], (0,), (0,), certified=False)) == (0, 0)


# -- the factorization verdict ------------------------------------------------

def _two_product_verdict(C):
    """A*B = B*A = w*I checked by both products."""
    amb = C.ring.ambient
    w_id = identity(amb, C.size, C.ring.w)
    return mat_mul(C.A, C.B, amb) == w_id and mat_mul(C.B, C.A, amb) == w_id


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_one_product_decides_the_factorization(field):
    # P is a domain and w is nonzero, so A*B = w*I forces B*A = w*I.  On the
    # fixtures, the seeded symbolic suite, the 8x8 resolve-k tail and the
    # 16x16 and 32x32 realize stages, the kept verdict (inherited, for a
    # cone) and that of a fresh uncertified copy agree with both products.
    # So do the pairs with one entry changed and with B scaled by x1, which
    # are never factorizations, and whose findings are those both products
    # give mod w.
    ring = worked_ring(field)
    amb = ring.ambient
    x1 = amb.variable(ring.xvars[0])
    rng = random.Random(18)
    pairs = _symbolic_suite(ring, rng) + _exact_factorizations(ring) + [trivial_pair(ring)]
    assert {32, 16, 8} <= {C.size for C in pairs}
    for C in pairs:
        fresh = PeriodicComplex(ring, C.A, C.B, C.degrees0, C.degrees1, certified=False)
        assert C.is_factorization and fresh.is_factorization and _two_product_verdict(C)
        i, j = rng.randrange(C.size), rng.randrange(C.size)
        changed = [list(row) for row in C.A]
        changed[i][j] = changed[i][j] + x1
        scaled = [[x1 * e for e in row] for row in C.B]
        for a, b in ((changed, C.B), (C.A, scaled)):
            bad = PeriodicComplex(ring, a, b, C.degrees0, C.degrees1, certified=True)
            assert not bad.is_factorization and not _two_product_verdict(bad)
            not_a_complex = []
            for name, prod in (("A*B", mat_mul(bad.A, bad.B, amb)), ("B*A", mat_mul(bad.B, bad.A, amb))):
                nonzero = [(i, j) for i, row in enumerate(prod) for j, e in enumerate(row)
                           if not ring.normal_form(e).is_zero()]
                if nonzero:
                    not_a_complex.append((NotAComplex, f"{name} is nonzero mod w at entries {nonzero[:4]}"))
            findings = validate_pair(bad).findings
            assert [f for f in findings if f[0] is NotAComplex] == not_a_complex
            assert (CertificationFailed, "A*B = B*A = w*I fails on stored representatives") in findings


# -- minor ideal images -------------------------------------------------------

def test_minor_image_unit_convention(ring5):
    ideal = minor_ideal_image([[ring5.ambient.zero()]], 0, ring5)
    assert ideal.gens == (ring5.kx.one(),)
    assert ideal.describe() == "(1)"


def test_minor_images_of_the_rank_one_pair(ring5):
    pair = fixture_rank_one(ring5)
    x1 = ring5.kx.variable("x1")
    x2 = ring5.kx.variable("x2")
    for grid in (pair.A, pair.B):
        ideal = minor_ideal_image(grid, 1, ring5)
        assert ideal.gens == (x1, x2)
        assert ideal.describe() == "(x1, x2)"
    # the 2x2 minor is det = +-w, which is zero in R
    top = minor_ideal_image(pair.A, 2, ring5)
    assert top.gens == ()
    assert top.describe() == "(0)"


def test_variety_of_the_rank_one_pair_is_empty(ring5):
    v = rank_variety(fixture_rank_one(ring5))
    assert v.describe() == "Z(x1, x2) union Z(x1, x2)"
    verdict = is_empty(v, bound=2)
    assert verdict.empty_up_to
    assert verdict.witness is None
    assert "degree <= 2" in verdict.describe()


def test_variety_of_the_resolution_pair_is_everything(ring5):
    # every entry of the 2x2 residue-field resolution has positive y-degree,
    # so both minor-ideal images are the zero ideal
    v = rank_variety(fixture_k(ring5))
    assert all(comp.gens == () for comp in v.components)
    pts = enumerate_points(ring5.field, 2)
    assert all(membership(v, pt) for pt in pts)
    verdict = is_empty(v, bound=1)
    assert not verdict.empty_up_to
    assert str(verdict.witness) == "(1:0)"
    assert verdict.witness_degree == 1
    assert "(1:0)" in verdict.describe()
    # a scan over no extension would report no points, here where every
    # point is one
    for bound in (0, -3):
        with pytest.raises(ValueError, match=f"emptiness scan needs bound >= 1, got {bound}"):
            is_empty(v, bound=bound)


def test_emptiness_is_refused_up_front_past_the_point_cap(ring5, ringq):
    # P^1(GF(5^9)) has more than MAX_POINTS points: the scan is refused
    # before any point is built, both on an empty variety, which would
    # otherwise be scanned over every degree up to 8 first, and on
    # fixture_k's, which has a witness at degree 1
    for C in (fixture_rank_one(ring5), fixture_k(ring5)):
        v = rank_variety(C)
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match="^P\\^1\\(GF\\(1953125\\)\\) has more than the cap of 1000000 points$"):
            is_empty(v, bound=9)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(UnsupportedField, match="^emptiness scan needs a finite base field$"):
        is_empty(rank_variety(fixture_rank_one(ringq)), bound=1)


def test_variety_needs_a_valid_pair(ring5):
    zero = ring5.ambient.zero()
    bad = PeriodicComplex(ring5, [[zero]], [[zero]], (0,), (0,), certified=False)
    with pytest.raises(InvalidComplex):
        rank_variety(bad)


def test_trivial_pair_has_empty_variety(ring5):
    v = rank_variety(trivial_pair(ring5))
    assert all(comp.gens == (ring5.kx.one(),) for comp in v.components)
    assert is_empty(v, bound=2).empty_up_to


# -- projective points --------------------------------------------------------

def test_point_normalization(f5):
    p = proj_point(f5, (2, 4))
    assert p == proj_point(f5, (1, 2))
    assert str(p) == "(1:2)"
    with pytest.raises(ValueError):
        proj_point(f5, (0, 0))


def test_point_enumeration(f2, f3, f5):
    pts = enumerate_points(f3, 2)
    assert [str(p) for p in pts] == ["(1:0)", "(1:1)", "(1:2)", "(0:1)"]
    assert len(enumerate_points(f5, 2)) == 6
    seven = enumerate_points(f2, 3)
    assert len(seven) == len(set(seven)) == 7
    with pytest.raises(UnsupportedField):
        enumerate_points(QQ, 2)
    assert len(enumerate_points(f5, 1)) == 1
    for c in (0, -2):
        with pytest.raises(ValueError, match=f"needs c >= 1 coordinates, got {c}$"):
            enumerate_points(f5, c)


def test_point_enumeration_cap(f2, monkeypatch):
    # P^0 of a field too large to list is its one point
    big = prime_field(1000000000039)
    assert [str(p) for p in enumerate_points(big, 1)] == ["(1)"]
    # 2^20 - 1 and q + 1 = 1000004 points exceed MAX_POINTS; c = 10^6 is
    # refused without computing 2^(10^6)
    assert MAX_POINTS == 10**6
    for field, c in ((f2, 20), (prime_field(1000003), 2), (f2, 10**6)):
        with pytest.raises(BoundExceeded, match=f"^P\\^{c - 1}\\(GF\\({field.order}\\)\\) has more"):
            enumerate_points(field, c)
    # the cap itself is allowed: P^2(F_2) has 7 points
    monkeypatch.setattr(ghrv.variety, "MAX_POINTS", 7)
    assert len(enumerate_points(f2, 3)) == 7
    with pytest.raises(BoundExceeded):
        enumerate_points(f2, 4)


def test_points_up_to_refuses_at_the_call_and_lists_lazily(f3, f5, monkeypatch):
    # every refusal comes at the call, before any point is built
    built = []
    monkeypatch.setattr(ghrv.variety, "ProjPoint", lambda *args: built.append(args) or ProjPoint(*args))
    for field, c, degree, error, message in (
        (QQ, 2, 1, UnsupportedField, "^point enumeration needs a finite field$"),
        (f5, 0, 1, ValueError, "^point enumeration needs c >= 1 coordinates, got 0$"),
        (f5, 2, 0, ValueError, "^point enumeration needs a degree >= 1, got 0$"),
        (f5, 2, 9, BoundExceeded, "^P\\^1\\(GF\\(1953125\\)\\) has more than the cap of 1000000 points$"),
    ):
        with pytest.raises(error, match=message):
            points_up_to(field, c, degree)
    assert built == []
    # one listing per degree, ascending, each built when it is reached
    seen = [(fld, points, len(built)) for fld, points in points_up_to(f3, 2, 3)]
    assert [(fld, n) for fld, _, n in seen] == [(extension_of(f3, 1), 4), (extension_of(f3, 2), 14),
                                                (extension_of(f3, 3), 42)]
    for fld, points, _ in seen:
        assert points == enumerate_points(fld, 2)


def test_extension_tower(f3, f5, f9):
    assert extension_of(f5, 1) is f5
    e = extension_of(f3, 2)
    assert e.order == 9
    ee = extension_of(f9, 2)
    assert (ee.p, ee.e) == (3, 4)
    with pytest.raises(UnsupportedField):
        extension_of(QQ, 2)


# -- membership vs the pointwise oracle ---------------------------------------

def test_membership_agrees_with_contractibility_through_extensions(ring3):
    # cone of the resolution pair by x1^2 + x2^2: over GF(3) the requested
    # locus has no rational points, over GF(9) it has the two square roots
    # of -1; membership must track the specialize-and-reduce test everywhere
    cone = cone_mul(fixture_k(ring3), ring3.parse("x1^2 + x2^2"))
    v = rank_variety(cone)
    base = enumerate_points(ring3.field, 2)
    assert not any(membership(v, pt) for pt in base)
    ext = extension_of(ring3.field, 2)
    hits = 0
    for pt in enumerate_points(ext, 2):
        inside = membership(v, pt)
        assert inside == (not contractible_at(cone, pt)), str(pt)
        hits += inside
    assert hits == 2
    verdict = is_empty(v, bound=2)
    assert not verdict.empty_up_to
    assert verdict.witness_degree == 2


def test_membership_is_scale_invariant(ring5):
    v = rank_variety(cone_mul(fixture_k(ring5), ring5.parse("x1")))
    f25 = extension_of(ring5.field, 2)
    g = f25.generator()
    scaled = proj_point(f25, (f25.zero, g))
    assert scaled == proj_point(f25, (0, 1))
    assert membership(v, scaled)
    # a point with other than one coordinate per x-variable is refused, not
    # truncated or left short
    v = rank_variety(cone_mul(fixture_k(ring5), ring5.parse("x1*x2")))
    assert v.describe() == "Z(x1^2*x2^2) union Z(x1^2*x2^2)"
    assert membership(v, proj_point(ring5.field, (1, 0)))
    for coords in ((1, 0, 3), (1,)):
        with pytest.raises(ValueError, match=f"^expected 2 coordinates, got {len(coords)}$"):
            membership(v, proj_point(ring5.field, coords))


# -- pointwise data -----------------------------------------------------------

def test_residue_data_of_the_resolution_pair(ring5):
    # every entry has positive y-degree, so the pencil has no nonzero entry
    k = fixture_k(ring5)
    assert k.pencil_entries.values == ()
    assert residue_ranks(k, (1, 1)) == (0, 0)
    assert not contractible_at(k, (1, 1))


def test_residue_data_of_the_rank_one_pair(ring5):
    pair = fixture_rank_one(ring5)
    for pt in enumerate_points(ring5.field, 2):
        assert residue_ranks(pair, pt) == (1, 1)
        assert contractible_at(pair, pt)


def test_trivial_pair_is_contractible_everywhere(ring5):
    t = trivial_pair(ring5)
    for pt in enumerate_points(ring5.field, 2):
        assert residue_ranks(t, pt) == (1, 0)
        assert contractible_at(t, pt)


def _perturbation_check(C, pt):
    return preimage_independence_check(C, pt, trials=1, seed=0)


def test_points_are_checked_against_the_ring(ring5):
    """A ProjPoint is checked as lift_point checks it: the same errors with
    the same messages, from every pointwise entry point."""
    f5, f7 = ring5.field, prime_field(7)
    k = fixture_k(ring5)
    bad = [
        (ProjPoint(f5, (f5.one, f5.zero, f5.zero)), ValueError),
        (ProjPoint(f5, (f5.zero, f5.zero)), ValueError),
        (ProjPoint(f7, (f7.one, f7.zero)), RingMismatch),
    ]
    for pt, error in bad:
        with pytest.raises(error) as expected:
            lift_point(ring5, pt.coords, field=pt.field)
        for check in (contractible_at, residue_ranks, _perturbation_check):
            with pytest.raises(error) as got:
                check(k, pt)
            assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        contractible_at(k, bad[0][0])
    with pytest.raises(RingMismatch, match="characteristic mismatch"):
        contractible_at(k, bad[2][0])


def test_preimage_perturbations_never_move_the_verdict(ring5):
    cone = cone_mul(fixture_k(ring5), ring5.parse("x1*x2"))
    on = proj_point(ring5.field, (1, 0))
    off = proj_point(ring5.field, (1, 1))
    rep_on = preimage_independence_check(cone, on, trials=6, seed=5)
    assert rep_on.baseline is False and rep_on.stable
    assert rep_on.trials == 6 and rep_on.seed == 5
    rep_off = preimage_independence_check(cone, off, trials=6, seed=5)
    assert rep_off.baseline is True and rep_off.stable
    again = preimage_independence_check(cone, on, trials=6, seed=5)
    assert again.verdicts == rep_on.verdicts
    assert rep_on.point is on


def test_perturbation_check_validates_its_point_twice_and_lifts_nothing(ring5, ringq, monkeypatch):
    # the point is validated once by the check and once by its baseline
    # contractible_at, however many trials run: point_coords is counted
    # wherever it is called from.  Each trial builds its preimages itself,
    # so lift_point is never called, and the seeded draws are pinned by the
    # preimages of two trials
    cone = cone_mul(fixture_k(ring5), ring5.parse("x1*x2"))
    validated, drawn = [0], []
    point_coords, oracle = ghrv.variety.point_coords, ghrv.variety._oracle_scalars

    def counted(*args, **kwargs):
        validated[0] += 1
        return point_coords(*args, **kwargs)

    def recorded(C, preimages):
        drawn.append(tuple(str(p) for p in preimages))
        return oracle(C, preimages)

    def refused(*args, **kwargs):
        raise AssertionError("lift_point called")

    monkeypatch.setattr(ghrv.variety, "point_coords", counted)
    monkeypatch.setattr(ghrv.ring, "point_coords", counted)
    monkeypatch.setattr(ghrv.variety, "_oracle_scalars", recorded)
    monkeypatch.setattr(ghrv.ring, "lift_point", refused)
    assert not hasattr(ghrv.variety, "lift_point")
    for coords, baseline in (((1, 0), False), ((1, 1), True)):
        for pt in (proj_point(ring5.field, coords), coords):
            for trials in (0, 1, 6):
                for seed in (0, 5):
                    validated[0] = 0
                    report = preimage_independence_check(cone, pt, trials=trials, seed=seed)
                    assert validated[0] == 2
                    assert report.baseline is baseline
                    assert report.verdicts == [baseline] * trials
    drawn.clear()
    preimage_independence_check(cone, (1, 1), trials=2, seed=5)
    assert drawn == [
        ("2*x^2 + 4*x*y + 4*x + 2*y + 1", "x*y + 3*x + y + 1"),
        ("x^2 + 3*x*y + 4*y^2 + 2*x + 3*y + 1", "x^2 + y^2 + 4*y + 1"),
    ]
    monkeypatch.undo()
    with pytest.raises(UnsupportedField, match="^perturbation sampling needs a finite field$"):
        preimage_independence_check(fixture_k(ringq), (1, 1), trials=1, seed=0)


# -- the residue pencil against its oracles -----------------------------------

def _pencil_at(C, pt):
    """The residue pencil at pt as dense grids, each entry's image y -> 0
    (ring.image_grid) evaluated on its own: a route that does not read
    C.pencil_entries."""
    ring = C.ring
    assignment = dict(zip(ring.xvars, pt.coords))
    return [
        [[e.evaluate(assignment, target=pt.field) for e in row] for row in ring.image_grid(grid)]
        for grid in (C.A, C.B)
    ]


@pytest.mark.parametrize("field", [prime_field(5), make_extension(3, 2)], ids=str)
def test_residue_pencil_matches_specialize_then_residue(field):
    ring = worked_ring(field)
    suite = [complete_resolution_of_k(ring)]
    for base in (fixture_k(ring), fixture_rank_one(ring)):
        suite += [base, shift(base), dual(base), cone_mul(base, ring.parse("x1*x2"))]
    points = enumerate_points(field, 2) + enumerate_points(extension_of(field, 2), 2)
    for pt in points:
        amb = ring.ambient_over(pt.field)
        x, y = (amb.variable(n) for n in ring.yvars)
        a1, a2 = (amb.const(a) for a in pt.coords)
        choices = [
            lift_point(ring, pt.coords, field=pt.field),
            lift_point(ring, pt.coords, preimages=(a1 + y, a2 + x * y + x * x), field=pt.field),
        ]
        for C in suite:
            pencil = _pencil_at(C, pt)
            # the kept pencil, its distinct entries evaluated and laid out
            at = evaluator(ring.kx, dict(zip(ring.xvars, pt.coords)), pt.field)
            kept = dense_grids(C.pencil_entries, [at(e) for e in C.pencil_entries.values], pt.field.zero)
            assert kept == pencil, (C.size, str(pt))
            ranks = tuple(dense_rank(g, pt.field) for g in pencil)
            assert residue_ranks(C, pt) == ranks, (C.size, str(pt))
            for preimages in choices:
                oracle = [
                    [[residue(specialize(e, preimages, ring), ring) for e in row] for row in grid]
                    for grid in (C.A, C.B)
                ]
                assert pencil == oracle, (C.size, str(pt), preimages)


def test_realize_stage_verdicts_match_specialize_then_residue(ring5):
    # the 8 -> 16 -> 32 realize stages over GF(5), and cones on fixture_k for
    # points in the variety, at every point of P^1(F_25): the pencil skips
    # its zero entries and the rank its zero scalars, and both verdicts and
    # ranks agree with specializing every entry, zero or not, then y -> 0
    p1, p2 = ring5.parse("x1 + 2*x2"), ring5.parse("x1^2 + 3*x2^2")
    trace = realize(ring5, [p1, p2], verify=False)
    stages = [stage.complex for stage in trace.stages]
    assert [C.size for C in stages] == [8, 16, 32]
    stages += [cone_mul(fixture_k(ring5), p1), cone_mul(fixture_k(ring5), p2)]
    f25 = extension_of(ring5.field, 2)
    amb = ring5.ambient_over(f25)
    x, y = (amb.variable(n) for n in ring5.yvars)
    verdicts = []
    for pt in enumerate_points(f25, 2):
        a1, a2 = (amb.const(a) for a in pt.coords)
        choices = [
            lift_point(ring5, pt.coords, field=f25),
            lift_point(ring5, pt.coords, preimages=(a1 + x * y, a2 + y), field=f25),
        ]
        for C in stages:
            verdict = contractible_at(C, pt)
            ranks = residue_ranks(C, pt)
            for preimages in choices:
                grids = (
                    [[residue(specialize(e, preimages, ring5), ring5) for e in row] for row in grid]
                    for grid in (C.A, C.B)
                )
                oracle = tuple(dense_rank(g, f25) for g in grids)
                assert ranks == oracle, (C.size, str(pt))
                assert verdict == (sum(oracle) == C.size)
            verdicts.append(verdict)
    # Z(p1) is one F_5 point and Z(p2) two F_25 points off the F_5 line
    assert verdicts.count(False) == 3


# The integer points the pointwise benchmark scans over QQ; every zero of its
# cone scalars, products of linear forms with coefficients +-1, +-2, is one.
QQ_POINTS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1))


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_sparse_verdicts_match_the_dense_grids_and_the_oracle(field, monkeypatch):
    # every complex of the seeded suite and the 8, 16 and 32 realize stages,
    # at every point of P^1(F_q) and P^1(F_q^2), or the integer points over
    # QQ: the ranks eliminated on rows of (column, index) pairs equal the
    # dense ranks of the pencil evaluated entrywise (_pencil_at), whose
    # grids equal specializing every entry of A and B, zero or not, along
    # non-constant preimages and then y -> 0; the oracle route over
    # distinct entries gives those grids too.
    # The reference specializes each entry object once per point (a shared
    # zero block is one object), which does not depend on equal entries
    # sharing an index.
    ring = worked_ring(field)
    stages = realize(ring, [ring.parse("x1 + 2*x2"), ring.parse("x1^2 + x1*x2 + 2*x2^2")], verify=False).stages
    assert [stage.size for stage in stages] == [8, 16, 32]
    suite = _symbolic_suite(ring, random.Random(131)) + [stage.complex for stage in stages]
    if field.finite:
        points = enumerate_points(field, 2) + enumerate_points(extension_of(field, 2), 2)
    else:
        points = [proj_point(field, pt) for pt in QQ_POINTS]

    evaluated = []

    def counting_evaluator(*args, **kwargs):
        at = evaluator(*args, **kwargs)

        def counted(p):
            evaluated.append(p)
            return at(p)
        return counted

    verdicts = set()
    for C in suite:
        entries = [e for grid in (C.A, C.B) for row in grid for e in row if not e.is_zero()]
        images = {ring.image_in_kx(e) for e in entries} - {ring.kx.zero()}
        for pt in points:
            fld = pt.field
            amb = ring.ambient_over(fld)
            x, y = (amb.variable(n) for n in ring.yvars)
            a1, a2 = (amb.const(a) for a in pt.coords)
            preimages = lift_point(ring, pt.coords, preimages=(a1 + x * y, a2 + y + x * x), field=fld)
            memo = {}
            for e in (e for grid in (C.A, C.B) for row in grid for e in row):
                if id(e) not in memo:
                    memo[id(e)] = residue(specialize(e, preimages, ring), ring)
            oracle = [[[memo[id(e)] for e in row] for row in grid] for grid in (C.A, C.B)]
            a_bar, b_bar = _pencil_at(C, pt)
            assert [a_bar, b_bar] == oracle, (C.size, str(pt))
            scalars = ghrv.variety._oracle_scalars(C, preimages)
            assert dense_grids(C.pair_entries, scalars, fld.zero) == oracle, (C.size, str(pt))
            dense = (dense_rank(a_bar, fld), dense_rank(b_bar, fld))
            monkeypatch.setattr(ghrv.variety, "evaluator", counting_evaluator)
            evaluated.clear()
            verdict = contractible_at(C, pt)
            # each distinct nonzero image is evaluated once, and nothing else
            assert len(evaluated) == len(set(evaluated)) == len(images)
            assert set(evaluated) == images
            monkeypatch.undo()
            assert residue_ranks(C, pt) == dense, (C.size, str(pt))
            assert verdict == (sum(dense) == C.size), (C.size, str(pt))
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _minor_image_by_normal_form(rows, r, ring):
    nf_rows = [[ring.normal_form(e) for e in row] for row in rows]
    images = (ring.image_in_kx(ring.normal_form(m)) for m in all_minors(nf_rows, r, ring.ambient))
    return _canonical_gens(ring.kx, images)


@pytest.mark.parametrize("field", [prime_field(3), QQ], ids=str)
def test_minor_images_match_the_normal_form_route(field):
    ring = worked_ring(field)
    k, pair = fixture_k(ring), fixture_rank_one(ring)
    cones = [cone_mul(k, ring.parse(p)) for p in ("x1*x2", "x1^2 + x2^2")]
    cones.append(cone_mul(pair, ring.parse("x1")))
    for C in cones:
        for grid in (C.A, C.B):
            for r in range(1, C.size + 1):
                assert minor_ideal_image(grid, r, ring).gens == _minor_image_by_normal_form(grid, r, ring)
    tail = complete_resolution_of_k(ring)
    for grid in (tail.A, tail.B):
        r = rank_over_R(grid, ring)
        assert minor_ideal_image(grid, r, ring).gens == _minor_image_by_normal_form(grid, r, ring)


def _canonical_by_one_key(ring, gens):
    """The order _canonical_gens replaced, kept as its oracle: one sort key
    (leading monomial, repr of the sorted terms) for every generator."""
    seen = {}
    for g in gens:
        if not g.is_zero():
            g = g.monic()
            seen[frozenset(g.terms.items())] = g
    ordered = sorted(
        seen.values(),
        key=lambda g: (
            order_key(g.leading_monomial()),
            sorted(g.terms.items(), key=lambda kv: order_key(kv[0]), reverse=True).__repr__(),
        ),
        reverse=True,
    )
    if any(g.is_constant() for g in ordered):
        return (ring.one(),)
    return tuple(ordered)


def _symbolic_suite(ring, rng):
    """The complexes of the symbolic benchmark suite over one worked ring:
    the two fixtures, their shifts, duals and sum, cones on them by random
    forms of degree 1 and 2, and the 8x8 tail with its shift and dual."""
    amb = ring.ambient
    k, r1 = fixture_k(ring), fixture_rank_one(ring)
    bases = [k, r1, shift(k), dual(k), shift(r1), dual(r1)]
    if ring.field.finite:
        units = [e for e in ring.field.elements() if not ring.field.is_zero(e)]
    else:
        units = [ring.field.from_int(a) for a in (1, 2, -1, -2)]
    suite = bases + [direct_sum(k, r1)]
    for base in bases:
        for degree in (1, 2):
            terms = {(i, degree - i) + (0,) * ring.d: rng.choice(units) for i in range(degree + 1)}
            suite.append(cone_mul(base, Poly(amb, terms)))
    tail = complete_resolution_of_k(ring)
    return suite + [tail, shift(tail), dual(tail)]


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_canonical_gens_keep_the_one_key_order(field):
    # every minor list rank_variety orders on the symbolic suite, and the
    # lists one size below the critical one, come out byte-identical to the
    # one-key sort; some lists have generators sharing a leading monomial
    ring = worked_ring(field)
    shared = 0
    for C in _symbolic_suite(ring, random.Random(127)):
        for grid, r in zip((C.A, C.B), ranks_over_R(C)):
            for size in {r, r - 1} - {0}:
                gens = list(all_minors(ring.image_grid(grid), size, ring.kx))
                got = _canonical_gens(ring.kx, gens)
                want = _canonical_by_one_key(ring.kx, gens)
                assert got == want
                assert [g.to_string(strict=False) for g in got] == [g.to_string(strict=False) for g in want]
                lms = [g.leading_monomial() for g in got]
                shared += len(lms) > len(set(lms))
    assert shared > 0


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_canonical_gens_unchanged_when_monic_returns_itself(field, monkeypatch):
    # Poly.monic returns a monic generator itself instead of a scaled copy;
    # on every critical minor list of the symbolic suite, and the lists one
    # size below, _canonical_gens prints the same as with the scaling monic
    ring = worked_ring(field)
    lists = []
    for C in _symbolic_suite(ring, random.Random(127)):
        for grid, r in zip((C.A, C.B), ranks_over_R(C)):
            for size in {r, r - 1} - {0}:
                lists.append(list(all_minors(ring.image_grid(grid), size, ring.kx)))
    got = [[g.to_string(strict=False) for g in _canonical_gens(ring.kx, gens)] for gens in lists]
    monkeypatch.setattr(Poly, "monic", lambda p: p.scale(field.inv(p.leading_coeff())) if p.terms else p)
    want = [[g.to_string(strict=False) for g in _canonical_gens(ring.kx, gens)] for gens in lists]
    assert got == want
    assert any(g.leading_coeff() == field.one for gens in lists for g in gens)


def test_minor_images_visit_only_nonzero_minors(ring5, monkeypatch):
    # Each 8x8 of the resolution of k has 8 nonzero entries and 8 nonzero
    # 4 x 4 minors among its 4900.  Enumerating only nonzero minors builds a
    # few hundred polynomials for both images; visiting every (row set,
    # column set) pair built over 11000, one of them a fresh zero per pair.
    # ring.zero() is counted too: it returns a shared zero, which would hide
    # a return to that route from a count of constructions alone.
    tail = complete_resolution_of_k(ring5)
    ranks = ranks_over_R(tail)
    assert tail.pencil_entries.values and ranks == (4, 4)
    built = [0]
    init, zero = Poly.__init__, PolyRing.zero

    def counted_init(self, ring, terms):
        built[0] += 1
        init(self, ring, terms)

    def counted_zero(self):
        built[0] += 1
        return zero(self)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(PolyRing, "zero", counted_zero)
    images = [minor_ideal_image(grid, r, ring5) for grid, r in zip((tail.A, tail.B), ranks)]
    monkeypatch.undo()
    assert all(image.gens for image in images)
    assert built[0] <= 1000


def test_fast_paths_skip_normal_form_and_specialize(ring3, ring5, monkeypatch):
    tail = complete_resolution_of_k(ring3)
    r_a = rank_over_R(tail.A, ring3)
    pt = proj_point(ring3.field, (1, 2))
    calls = {"normal_form": 0, "specialize": 0, "image_in_kx": 0, "mul": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RingSpec, "normal_form", counted("normal_form", RingSpec.normal_form))
    monkeypatch.setattr(ghrv.variety, "specialize", counted("specialize", specialize))
    monkeypatch.setattr(RingSpec, "image_in_kx", counted("image_in_kx", RingSpec.image_in_kx))
    assert minor_ideal_image(tail.A, r_a, ring3).gens
    assert calls["normal_form"] == 0
    assert calls["image_in_kx"] > 0  # the symbolic path takes its own residue grid
    calls["image_in_kx"] = 0
    assert contractible_at(tail, pt)
    assert calls["specialize"] == 0
    # the pencil is built once, from the nonzero entries of A and B only,
    # mapping each distinct entry object once; the tail holds one object
    # per signed variable and signed f_i that it uses
    entries = [e for grid in (tail.A, tail.B) for row in grid for e in row if not e.is_zero()]
    objects = len({id(e) for e in entries})
    assert len(entries) == 48
    assert calls["image_in_kx"] == objects == 10
    assert contractible_at(tail, pt) and contractible_at(tail, proj_point(ring3.field, (0, 1)))
    assert calls["image_in_kx"] == objects
    report = preimage_independence_check(tail, pt, trials=2, seed=0)
    assert report.stable and report.baseline
    # the oracle specializes each distinct nonzero entry of A and B once per
    # trial (equal entries by Poly equality, which on the tail is identity,
    # one object per value); zero entries go to zero without it
    distinct = len(set(entries))
    assert len(tail.pair_entries.values) == distinct == objects
    assert calls["specialize"] == 2 * distinct

    # one perturbed trial specializes every distinct nonzero entry, and
    # substitutes in place: every term of the tail has one x-variable of
    # degree one at most, so no Poly product is formed (a product per term
    # would take 48)
    calls["specialize"] = 0
    monkeypatch.setattr(Poly, "__mul__", counted("mul", Poly.__mul__))
    report = preimage_independence_check(tail, pt, trials=1, seed=0)
    assert report.verdicts == [report.baseline] == [True]
    assert calls["specialize"] == distinct
    assert calls["mul"] == 0
    # a degree-2 cone needs the powers of each preimage, computed once for
    # all entries, and one product per term in both x-variables
    cone = cone_mul(fixture_k(ring5), ring5.parse("x1^2 + 2*x2^2 + x1*x2"))
    terms = [m for grid in (cone.A, cone.B) for row in grid for e in row for m in e.terms]
    mixed = sum(1 for m in terms if m[0] and m[1])
    chain = sum(max(m[i] for m in terms) - 1 for i in range(2))
    assert 0 < mixed + chain < sum(1 for m in terms if m[0] or m[1])
    calls["mul"] = 0
    preimage_independence_check(cone, proj_point(ring5.field, (1, 2)), trials=1, seed=0)
    assert 0 < calls["mul"] <= mixed + chain
    monkeypatch.undo()

    # pairs built from a scanned pair get their own pencils, and their
    # verdicts agree with the specialize-then-residue oracle everywhere; the
    # kept pencil, expanded, is the image grid of A and B
    base = fixture_k(ring5)
    points = enumerate_points(ring5.field, 2) + enumerate_points(extension_of(ring5.field, 2), 2)
    assert not any(contractible_at(base, p) for p in points)
    derived = [shift(base), dual(base), cone_mul(base, ring5.parse("x1^2 + 2*x2^2"))]
    for C in derived:
        assert "pencil_entries" not in vars(C)
        for p in points:
            report = preimage_independence_check(C, p, trials=1, seed=3)
            assert report.verdicts == [report.baseline] == [contractible_at(C, p)], str(p)
        assert C.pencil_entries is not base.pencil_entries
        kept = C.pencil_entries
        dense = dense_grids(kept, kept.values, ring5.kx.zero())
        assert [tuple(map(tuple, grid)) for grid in dense] == [ring5.image_grid(C.A), ring5.image_grid(C.B)]
    # the cone's variety is Z(x1^2 + 2*x2^2): two points, both over F_25 only
    cone_points = [p for p in points if not contractible_at(derived[2], p)]
    assert len(cone_points) == 2 and all(p.field != ring5.field for p in cone_points)
