"""Rank computation over R, minor-ideal images, and pointwise variety data.

rank_over_R goes through the x_1 elimination; every test here plays it
against the exhaustive minor search, and membership is played against the
specialize-and-reduce contractibility test, which never looks at ideals.
The residue pencil y -> 0, which both the minor images and the pointwise
verdicts read, is played against the routes it replaced: normal forms mod w
before the image in k[x], and specialize-then-residue along preimages.
"""

import inspect
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
import sympy

import ghrv.complexes
import ghrv.ring
import ghrv.variety
from ghrv.complexes import EvaluationPlan, PeriodicComplex, _cone, cone_mul, direct_sum, dual, shift, trivial_pair, validate_pair
from ghrv.errors import (
    BoundExceeded,
    CertificationFailed,
    FieldError,
    InvalidComplex,
    NotAComplex,
    RingMismatch,
    UnsupportedField,
)
from ghrv.fields import QQ, make_extension, prime_field
from ghrv.matrix import sparse_rows
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
    IdealGens,
    ProjPoint,
    ZeroSetUnion,
    _canonical_gens,
    _ranks,
    contractible_at,
    critical_images,
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

from dense import dense_minors, dense_rank, grid_of, grid_product, identity, image_grid, image_rows


# -- ranks over R -------------------------------------------------------------

def test_rank_matches_minor_oracle_on_fixtures(ring5):
    grids = []
    for c in (fixture_k(ring5), fixture_rank_one(ring5)):
        grids.extend([c.A, c.B])
    grids.extend(documented_cone_pair(ring5))
    for g in grids:
        assert rank_over_R(sparse_rows(g), ring5) == rank_over_R_by_minors(g, ring5)
    zero = [[ring5.ambient.zero()] * 2] * 2
    assert rank_over_R(sparse_rows(zero), ring5) == rank_over_R_by_minors(zero, ring5) == 0


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
        rank = rank_over_R(sparse_rows(g), ring5)
        assert rank == rank_over_R_by_minors(g, ring5), g
        # The same classes by representatives outside normal form: random
        # multiples of w on every entry, so rank_over_R's normal_form acts.
        shifts = _random_grid(rng, ring5, m, n)
        perturbed = [[e + ring5.w * (q + 1) for e, q in zip(row, qs)] for row, qs in zip(g, shifts)]
        assert any(ring5.normal_form(e) != e for row in perturbed for e in row)
        assert rank_over_R(sparse_rows(perturbed), ring5) == rank_over_R_by_minors(perturbed, ring5) == rank, g


def test_rank_degenerate_inputs(ring5):
    assert rank_over_R([], ring5) == 0
    assert rank_over_R([[]], ring5) == 0
    assert rank_over_R([[(0, ring5.w)]], ring5) == 0  # w is zero in R
    assert rank_over_R([[(0, ring5.ambient.one())]], ring5) == 1


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
    # Rows go in and come out sparse, an image that cancels (that of w)
    # left out.
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
        rows = sparse_rows(grid)
        out = ghrv.variety._eliminate_x1(rows, ring)
        assert len(out) == len(grid)
        assert all(image.terms for row in out for _, image in row)
        assert [out[i] is row for i, row in enumerate(rows)] == [
            not any(m[idx] for e in row for m in e.terms) for row in grid]
        for row, new_row in zip(grid, grid_of(out, len(grid[0]), amb.zero())):
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
        r_a, r_b = rank_over_R(sparse_rows(C.A), ring), rank_over_R(sparse_rows(C.B), ring)
        assert r_a + r_b == C.size
        for _ in range(2):
            assert rank_over_R(sparse_rows(_permuted(C.A, rng)), ring) == r_a
            assert rank_over_R(sparse_rows(_permuted(C.B, rng)), ring) == r_b


def test_bareiss_fill_in_on_a_loaded_32x32_trace(tmp_path, monkeypatch):
    # A of the loaded two-scalar 32x32 realize trace over GF(7): the
    # elimination builds at most 300 polynomials, by either constructor
    # (120 with one-term pivots taken as Laurent units; 274 by fraction-free
    # elimination with the same pivot rule, and 484 when its pivot was the
    # first one-term entry in row order).
    ring = worked_ring(prime_field(7))
    trace = realize(ring, ["3*x1 + 2*x2", "x1^2 + 4*x1*x2 + 5*x2^2"], verify=False)
    save_trace(trace, tmp_path / "trace.json")
    C = load_complex(tmp_path / "trace.json")
    assert C.size == 32
    built = 0
    init, of_nonzero = Poly.__init__, Poly._of_nonzero
    rank_over_domain = ghrv.variety.rank_over_domain

    def counting_init(self, ring, terms):
        nonlocal built
        built += 1
        init(self, ring, terms)

    def counting_of_nonzero(ring, terms):
        nonlocal built
        built += 1
        return of_nonzero(ring, terms)

    def counted(rows, ring):
        monkeypatch.setattr(Poly, "__init__", counting_init)
        monkeypatch.setattr(Poly, "_of_nonzero", counting_of_nonzero)
        try:
            return rank_over_domain(rows, ring)
        finally:
            monkeypatch.setattr(Poly, "__init__", init)
            monkeypatch.setattr(Poly, "_of_nonzero", of_nonzero)

    monkeypatch.setattr(ghrv.variety, "rank_over_domain", counted)
    assert rank_over_R(C.pair_entries.sparse_rows(0), C.ring) == 16
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
    rows = C.pair_entries.sparse_rows(0)
    r = rank_over_R(rows, ring)
    first = powers
    assert first > 0 and ring._x1_multipliers
    for _ in range(3):
        assert rank_over_R(rows, ring) == r
    assert powers == first
    pairs = set()
    for row in C.A:
        top = max((m[idx] for e in row for m in e.terms), default=0)
        if top:
            pairs |= {(id(e), top) for e in row if e.terms}
    assert len(pairs) < sum(1 for row in C.A for e in row if e.terms)
    monkeypatch.setattr(Poly, "__init__", counting_init)
    ghrv.variety._eliminate_x1(rows, ring)
    assert built == len(pairs)


# -- the complement rule ------------------------------------------------------

def _eliminations(monkeypatch) -> list:
    """The sparse rows ranks_over_R eliminates (ghrv.variety.rank_over_R is
    called on) from now on, in order."""
    eliminated = []
    monkeypatch.setattr(ghrv.variety, "rank_over_R", lambda g, R: eliminated.append(g) or rank_over_R(g, R))
    return eliminated


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
        r_a, r_b = rank_over_R(sparse_rows(C.A), ring), rank_over_R(sparse_rows(C.B), ring)
        assert r_b == C.size - r_a
        assert ranks_over_R(C) == (r_a, r_b)
        for pt in points:
            s_a, s_b = residue_ranks(C, pt)
            assert r_a >= s_a and r_b >= s_b, (C.size, str(pt))
    # ranks_over_R eliminates no B: a leaf its own A only, a shift, dual or
    # sum the A of each leaf it reaches, and a cone (the realize stages too)
    # nothing, its rank being its parent's size
    base = pairs[0:12:4]
    expected = []
    for C in base:
        expected += [[C.A], [C.A], [C.A], []]
    expected += [[C.A, D.A] for C, D in combinations(base, 2)] + [[], []]
    assert len(expected) == len(pairs) and all(C._derivation is None for C in base)
    eliminated = _eliminations(monkeypatch)
    for C, want in zip(pairs, expected):
        ranks_over_R(C)
        assert eliminated == [sparse_rows(A) for A in want]
        eliminated.clear()


def test_complement_rule_reads_the_grids_not_the_claim(ring5, monkeypatch):
    k = fixture_k(ring5)
    unclaimed = PeriodicComplex(ring5, k.A, k.B, k.degrees0, k.degrees1, certified=False)
    assert unclaimed.is_factorization and ranks_over_R(unclaimed) == (1, 1)
    # a claim the grids break: both matrices are eliminated
    amb = ring5.ambient
    tampered = [[k.A[0][0] + amb.variable("x1"), k.A[0][1]], list(k.A[1])]
    false_claim = PeriodicComplex(ring5, tampered, k.B, k.degrees0, k.degrees1, certified=True)
    assert not false_claim.is_factorization
    eliminated = _eliminations(monkeypatch)
    assert ranks_over_R(false_claim) == (2, 1)
    assert eliminated == [sparse_rows(false_claim.A), sparse_rows(false_claim.B)]
    # so do a shift and a cone of it, whose verdict is their parent's; the
    # cone's parent is built uncertified, as cone_mul refuses a false claim
    unclaimed_false = PeriodicComplex(ring5, tampered, k.B, k.degrees0, k.degrees1, certified=False)
    for D in (shift(false_claim), cone_mul(unclaimed_false, amb.variable("x1"))):
        assert not D.is_factorization
        eliminated.clear()
        assert ranks_over_R(D) == (rank_over_R(sparse_rows(D.A), ring5), rank_over_R(sparse_rows(D.B), ring5))
        assert eliminated == [sparse_rows(D.A), sparse_rows(D.B)]
    zero = amb.zero()
    assert ranks_over_R(PeriodicComplex(ring5, [[zero]], [[zero]], (0,), (0,), certified=False)) == (0, 0)


# -- the steps' rank laws -----------------------------------------------------

def _koszul_pair(ring):
    """The 2^(c-1)-square factorization of w = f_1 x_1 + .. + f_c x_c, built
    term by term from ([[f_1]], [[x_1]]): a pair (A, B) of w' and a term
    f x give [[A, f I], [-x I, B]] and [[B, -f I], [x I, A]], a pair of
    w' + f x.  A leaf of any ring, with every degree 0 (ranks read none)."""
    amb = ring.ambient
    xs = [amb.variable(name) for name in ring.xvars]
    a, b = [[ring.f[0]]], [[xs[0]]]
    for f, x in zip(ring.f[1:], xs[1:]):
        n = len(a)
        eye = [[amb.one() if i == j else amb.zero() for j in range(n)] for i in range(n)]

        def block(tl, tr, bl, br):
            return ([row + [e * tr for e in eye_row] for row, eye_row in zip(tl, eye)]
                    + [[e * bl for e in eye_row] + row for row, eye_row in zip(br, eye)])

        a, b = block(a, f, -x, b), block(b, -f, x, a)
    n = len(a)
    return PeriodicComplex(ring, a, b, (0,) * n, (0,) * n, certified=True)


def _law_rings():
    """The worked ring over GF(3), GF(5), GF(9) and QQ, and the c = 3 and
    non-monomial-f_1 rings of _elimination_rings."""
    return [worked_ring(f) for f in (prime_field(3), prime_field(5), make_extension(3, 2), QQ)] \
        + _elimination_rings()[1:]


def _law_chains(ring, rng, count=40):
    """Seeded chains of 1 to 3 steps on the ring's leaves, none past size
    32: shift, dual, a sum with a leaf, cone_mul by a random x-form of
    degree 1 or 2 (with y-factors), by w and by the zero scalar; then
    cones on duals of the largest leaf up to size 32, and shifts and duals
    of trivial_pair and of its sums with the Koszul pair.  Leaves:
    trivial_pair, the Koszul pair, the Shamash tail when it is at most
    8x8, the fixtures of a worked ring, and an uncertified Koszul pair
    with A tampered, which is no factorization, so nor is any chain from
    it."""
    amb = ring.ambient
    xs = [amb.variable(name) for name in ring.xvars]
    ys = [amb.one()] + [amb.variable(name) for name in ring.yvars]
    coeffs = [ring.field.from_int(a) for a in (1, 2, -1, 3)]
    koszul = _koszul_pair(ring)
    tampered = [list(row) for row in koszul.A]
    tampered[0][-1] = tampered[0][-1] + xs[0]
    leaves = [trivial_pair(ring), koszul,
              PeriodicComplex(ring, tampered, koszul.B, koszul.degrees0, koszul.degrees1, certified=False)]
    if ring.c + ring.d <= 4:
        leaves.append(complete_resolution_of_k(ring))
    if ring.c == 2 and ring.d == 2 and ring.f == (ys[1] * ys[1], ys[2] * ys[2]):
        leaves += [fixture_k(ring), fixture_rank_one(ring)]

    def form():
        g = rng.choice((1, 2))
        return sum(((rng.choice(ys) * xs[rng.randrange(ring.c)]
                     * (xs[rng.randrange(ring.c)] if g == 2 else amb.one())).scale(rng.choice(coeffs))
                    for _ in range(rng.randrange(1, 4))), amb.zero())

    chains = []
    while len(chains) < count:
        C = rng.choice(leaves)
        for _ in range(rng.randrange(1, 4)):
            step = rng.choice(("shift", "dual", "sum", "cone", "cone", "cone by w", "cone by 0"))
            if step == "shift":
                C = shift(C)
            elif step == "dual":
                C = dual(C)
            elif step == "sum":
                fits = [L for L in leaves if L.size + C.size <= 32]
                C = direct_sum(C, rng.choice(fits)) if fits else shift(C)
            elif 2 * C.size <= 32:
                C = cone_mul(C, {"cone": form, "cone by w": lambda: ring.w,
                                 "cone by 0": amb.zero}[step]())
        chains.append(C)
    C = max(leaves, key=lambda L: L.size)
    while 2 * C.size <= 32:
        C = cone_mul(dual(C), form())
    one = leaves[0]  # rank A = 1 of 1: a shift or dual moves it
    return chains + [C, shift(one), dual(one), shift(direct_sum(leaves[1], one)),
                     dual(direct_sum(one, leaves[1]))]


@pytest.mark.parametrize("ring", _law_rings(), ids=["gf3", "gf5", "gf9", "qq", "c3", "nonmonomial"])
def test_step_laws_match_elimination(ring):
    # ranks_over_R reads a derived factorization's rank of A from its
    # step's law and eliminates only the leaves; on seeded chains up to
    # size 32 it gives the ranks Bareiss gives on A and B themselves, pairs
    # that are no factorization included.  The chains reach a cone by a
    # form, by w and by 0, and ranks that do not halve the size.
    chains = _law_chains(ring, random.Random(311))
    unbalanced = cones = non_exact = 0
    for C in chains:
        want = (rank_over_R(sparse_rows(C.A), ring), rank_over_R(sparse_rows(C.B), ring))
        assert ranks_over_R(C) == want, (C.size, C._derivation)
        unbalanced += 2 * want[0] != C.size
        cones += C._derivation is not None and C._derivation[0] is _cone
        non_exact += not C.is_factorization
    assert unbalanced and cones and non_exact and max(C.size for C in chains) == 32


def test_a_cone_reads_no_elimination(ring5, monkeypatch):
    # The 32x32 stage of realize is a cone: its ranks are its parent's size,
    # so rank_variety reaches the minor enumeration, which refuses it with
    # BoundExceeded, without a single Bareiss run, not even the 16x16's.
    amb = ring5.ambient
    x1, x2 = (amb.variable(n) for n in ring5.xvars)
    final = realize(ring5, [x1, x1 * x1 + x2 * x2], verify=False).final
    assert final.size == 32
    eliminated = _eliminations(monkeypatch)
    with pytest.raises(BoundExceeded):
        rank_variety(final)
    assert eliminated == []


def test_no_rank_is_kept_on_a_pair(ring5, monkeypatch):
    # Each call eliminates the leaves again: two calls on a leaf are two
    # eliminations of its A, and two on a shift of a sum are four.
    k, r1 = fixture_k(ring5), fixture_rank_one(ring5)
    eliminated = _eliminations(monkeypatch)
    assert ranks_over_R(k) == ranks_over_R(k) == (1, 1)
    assert eliminated == [sparse_rows(k.A)] * 2
    eliminated.clear()
    D = shift(direct_sum(k, r1))
    assert ranks_over_R(D) == ranks_over_R(D) == (2, 2)
    assert eliminated == [sparse_rows(k.A), sparse_rows(r1.A)] * 2


def test_ranks_walk_a_deep_derivation(ring5, monkeypatch):
    # 1500 shifts of fixture_k, each verdict taken as the chain is built:
    # the walk to the leaf is not bounded by the recursion limit, and it
    # eliminates the leaf's A once.
    k = fixture_k(ring5)
    C = k
    for _ in range(1500):
        C = shift(C)
        assert C.is_factorization
    eliminated = _eliminations(monkeypatch)
    assert ranks_over_R(C) == (1, 1)
    assert eliminated == [sparse_rows(k.A)]


# -- the factorization verdict ------------------------------------------------

def _two_product_verdict(C):
    """A*B = B*A = w*I checked by both products."""
    amb = C.ring.ambient
    w_id = identity(amb, C.size, C.ring.w)
    return grid_product(C.A, C.B, amb) == w_id and grid_product(C.B, C.A, amb) == w_id


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
            for name, prod in (("A*B", grid_product(bad.A, bad.B, amb)), ("B*A", grid_product(bad.B, bad.A, amb))):
                nonzero = [(i, j) for i, row in enumerate(prod) for j, e in enumerate(row)
                           if not ring.normal_form(e).is_zero()]
                if nonzero:
                    not_a_complex.append((NotAComplex, f"{name} is nonzero mod w at entries {nonzero[:4]}"))
            findings = validate_pair(bad).findings
            assert [f for f in findings if f[0] is NotAComplex] == not_a_complex
            assert (CertificationFailed, "A*B = B*A = w*I fails on stored representatives") in findings


# -- minor ideal images -------------------------------------------------------

def test_minor_image_unit_convention(ring5):
    ideal = minor_ideal_image(image_rows(ring5, [[ring5.ambient.zero()]]), 0, ring5)
    assert ideal.gens == (ring5.kx.one(),)
    assert ideal.describe() == "(1)"


def test_minor_images_of_the_rank_one_pair(ring5):
    pair = fixture_rank_one(ring5)
    x1 = ring5.kx.variable("x1")
    x2 = ring5.kx.variable("x2")
    for grid in (pair.A, pair.B):
        ideal = minor_ideal_image(image_rows(ring5, grid), 1, ring5)
        assert ideal.gens == (x1, x2)
        assert ideal.describe() == "(x1, x2)"
    # the 2x2 minor is det = +-w, which is zero in R
    top = minor_ideal_image(image_rows(ring5, pair.A), 2, ring5)
    assert top.gens == ()
    assert top.describe() == "(0)"


def test_variety_of_the_rank_one_pair_is_empty(ring5):
    v = rank_variety(fixture_rank_one(ring5))
    assert v.describe() == "Z(x1, x2) union Z(x1, x2)"
    assert is_empty(v) is True


def test_variety_of_the_resolution_pair_is_everything(ring5):
    # every entry of the 2x2 residue-field resolution has positive y-degree,
    # so both minor-ideal images are the zero ideal
    v = rank_variety(fixture_k(ring5))
    assert all(comp.gens == () for comp in v.components)
    pts = enumerate_points(ring5.field, 2)
    assert all(membership(v, pt) for pt in pts)
    assert is_empty(v) is False
    # the decision takes the variety alone: there is no degree to scan to
    assert list(inspect.signature(is_empty).parameters) == ["V"]


def test_emptiness_is_decided_over_qq(ringq):
    # a rank does not change under field extension, so QQ is decided like
    # any finite field, with no point scan
    assert is_empty(rank_variety(fixture_rank_one(ringq))) is True
    assert is_empty(rank_variety(complete_resolution_of_k(ringq))) is True
    assert is_empty(rank_variety(fixture_k(ringq))) is False
    cone = cone_mul(fixture_k(ringq), ringq.parse("x1^2 + x2^2"))  # no rational point
    assert is_empty(rank_variety(cone)) is False


def test_emptiness_over_qq_is_ranked_modulo_a_prime_first(monkeypatch):
    # A full rank mod p is a full rank over QQ, so it answers alone; a
    # deficient one may be p's alone ([1 p; 1 0] has determinant -p), and
    # QQ then decides.  A denominator p makes the rows p-integral only past
    # p, so the next prime is taken.
    kx = PolyRing(QQ, ("x1", "x2"), ())
    p = ghrv.variety.MACAULAY_PRIME
    assert p == 2**31 - 1
    x1, x2 = kx.variable("x1"), kx.variable("x2")
    fields = []
    rank_over_field = ghrv.variety.rank_over_field
    monkeypatch.setattr(ghrv.variety, "rank_over_field", lambda rows, f: fields.append(f) or rank_over_field(rows, f))

    def empty(*gens):
        fields.clear()
        return is_empty(ZeroSetUnion(kx, (IdealGens(kx, gens),)))

    assert empty(x1, x2) is True and fields == [prime_field(p)]
    assert empty(x1 + x2.scale(p), x1) is True and fields == [prime_field(p), QQ]
    assert empty(x1 + x2, x1 * x1 - x2 * x2) is False and fields == [prime_field(p), QQ]  # (1:-1)
    assert empty(x1 + x2.scale(Fraction(1, p)), x1 - x2) is True
    assert len(fields) == 1 and fields[0].p > p


# -- exact emptiness ----------------------------------------------------------

def _groebner_empty(ideal: IdealGens) -> bool:
    """sympy.groebner's verdict on Z(ideal) over the algebraic closure:
    empty iff, for every variable, some leading monomial of a Groebner
    basis is a power of that variable alone (1 counts for every one)."""
    if not ideal.gens:
        return False
    syms = sympy.symbols(ideal.ring.vars)
    field = ideal.ring.field
    opts = {"modulus": field.p} if field.finite else {"domain": sympy.QQ}
    exprs = [sympy.Add(*(sympy.Rational(c) * sympy.Mul(*(x**e for x, e in zip(syms, m)))
                         for m, c in g.terms.items()))
             for g in ideal.gens]
    basis = sympy.groebner(exprs, *syms, order="grevlex", **opts)
    leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    return all(any(not any(e for j, e in enumerate(lm) if j != i) for lm in leads)
               for i in range(len(syms)))


def _emptiness_chains(ring, rng, count):
    """Seeded chains of 1 to 3 shifts, duals and cones on the worked ring's
    leaves (fixture_k, drawn twice as often as each other, the rank-one
    pair, the Shamash tail, trivial_pair), none past size 8.  A cone's
    scalar is a random form of degree 1 to 3,
    or x1 + x2 times one of degree 0 to 2, so that two cones in a chain
    often share the point (1:-1)."""
    leaves = [fixture_k(ring)] * 2 + [fixture_rank_one(ring), complete_resolution_of_k(ring), trivial_pair(ring)]
    shared = ring.parse("x1 + x2")
    chains = []
    for _ in range(count):
        C = rng.choice(leaves)
        for _ in range(rng.randrange(1, 4)):
            step = rng.choice(("shift", "dual", "cone", "cone", "shared cone"))
            if step == "shift":
                C = shift(C)
            elif step == "dual":
                C = dual(C)
            elif 2 * C.size <= 8:
                C = cone_mul(C, _form(ring, rng, rng.randrange(1, 4)) if step == "cone"
                             else shared * _form(ring, rng, rng.randrange(3)))
        chains.append(C)
    return chains


def _distinct_components(chains):
    """The distinct components of the chains' rank varieties, by describe()."""
    out = {}
    for C in chains:
        for comp in rank_variety(C).components:
            out.setdefault(comp.describe(), comp)
    return list(out.values())


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), QQ], ids=str)
def test_emptiness_matches_groebner_on_rank_varieties(field):
    # c = 2: every component of the rank varieties of seeded chains on the
    # worked ring, decided by one Macaulay rank and by a Groebner basis
    ring = worked_ring(field)
    verdicts = []
    for comp in _distinct_components(_emptiness_chains(ring, random.Random(3601), 30)):
        want = _groebner_empty(comp)
        assert is_empty(ZeroSetUnion(ring.kx, (comp,))) is want, comp.describe()
        verdicts.append(want)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), QQ], ids=str)
def test_emptiness_matches_groebner_on_ideals_in_three_variables(field):
    # c = 3: seeded ideals of 2 to 4 random forms of degree 1 to 3; every
    # third one has all its generators share a linear factor l, so Z(l)
    # lies in its zero set
    kx = PolyRing(field, ("x1", "x2", "x3"), ())
    units = ([e for e in field.elements() if not field.is_zero(e)] if field.finite
             else [field.from_int(a) for a in (1, 2, -1, -3)])
    rng = random.Random(3602)

    def form(degree):
        monos = list(combinations_with_replacement(range(3), degree))
        return Poly(kx, {tuple(map(m.count, range(3))): rng.choice(units)
                         for m in rng.sample(monos, rng.randrange(1, len(monos) + 1))})

    verdicts = []
    for trial in range(45):
        gens = [form(rng.randrange(1, 4)) for _ in range(rng.randrange(2, 5))]
        if trial % 3 == 0:
            factor = form(1)
            gens = [g * factor for g in gens]
        ideal = IdealGens(kx, _canonical_gens(kx, gens))
        want = _groebner_empty(ideal)
        assert is_empty(ZeroSetUnion(kx, (ideal,))) is want, ideal.describe()
        verdicts.append(want)
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5


def test_emptiness_is_nonempty_wherever_the_scan_finds_a_point(ring9):
    # over GF(9), which sympy does not take: the scan of P^1(F_9) and
    # P^1(F_81) is the oracle in one direction, a point found means nonempty
    listings = list(points_up_to(ring9.field, 2, 2))
    found = empty = 0
    for comp in _distinct_components(_emptiness_chains(ring9, random.Random(3603), 30)):
        V = ZeroSetUnion(ring9.kx, (comp,))
        decided = is_empty(V)
        if any(membership(V, pt) for _, points in listings for pt in points):
            assert decided is False, comp.describe()
            found += 1
        empty += decided
    assert found and empty


def test_a_variety_with_points_only_over_gf125_is_not_empty(ring5):
    # h is irreducible over GF(5): its three roots lie in GF(125), so a scan
    # to degree 2 finds nothing where the exact decision says nonempty
    h = ring5.parse("x1^3 + x1*x2^2 + x2^3")
    v = rank_variety(cone_mul(fixture_k(ring5), h))
    hh = ring5.image_in_kx(h * h)
    assert all(comp.gens == (hh,) for comp in v.components)
    assert [sum(membership(v, pt) for pt in points) for _, points in points_up_to(ring5.field, 2, 3)] == [0, 0, 3]
    assert is_empty(v) is False
    # with c generators the rank decides it: Z(x1*h, x2*h) = Z(h)
    kx = ring5.kx
    hbar = ring5.image_in_kx(h)
    ideal = IdealGens(kx, _canonical_gens(kx, [kx.variable("x1") * hbar, kx.variable("x2") * hbar]))
    assert is_empty(ZeroSetUnion(kx, (ideal,))) is False


@pytest.mark.parametrize("exponents", [(1, 1), (2, 3), (4, 2), (5, 7), (2, 3, 2), (1, 4, 3)], ids=str)
def test_a_complete_intersection_is_empty_at_lazards_degree(f5, exponents):
    # (x1^a1, .., xc^ac) holds every form of degree a1 + .. + ac - c + 1 but
    # misses x1^(a1-1)*..*xc^(ac-1) one degree lower: Lazard's degree is
    # tight here, so the decision needs all of it
    c = len(exponents)
    kx = PolyRing(f5, tuple(f"x{i + 1}" for i in range(c)), ())
    gens = [kx.variable(f"x{i + 1}") ** a for i, a in enumerate(exponents)]
    ideal = IdealGens(kx, _canonical_gens(kx, gens))
    assert is_empty(ZeroSetUnion(kx, (ideal,))) is True
    # one generator short, the set is never empty
    assert is_empty(ZeroSetUnion(kx, (IdealGens(kx, ideal.gens[1:]),))) is False


def test_fewer_than_c_generators_never_cut_out_the_empty_set(ring5):
    v = rank_variety(cone_mul(fixture_k(ring5), ring5.parse("x1")))
    assert v.describe() == "Z(x1^2) union Z(x1^2)"
    assert is_empty(v) is False


def test_a_macaulay_matrix_past_the_column_cap_is_refused_before_any_row(ring5, monkeypatch):
    # (x1^300, x2^300) has Lazard degree 599 and 600 columns, past the cap
    # of 500: refused before any multiplier monomial, let alone a row, is
    # formed
    kx = ring5.kx
    v = ZeroSetUnion(kx, (IdealGens(kx, (kx.variable("x1") ** 300, kx.variable("x2") ** 300)),))
    assert ghrv.variety.MAX_MACAULAY_COLUMNS == 500
    built = []
    real = ghrv.variety.combinations_with_replacement
    monkeypatch.setattr(ghrv.variety, "combinations_with_replacement",
                        lambda *args: built.append(args) or real(*args))
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="^Macaulay matrix of degree 599 has 600 columns, "
                                            "more than the cap of 500$"):
        is_empty(v)
    assert time.perf_counter() - start < 1.0
    assert built == []
    # the cap itself is allowed
    monkeypatch.setattr(ghrv.variety, "MAX_MACAULAY_COLUMNS", 600)
    assert is_empty(v) is True


def test_variety_needs_a_valid_pair(ring5):
    zero = ring5.ambient.zero()
    bad = PeriodicComplex(ring5, [[zero]], [[zero]], (0,), (0,), certified=False)
    with pytest.raises(InvalidComplex):
        rank_variety(bad)


def test_trivial_pair_has_empty_variety(ring5):
    v = rank_variety(trivial_pair(ring5))
    assert all(comp.gens == (ring5.kx.one(),) for comp in v.components)
    assert is_empty(v) is True


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
        (prime_field(2), 1, 66, BoundExceeded, "^extension degree 66 exceeds bound 64$"),
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
    assert is_empty(v) is False


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
    f5, f7, f25 = ring5.field, prime_field(7), extension_of(ring5.field, 2)
    k = fixture_k(ring5)
    cone = cone_mul(k, ring5.parse("x1*x2"))
    bad = [
        (ProjPoint(f5, (f5.one, f5.zero, f5.zero)), ValueError),
        (ProjPoint(f5, (f5.zero, f5.zero)), ValueError),
        (ProjPoint(f7, (f7.one, f7.zero)), RingMismatch),
        # coordinates that are not elements of the point's field
        (ProjPoint(f25, ((1, 0), (7, 0))), FieldError),
        (ProjPoint(f5, (1, "a")), FieldError),
    ]
    for pt, error in bad:
        with pytest.raises(error) as expected:
            lift_point(ring5, pt.coords, field=pt.field)
        for C in (k, cone):
            for check in (contractible_at, residue_ranks, _perturbation_check):
                with pytest.raises(error) as got:
                    check(C, pt)
                assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        contractible_at(k, bad[0][0])
    with pytest.raises(RingMismatch, match="characteristic mismatch"):
        contractible_at(k, bad[2][0])
    with pytest.raises(FieldError, match=r"coordinate \(7, 0\) is not an element of GF\(5\^2\)"):
        contractible_at(k, bad[3][0])
    with pytest.raises(FieldError, match="coordinate 'a' is not an element of GF\\(5\\)"):
        contractible_at(cone, bad[4][0])


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


def test_perturbation_monomials_are_built_once_per_ring_shape(f3, monkeypatch):
    # the y-monomials a preimage draws coefficients for depend on (c, d)
    # alone: built once, in the order the seeded draws follow, so the
    # preimages and the report at a fixed seed are those of a per-call build
    # (pinned on a ring with c = d = 3; the c = d = 2 pin is above)
    monos = ghrv.variety._y_monomials
    assert monos(3, 3) is monos(3, 3)
    for c, d in ((1, 1), (2, 2), (3, 3), (2, 4)):
        ys = range(c, c + d)
        assert list(monos(c, d)) == [
            tuple(sel.count(v) for v in range(c + d))
            for k in (1, 2) for sel in combinations_with_replacement(ys, k)
        ]
    ring = make_ring(f3, yvars=("a", "b", "c"), xvars=("x1", "x2", "x3"), f=("a^2", "b^2", "c^2"))
    K = complete_resolution_of_k(ring)
    drawn = []
    oracle = ghrv.variety._oracle_scalars
    monkeypatch.setattr(ghrv.variety, "_oracle_scalars",
                        lambda C, preimages: drawn.append(tuple(map(str, preimages))) or oracle(C, preimages))
    report = preimage_independence_check(K, (1, 2, 0), trials=2, seed=7)
    assert (report.baseline, report.verdicts) == (True, [True, True])
    assert drawn == [
        ("2*a^2 + 2*b^2 + c^2 + a + c + 1", "b^2 + b*c + 2*a + 2*c + 2", "a^2 + 2*a*c + 2*c^2 + 2*c"),
        ("2*a^2 + 2*a*b + a*c + 2*a + 2*b + 1", "a^2 + 2*a*c + 2*b*c + c^2 + 2*a + c + 2",
         "2*a*b + 2*b^2 + 2*a*c + c^2 + 2*a + 2*b"),
    ]


# -- the residue pencil against its oracles -----------------------------------

def _pencil_at(C, pt):
    """The residue pencil at pt as dense grids, each entry's image y -> 0
    (image_grid) evaluated on its own: a route that does not read
    C.pencil_entries."""
    ring = C.ring
    assignment = dict(zip(ring.xvars, pt.coords))
    return [
        [[e.evaluate(assignment, target=pt.field) for e in row] for row in image_grid(ring, grid)]
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
            kept = list(C.pencil_entries.grids([at(e) for e in C.pencil_entries.values], pt.field.zero))
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
    # The verdict's scalars come from the plan the pair keeps
    # (C.pencil_plan): they equal poly.evaluator's on each pencil value, and
    # its ranks equal _ranks on those and on the oracle's scalars along the
    # constant preimages.  The plan's exponents are walked once per pair and
    # its coefficients mapped once per pair and extension field, however
    # many points are scanned.
    ring = worked_ring(field)
    stages = realize(ring, [ring.parse("x1 + 2*x2"), ring.parse("x1^2 + x1*x2 + 2*x2^2")], verify=False).stages
    assert [stage.size for stage in stages] == [8, 16, 32]
    suite = _symbolic_suite(ring, random.Random(131)) + [stage.complex for stage in stages]
    if field.finite:
        points = enumerate_points(field, 2) + enumerate_points(extension_of(field, 2), 2)
    else:
        points = [proj_point(field, pt) for pt in QQ_POINTS]

    built, mapped = [], []
    plan_of, plan_mapped = ghrv.complexes._evaluation_plan, EvaluationPlan.mapped
    monkeypatch.setattr(ghrv.complexes, "_evaluation_plan", lambda *args: built.append(1) or plan_of(*args))
    monkeypatch.setattr(EvaluationPlan, "mapped", lambda *args: mapped.append(1) or plan_mapped(*args))

    verdicts = set()
    for C in suite:
        images = {ring.image_in_kx(e) for grid in (C.A, C.B) for row in grid for e in row} - {ring.kx.zero()}
        # each distinct nonzero image is planned once, and nothing else
        assert len(C.pencil_entries.values) == len(images)
        assert set(C.pencil_entries.values) == images
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
            assert list(C.pair_entries.grids(scalars, fld.zero)) == oracle, (C.size, str(pt))
            dense = (dense_rank(a_bar, fld), dense_rank(b_bar, fld))
            at = evaluator(ring.kx, dict(zip(ring.xvars, pt.coords)), fld)
            by_evaluator = [at(v) for v in C.pencil_entries.values]
            assert C.pencil_plan(fld).values_at(pt.coords, fld) == by_evaluator, (C.size, str(pt))
            ranks = residue_ranks(C, pt)
            assert ranks == _ranks(C.pencil_entries, by_evaluator, fld) == dense, (C.size, str(pt))
            constant = lift_point(ring, pt.coords, field=fld)
            assert ranks == _ranks(C.pair_entries, ghrv.variety._oracle_scalars(C, constant), fld)
            verdict = contractible_at(C, pt)
            assert verdict == (sum(dense) == C.size), (C.size, str(pt))
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert len(built) == len(suite)
    assert len(mapped) == (len(suite) if field.finite else 0)


def _minor_image_by_normal_form(rows, r, ring):
    nf_rows = [[ring.normal_form(e) for e in row] for row in rows]
    images = (ring.image_in_kx(ring.normal_form(m)) for m in dense_minors(nf_rows, r, ring.ambient))
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
                got = minor_ideal_image(image_rows(ring, grid), r, ring).gens
                assert got == _minor_image_by_normal_form(grid, r, ring)
    # the tail, its shift and its dual, whose dense rows come first, and
    # seeded row permutations of their grids: minor_ideal_image walks the
    # rows sparsest first, the normal-form route in the order given
    tail = complete_resolution_of_k(ring)
    rng = random.Random(30)
    for C in (tail, shift(tail), dual(tail)):
        for grid in (C.A, C.B):
            r = rank_over_R(sparse_rows(grid), ring)
            want = minor_ideal_image(image_rows(ring, grid), r, ring).gens
            assert want == _minor_image_by_normal_form(grid, r, ring)
            for _ in range(3):
                permuted = rng.sample(grid, len(grid))
                assert minor_ideal_image(image_rows(ring, permuted), r, ring).gens == want
                assert _minor_image_by_normal_form(permuted, r, ring) == want


def test_minor_images_walk_the_sparsest_rows_first(ring5, monkeypatch):
    # the dual of the tail stores its dense rows first and its zero rows
    # last; walked sparsest first, its minor images take exactly the field
    # products the tail's take (walked as stored they took 170 against 74)
    tail = complete_resolution_of_k(ring5)
    mul, products = type(ring5.field).mul, []
    monkeypatch.setattr(type(ring5.field), "mul", lambda *a: products.append(1) or mul(*a))
    counts = []
    for C in (tail, shift(tail), dual(tail)):
        ranks = ranks_over_R(C)
        rows = [image_rows(ring5, grid) for grid in (C.A, C.B)]
        products.clear()
        for grid_rows, r in zip(rows, ranks):
            minor_ideal_image(grid_rows, r, ring5)
        counts.append(len(products))
    assert counts[0] > 0 and counts == [counts[0]] * 3


# rank_variety over QQ of cone_mul(cone_mul(fixture_k, p), q) for these
# (p, q), printed when every QQ value was a Fraction; both components print
# alike.  Their generators share leading monomials and are tied by the
# Fraction form of their coefficients (_tie_key), which repr of an int would
# order otherwise.
_PINNED_QQ_GENS = {
    ("x1", "2*x1 + x2"):
        "x1^4, x1^4 + 3/2*x1^3*x2 + 3/4*x1^2*x2^2 + 1/8*x1*x2^3, "
        "x1^4 + 2*x1^3*x2 + 3/2*x1^2*x2^2 + 1/2*x1*x2^3 + 1/16*x2^4, x1^4 + 1/2*x1^3*x2, "
        "x1^4 + x1^3*x2 + 1/4*x1^2*x2^2",
    ("2*x1 + x2", "x1 - x2"):
        "x1^4 + 2*x1^3*x2 + 3/2*x1^2*x2^2 + 1/2*x1*x2^3 + 1/16*x2^4, "
        "x1^4 + 1/2*x1^3*x2 - 3/4*x1^2*x2^2 - 5/8*x1*x2^3 - 1/8*x2^4, "
        "x1^4 - 5/2*x1^3*x2 + 3/2*x1^2*x2^2 + 1/2*x1*x2^3 - 1/2*x2^4, "
        "x1^4 - 4*x1^3*x2 + 6*x1^2*x2^2 - 4*x1*x2^3 + x2^4, "
        "x1^4 - x1^3*x2 - 3/4*x1^2*x2^2 + 1/2*x1*x2^3 + 1/4*x2^4",
    ("2*x1 + x2", "x1 + 2*x2"):
        "x1^4 + 8*x1^3*x2 + 24*x1^2*x2^2 + 32*x1*x2^3 + 16*x2^4, "
        "x1^4 + 7/2*x1^3*x2 + 15/4*x1^2*x2^2 + 13/8*x1*x2^3 + 1/4*x2^4, "
        "x1^4 + 5*x1^3*x2 + 33/4*x1^2*x2^2 + 5*x1*x2^3 + x2^4, "
        "x1^4 + 2*x1^3*x2 + 3/2*x1^2*x2^2 + 1/2*x1*x2^3 + 1/16*x2^4, "
        "x1^4 + 13/2*x1^3*x2 + 15*x1^2*x2^2 + 14*x1*x2^3 + 4*x2^4",
}


@pytest.mark.parametrize("p, q", list(_PINNED_QQ_GENS), ids=[f"{p}; {q}" for p, q in _PINNED_QQ_GENS])
def test_qq_generators_keep_their_pinned_order(ringq, p, q):
    C = cone_mul(cone_mul(fixture_k(ringq), ringq.parse(p)), ringq.parse(q))
    gens = _PINNED_QQ_GENS[p, q]
    assert rank_variety(C).describe() == f"Z({gens}) union Z({gens})"


def _canonical_by_one_key(ring, gens):
    """The order _canonical_gens replaced, kept as its oracle: one sort key
    (leading monomial, repr of the sorted terms, QQ coefficients as
    Fractions) for every generator."""
    as_written = (lambda c: c) if ring.field.finite else Fraction
    seen = {}
    for g in gens:
        if not g.is_zero():
            g = g.monic()
            seen[frozenset(g.terms.items())] = g
    ordered = sorted(
        seen.values(),
        key=lambda g: (
            order_key(g.leading_monomial()),
            repr([(m, as_written(c)) for m, c in sorted(g.terms.items(), key=lambda kv: order_key(kv[0]),
                                                         reverse=True)]),
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
                gens = list(dense_minors(image_grid(ring, grid), size, ring.kx))
                got = _canonical_gens(ring.kx, gens)
                want = _canonical_by_one_key(ring.kx, gens)
                assert got == want
                assert [g.to_string(strict=False) for g in got] == [g.to_string(strict=False) for g in want]
                lms = [g.leading_monomial() for g in got]
                shared += len(lms) > len(set(lms))
    assert shared > 0


@pytest.mark.parametrize("field", [prime_field(3), prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_canonical_gens_unchanged_when_monic_returns_itself(field, monkeypatch):
    # _canonical_gens keeps a monic generator itself instead of a scaled
    # copy, and builds a Poly only for a scaled key it has not seen; on every
    # critical minor list of the symbolic suite, and the lists one size
    # below, it prints the same as the one-key oracle with a monic that
    # scales every generator into a copy.  Each Poly it builds is kept: a
    # repeat costs none, though some lists hold scaled repeats
    ring = worked_ring(field)
    lists = []
    for C in _symbolic_suite(ring, random.Random(127)):
        for grid, r in zip((C.A, C.B), ranks_over_R(C)):
            for size in {r, r - 1} - {0}:
                lists.append(list(dense_minors(image_grid(ring, grid), size, ring.kx)))
    built, of_nonzero = [], Poly._of_nonzero

    def counted(cls, ring_, terms):
        built.append(of_nonzero(ring_, terms))
        return built[-1]

    monkeypatch.setattr(Poly, "_of_nonzero", classmethod(counted))
    got, repeats = [], 0
    for gens in lists:
        built.clear()
        kept = _canonical_gens(ring.kx, gens)
        got.append([g.to_string(strict=False) for g in kept])
        kept_ids = {id(g) for g in kept}
        assert all(id(p) in kept_ids for p in built) or kept == (ring.kx.one(),)
        nonmonic = [g for g in gens if g.terms and g.leading_coeff() != field.one]
        repeats += len(nonmonic) > len(built)
    monkeypatch.undo()
    assert repeats > 0
    monkeypatch.setattr(Poly, "monic", lambda p: p.scale(field.inv(p.leading_coeff())) if p.terms else p)
    want = [[g.to_string(strict=False) for g in _canonical_by_one_key(ring.kx, gens)] for gens in lists]
    assert got == want
    assert any(g.leading_coeff() == field.one for gens in lists for g in gens)


def test_minor_images_visit_only_nonzero_minors(ring5, monkeypatch):
    # Each 8x8 of the resolution of k has 8 nonzero entries and 8 nonzero
    # 4 x 4 minors among its 4900.  Enumerating only nonzero minors builds a
    # few hundred polynomials for both images; visiting every (row set,
    # column set) pair built over 11000, one of them a fresh zero per pair.
    # ring.zero() is counted too: it returns a shared zero, which would hide
    # a return to that route from a count of constructions alone, and so is
    # Poly._of_nonzero, which builds without __init__.
    tail = complete_resolution_of_k(ring5)
    ranks = ranks_over_R(tail)
    assert tail.pencil_entries.values and ranks == (4, 4)
    built = [0]
    init, zero, of_nonzero = Poly.__init__, PolyRing.zero, Poly._of_nonzero

    def counted_init(self, ring, terms):
        built[0] += 1
        init(self, ring, terms)

    def counted_zero(self):
        built[0] += 1
        return zero(self)

    def counted_of_nonzero(cls, ring, terms):
        built[0] += 1
        return of_nonzero(ring, terms)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(PolyRing, "zero", counted_zero)
    monkeypatch.setattr(Poly, "_of_nonzero", classmethod(counted_of_nonzero))
    images = critical_images(tail, ranks)
    monkeypatch.undo()
    assert all(image.gens for image in images)
    assert built[0] <= 1000


def test_fast_paths_skip_normal_form_and_specialize(ring3, ring5, monkeypatch):
    tail = complete_resolution_of_k(ring3)
    r_a = rank_over_R(sparse_rows(tail.A), ring3)
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
    assert critical_images(tail, (r_a, tail.size - r_a), "A")[0].gens
    assert calls["normal_form"] == 0
    assert calls["image_in_kx"] > 0  # the symbolic path maps its own entries
    calls["image_in_kx"] = 0
    assert contractible_at(tail, pt)
    assert calls["specialize"] == 0
    # the pencil is built once, from the nonzero entries of A and B only,
    # mapping each value of tail.pair_entries once; the tail holds one
    # object per signed variable and signed f_i that it uses
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

    # pairs built from a scanned pair get their own pencils, each the image
    # of the pair's own distinct entries, one image_in_kx per value of its
    # pair_entries in order and none once kept, and their verdicts agree
    # with the specialize-then-residue oracle everywhere; the kept pencil,
    # expanded, is the image grid of A and B
    base = fixture_k(ring5)
    points = enumerate_points(ring5.field, 2) + enumerate_points(extension_of(ring5.field, 2), 2)
    assert not any(contractible_at(base, p) for p in points)
    derived = [shift(base), dual(base), cone_mul(base, ring5.parse("x1^2 + 2*x2^2"))]
    image = RingSpec.image_in_kx
    for C in derived:
        assert "pencil_entries" not in vars(C)
        mapped = []
        monkeypatch.setattr(RingSpec, "image_in_kx", lambda r, p: mapped.append(p) or image(r, p))
        C.pencil_entries
        contractible_at(C, points[0])  # reads the kept pencil, mapping nothing
        assert [id(e) for e in mapped] == [id(v) for v in C.pair_entries.values]
        monkeypatch.undo()
        for p in points:
            report = preimage_independence_check(C, p, trials=1, seed=3)
            assert report.verdicts == [report.baseline] == [contractible_at(C, p)], str(p)
        assert C.pencil_entries is not base.pencil_entries
        kept = C.pencil_entries
        dense = kept.grids(kept.values, ring5.kx.zero())
        assert [tuple(map(tuple, grid)) for grid in dense] == [image_grid(ring5, C.A), image_grid(ring5, C.B)]
    # the cone's variety is Z(x1^2 + 2*x2^2): two points, both over F_25 only
    cone_points = [p for p in points if not contractible_at(derived[2], p)]
    assert len(cone_points) == 2 and all(p.field != ring5.field for p in cone_points)


# -- minor-ideal images from the pair's distinct entries ----------------------

def _dense_rank_variety(C) -> str:
    """rank_variety(C).describe() by the dense route rank_variety replaced,
    kept as its reference: for each of A and B at its rank over R, the image
    grid y -> 0 of the whole matrix (image_grid), its rows sparsest first,
    every nonzero minor of it, and _canonical_gens; rank 0 gives (1)."""
    ring = C.ring
    kx = ring.kx
    parts = []
    for grid, r in zip((C.A, C.B), ranks_over_R(C)):
        if r <= 0:
            gens = (kx.one(),)
        else:
            image = sorted(image_grid(ring, grid), key=lambda row: sum(1 for e in row if e.terms))
            gens = _canonical_gens(kx, dense_minors(image, r, kx))
        parts.append(IdealGens(kx, gens))
    return ZeroSetUnion(kx, tuple(parts)).describe()


def _form(ring, rng, degree):
    """A random x-homogeneous form of the given degree, nonzero."""
    fld = ring.field
    units = ([e for e in fld.elements() if not fld.is_zero(e)] if fld.finite
             else [fld.from_int(a) for a in (1, 2, -1, -3)])
    monos = [m for m in combinations_with_replacement(range(ring.c), degree)]
    terms = {}
    for m in rng.sample(monos, rng.randrange(1, len(monos) + 1)):
        terms[tuple(m.count(i) for i in range(ring.c)) + (0,) * ring.d] = rng.choice(units)
    return Poly(ring.ambient, terms)


def _image_leaves(ring):
    """The Koszul pair of the ring, and on a worked ring also its fixtures
    and its Shamash tail."""
    if ring != worked_ring(ring.field):
        return [_koszul_pair(ring)]
    return [_koszul_pair(ring), fixture_k(ring), fixture_rank_one(ring), complete_resolution_of_k(ring)]


@pytest.mark.parametrize("ring", _law_rings(), ids=["GF(3)", "GF(5)", "GF(9)", "QQ", "c3", "nonmonomial"])
def test_rank_variety_matches_the_dense_image_route(ring):
    # seeded chains of shift, dual, direct_sum and cone_mul up to 8x8: the
    # images read from the pair's distinct entries and walked on sparse
    # rows print byte-identical to the dense route, every generator monic
    rng = random.Random(f"{ring} images")
    leaves = _image_leaves(ring)
    one = ring.field.one
    steps = {"shift": 0, "dual": 0, "sum": 0, "cone": 0}
    for _ in range(8):
        chain = [rng.choice(leaves)]
        for _ in range(5):
            C = chain[-1]
            partners = [D for D in chain + leaves if C.size + D.size <= 8]
            step = rng.choice(["shift", "dual"] + ["cone"] * (2 * C.size <= 8) + ["sum"] * bool(partners))
            if step == "sum":
                D = direct_sum(C, rng.choice(partners))
            elif step == "cone":
                D = cone_mul(C, _form(ring, rng, rng.choice((0, 1, 1, 2))))
            else:
                D = {"shift": shift, "dual": dual}[step](C)
            steps[step] += 1
            V = rank_variety(D)
            assert V.describe() == _dense_rank_variety(D), (D.size, step)
            assert all(g.leading_coeff() == one for comp in V.components for g in comp.gens)
            chain.append(D)
    assert min(steps.values()) > 0


def test_minor_images_at_the_edges(ring5, ringq):
    kx = ring5.kx
    x1 = kx.variable("x1")
    # r = 0 gives (1) whatever the rows; no rows at r = 1 give (0)
    assert minor_ideal_image([], 0, ring5).describe() == "(1)"
    assert minor_ideal_image([[(0, x1)]], 0, ring5).describe() == "(1)"
    assert minor_ideal_image([[], []], 1, ring5).describe() == "(0)"
    # fixture_k's entries all lie in (y): its pencil is zero, and so are
    # both images, at ranks one
    k = fixture_k(ring5)
    assert k.pencil_entries.values == () and ranks_over_R(k) == (1, 1)
    assert rank_variety(k).describe() == "Z(0) union Z(0)"
    # a constant minor gives (1): the pair (1, w), whose B has rank 0, and
    # a cone by a unit, whose 2 x 2 minors include det(2I)
    assert rank_variety(trivial_pair(ring5)).describe() == "Z(1) union Z(1)"
    assert rank_variety(cone_mul(k, ring5.parse("2"))).describe() == "Z(1) union Z(1)"
    # QQ generators that share a leading monomial keep the _tie_key order
    for p, q in _PINNED_QQ_GENS:
        C = cone_mul(cone_mul(fixture_k(ringq), ringq.parse(p)), ringq.parse(q))
        V = rank_variety(C)
        assert V.describe() == _dense_rank_variety(C)
        for comp in V.components:
            lms = [g.leading_monomial() for g in comp.gens]
            assert len(set(lms)) < len(lms)
            for lm in set(lms):
                keys = [ghrv.variety._tie_key(g) for g in comp.gens if g.leading_monomial() == lm]
                assert keys == sorted(keys, reverse=True)


def test_rank_variety_maps_each_distinct_value_once(ring5, monkeypatch):
    # one call maps each distinct nonzero value of C.pair_entries y -> 0
    # once, in order, and nothing else; the tail's dual and the cones hold
    # one value at many positions
    image = RingSpec.image_in_kx
    calls = []
    repeated = 0
    for C in _symbolic_suite(ring5, random.Random(137)):
        values = C.pair_entries.values
        positions = sum(1 for grid in (C.A, C.B) for row in grid for e in row if e.terms)
        repeated += positions > len(values)
        monkeypatch.setattr(RingSpec, "image_in_kx", lambda r, p: calls.append(p) or image(r, p))
        rank_variety(C)
        monkeypatch.undo()
        assert [id(p) for p in calls] == [id(v) for v in values], C.size
        calls.clear()
    assert repeated > 0


def test_a_minor_count_refusal_names_its_matrix_before_any_wedge(ring5, monkeypatch):
    # the 16x16 realize stage at its ranks (8, 8) has C(16, 8)^2 minors of
    # size 8 in each matrix: the refusal names the matrix and comes before
    # any wedge, so no field product is formed
    final = realize(ring5, ["x1*x2"], verify=False).final
    ranks = ranks_over_R(final)
    assert final.size == 16 and ranks == (8, 8)
    products = []
    mul = type(ring5.field).mul
    monkeypatch.setattr(type(ring5.field), "mul", lambda *a: products.append(1) or mul(*a))
    for names, name in (("AB", "A"), ("B", "B")):
        with pytest.raises(BoundExceeded, match=f"^{name}: 165636900 minors of size 8 in a 16x16 "
                                                "matrix exceed the cap of 1000000$"):
            critical_images(final, ranks, names)
    assert products == []
    monkeypatch.undo()
    with pytest.raises(BoundExceeded, match="^A: 165636900 minors of size 8 in a 16x16 matrix"):
        rank_variety(final)
