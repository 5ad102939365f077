"""Periodic pairs, the Koszul differentials, and the Shamash resolution.

The heavyweight oracle here is graded exactness: a window of the Shamash
resolution, assembled in this file from the public Koszul blocks, is checked
to be exact by finite linear algebra in each low internal degree, and its
last two differentials are checked to be the package's canonical pair.
"""

import random
from itertools import combinations
from math import comb

import pytest

import ghrv.complexes as complexes
from ghrv.complexes import (
    PeriodicComplex,
    cone_mul,
    direct_sum,
    distinct_entries,
    dual,
    homogeneity_violations,
    koszul_differential,
    periodic_from_pair,
    shamash_resolution,
    shift,
    trivial_pair,
    validate_pair,
    xi_wedge,
)
from ghrv.errors import (
    BoundExceeded,
    CertificationFailed,
    NotAComplex,
    NotHomogeneous,
    NotHomogeneousScalar,
    RankDefect,
    RingMismatch,
)
from ghrv.fields import parse_field
from ghrv.matrix import as_grid, mat_mul, rank_over_domain, sparse_rows
from ghrv.pipelines import (
    complete_resolution_of_k,
    documented_cone_pair,
    fixture_k,
    fixture_rank_one,
    realize,
    worked_ring,
)
from ghrv.poly import PolyRing, monomial_divides
from ghrv.ring import RingSpec, make_ring
from ghrv.serialize import load_complex, save_trace
from ghrv.variety import contractible_at, enumerate_points, extension_of, rank_over_R, rank_variety

from dense import dense_product, dense_rank, grid_product, identity, image_entries


# -- Koszul -------------------------------------------------------------------

def _koszul_degrees(ring, n):
    """Generator x-degrees of the Koszul module F_n on all c + d variables:
    e_S has one degree per x-variable in S."""
    m = ring.c + ring.d
    return tuple(sum(1 for i in s if i < ring.c) for s in combinations(range(m), n))


def test_koszul_is_a_complex(ring5):
    # d o d = 0 exactly over P, and each differential is homogeneous of
    # degree 0 for the generator degrees of its source and target
    m = ring5.c + ring5.d
    amb = ring5.ambient
    diffs = {n: koszul_differential(ring5, n) for n in range(1, m + 1)}
    for n in range(2, m + 1):
        prod = grid_product(diffs[n - 1], diffs[n], amb)
        assert all(e.is_zero() for row in prod for e in row), n
    for n in range(1, m + 1):
        src, tgt = _koszul_degrees(ring5, n), _koszul_degrees(ring5, n - 1)
        assert homogeneity_violations(ring5, sparse_rows(diffs[n]), src, tgt) == [], n
    shapes = [(len(diffs[n]), len(diffs[n][0])) for n in range(1, m + 1)]
    assert shapes == [(1, 4), (4, 6), (6, 4), (4, 1)]


def test_koszul_generic_exactness(ring5):
    # over the fraction field the complex is exact everywhere except the top
    # of H_0, so consecutive ranks partition each module: rank d_n + rank
    # d_(n+1) = C(4, n) with rank d_1 = 1
    amb = ring5.ambient
    ranks = [rank_over_domain(sparse_rows(koszul_differential(ring5, n)), amb) for n in range(1, 5)]
    assert ranks[0] == 1
    for n in range(1, 4):
        assert ranks[n - 1] + ranks[n] == len(_koszul_degrees(ring5, n))


def test_wedge_is_a_null_homotopy_for_w(ring5):
    # d s + s d = w * id at every index, the two end cases having one term
    m = ring5.c + ring5.d
    amb = ring5.ambient
    for n in range(m + 1):
        size = len(list(combinations(range(m), n)))
        want = identity(amb, size, ring5.w)
        if n == 0:
            got = grid_product(koszul_differential(ring5, 1), xi_wedge(ring5, 0), amb)
        elif n == m:
            got = grid_product(xi_wedge(ring5, m - 1), koszul_differential(ring5, m), amb)
        else:
            a = grid_product(koszul_differential(ring5, n + 1), xi_wedge(ring5, n), amb)
            b = grid_product(xi_wedge(ring5, n - 1), koszul_differential(ring5, n), amb)
            got = as_grid([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        assert got == want, f"homotopy identity fails at index {n}"


def test_wedge_squares_to_zero(ring5):
    m = ring5.c + ring5.d
    amb = ring5.ambient
    for n in range(m - 1):
        prod = grid_product(xi_wedge(ring5, n + 1), xi_wedge(ring5, n), amb)
        assert all(e.is_zero() for row in prod for e in row), n


# -- Shamash ------------------------------------------------------------------

@pytest.fixture(scope="module")
def shamash_pairs():
    """The periodic tail on the worked ring over five fields, and on four
    rings of other shapes: c = 3 (a 32x32 pair), a linear f_1, d = 3 with
    c = 2 (16x16), and f_i with more than one term."""
    rings = [worked_ring(parse_field(f)) for f in ("GF(3)", "GF(5)", "GF(7)", "GF(9)", "QQ")]
    rings += [
        make_ring(parse_field("GF(5)"), ["u", "v", "z"], ["x1", "x2", "x3"], ["u^2", "v^2", "z^3"]),
        make_ring(parse_field("GF(3)"), ["u", "v"], ["x1", "x2"], ["u", "v^3"]),
        make_ring(parse_field("GF(7)"), ["u", "v", "z"], ["x1", "x2"], ["u^2", "v*z"]),
        make_ring(parse_field("QQ"), ["a", "b"], ["x1", "x2"], ["a + b^2", "b^3 + a*b"]),
    ]
    return [shamash_resolution(ring) for ring in rings]


def test_resolution_is_a_complex_with_stable_ranks(shamash_pairs):
    # the periodic tail is a certified factorization of size 2^(m-1):
    # A B = B A = w I, and both maps are homogeneous
    for pair in shamash_pairs:
        ring = pair.ring
        assert pair.certified and pair.is_factorization
        report = validate_pair(pair)
        assert report.ok, report.describe()
        assert pair.size == 2 ** (ring.c + ring.d - 1)


def _shamash_summands(m, n):
    """(j, k) with G_n = sum_j F_k, k = n - 2j in [0, m], j ascending."""
    return [(j, n - 2 * j) for j in range(n // 2 + 1) if n - 2 * j <= m]


def _shamash_window(ring, top):
    """Differentials d_1..d_top of the Shamash resolution of the residue
    field, G_n = sum_j F_(n-2j) with d = del + xi-wedge, assembled here from
    the public Koszul blocks: d_n[n - 1] is the map G_n -> G_(n-1)."""
    m = ring.c + ring.d
    amb = ring.ambient

    def offsets(n):
        out, at = {}, 0
        for j, k in _shamash_summands(m, n):
            out[(j, k)] = at
            at += comb(m, k)
        return out, at

    diffs = []
    for n in range(1, top + 1):
        (src, cols), (tgt, rows) = offsets(n), offsets(n - 1)
        grid = [[amb.zero() for _ in range(cols)] for _ in range(rows)]
        for (j, k), col0 in src.items():
            blocks = []
            if (j, k - 1) in tgt:
                blocks.append((tgt[(j, k - 1)], koszul_differential(ring, k)))
            if (j - 1, k + 1) in tgt:
                blocks.append((tgt[(j - 1, k + 1)], xi_wedge(ring, k)))
            for row0, block in blocks:
                for i, row in enumerate(block):
                    for c, e in enumerate(row):
                        grid[row0 + i][col0 + c] = e
        diffs.append(as_grid(grid))
    return diffs


def _window_degrees(ring, n, koszul_degree, step):
    """Generator degrees of G_n: koszul_degree(S) for e_S in the summand
    F_(n-2j), plus step for each of the j levels."""
    m = ring.c + ring.d
    return [koszul_degree(s) + step * j
            for j, k in _shamash_summands(m, n) for s in combinations(range(m), k)]


def _r_monomials(ring, t):
    """Monomial basis of the degree-t piece of R: exponent tuples of total
    degree t not divisible by the leading monomial of w."""
    lm = ring.w.leading_monomial()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), t, ring.ambient.nvars)
    return [m for m in out if not monomial_divides(lm, m)]


def _graded_piece(ring, grid, gen_deg_src, gen_deg_tgt, t):
    """Matrix of the degree-t piece of the map `grid` over the base field, in the
    R-monomial bases; generator degrees are total degrees."""
    fld = ring.field
    src_basis = []
    for j, gd in enumerate(gen_deg_src):
        if t - gd < 0:
            continue
        src_basis.extend((j, m) for m in _r_monomials(ring, t - gd))
    tgt_index = {}
    for i, gd in enumerate(gen_deg_tgt):
        if t - gd < 0:
            continue
        for m in _r_monomials(ring, t - gd):
            tgt_index[(i, m)] = len(tgt_index)
    rows = [[fld.zero] * len(src_basis) for _ in range(len(tgt_index))]
    for col, (j, mono) in enumerate(src_basis):
        for i in range(len(gen_deg_tgt)):
            e = grid[i][j]
            if e.is_zero():
                continue
            prod = ring.normal_form(e * ring.ambient.monomial(mono))
            for m, c in prod.terms.items():
                key = (i, m)
                if key in tgt_index:
                    rows[tgt_index[key]][col] = fld.add(rows[tgt_index[key]][col], c)
                else:
                    raise AssertionError(f"graded leak at {key}")
    return rows, len(src_basis), len(tgt_index)


def test_residue_field_resolution_is_exact_in_low_degrees(ring5):
    """H_0 = k and H_i = 0 for 1 <= i <= 4 in every internal degree <= 5,
    checked by ranks of the graded pieces over the base field."""
    m = ring5.c + ring5.d
    diffs = _shamash_window(ring5, m + 2)
    # Koszul generator e_S has total degree |S|; each extra j-level
    # multiplies by w, total degree 3 for this ring
    degs = {n: _window_degrees(ring5, n, len, 3) for n in range(m + 3)}
    fld = ring5.field
    for t in range(6):
        pieces = {}
        dims = {}
        for n in range(1, m + 3):
            rows, src_dim, tgt_dim = _graded_piece(ring5, diffs[n - 1], degs[n], degs[n - 1], t)
            pieces[n] = dense_rank(rows, fld)
            dims[n] = src_dim
            dims.setdefault(n - 1, tgt_dim)
        # H_0 piece: dim R_t - rank d_1 = dim k_t
        want_k = 1 if t == 0 else 0
        assert dims[0] - pieces[1] == want_k, f"H_0 wrong in degree {t}"
        for n in range(1, 5):
            assert pieces[n] + pieces[n + 1] == dims[n], f"H_{n} nonzero in degree {t}"


def test_tail_is_the_last_window_pair(shamash_pairs):
    # on every ring, the tail is the window's d_(m+1) and d_(m+2) entry by
    # entry, with its x-degrees: the c = 3 (32x32) and d = 3 (16x16) rings
    # are where a slip in the fold's basis order would show
    for pair in shamash_pairs:
        ring = pair.ring
        m = ring.c + ring.d
        diffs = _shamash_window(ring, m + 2)
        assert pair.A == diffs[m]
        assert pair.B == diffs[m + 1]

        def x_degree(s):
            return sum(1 for i in s if i < ring.c)

        assert pair.degrees0 == tuple(_window_degrees(ring, m, x_degree, 1))
        assert pair.degrees1 == tuple(_window_degrees(ring, m + 1, x_degree, 1))


def test_extracted_pair_is_certified_and_minimal(shamash_pairs):
    # every entry lies in the irrelevant maximal ideal
    for pair in shamash_pairs:
        assert pair.certified
        for grid in (pair.A, pair.B):
            for row in grid:
                for e in row:
                    assert pair.ring.field.is_zero(e.constant_term())


# -- periodic pairs -----------------------------------------------------------

def test_shamash_tail_cap(ring5, monkeypatch):
    # the worked ring has c + d = 4 variables: a cap of 4 builds its tail,
    # a cap of 3 refuses it
    monkeypatch.setattr(complexes, "MAX_KOSZUL_VARIABLES", 4)
    assert shamash_resolution(ring5).size == 8
    monkeypatch.setattr(complexes, "MAX_KOSZUL_VARIABLES", 3)
    with pytest.raises(BoundExceeded, match="^the Shamash tail on c \\+ d = 4 variables exceeds the cap of 3$"):
        shamash_resolution(ring5)


def test_trivial_pair(ring5):
    t = trivial_pair(ring5)
    assert t.certified and t.size == 1
    assert validate_pair(t).ok
    assert repr(fixture_k(ring5)) == "<periodic pair, size 2, certified>"


def _parsed(ring, rows):
    """A grid of expression strings as polynomials of ring.ambient."""
    return [[ring.parse(e) for e in row] for row in rows]


def test_constructor_rejects_non_complexes(ring5):
    with pytest.raises(NotAComplex, match="^A\\*B is nonzero mod w at entries \\[\\(0, 0\\)\\]$"):
        periodic_from_pair(ring5, _parsed(ring5, [["x1"]]), _parsed(ring5, [["x2"]]), (0,), (1,))


def test_constructor_rejects_inhomogeneous_entries(ring5):
    # x1 + x1*x2 is not x-homogeneous
    with pytest.raises(NotHomogeneous, match="^A: entry \\(0,0\\) = x1\\*x2 \\+ x1 is not x-homogeneous$"):
        periodic_from_pair(ring5, _parsed(ring5, [["x1 + x1*x2"]]), _parsed(ring5, [["0"]]), (0,), (1,))


def test_constructor_rejects_false_certification(ring5):
    with pytest.raises(CertificationFailed, match="^A\\*B = B\\*A = w\\*I fails on stored representatives$"):
        periodic_from_pair(ring5, _parsed(ring5, [["2"]]), _parsed(ring5, [["x^2*x1 + y^2*x2"]]),
                           (0,), (0,))


def _homogeneity_oracle(ring, grid, source, target):
    """homogeneity_violations as it reads when every entry is reduced mod w
    first: the route the stored-entry check is tested against.  The degree
    set is read off the terms here, not through Poly.x_degrees."""
    xd = ring.ambient.x_degree_of
    out = []
    for i, row in enumerate(grid):
        for j, e in enumerate(row):
            nf = ring.normal_form(e)
            if nf.is_zero():
                continue
            want = source[j] - target[i]
            degs = {xd(m) for m in nf.terms}
            if len(degs) > 1:
                out.append(f"entry ({i},{j}) = {nf} is not x-homogeneous")
            elif degs != {want}:
                (deg,) = degs
                out.append(f"entry ({i},{j}) = {nf} has x-degree {deg}, expected {want}")
    return out


def _x_homogeneous(ring, rng, degree):
    """A seeded polynomial of P, x-homogeneous of `degree` (zero below 0):
    up to three terms x^a * y^b with |a| = degree and small y-exponents."""
    amb = ring.ambient
    fld = ring.field
    p = amb.zero()
    if degree < 0:
        return p
    for _ in range(rng.randrange(1, 4)):
        xs = [0] * ring.c
        for _ in range(degree):
            xs[rng.randrange(ring.c)] += 1
        ys = [rng.randrange(3) for _ in range(ring.d)]
        p = p + amb.monomial(tuple(xs + ys), fld.from_int(rng.randrange(1, 5)))
    return p


@pytest.mark.parametrize("ring_name", ["ring5", "ring9", "ringq"])
def test_homogeneity_on_stored_entries_matches_normal_forms(ring_name, request, monkeypatch):
    # seeded grids mixing zeros, entries of the wanted and of other
    # x-degrees, multiples of w, inhomogeneous representatives of
    # homogeneous classes (such as x1 + x1*w) and inhomogeneous classes
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(83)
    calls = []
    normal_form = RingSpec.normal_form
    monkeypatch.setattr(RingSpec, "normal_form", lambda *a: calls.append(1) or normal_form(*a))
    w, x1 = ring.w, ring.ambient.variable("x1")
    found = 0
    for _ in range(25):
        source = tuple(rng.randrange(4) for _ in range(4))
        target = tuple(rng.randrange(3) for _ in range(3))
        grid = []
        reduced = 0
        for i in range(3):
            row = []
            for j in range(4):
                want = source[j] - target[i]
                kind = rng.randrange(7)
                if kind == 0:
                    e = ring.ambient.zero()
                elif kind == 1:
                    e = _x_homogeneous(ring, rng, want)
                elif kind == 2:
                    e = _x_homogeneous(ring, rng, want + rng.choice((-1, 1, 2)))
                elif kind == 3:
                    e = w * (_x_homogeneous(ring, rng, rng.randrange(3)) + 1)
                elif kind == 4:
                    e = _x_homogeneous(ring, rng, want) + w * (x1 + 1)
                elif kind == 5:
                    e = x1 + x1 * w
                else:
                    e = _x_homogeneous(ring, rng, want) + _x_homogeneous(ring, rng, want + 1)
                degrees = {ring.ambient.x_degree_of(m) for m in e.terms}
                reduced += not degrees <= {want}
                row.append(e)
            grid.append(row)
        calls.clear()
        fast = homogeneity_violations(ring, sparse_rows(grid), source, target)
        # only entries that are neither zero nor of the wanted degree as
        # stored are reduced mod w
        assert len(calls) == reduced
        assert fast == _homogeneity_oracle(ring, grid, source, target)
        found += len(fast)
    assert found > 0


def test_validate_skips_the_mod_w_pass_when_certified(ring5, monkeypatch):
    # the mod-w pass runs only on a pair that fails A*B = B*A = w*I, whatever
    # the pair claims: one mat_mul call for a fresh factorization, since
    # A*B = w*I forces B*A = w*I, and none once the verdict is kept; a fresh
    # pair that fails costs the verdict's A*B and the pass's own A*B and B*A
    tail = complete_resolution_of_k(ring5)
    plain = PeriodicComplex(ring5, tail.A, tail.B, tail.degrees0, tail.degrees1, certified=False)
    false_claim = PeriodicComplex(ring5, _parsed(ring5, [["x1"]]), _parsed(ring5, [["1"]]), (0,), (1,),
                                  certified=True)
    unclaimed = PeriodicComplex(ring5, _parsed(ring5, [["x1"]]), _parsed(ring5, [["y"]]), (0,), (1,),
                                certified=False)
    products, normal_forms = [], []
    mat_mul_, normal_form = complexes.mat_mul, RingSpec.normal_form
    monkeypatch.setattr(complexes, "mat_mul", lambda *a: products.append(1) or mat_mul_(*a))
    monkeypatch.setattr(RingSpec, "normal_form", lambda *a: normal_forms.append(1) or normal_form(*a))

    def run(C):
        products.clear()
        normal_forms.clear()
        return [kind for kind, _ in validate_pair(C).findings]

    assert run(tail) == [] and products == []
    certified_calls = len(normal_forms)
    # the same pair uncertified costs the one product A*B and no pass
    assert run(plain) == [] and len(products) == 1
    assert len(normal_forms) == certified_calls
    assert run(plain) == [] and products == []
    # a claimed certification that fails the exact comparison takes the
    # pass, with findings in the same order; so does an unclaimed pair
    assert run(false_claim) == [NotAComplex, NotAComplex, CertificationFailed]
    assert len(products) == 3 and len(normal_forms) == 2
    assert run(unclaimed) == [NotAComplex, NotAComplex]
    assert len(products) == 3 and len(normal_forms) == 2
    # the kept verdict spares the A*B of a second report, not the pass
    assert run(unclaimed) == [NotAComplex, NotAComplex]
    assert len(products) == 2 and len(normal_forms) == 2


def test_validate_reports_rank_defect(ring5):
    bad = PeriodicComplex(ring5, _parsed(ring5, [["0"]]), _parsed(ring5, [["0"]]), (0,), (0,),
                          certified=False)
    report = validate_pair(bad)
    assert report.findings == [(RankDefect, "rank(A) + rank(B) = 0 + 0 != 1")]
    assert report.describe() == ("finding RankDefect: rank(A) + rank(B) = 0 + 0 != 1\n"
                                 "note: certification not claimed; total acyclicity is assumed, not checked")


def test_validate_notes_uncertified_assumption(ring5):
    c = PeriodicComplex(ring5, _parsed(ring5, [["x1"]]), _parsed(ring5, [["0"]]), (0,), (1,),
                        certified=False)
    report = validate_pair(c)
    assert report.ok
    assert any("not claimed" in note for note in report.notes)
    assert repr(c) == "<periodic pair, size 1, uncertified>"


def test_shift_swaps_the_pair(ring5):
    k = fixture_k(ring5)
    s = shift(k)
    assert s.certified
    assert validate_pair(s).ok
    assert s.A == tuple(tuple(-e for e in row) for row in k.B)
    assert s.B == tuple(tuple(-e for e in row) for row in k.A)
    ss = shift(s)
    assert ss.A == k.A
    assert ss.degrees0 == tuple(d - 1 for d in k.degrees0)


def test_dual_is_an_involution(ring5):
    for c in (fixture_k(ring5), fixture_rank_one(ring5)):
        d = dual(c)
        assert validate_pair(d).ok
        assert dual(d) == c


def test_direct_sum_blocks(ring5):
    k = fixture_k(ring5)
    r = fixture_rank_one(ring5)
    s = direct_sum(k, r)
    assert s.size == 4
    assert validate_pair(s).ok
    assert s.A[0][0] == k.A[0][0]
    assert s.A[2][2] == r.A[0][0]
    assert s.A[0][2].is_zero()
    assert s.certified


def test_direct_sum_ring_mismatch(ring5, ring3):
    with pytest.raises(RingMismatch):
        direct_sum(fixture_k(ring5), fixture_k(ring3))


def test_cone_reproduces_documented_pair(ring5):
    k = fixture_k(ring5)
    p = ring5.parse("x1*x2")
    cone = cone_mul(k, p)
    d_grid, d_prime_grid = documented_cone_pair(ring5)
    assert cone.A == d_grid
    assert cone.B == d_prime_grid
    assert cone.certified
    assert validate_pair(cone).ok
    assert cone.degrees0 == (0, 0, 1, 2)
    assert cone.degrees1 == (0, 1, 2, 2)


def test_cone_accepts_class_homogeneous_scalars(ring5):
    # p + w*h is the same class as p, so it must be accepted and give the
    # same cone as p itself
    k = fixture_k(ring5)
    p = ring5.parse("x1*x2")
    q = ring5.parse("x1*x2 + x^2*x1 + y^2*x2")
    assert len(q.x_degrees()) > 1
    assert cone_mul(k, q) == cone_mul(k, p)


def test_cone_rejects_inhomogeneous_classes(ring5):
    with pytest.raises(NotHomogeneousScalar):
        cone_mul(fixture_k(ring5), ring5.parse("x1 + x1*x2"))


def test_cone_by_the_zero_class(ring5):
    # w normalizes to zero; the cone must be the block sum with no coupling
    k = fixture_k(ring5)
    cone = cone_mul(k, ring5.w)
    assert cone.size == 4
    assert cone.certified
    assert all(
        cone.A[i][j + 2].is_zero() for i in range(2) for j in range(2)
    )
    assert validate_pair(cone).ok
    # the zero class and a nonzero y-only class both shift by x-degree 0;
    # an x-homogeneous class of degree 2 shifts by 2
    for scalar, degrees0, degrees1 in (
        (ring5.w, (0, 0, -1, 0), (0, 1, 0, 0)),
        (ring5.parse("x"), (0, 0, -1, 0), (0, 1, 0, 0)),
        (ring5.parse("3*x1^2*x + x1*x2*y"), (0, 0, 1, 2), (0, 1, 2, 2)),
    ):
        cone = cone_mul(k, scalar)
        assert (cone.degrees0, cone.degrees1) == (degrees0, degrees1), str(scalar)


def test_cone_rechecks_a_false_certification(ring5):
    # the constructor takes the certified flag on trust; cone_mul re-tests it
    liar = PeriodicComplex(ring5, _parsed(ring5, [["x1"]]), _parsed(ring5, [["x2"]]), (0,), (1,),
                           certified=True)
    with pytest.raises(CertificationFailed, match="cone blocks do not multiply to w\\*I"):
        cone_mul(liar, ring5.parse("x1"))


def test_cone_of_a_certified_pair_inherits_its_verdict(ring5, monkeypatch):
    # [[A, pI], [0, -B]] * [[B, pI], [0, -A]] = [[A*B, 0], [0, B*A]], and
    # the other order gives [[B*A, 0], [0, A*B]]: a cone of a certified pair
    # keeps its parent's verdict and multiplies no blocks, and a fresh copy,
    # which multiplies them once, reaches the same verdict
    amb = ring5.ambient
    products = []
    mat_mul_ = complexes.mat_mul
    monkeypatch.setattr(complexes, "mat_mul", lambda *a: products.append(1) or mat_mul_(*a))
    for C in (fixture_k(ring5), fixture_rank_one(ring5), complete_resolution_of_k(ring5)):
        for p in ("x1", "x1*x2 + 2*x2^2", "0"):
            products.clear()
            cone = cone_mul(C, ring5.parse(p))
            assert cone.is_factorization and validate_pair(cone).ok
            assert products == []
            fresh = PeriodicComplex(ring5, cone.A, cone.B, cone.degrees0, cone.degrees1, certified=True)
            assert fresh.is_factorization and len(products) == 1
    # the 8 -> 16 -> 32 realize chain multiplies the tail only
    products.clear()
    assert realize(ring5, [ring5.parse("x1"), ring5.parse("x2^2")], verify=False).sizes == [8, 16, 32]
    assert len(products) == 1
    # an uncertified parent: nothing is multiplied when the cone is built,
    # and the cone's own verdict and findings follow on first use
    k = fixture_k(ring5)
    tampered = [[k.A[0][0] + amb.variable("x1"), k.A[0][1]], list(k.A[1])]
    for a_grid, expected in ((k.A, True), (tampered, False)):
        C = PeriodicComplex(ring5, a_grid, k.B, k.degrees0, k.degrees1, certified=False)
        products.clear()
        cone = cone_mul(C, ring5.parse("x1"))
        assert products == []
        fresh = PeriodicComplex(ring5, cone.A, cone.B, cone.degrees0, cone.degrees1, certified=False)
        assert cone.is_factorization == fresh.is_factorization == expected
        assert validate_pair(cone).findings == validate_pair(fresh).findings
    # a certified parent that fails the identity: its own one product A*B,
    # and the cone is refused
    liar = PeriodicComplex(ring5, tampered, k.B, k.degrees0, k.degrees1, certified=True)
    products.clear()
    with pytest.raises(CertificationFailed, match="cone blocks do not multiply to w\\*I"):
        cone_mul(liar, ring5.parse("x1"))
    assert len(products) == 1


def test_cone_rank_partition(ring5):
    # rank(A) + rank(B) = size survives the cone construction
    k = fixture_k(ring5)
    cone = cone_mul(k, ring5.parse("x1"))
    r_a = rank_over_R(sparse_rows(cone.A), ring5)
    r_b = rank_over_R(sparse_rows(cone.B), ring5)
    assert r_a + r_b == cone.size


@pytest.mark.parametrize("field_text", ["GF(5)", "GF(9)", "QQ"])
def test_a_cone_inherits_the_pencil_of_its_own_grids(field_text, monkeypatch):
    # a cone's residue pencil is the image of its own distinct entries, the
    # scalar among them: one image_in_kx per value of its pair_entries, in
    # order, and none for a pencil already kept.  It is the pencil of the
    # cone's image grids, for every stage of realize chains up to 64x64
    # (the last chain ends in a scalar whose image is zero) and for cones,
    # and cones of cones, of the fixtures, their shifts and duals by the
    # zero class, by y*x1 (image zero) and by x1*x2
    ring = worked_ring(parse_field(field_text))
    calls = []
    image = RingSpec.image_in_kx
    monkeypatch.setattr(RingSpec, "image_in_kx", lambda r, p: calls.append(p) or image(r, p))
    chains = [["x1*x2"], ["x1 + 2*x2", "x1*x2 + 2*x2^2"], ["x2 + y*x1", "x1^2", "y*x1"]]
    cones = []  # (cone, parent, scalar)
    for scalars in chains:
        trace = realize(ring, scalars, verify=False)
        assert trace.sizes == [8 * 2**k for k in range(len(scalars) + 1)]
        cones += [(s.complex, parent.complex, s.scalar) for parent, s in zip(trace.stages, trace.stages[1:])]
    for base in (fixture_k(ring), fixture_rank_one(ring)):
        for parent in (base, shift(base), dual(base)):
            for p in ("0", "y*x1", "x1*x2"):
                cone = cone_mul(parent, ring.parse(p))
                cones += [(cone, parent, ring.parse(p)), (cone_mul(cone, ring.parse("x1 + x2")), cone, ring.parse("x1 + x2"))]
    kept = []
    for C, parent, p in cones:
        assert "pencil_entries" not in vars(C)
        values = C.pair_entries.values
        assert ring.normal_form(p) in values or not ring.normal_form(p).terms
        del calls[:]
        kept.append(C.pencil_entries)
        assert [id(e) for e in calls] == [id(v) for v in values]
        del calls[:]
        assert C.pencil_entries is kept[-1] and calls == []
    monkeypatch.undo()
    for (C, _, _), entries in zip(cones, kept):
        assert entries == image_entries(ring, (C.A, C.B)), C.size


def _nonzero_objects(C):
    return {id(e): e for grid in (C.A, C.B) for row in grid for e in row if e.terms}.values()


def _objects_and_values(C):
    objs = _nonzero_objects(C)
    return len(objs), len(set(objs))


def test_engine_built_pairs_hold_one_object_per_value(ring5):
    # the Shamash tail signs each variable and each f_i once for both folds,
    # and each step indexes its values by value, reusing a parent's object
    # for an equal value, so -(-e) is e's own object
    trace = realize(ring5, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False)
    stages = [s.complex for s in trace.stages]
    assert [_objects_and_values(C) for C in stages] == [(10, 10), (13, 13), (15, 15)]
    tail, c16, c32 = stages
    # shift, dual and direct sum keep it: the shifted 32x32 stage holds 15
    # objects for 15 values
    for C in stages:
        for D in (shift(C), dual(C), direct_sum(C, C)):
            assert _objects_and_values(D) == _objects_and_values(C)
    assert _objects_and_values(shift(c32)) == (15, 15)
    # -(-e) is e: the bottom right block of the 32x32 A is -(-A) of the tail
    assert all(c32.A[24 + i][24 + j] is e for i, row in enumerate(tail.A) for j, e in enumerate(row))
    # the scalar, and the zeros, are shared with equal entries of the parent
    x1 = cone_mul(tail, ring5.parse("x1"))
    assert x1.A[0][8] is next(e for row in tail.A for e in row if e == x1.A[0][8])
    zeros = {id(e) for C in (c16, x1, shift(c16), dual(c16), direct_sum(tail, c16))
             for grid in (C.A, C.B) for row in grid for e in row if not e.terms}
    assert zeros == {id(ring5.ambient.zero())}
    assert cone_mul(tail, ring5.parse("x^2*x1 + y^2*x2")).A[0][8] is ring5.ambient.zero()


def test_pairs_are_built_without_a_per_entry_pass(ring5, tmp_path, monkeypatch):
    # the constructor stores the grids it is given, a step derives its
    # entries from its parents' (the tail's read from its grids first), and
    # the loader indexes a file's entries as it parses them: building the
    # 16x16 and 32x32 realize stages, their shift, dual and direct sum, and
    # loading the 32x32 trace, then reading each one's pair_entries, coerce
    # no entry (only the two cone scalars, which normal_form takes) and
    # read no grid (distinct_entries)
    tail = complete_resolution_of_k(ring5)
    tail.pair_entries
    save_trace(realize(ring5, ["x1", "x2"], verify=False), tmp_path / "trace.json")
    read, coerced = [], []
    distinct_entries_, coerce_ = complexes.distinct_entries, PolyRing.coerce
    monkeypatch.setattr(complexes, "distinct_entries", lambda *a: read.append(a) or distinct_entries_(*a))
    monkeypatch.setattr(PolyRing, "coerce", lambda ring, value: coerced.append(value) or coerce_(ring, value))
    scalars = [ring5.parse("x1"), ring5.parse("x2")]
    c16 = cone_mul(tail, scalars[0])
    c32 = cone_mul(c16, scalars[1])
    built = [c16, c32, shift(c32), dual(c32), direct_sum(c16, c16), load_complex(tmp_path / "trace.json")]
    assert [C.size for C in built] == [16, 32, 32, 32, 32, 32]
    assert [len(C.pair_entries.values) for C in built] == [12] * 6
    assert [id(v) for v in coerced] == [id(v) for v in scalars]
    assert read == []
    assert built[-1] == c32


def test_a_derived_pair_takes_its_parents_verdict(ring5, monkeypatch):
    # (-B)(-A) = B*A, B^t A^t = (A*B)^t and a block sum multiplies block by
    # block: the shift, dual and direct sums of the fixtures and the Shamash
    # tail, and a cone of each of those, decide is_factorization with no
    # product once their parents' verdicts are kept
    bases = [fixture_k(ring5), fixture_rank_one(ring5), complete_resolution_of_k(ring5)]
    assert all(C.is_factorization for C in bases)
    products = []
    mat_mul_ = complexes.mat_mul
    monkeypatch.setattr(complexes, "mat_mul", lambda *a: products.append(1) or mat_mul_(*a))
    derived = [step(C) for C in bases for step in (shift, dual)] + [direct_sum(C, D) for C in bases for D in bases]
    derived += [cone_mul(C, ring5.parse("x1*x2")) for C in derived]
    assert all(C.is_factorization for C in derived)
    assert products == []


def _negated(grid):
    return [[-e for e in row] for row in grid]


def _step_grids(step, parents, p):
    """A and B of one step written out in full, entry by entry: the
    reference the step rules of complexes are checked against."""
    C = parents[0]
    zero = C.ring.ambient.zero()
    A, B = [list(row) for row in C.A], [list(row) for row in C.B]

    def blocks(top_left, top_right, bottom_left, bottom_right):
        return ([l + r for l, r in zip(top_left, top_right)]
                + [l + r for l, r in zip(bottom_left, bottom_right)])

    def zeros(m, n):
        return [[zero] * n for _ in range(m)]

    n = C.size
    if step == "shift":
        return _negated(B), _negated(A)
    if step == "dual":
        return [list(col) for col in zip(*B)], [list(col) for col in zip(*A)]
    if step == "sum":
        D = parents[1]
        m = D.size
        return tuple(blocks(X, zeros(n, m), zeros(m, n), [list(row) for row in Y])
                     for X, Y in ((A, D.A), (B, D.B)))
    rep = C.ring.normal_form(p)
    p_block = [[rep if i == j else zero for j in range(n)] for i in range(n)]
    return blocks(A, p_block, zeros(n, n), _negated(B)), blocks(B, p_block, zeros(n, n), _negated(A))


@pytest.mark.parametrize("field_text", ["GF(5)", "GF(9)", "QQ", "GF(2)"])
def test_seeded_chains_of_steps_derive_entries_pencil_and_verdict(field_text, monkeypatch):
    # seeded chains of cone_mul, shift, dual and direct_sum up to 64x64,
    # from the fixtures, the Shamash tail and a fixture with one entry
    # changed (no factorization): each step's grids are the dense layout
    # written out here; its derived entries are those read from its grids,
    # and its pencil, one image_in_kx per value of those entries in order
    # and none once kept, is that of its image grids; its verdict is a
    # fresh copy's; its certification claim is its parents'; and it holds
    # one object per value, every zero the ring's one zero
    ring = worked_ring(parse_field(field_text))
    k = fixture_k(ring)
    tampered = PeriodicComplex(ring, [[k.A[0][0] + ring.parse("x1"), k.A[0][1]], list(k.A[1])], k.B,
                               k.degrees0, k.degrees1, certified=False)
    leaves = [k, fixture_rank_one(ring), complete_resolution_of_k(ring), tampered]
    scalars = ["0", "x1", "x2", "x1 + 2*x2", "x1*x2", "y*x1", "x1*x2 + 2*x2^2", "x^2*x1 + y^2*x2"]
    calls = []
    image = RingSpec.image_in_kx
    monkeypatch.setattr(RingSpec, "image_in_kx", lambda r, p: calls.append(p) or image(r, p))
    for leaf in leaves:
        del calls[:]
        pencil = leaf.pencil_entries
        assert [id(e) for e in calls] == [id(v) for v in leaf.pair_entries.values]
        assert pencil == image_entries(ring, (leaf.A, leaf.B))
    steps = {"cone": 0, "shift": 0, "dual": 0, "sum": 0}
    claims = set()
    for seed in range(10):
        rng = random.Random(f"{field_text} {seed}")
        chain = [rng.choice(leaves)]
        for _ in range(6):
            C = chain[-1]
            partners = [D for D in chain + leaves if C.size + D.size <= 64]
            step = rng.choice(["shift", "dual"] + ["cone"] * (2 * C.size <= 64) + ["sum"] * bool(partners))
            parents, p = (C,), None
            if step == "sum":
                parents = (C, rng.choice(partners))
                D = direct_sum(*parents)
            elif step == "cone":
                p = ring.parse(rng.choice(scalars))
                D = cone_mul(C, p)
            else:
                D = {"shift": shift, "dual": dual}[step](C)
            steps[step] += 1
            assert ([list(row) for row in D.A], [list(row) for row in D.B]) == tuple(_step_grids(step, parents, p))
            del calls[:]
            pencil = D.pencil_entries
            assert [id(e) for e in calls] == [id(v) for v in D.pair_entries.values]
            del calls[:]
            assert D.pencil_entries is pencil and calls == []
            assert pencil == image_entries(ring, (D.A, D.B)), (seed, step)
            assert D.pair_entries == distinct_entries((D.A, D.B), ring.ambient), (seed, step)
            fresh = PeriodicComplex(ring, D.A, D.B, D.degrees0, D.degrees1, D.certified)
            assert D.is_factorization == fresh.is_factorization == all(P.is_factorization for P in parents)
            assert D.certified == all(P.certified for P in parents)
            claims.add(D.certified)
            assert len(set(_nonzero_objects(D))) == len(_nonzero_objects(D))
            assert {id(e) for grid in (D.A, D.B) for row in grid for e in row if not e.terms} <= {id(ring.ambient.zero())}
            chain.append(D)
    assert min(steps.values()) > 0
    assert claims == {True, False}


def _long_chain(base, steps, length):
    C = base
    for i in range(length):
        C = steps[i % len(steps)](C)
    return C


@pytest.mark.parametrize("steps", [(shift,), (shift, dual)], ids=["shift", "shift-dual"])
def test_a_long_derivation_is_walked_with_a_stack(ring5, steps):
    # Chains of 1500 and 1501 steps from fixture_k, with no verdict read
    # while they are built: is_factorization, pencil_entries, contractible_at
    # and rank_variety each walk the derivation on a fresh chain, deeper
    # than Python's recursion limit, and agree with the same steps on
    # fixture_k taken as far as the chain's parity (shift twice, and
    # (shift, dual) twice, give the grids back)
    base = fixture_k(ring5)
    points = enumerate_points(ring5.field, 2) + enumerate_points(extension_of(ring5.field, 2), 2)
    zero = ring5.kx.zero()
    for length in (1500, 1501):
        ref = _long_chain(base, steps, length % (2 * len(steps)))
        assert _long_chain(base, steps, length).is_factorization is ref.is_factorization is True
        pencil = _long_chain(base, steps, length).pencil_entries
        assert pencil.grids(pencil.values, zero) == ref.pencil_entries.grids(ref.pencil_entries.values, zero)
        C = _long_chain(base, steps, length)
        assert [contractible_at(C, pt) for pt in points] == [contractible_at(ref, pt) for pt in points]
        C = _long_chain(base, steps, length)
        assert rank_variety(C).describe() == rank_variety(ref).describe()
        assert (C.A, C.B) == (ref.A, ref.B)


def test_the_verdict_walk_reaches_each_leaf_once(ring5, monkeypatch):
    # a derived pair's verdict walks its derivation to the leaves, or to an
    # ancestor whose verdict is kept, forming at most one product A*B per
    # distinct leaf: direct_sum(D, D) nested 5 deep reaches its one leaf 32
    # times and multiplies once.  Leaves are judged in order, and the walk
    # stops at the first false verdict.  An uncertified leaf with one entry
    # changed gives False under a cone, under 1500 shifts and duals, and
    # under shifts, duals, sums and cones beside good leaves.  Every verdict
    # is that of a fresh copy of the pair, judged by its own product.
    k = fixture_k(ring5)

    def leaves():
        bad = PeriodicComplex(ring5, [[k.A[0][0] + ring5.parse("x1"), k.A[0][1]], list(k.A[1])], k.B,
                              k.degrees0, k.degrees1, certified=False)
        good = [PeriodicComplex(ring5, C.A, C.B, C.degrees0, C.degrees1, certified=False)
                for C in (k, fixture_rank_one(ring5))]
        return bad, *good

    products = []
    mat_mul_ = complexes.mat_mul
    # the left factor of each product, as sparse rows: its (column, index)
    # rows over the values
    monkeypatch.setattr(complexes, "mat_mul", lambda *a: products.append(
        [[(j, a[0][k]) for j, k in row] for row in a[1]]) or mat_mul_(*a))
    judged = []

    def verdict(C, want, reached):
        products.clear()
        assert C.is_factorization is want
        assert products == [sparse_rows(L.A) for L in reached]
        products.clear()
        assert C.is_factorization is want and products == []
        judged.append(C)

    for leaf, want in zip(leaves(), (False, True)):
        D = leaf
        for _ in range(5):
            D = direct_sum(D, D)
        assert D.size == 64
        verdict(D, want, [leaf])
        verdict(direct_sum(D, D), D.is_factorization, [])  # stops at D's kept verdict
    bad, good, one = leaves()
    verdict(cone_mul(bad, ring5.parse("x1*x2")), False, [bad])
    bad, good, one = leaves()
    verdict(cone_mul(_long_chain(bad, (shift, dual), 1500), ring5.parse("x1")), False, [bad])
    bad, good, one = leaves()
    mixed = direct_sum(shift(cone_mul(good, ring5.parse("x1"))), dual(direct_sum(one, good)))
    verdict(cone_mul(mixed, ring5.parse("x2")), True, [good, one])
    verdict(direct_sum(cone_mul(bad, ring5.parse("x1")), mixed), False, [bad])
    bad, good, one = leaves()
    verdict(direct_sum(direct_sum(good, bad), cone_mul(one, ring5.parse("x2"))), False, [good, bad])
    monkeypatch.undo()
    for C in judged:
        fresh = PeriodicComplex(ring5, C.A, C.B, C.degrees0, C.degrees1, certified=False)
        assert fresh.is_factorization is C.is_factorization, C.size


def _broken_off_the_diagonal(C, rng):
    """C, uncertified, with x1 added to an entry A[i][l] where B[l][i] is
    zero and row l of B is not: A*B then differs from w*I off the diagonal
    only, in row i.  Returns the pair and whether a column before i is hit."""
    n = C.size
    choices = [(i, l) for i in range(n) for l in range(n)
               if not C.B[l][i].terms and any(e.terms for e in C.B[l])]
    i, l = rng.choice(choices)
    a = [list(row) for row in C.A]
    a[i][l] = a[i][l] + C.ring.parse("x1")
    before = any(C.B[l][j].terms for j in range(i))
    return PeriodicComplex(C.ring, a, C.B, C.degrees0, C.degrees1, certified=False), before


@pytest.mark.parametrize("field_text", ["GF(5)", "GF(9)", "QQ", "GF(2)"])
def test_the_sparse_product_and_verdict_are_the_dense_ones(field_text):
    # On a leaf, is_factorization is one mat_mul of the values and index
    # rows of its pair_entries.  On the fixtures, the Shamash tail, fresh
    # copies of derived pairs (shifts, duals, a sum, cones, a 16x16 realize
    # stage) and hand-broken pairs (one entry changed, B scaled by x1, and
    # entries changed so that A*B differs from w*I off the diagonal only,
    # before and after it in its row), both sparse products are the sparse
    # rows of the schoolbook products of the grids, and the verdict is that
    # of comparing A*B with w*I position by position.
    ring = worked_ring(parse_field(field_text))
    amb = ring.ambient
    rng = random.Random(f"verdict {field_text}")
    k, one, tail = fixture_k(ring), fixture_rank_one(ring), complete_resolution_of_k(ring)
    pairs = [k, one, tail, shift(k), dual(one), shift(dual(tail)), direct_sum(k, one),
             cone_mul(k, ring.parse("x1*x2")), realize(ring, ["x1 + x2"], verify=False).final]
    for C in (k, one, tail):
        changed = [list(row) for row in C.A]
        changed[0][0] = changed[0][0] + ring.parse("x2")
        pairs.append(PeriodicComplex(ring, changed, C.B, C.degrees0, C.degrees1, certified=False))
        pairs.append(PeriodicComplex(ring, C.A, [[ring.parse("x1") * e for e in row] for row in C.B],
                                     C.degrees0, C.degrees1, certified=False))
    broken = {}
    while len(broken) < 2:
        pair, before = _broken_off_the_diagonal(tail, rng)
        broken.setdefault(before, pair)
    pairs += broken.values()
    verdicts = []
    for C in pairs:
        fresh = PeriodicComplex(ring, C.A, C.B, C.degrees0, C.degrees1, certified=False)
        values, (a, b) = fresh.pair_entries.values, fresh.pair_entries.rows
        ab = dense_product(C.A, C.B, amb)
        assert mat_mul(values, a, b, amb) == sparse_rows(ab)
        assert mat_mul(values, b, a, amb) == sparse_rows(dense_product(C.B, C.A, amb))
        verdicts.append(fresh.is_factorization)
        assert fresh.is_factorization == (ab == identity(amb, C.size, ring.w)), C.size
    assert verdicts == [True] * 9 + [False] * 8


def test_validate_checks_the_ring_of_every_entry(ring5):
    # a GF(5) pair with one GF(7) entry, or one string entry, is built, and
    # refused by validate_pair and periodic_from_pair
    ring7 = worked_ring(parse_field("GF(7)"))
    k = fixture_k(ring5)
    for entry, error in ((ring7.parse("x1"), RingMismatch), ("x1", TypeError)):
        for grids in (([[entry, k.A[0][1]], list(k.A[1])], k.B), (k.A, [list(k.B[0]), [k.B[1][0], entry]])):
            C = PeriodicComplex(ring5, *grids, k.degrees0, k.degrees1, certified=True)
            with pytest.raises(error):
                validate_pair(C)
            with pytest.raises(error):
                periodic_from_pair(ring5, *grids, k.degrees0, k.degrees1)


def test_periodic_rejects_non_square_pair(ring5):
    # degrees of unequal length: the shapes themselves agree with the degrees
    with pytest.raises(ValueError, match="square"):
        PeriodicComplex(ring5, [["x1", "0"]], [["0"], ["0"]], (0,), (0, 1), certified=False)
    # grids that disagree with the degrees, on either side, and a ragged grid
    with pytest.raises(ValueError, match="entry grid is 1x2, expected 1x1"):
        PeriodicComplex(ring5, [["x1", "0"]], [["0"]], (0,), (0,), certified=False)
    with pytest.raises(ValueError, match="entry grid is 2x1, expected 1x1"):
        PeriodicComplex(ring5, [["x1"]], [["0"], ["0"]], (0,), (0,), certified=False)
    with pytest.raises(ValueError, match="ragged matrix"):
        PeriodicComplex(ring5, [["x1", "0"], ["0"]], [["0", "0"], ["0", "0"]], (0, 0), (0, 0), certified=False)


def test_validate_applies_the_twist_to_b(ring5):
    # A maps degrees1 to degrees0; B maps degrees0 twisted by 1 to degrees1,
    # so x1 fits A here (1 - 0) but not B ((0 + 1) - 1)
    c = PeriodicComplex(ring5, _parsed(ring5, [["x1"]]), _parsed(ring5, [["x1"]]), (0,), (1,),
                        certified=False)
    homogeneity = [m for kind, m in validate_pair(c).findings if kind is NotHomogeneous]
    assert homogeneity == ["B: entry (0,0) = x1 has x-degree 1, expected 0"]
