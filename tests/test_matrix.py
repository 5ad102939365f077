"""Exact linear algebra over polynomial rings and fields.

Oracle layout: elimination rank against exhaustive minor search; minor
enumeration against Leibniz-formula determinants; field rank against
matrices of planted rank r built as products of r-column factors.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ghrv import matrix
from ghrv.errors import BoundExceeded
from ghrv.fields import QQ, make_extension, prime_field
from ghrv.matrix import (
    all_minors,
    identity,
    mat_mul,
    mat_shape,
    rank_by_minors,
    rank_over_domain,
)
from ghrv.pipelines import complete_resolution_of_k
from ghrv.poly import Poly, PolyRing

from dense import dense_rank


@pytest.fixture(scope="module")
def ring():
    return PolyRing(prime_field(5), ("a", "b"), ("t",))


def _random_poly(ring, rng, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(3) for _ in range(ring.nvars))
        c = ring.field.from_int(rng.randrange(ring.field.order))
        if not ring.field.is_zero(c):
            terms[mono] = c
    return Poly(ring, terms)


def _random_grid(ring, rng, m, n, max_terms=3):
    return [[_random_poly(ring, rng, max_terms) for _ in range(n)] for _ in range(m)]


def test_rank_matches_minor_search(ring):
    rng = random.Random(59)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        g = _random_grid(ring, rng, m, n, max_terms=2)
        assert rank_over_domain(g, ring) == rank_by_minors(g, ring)


def test_rank_of_outer_products(ring):
    # u * v^T has rank exactly 1 when both are nonzero
    rng = random.Random(61)
    for _ in range(10):
        u = [[_random_poly(ring, rng, 2)] for _ in range(3)]
        v = [[_random_poly(ring, rng, 2) for _ in range(3)]]
        if all(e[0].is_zero() for e in u) or all(e.is_zero() for e in v[0]):
            continue
        g = mat_mul(u, v, ring)
        assert rank_over_domain(g, ring) == 1
        assert rank_by_minors(g, ring) == 1


def _sparse_grid(ring, rng, m, n, elems, density=0.4, max_terms=3):
    """m x n grid whose entries are zero with probability 1 - density and
    otherwise carry one to max_terms terms with coefficients from `elems`."""
    grid = []
    for _ in range(m):
        row = []
        for _ in range(n):
            terms = {}
            if rng.random() < density:
                for _ in range(rng.randrange(1, max_terms + 1)):
                    terms[tuple(rng.randrange(3) for _ in range(ring.nvars))] = rng.choice(elems)
            row.append(Poly(ring, terms))
        grid.append(row)
    return grid


def _field_elems(field):
    """Nonzero coefficients for random grids: a few small fractions over QQ,
    every nonzero element of a finite field."""
    if field == QQ:
        return [Fraction(k, d) for k in (-2, -1, 1, 3) for d in (1, 2)]
    return [e for e in field.elements() if not field.is_zero(e)]


def _dense_product(a, b, ring):
    """a * b position by position, one Poly product per pair of entries."""
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), ring.zero()) for j in range(len(b[0])))
        for i in range(len(a))
    )


@pytest.mark.parametrize("field", [make_extension(3, 2), QQ], ids=str)
def test_mat_mul_matches_the_dense_product(field):
    ring = PolyRing(field, ("a", "b"), ("t",))
    elems = _field_elems(field)
    rng = random.Random(83)
    for m, k, n in ((1, 1, 1), (2, 3, 4), (3, 1, 2), (4, 4, 1), (1, 5, 3), (3, 3, 3), (5, 2, 4)):
        for _ in range(3):
            a = _sparse_grid(ring, rng, m, k, elems, density=0.6)
            b = _sparse_grid(ring, rng, k, n, elems, density=0.6)
            a[rng.randrange(m)] = [ring.zero()] * k  # a zero row of a
            zero_col = rng.randrange(n)
            for row in b:  # and a zero column of b
                row[zero_col] = ring.zero()
            dense = _dense_product(a, b, ring)
            got = mat_mul(a, b, ring)
            assert got == dense
            assert all(e.terms == d.terms for r, s in zip(got, dense) for e, d in zip(r, s))

    # grids that hold a few objects at many positions, as a cone's blocks
    # do: the product of two objects is formed once and added wherever the
    # pair meets, and sums such as p*q + p*(-q) cancel to zero
    p, q = (_sparse_grid(ring, rng, 1, 1, elems, density=1.0)[0][0] for _ in range(2))
    pool = [p, q, -p, -q, p * q, ring.zero()]
    cancelled = 0
    for m, k, n in ((4, 5, 3), (6, 6, 6), (8, 3, 8)):
        for _ in range(3):
            a = [[rng.choice(pool) for _ in range(k)] for _ in range(m)]
            b = [[rng.choice(pool) for _ in range(n)] for _ in range(k)]
            dense = _dense_product(a, b, ring)
            got = mat_mul(a, b, ring)
            assert got == dense
            assert all(e.terms == d.terms for r, s in zip(got, dense) for e, d in zip(r, s))
            if m == k:  # one grid on both sides
                assert mat_mul(a, a, ring) == _dense_product(a, a, ring)
            cancelled += sum(
                1 for i in range(m) for j in range(n)
                if not dense[i][j].terms and any(a[i][t].terms and b[t][j].terms for t in range(k))
            )
    assert cancelled > 0
    with pytest.raises(ValueError, match="shape mismatch 2x3 times 2x2"):
        mat_mul([[ring.zero()] * 3] * 2, [[ring.zero()] * 2] * 2, ring)


def test_cancelled_entries_of_a_factorization_product_have_no_terms(ring5):
    # A*B = w*I: every off-diagonal sum in which nonzero products meet
    # cancels, so mat_mul must drop the zero coefficients it leaves (a
    # constructor that trusted its terms to be nonzero would keep them)
    C = complete_resolution_of_k(ring5)
    prod = mat_mul(C.A, C.B, ring5.ambient)
    cancelled = 0
    for i, row in enumerate(prod):
        for j, e in enumerate(row):
            if i == j:
                assert e == ring5.w
                continue
            assert e.terms == {}
            cancelled += any(not C.A[i][t].is_zero() and not C.B[t][j].is_zero() for t in range(C.size))
    assert cancelled > 0


def test_rank_matches_minor_search_on_sparse_grids(ring):
    # sparse grids, and sparse products of planted inner dimension r, so that
    # elimination meets zero entries, zero cross terms and true cancellation
    rng = random.Random(89)
    elems = [ring.field.from_int(k) for k in range(1, 5)]
    for _ in range(30):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        g = _sparse_grid(ring, rng, m, n, elems)
        assert rank_over_domain(g, ring) == rank_by_minors(g, ring)
        r = rng.randrange(1, 4)
        u = _sparse_grid(ring, rng, m, r, elems, density=0.5)
        v = _sparse_grid(ring, rng, r, n, elems, density=0.5)
        g = mat_mul(u, v, ring)
        assert rank_over_domain(g, ring) == rank_by_minors(g, ring) <= r


def _lagging_grid(ring, rng, elems, extra, tail, dependent):
    """A grid whose sparse Bareiss run is forced through lazy scaling.

    Rows 0..3 hold one one-term entry each, on the diagonal of columns 0..3;
    every other entry in columns 0..4 has two terms, except row 5's in
    column 4.  Rows 4..8 fill columns 0..4 so that each holds four entries
    (row 4: 0, 3, 4; row 5: 0, 4; row 6: 0..4; row 7: 1..4; row 8: 1, 2),
    and each of the `extra` further rows, and the `dependent` one, adds one
    to every column.  The pivot rule of rank_over_domain (terms, then column
    count, then row width, then row order) therefore takes rows 0..3 at
    steps 1 to 4: a one-term pivot row of width 1 scales the rows it
    touches by one-term factors, so no other entry in columns 0..4 loses
    its second term.  Row 4 is touched at step 1, skipped at steps 2 and 3
    and touched again at step 4, so its update divides by the step-1 pivot,
    which the step-3 pivot does not stand in for; row 6 divides by the
    step-1 and step-2 pivots at steps 2 and 3 in between.  Row 5 is touched
    at step 1 only, and its column-4 entry, then the one one-term entry
    left, makes it the pivot of step 5 while stale.  `tail` columns after
    column 4 are filled at random in rows 4 on; with `dependent` a last row
    is a combination of rows 6 and 7, so the grid is rank deficient when it
    is not tall."""

    def poly(nterms):
        terms = {}
        while len(terms) < nterms:
            terms[tuple(rng.randrange(3) for _ in range(ring.nvars))] = rng.choice(elems)
        return Poly(ring, terms)

    zero = ring.zero()
    rows = [[poly(1) if j == s else zero for j in range(5)] for s in range(4)]
    for cols in ((0, 3, 4), (0, 4), (0, 1, 2, 3, 4), (1, 2, 3, 4), (1, 2)):
        rows.append([poly(2) if j in cols else zero for j in range(5)])
    rows[5][4] = poly(1)
    for _ in range(extra):
        rows.append([poly(2) for _ in range(5)])
    for i, row in enumerate(rows):
        row += [poly(2) if i > 3 and rng.random() < 0.5 else zero for _ in range(tail)]
    if dependent:
        ca, cb = poly(1), poly(1)
        rows.append([ca * x + cb * y for x, y in zip(rows[6], rows[7])])
    return rows


@pytest.mark.parametrize("field", [prime_field(3), make_extension(3, 2), QQ], ids=str)
def test_sparse_bareiss_lazy_scaling_matches_minor_search(field, monkeypatch):
    # Each grid makes a touched row skip two pivot steps before its next
    # update and makes a stale row the pivot (see _lagging_grid), on
    # tall, square and wide shapes, full rank and deficient; the transpose
    # has the same rank and takes other pivots.  Wrappers on the lag
    # divisions see both: row 5 brought up to date by exact_div by the
    # step-1 pivot, and an update dividing by the step-1 pivot after one
    # has divided by a later pivot.
    ring = PolyRing(field, ("a", "b"), ("t",))
    elems = _field_elems(field)
    rng = random.Random(107)
    divisors, lags = [], []
    exact_div, update = matrix.exact_div, matrix._bareiss_update

    def recording_div(e, d):
        divisors.append(d)
        return exact_div(e, d)

    def recording_update(*args):
        lags.append(args[-1])
        return update(*args)

    monkeypatch.setattr(matrix, "exact_div", recording_div)
    monkeypatch.setattr(matrix, "_bareiss_update", recording_update)
    shapes = set()
    for extra, tail, dependent in [(0, 1, False), (1, 0, False), (0, 4, False), (0, 5, True),
                                   (0, 6, True), (1, 2, True), (2, 1, False)] * 2:
        g = _lagging_grid(ring, rng, elems, extra, tail, dependent)
        m, n = mat_shape(g)
        want = rank_by_minors(g, ring)
        divisors.clear()
        lags.clear()
        assert rank_over_domain(g, ring) == want
        first = g[0][0]
        assert any(d is first for d in divisors)  # row 5, the pivot of step 5
        divided = [lag for lag in lags if lag is not None]
        later = next(i for i, lag in enumerate(divided) if lag is not first)
        assert any(lag is first for lag in divided[later:])  # row 4 at step 4
        assert rank_over_domain(list(zip(*g)), ring) == want
        shapes.add((m == n, want < min(m, n)))
    assert shapes >= {(False, False), (False, True), (True, True)}
    # a one-term lag that does not divide the update raises, as exact_div
    # would: (a * 1) / b
    a, b = ring.variable("a"), ring.variable("b")
    with pytest.raises(ArithmeticError, match="^inexact division: remainder a$"):
        update(ring, list(a.terms.items()), ring.one(), None, None, b)


def test_zero_and_identity_ranks(ring):
    assert rank_over_domain([[ring.zero()] * 4] * 3, ring) == 0
    assert rank_over_domain(identity(ring, 4), ring) == 4


def _leibniz_det(grid, rset, cset, ring):
    """sum over bijections rset -> cset of sign * product of entries, with
    permutations through a zero entry skipped; the sign is the parity of
    the inversion count of the column sequence."""
    total = ring.zero()

    def extend(depth, used, cols, prod):
        nonlocal total
        if depth == len(rset):
            inversions = sum(1 for a, b in combinations(cols, 2) if a > b)
            total = total + prod if inversions % 2 == 0 else total - prod
            return
        for c in cset:
            e = grid[rset[depth]][c]
            if c not in used and not e.is_zero():
                extend(depth + 1, used | {c}, cols + (c,), prod * e)

    extend(0, frozenset(), (), ring.one())
    return total


def _nonzero_minors_by_leibniz(grid, r, ring):
    m, n = len(grid), len(grid[0])
    dets = (
        _leibniz_det(grid, rset, cset, ring)
        for rset in combinations(range(m), r)
        for cset in combinations(range(n), r)
    )
    return [d for d in dets if not d.is_zero()]


def _assert_minors_match_leibniz(grid, ring):
    m, n = len(grid), len(grid[0])
    for r in range(min(m, n) + 1):
        got = list(all_minors(grid, r, ring))
        want = _nonzero_minors_by_leibniz(grid, r, ring)
        assert got == want, (r, m, n)
        assert all(g.terms == w.terms for g, w in zip(got, want))


@pytest.mark.parametrize("field", [prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_all_minors_are_the_nonzero_leibniz_minors(field):
    # every nonzero minor, in (row set, column set) order, on sparse and
    # dense grids up to 6x6, at every size r from 0 to min(m, n)
    ring = PolyRing(field, ("a", "b"), ("t",))
    elems = _field_elems(field)
    rng = random.Random(97)
    shapes = ((1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (2, 5), (5, 3), (4, 6), (6, 6))
    for m, n in shapes:
        for density, max_terms in ((0.3, 3), (1.0, 2)):
            g = _sparse_grid(ring, rng, m, n, elems, density, max_terms)
            _assert_minors_match_leibniz(g, ring)
    # rank-one rows cancel in every 2 x 2 minor
    u = _sparse_grid(ring, rng, 4, 1, elems, density=1.0)
    v = _sparse_grid(ring, rng, 1, 4, elems, density=1.0)
    g = mat_mul(u, v, ring)
    _assert_minors_match_leibniz(g, ring)
    assert list(all_minors(g, 2, ring)) == []


def test_all_minors_on_the_resolution_of_k_pencils(ring5):
    C = complete_resolution_of_k(ring5)
    for grid in (ring5.image_grid(C.A), ring5.image_grid(C.B)):
        assert mat_shape(grid) == (8, 8)
        _assert_minors_match_leibniz(grid, ring5.kx)


def test_all_minors_counts(ring):
    g = _random_grid(ring, random.Random(67), 3, 4)
    nonzero = _nonzero_minors_by_leibniz(g, 2, ring)
    assert len(nonzero) == 3 * 6 - 4  # four of the eighteen 2 x 2 minors vanish
    assert len(list(all_minors(g, 2, ring))) == len(nonzero)
    assert len(list(all_minors(g, 5, ring))) == 0
    assert list(all_minors(g, 0, ring)) == [ring.one()]
    # C(12, 6)^2 = 853,776 minors are enumerated; C(13, 6)^2 = 2,944,656
    # exceed MAX_MINORS and are refused before the first one is computed.
    assert next(all_minors(identity(ring, 12), 6, ring)) == ring.one()
    with pytest.raises(BoundExceeded):
        next(all_minors(identity(ring, 13), 6, ring))


def test_field_rank_planted(f5):
    rng = random.Random(71)
    for _ in range(30):
        n, r = rng.randrange(2, 6), rng.randrange(0, 3)
        u = [[f5.from_int(rng.randrange(5)) for _ in range(r)] for _ in range(n)]
        v = [[f5.from_int(rng.randrange(5)) for _ in range(n)] for _ in range(r)]
        prod = [
            [sum(u[i][t] * v[t][j] for t in range(r)) % 5 for j in range(n)]
            for i in range(n)
        ]
        got = dense_rank(prod, f5)
        assert got <= min(r, dense_rank(u, f5), dense_rank(v, f5))
        if dense_rank(u, f5) == r and dense_rank(v, f5) == r:
            assert got == r


def test_field_rank_matches_lifted_minor_rank(f5):
    # independent oracle: embed scalars as constant polynomials and run the
    # exhaustive minor search over the polynomial ring
    lift = PolyRing(f5, ("t",), ())
    rng = random.Random(73)
    for _ in range(20):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        g = [[f5.from_int(rng.randrange(5)) for _ in range(n)] for _ in range(m)]
        lifted = [[lift.const(e) for e in row] for row in g]
        assert dense_rank(g, f5) == rank_by_minors(lifted, lift)


def _dense_rank(rows, field):
    """The dense Gauss elimination rank_over_field replaced, kept as its
    oracle: pivot = first nonzero entry in a row-major scan of the live
    block, and every live entry of every other row is updated."""
    M = [list(r) for r in rows]
    if not M or not M[0]:
        return 0
    live_rows = list(range(len(M)))
    live_cols = list(range(len(M[0])))
    rank = 0
    while live_rows and live_cols:
        piv = None
        for i in live_rows:
            for j in live_cols:
                if not field.is_zero(M[i][j]):
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        inv = field.inv(M[pi][pj])
        for i in live_rows:
            if i == pi:
                continue
            factor = field.mul(M[i][pj], inv)
            if field.is_zero(factor):
                continue
            for j in live_cols:
                M[i][j] = field.add(M[i][j], field.neg(field.mul(factor, M[pi][j])))
        live_rows.remove(pi)
        live_cols.remove(pj)
        rank += 1
    return rank


SMALL_FIELDS = [prime_field(2), make_extension(2, 2), prime_field(5), make_extension(3, 2), QQ]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_sparse_field_rank_matches_the_dense_oracle(field):
    # seeded products U*V of inner dimension r, up to 9x9, whose factors are
    # zero at each entry with probability 1 - density: low densities give
    # empty rows and columns, high ones fill-in that cancels
    elems = _field_elems(field)
    zero = field.zero
    rng = random.Random(101)
    ranks = set()
    for density in (0.15, 0.4, 0.7, 1.0):

        def factor(rows, cols):
            return [[rng.choice(elems) if rng.random() < density else zero for _ in range(cols)]
                    for _ in range(rows)]

        for _ in range(40):
            m, n, r = rng.randrange(1, 10), rng.randrange(1, 10), rng.randrange(0, 6)
            u, v = factor(m, r), factor(r, n)
            prod = [[zero] * n for _ in range(m)]
            for i in range(m):
                for t in range(r):
                    for j in range(n):
                        prod[i][j] = field.add(prod[i][j], field.mul(u[i][t], v[t][j]))
            before = [list(row) for row in prod]
            got = dense_rank(prod, field)
            assert got == _dense_rank(prod, field) <= min(m, n, r)
            assert prod == before  # the input grid is read, not changed
            ranks.add(got)
    assert ranks >= set(range(6))


@pytest.mark.parametrize("field", [prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_sparse_field_rank_edge_cases(field):
    one, zero = field.one, field.zero
    two = field.add(one, one)
    three = field.add(two, one)
    assert dense_rank([], field) == 0
    assert dense_rank([[]], field) == 0
    assert dense_rank([[zero] * 4 for _ in range(3)], field) == 0
    # the pivot's update cancels the other rows' entries: each row empties
    assert dense_rank([[one, one], [one, one], [two, two]], field) == 1
    # row 3 = row 1 + row 2: its fill-in in column 3 cancels to zero
    grid = [[one, two, zero], [zero, one, three], [one, three, three]]
    assert dense_rank(grid, field) == _dense_rank(grid, field) == 2
    grid[2][2] = one
    assert dense_rank(grid, field) == _dense_rank(grid, field) == 3
    assert dense_rank([[zero, one], [zero, zero], [one, zero]], field) == 2
