"""Exact linear algebra over polynomial rings and fields.

Oracle layout: elimination rank against exhaustive minor search; minor
enumeration against Leibniz-formula determinants; field rank against
matrices of planted rank r built as products of r-column factors.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from ghrv import matrix
from ghrv.complexes import cone_mul
from ghrv.errors import BoundExceeded
from ghrv.fields import QQ, make_extension, prime_field
from ghrv.matrix import (
    all_minors,
    mat_mul,
    mat_shape,
    rank_by_minors,
    rank_over_domain,
    sparse_rows,
)
from ghrv.pipelines import complete_resolution_of_k, fixture_k, realize, worked_ring
from ghrv.parser import parse_poly
from ghrv.poly import Poly, PolyRing, evaluator
from ghrv.ring import make_ring
from ghrv.serialize import load_complex, save_trace
from ghrv.variety import enumerate_points, extension_of

from dense import dense_minors, dense_product, dense_rank, grid_product, identity, image_grid, index_product


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
        assert rank_over_domain(sparse_rows(g), ring) == rank_by_minors(g, ring)


def test_rank_of_outer_products(ring):
    # u * v^T has rank exactly 1 when both are nonzero
    rng = random.Random(61)
    for _ in range(10):
        u = [[_random_poly(ring, rng, 2)] for _ in range(3)]
        v = [[_random_poly(ring, rng, 2) for _ in range(3)]]
        if all(e[0].is_zero() for e in u) or all(e.is_zero() for e in v[0]):
            continue
        g = grid_product(u, v, ring)
        assert rank_over_domain(sparse_rows(g), ring) == 1
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
            _assert_product(a, b, ring)

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
            dense = _assert_product(a, b, ring)
            if m == k:  # one grid on both sides
                _assert_product(a, a, ring)
            cancelled += sum(
                1 for i in range(m) for j in range(n)
                if not dense[i][j].terms and any(a[i][t].terms and b[t][j].terms for t in range(k))
            )
    assert cancelled > 0


def _assert_product(a, b, ring):
    """mat_mul of grids a and b, their entries indexed by value, is the
    sparse rows of their schoolbook product, term by term, with every entry
    that cancels left out; returns the schoolbook product."""
    dense = dense_product(a, b, ring)
    got = index_product(a, b, ring)
    want = sparse_rows(dense)
    assert got == want
    assert [[(j, e.terms) for j, e in row] for row in got] == [[(j, e.terms) for j, e in row] for row in want]
    return dense


def test_cancelled_entries_of_a_factorization_product_have_no_terms(ring5):
    # A*B = w*I: every off-diagonal sum in which nonzero products meet
    # cancels, so the sparse product is w alone in each row, on the
    # diagonal, with no entry whose terms cancelled (a constructor that
    # trusted its terms to be nonzero would keep them)
    C = complete_resolution_of_k(ring5)
    entries = C.pair_entries
    prod = mat_mul(entries.values, *entries.rows, ring5.ambient)
    assert prod == [[(i, ring5.w)] for i in range(C.size)]
    assert all(row[0][1].terms == ring5.w.terms for row in prod)
    cancelled = sum(any(not C.A[i][t].is_zero() and not C.B[t][j].is_zero() for t in range(C.size))
                    for i in range(C.size) for j in range(C.size) if i != j)
    assert cancelled > 0


# Monic values for the scalar-multiple grids: x1 * (x1*x2) and x1^2 * x2
# are one monomial reached by two monic pairs, and so are x1 * (x2*y) and
# (x1*x2) * y, so two keys that both survive can cancel as polynomials.
_UNITS = ("x1", "x2", "x1*x2", "x1^2", "y", "x2*y", "x1 + x2", "x1*y + x2^2", "1")


@pytest.mark.parametrize("field", [prime_field(2), make_extension(2, 2), prime_field(5),
                                   make_extension(3, 2), QQ], ids=str)
def test_mat_mul_sums_scalar_multiples_per_monic_pair(field, monkeypatch):
    # mat_mul writes each value as c * u with u monic and sums the field
    # coefficients c * c' per (column, unordered monic pair) before it forms
    # any polynomial: seeded grids whose entries are scalar multiples of a
    # few monic values (x1, 2*x1 and -x1 share u = x1), against the
    # schoolbook product, term by term.  Each call inverts each distinct
    # leading coefficient other than one once.
    ring = PolyRing(field, ("x1", "x2"), ("y",))
    units = [parse_poly(ring, u) for u in _UNITS]
    elems = _field_elems(field)
    rng = random.Random(f"monic pairs {field}")
    inverted = []
    inv = field.inv
    monkeypatch.setattr(field, "inv", lambda c: inverted.append(c) or inv(c))
    shared = cancelled = 0
    for _ in range(200):
        m, k, n = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a, b = ([[rng.choice(units).scale(rng.choice(elems)) if rng.random() < 0.6 else ring.zero()
                  for _ in range(cols)] for _ in range(rows)] for rows, cols in ((m, k), (k, n)))
        inverted.clear()
        dense = _assert_product(a, b, ring)
        values = [e for grid in (a, b) for row in grid for e in row if e.terms]
        assert sorted(map(str, inverted)) == sorted(map(str, {e.leading_coeff() for e in values} - {field.one}))
        shared += len(set(values)) > len({e.monic() for e in values})
        cancelled += sum(1 for i in range(m) for j in range(n)
                         if not dense[i][j].terms and any(a[i][t].terms and b[t][j].terms for t in range(k)))
    assert cancelled > 0 and (shared > 100 or len(elems) == 1)  # GF(2) has no other scalar

    # keys that both survive and cancel only as polynomials:
    # x1 * (x1*x2) - x1^2 * x2 at (0, 0) and x1 * (x2*y) - (x1*x2) * y at
    # (0, 1); with x2 in place of x2*y, entry (0, 1) is x1*x2 - x1*x2*y
    x1, x2, y = (parse_poly(ring, v) for v in ("x1", "x2", "y"))
    minus = field.neg(field.one)
    a = [[x1, x1 * x1, x1 * x2]]
    b = [[x1 * x2, x2 * y], [x2.scale(minus), ring.zero()], [ring.zero(), y.scale(minus)]]
    monkeypatch.undo()
    added = []
    add_scaled = matrix._add_scaled
    monkeypatch.setattr(matrix, "_add_scaled", lambda *args: added.append(args[1]) or add_scaled(*args))
    assert index_product(a, b, ring) == [[]]
    assert len(added) == 4  # four surviving keys, two per entry, whose sums are zero
    b[0][1] = x2
    monkeypatch.undo()
    assert index_product(a, b, ring) == [[(1, x1 * x2 - x1 * x2 * y)]]
    _assert_product(a, b, ring)


def test_a_loaded_32x32_trace_sums_polynomials_for_its_diagonal_keys_only(ring5, tmp_path, monkeypatch):
    # A*B = w*I with w = x1*x^2 + x2*y^2: in each row of the certifying
    # product the two keys (i, {x1, x^2}) and (i, {x2, y^2}) survive, and
    # every off-diagonal key cancels as +-c u u' -+ c u' u on its field
    # coefficient, so the product forms polynomial sums for the 64 diagonal
    # keys only, two monic products in all, where hundreds of pairs of
    # values meet
    path = tmp_path / "trace.json"
    save_trace(realize(ring5, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False), path)
    C = load_complex(path)
    entries = C.pair_entries
    meetings = sum(len(entries.rows[1][col]) for row in entries.rows[0] for col, _ in row)
    added, products = [], []
    add_scaled, poly_mul = matrix._add_scaled, Poly.__mul__
    monkeypatch.setattr(matrix, "_add_scaled", lambda *args: added.append(args[1]) or add_scaled(*args))
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or poly_mul(p, q))
    assert C.size == 32 and C.is_factorization
    assert len(added) == 64 and meetings > 400
    assert {frozenset(terms) for terms in added} == {frozenset([m]) for m in ring5.w.terms}
    assert len(products) == 2


def test_rank_matches_minor_search_on_sparse_grids(ring):
    # sparse grids, and sparse products of planted inner dimension r, so that
    # elimination meets zero entries, zero cross terms and true cancellation
    rng = random.Random(89)
    elems = [ring.field.from_int(k) for k in range(1, 5)]
    for _ in range(30):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        g = _sparse_grid(ring, rng, m, n, elems)
        assert rank_over_domain(sparse_rows(g), ring) == rank_by_minors(g, ring)
        r = rng.randrange(1, 4)
        u = _sparse_grid(ring, rng, m, r, elems, density=0.5)
        v = _sparse_grid(ring, rng, r, n, elems, density=0.5)
        g = grid_product(u, v, ring)
        assert rank_over_domain(sparse_rows(g), ring) == rank_by_minors(g, ring) <= r


def _seeded_poly(ring, rng, elems, nterms):
    """A polynomial of exactly nterms terms, exponents below 3."""
    terms = {}
    while len(terms) < nterms:
        terms[tuple(rng.randrange(3) for _ in range(ring.nvars))] = rng.choice(elems)
    return Poly(ring, terms)


def _alone_grid(ring, rng, elems, b_terms):
    """A 4x4 grid of rank 4 whose one-term pivots are each alone in their
    columns when taken:

        [x, 0,   0,   0]      x, u, q, a of one term, y of two,
        [y, 0,   u,   0]      c a nonzero scalar, b of b_terms terms
        [0, q,   a,   0]
        [0, c*q, c*a, b]

    With a one-term b the pivots are b, q, u and x, each alone in its
    column when taken, so no row is ever touched.  With b of two terms, step 1 takes x and row
    1 loses y; step 2 takes q, and row 3's column-2 entry cancels, since it
    is c times row 2 there, so that column's count falls to one; u is then
    alone in its column, and b is left for the second phase, alone."""

    poly = partial(_seeded_poly, ring, rng, elems)
    x, y, u, q, a, b = poly(1), poly(2), poly(1), poly(1), poly(1), poly(b_terms)
    c = rng.choice(elems)
    zero = ring.zero()
    return [[x, zero, zero, zero], [y, zero, u, zero], [zero, q, a, zero],
            [zero, q.scale(c), a.scale(c), b]]


def _catch_up_grid(ring, rng, elems, lag_terms):
    """A 4x4 grid whose first two pivots are A and E when they have one
    term, and which is Bareiss's alone when they have more:

        [A, 0, 0, B]      A and E of lag_terms terms,
        [C, 0, D, 0]      every other entry of two
        [0, E, 0, F]
        [0, G, H, K]

    With one-term A and E, row 1 becomes [D, -C*B/A] and row 3 [H, K -
    G*F/E], with negative exponents where A and E do not divide, and the
    second phase ranks those two rows."""

    poly = partial(_seeded_poly, ring, rng, elems)
    zero = ring.zero()
    A, E = poly(lag_terms), poly(lag_terms)
    return [[A, zero, zero, poly(2)], [poly(2), zero, poly(2), zero], [zero, E, zero, poly(2)],
            [zero, poly(2), poly(2), poly(2)]]


def _lagging_grid(ring, rng, elems, extra, tail, dependent):
    """A grid whose one-term pivots leave multi-term rows for the second
    phase.

    Rows 0..3 hold one one-term entry each, on the diagonal of columns 0..3;
    every other entry in columns 0..4 has two terms, except row 5's in
    column 4.  Rows 4..8 fill columns 0..4 so that each holds four entries
    (row 4: 0, 3, 4; row 5: 0, 4; row 6: 0..4; row 7: 1..4; row 8: 1, 2),
    and each of the `extra` further rows, and the `dependent` one, adds one
    to every column.  The pivot rule of rank_over_domain (one term, then
    column count, then row width, then row order) therefore takes rows 0..3
    at steps 1 to 4, each of width 1, so a touched row only loses the
    pivot's column.  Row 5's column-4 entry, then the one one-term entry
    left, is the pivot of step 5, and its row's `tail` entries, scaled by
    the inverse of that monomial, are added into the rows with an entry in
    column 4.  `tail` columns after column 4 are filled at random in rows 4
    on, and what is left of them goes to the second phase; with `dependent`
    a last row is a combination of rows 6 and 7, so the grid is rank
    deficient when it is not tall."""

    poly = partial(_seeded_poly, ring, rng, elems)
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
def test_sparse_rank_through_both_phases_matches_minor_search(field, monkeypatch):
    # One-term pivots first, then Bareiss on the rows they leave (see
    # _lagging_grid), on tall, square and wide shapes, full rank and
    # deficient; the transpose has the same rank and takes other pivots.
    # A wrapper on the second phase's update sees it reached, and dividing
    # by an earlier pivot.
    ring = PolyRing(field, ("a", "b"), ("t",))
    elems = _field_elems(field)
    rng = random.Random(107)
    divisors = []
    update = matrix._bareiss_update

    def recording_update(*args):
        divisors.append(args[5])
        return update(*args)

    monkeypatch.setattr(matrix, "_bareiss_update", recording_update)
    shapes = set()
    for extra, tail, dependent in [(0, 1, False), (1, 0, False), (0, 4, False), (0, 5, True),
                                   (0, 6, True), (1, 2, True), (2, 1, False)] * 2:
        g = _lagging_grid(ring, rng, elems, extra, tail, dependent)
        m, n = mat_shape(g)
        want = rank_by_minors(g, ring)
        divisors.clear()
        assert rank_over_domain(sparse_rows(g), ring) == want
        if tail > 3:
            assert any(d is not None for d in divisors)  # the second phase's exact divisions
        assert rank_over_domain(sparse_rows(list(zip(*g))), ring) == want
        shapes.add((m == n, want < min(m, n)))
    assert shapes >= {(False, False), (False, True), (True, True)}
    # one-term pivots alone in their columns, and a cancellation that lowers
    # a column's count; a grid that reaches the second phase after one-term
    # pivots (one-term A and E), and one that is Bareiss's alone
    for build, terms in [(_alone_grid, 1), (_alone_grid, 2), (_catch_up_grid, 1),
                         (_catch_up_grid, 2)] * 2:
        g = build(ring, rng, elems, terms)
        want = rank_by_minors(g, ring)
        divisors.clear()
        assert rank_over_domain(sparse_rows(g), ring) == want
        if build is _alone_grid:
            assert want == 4 and divisors == []
        else:
            assert divisors and (terms == 1) == (divisors == [None] * len(divisors))
        assert rank_over_domain(sparse_rows(list(zip(*g))), ring) == want
    # a pivot that does not divide the update raises, as exact_div would:
    # (a * 1) / b
    a, b = ring.variable("a"), ring.variable("b")
    with pytest.raises(ArithmeticError, match="^inexact division: remainder a$"):
        update(ring, list(a.terms.items()), ring.one(), [], None, b)


def _phase_grid(ring, rng, elems, kind, m, n):
    """An m x n seeded grid of one kind, and a last row that is a
    combination of two others by one-term multipliers when m > 1, so that
    it is rank deficient when it is not tall: "units", one-term entries only;
    "mixed", one to three terms; "no unit", two or three terms, so only the
    second phase runs; "units then Bareiss", a one-term entry on the
    diagonal of the first min(m, n) - 3 rows and entries of two or three
    terms about it, so the one-term pivots scale multi-term entries by
    Laurent monomials and leave them, shifted, to the second phase."""
    if kind in ("units", "mixed"):
        grid = _sparse_grid(ring, rng, m, n, elems, density=0.5, max_terms=1 if kind == "units" else 3)
    else:
        zero = ring.zero()
        grid = [[_seeded_poly(ring, rng, elems, rng.randrange(2, 4)) if rng.random() < 0.6 else zero
                 for _ in range(n)] for _ in range(m)]
    if kind == "units then Bareiss":
        for i in range(min(m, n) - 3):
            grid[i][i] = _seeded_poly(ring, rng, elems, 1)
    if m > 1:
        i, j = rng.sample(range(m), 2)
        x, y = _seeded_poly(ring, rng, elems, 1), _seeded_poly(ring, rng, elems, 1)
        grid.append([x * p + y * q for p, q in zip(grid[i], grid[j])])
    return grid


@pytest.mark.parametrize("field", [prime_field(3), make_extension(3, 2), QQ], ids=str)
def test_rank_by_unit_pivots_matches_minor_search(field, monkeypatch):
    # seeded grids of each kind (_phase_grid) and their transposes against
    # the minor oracle; a grid with no one-term entry forms no scaled pivot
    # row, and the last kind makes exact divisions in the second phase.  A
    # two-term pivot taken as a unit breaks the planted dependency.
    ring = PolyRing(field, ("a", "b"), ("t",))
    elems = _field_elems(field)
    rng = random.Random(f"unit pivots {field}")
    scaled, divisors = [], []
    mul, update = Poly.__mul__, matrix._bareiss_update
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: scaled.append(p) or mul(p, q))
    monkeypatch.setattr(matrix, "_bareiss_update", lambda *args: divisors.append(args[5]) or update(*args))
    divided = 0
    for kind in ("units", "mixed", "no unit", "units then Bareiss"):
        low = 4 if kind == "units then Bareiss" else 1
        for _ in range(12):
            m, n = rng.randrange(low, 6), rng.randrange(low, 6)
            g = _phase_grid(ring, rng, elems, kind, m, n)
            want = rank_by_minors(g, ring)
            for grid in (g, list(zip(*g))):
                scaled.clear()
                divisors.clear()
                assert rank_over_domain(sparse_rows(grid), ring) == want
                if not any(len(e.terms) == 1 for row in grid for e in row):
                    assert scaled == []
                if kind == "units then Bareiss":
                    divided += any(d is not None for d in divisors)
    assert divided > 3


def test_unit_pivots_count_the_fill_in(ring, monkeypatch):
    # [a, 0,   0  ]    column counts 3, 2, 2: step 1 takes t, the first
    # [b, 0,   t  ]    one-term entry of least (column count, row width),
    # [0, a*b, a*t]    and row 2 - a * row 1 fills column 0 with -a*b, so
    # [1, b,   0  ]    column 0 still holds three entries; step 2 takes a*b
    # (count 2) before a (count 3, alone in its row) and scales its row's
    # -a*b.  A count that missed the fill-in would take a, and scale nothing
    # at step 2.
    a, b, t = (ring.variable(v) for v in ("a", "b", "t"))
    zero = ring.zero()
    ab = a * b
    g = [[a, zero, zero], [b, zero, t], [zero, ab, a * t], [ring.one(), b, zero]]
    scaled = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: scaled.append(p) or mul(p, q))
    assert rank_over_domain(sparse_rows(g), ring) == 3
    assert scaled == [b, -ab]


def test_zero_and_identity_ranks(ring):
    assert rank_over_domain(sparse_rows([[ring.zero()] * 4] * 3), ring) == 0
    assert rank_over_domain([[], [], []], ring) == 0
    assert rank_over_domain(sparse_rows(identity(ring, 4)), ring) == 4


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
        got = list(dense_minors(grid, r, ring))
        want = _nonzero_minors_by_leibniz(grid, r, ring)
        assert got == want, (r, m, n)
        assert all(g.terms == w.terms for g, w in zip(got, want))
        # each minor keeps its wedge's terms unfiltered: none may be zero
        assert not any(ring.field.is_zero(c) for g in got for c in g.terms.values())


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
    g = grid_product(u, v, ring)
    _assert_minors_match_leibniz(g, ring)
    assert list(dense_minors(g, 2, ring)) == []


def test_all_minors_on_the_resolution_of_k_pencils(ring5):
    C = complete_resolution_of_k(ring5)
    for grid in (image_grid(ring5, C.A), image_grid(ring5, C.B)):
        assert mat_shape(grid) == (8, 8)
        _assert_minors_match_leibniz(grid, ring5.kx)


def test_all_minors_counts(ring):
    g = _random_grid(ring, random.Random(67), 3, 4)
    nonzero = _nonzero_minors_by_leibniz(g, 2, ring)
    assert len(nonzero) == 3 * 6 - 4  # four of the eighteen 2 x 2 minors vanish
    assert len(list(dense_minors(g, 2, ring))) == len(nonzero)
    assert len(list(dense_minors(g, 5, ring))) == 0
    assert list(dense_minors(g, 0, ring)) == [ring.one()]
    # C(12, 6)^2 = 853,776 minors are enumerated; C(13, 6)^2 = 2,944,656
    # exceed MAX_MINORS and are refused before the first one is computed.
    assert next(dense_minors(identity(ring, 12), 6, ring)) == ring.one()
    with pytest.raises(BoundExceeded):
        next(dense_minors(identity(ring, 13), 6, ring))


def test_all_minors_take_sparse_rows(ring, monkeypatch):
    # Rows come as the (column, entry) pairs of their nonzero entries and
    # the column count is given: a row with no pairs is a zero row, and
    # trailing zero columns count toward the cap.  The cap refuses before
    # any wedge, so no field product is formed.
    a, b, t = (ring.variable(v) for v in ("a", "b", "t"))
    rows = [[(0, a), (3, t)], [], [(1, b), (3, a)]]
    assert sparse_rows([[a, ring.zero(), ring.zero(), t], [ring.zero()] * 4, [ring.zero(), b, ring.zero(), a]]) == rows
    assert list(all_minors(rows, 5, 1, ring)) == [a, t, b, a]
    assert list(all_minors(rows, 5, 2, ring)) == [a * b, a * a, -(b * t)]
    assert list(all_minors(rows, 5, 3, ring)) == []
    assert list(all_minors(rows, 2, 3, ring)) == []  # r above the column count
    products = []
    mul = type(ring.field).mul
    monkeypatch.setattr(type(ring.field), "mul", lambda *args: products.append(1) or mul(*args))
    unit_rows = [[(i, ring.one())] for i in range(13)]
    with pytest.raises(BoundExceeded, match="^2944656 minors of size 6 in a 13x13 matrix exceed the cap of 1000000$"):
        next(all_minors(unit_rows, 13, 6, ring))
    with pytest.raises(BoundExceeded, match="^1000016 minors of size 1 in a 1x1000016 matrix"):
        next(all_minors(unit_rows[:1], 10**6 + 16, 1, ring))
    assert products == []


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


def _pencil_grids(C, pt):
    """Both residue grids of C at the point pt, dense, from the scalars
    residue_ranks ranks: each distinct pencil entry evaluated once."""
    at = evaluator(C.ring.kx, dict(zip(C.ring.xvars, pt.coords)), pt.field)
    return list(C.pencil_entries.grids([at(e) for e in C.pencil_entries.values], pt.field.zero))


def _engine_pencils():
    """(label, complex, points): Shamash tails over GF(3) for (c, d) up to
    (3, 4), f_i = y_i^2, the realize stages 8, 16, 32, 64 over GF(5) and
    the same cones on fixture_k; each at every point of P^(c-1)(F_q) and at a seeded sample of
    P^(c-1)(F_(q^2))."""
    rng = random.Random(353)
    out = []
    f3 = prime_field(3)
    for c, d in ((2, 2), (2, 3), (3, 3), (3, 4)):
        ys = tuple(f"y{i}" for i in range(1, d + 1))
        ring = make_ring(f3, yvars=ys, xvars=tuple(f"x{i}" for i in range(1, c + 1)),
                         f=tuple(f"{y}^2" for y in ys[:c]))
        tail = complete_resolution_of_k(ring)
        pts = enumerate_points(f3, c) + rng.sample(enumerate_points(extension_of(f3, 2), c), 3)
        out.append((f"tail c={c} d={d}", tail, pts))
    ring5 = worked_ring(prime_field(5))
    scalars = [ring5.parse(p) for p in ("x1 + 2*x2", "x1^2 + x2^2", "x1*x2")]
    trace = realize(ring5, scalars, verify=False)
    pts = enumerate_points(ring5.field, 2) + rng.sample(enumerate_points(extension_of(ring5.field, 2), 2), 4)
    for i, stage in enumerate(trace.stages):
        out.append((f"realize stage {i}", stage.complex, pts))
    # the same cones on fixture_k, whose variety is everything: a cone is
    # not contractible where its scalars vanish, so some ranks fall
    C = fixture_k(ring5)
    for i, p in enumerate(scalars):
        C = cone_mul(C, p)
        out.append((f"cone {i + 1} on k", C, pts))
    return out


def test_field_rank_matches_the_dense_oracle_on_engine_pencils():
    # the pencils that verdicts and realize's check rank: sizes 4 to 64, sparse
    # rows of few entries, over GF(q) and GF(q^2), contractible at some
    # points and not at others
    sizes, noncontractible = set(), 0
    for label, C, pts in _engine_pencils():
        sizes.add(C.size)
        for pt in pts:
            ranks = [dense_rank(grid, pt.field) for grid in _pencil_grids(C, pt)]
            assert ranks == [_dense_rank(grid, pt.field) for grid in _pencil_grids(C, pt)], f"{label} at {pt}"
            noncontractible += sum(ranks) < C.size
    assert sizes == {4, 8, 16, 32, 64}
    assert noncontractible > 0


def _insertion_cases(field):
    """Grids that reach each branch of the insertion, with their ranks:
    a row colliding with a longer stored pivot, which it displaces; a
    displaced pivot that keys a new column; one that reduces to zero; and a
    displaced pivot that displaces the next pivot in turn."""
    one, zero = field.one, field.zero
    two = field.add(one, one)
    n1 = field.neg(one)
    return [
        # [1 1 1] is displaced by [1 1 0] and keys column 2 as [0 0 1]
        ([[one, one, one], [one, one, zero]], 2),
        # [1 1 1] is displaced by [1 0 1]; their difference [0 1 0] keys a new column
        ([[one, one, one], [one, zero, one], [zero, zero, one]], 3),
        # displaced [1 1 1] -> [0 0 1] meets the stored [0 0 -1] and empties
        ([[zero, zero, n1], [one, one, one], [one, one, zero]], 2),
        # the displaced [1 1 1 1] -> [0 1 1 0] is shorter than the stored
        # [0 1 1 1] and displaces it in turn; that one keys column 3
        ([[zero, one, one, one], [one, one, one, one], [one, zero, zero, one]], 3),
        # a chain that cancels: row 3 = row 1 - row 2, and row 4 = -row 1
        ([[one, two, zero, one], [zero, one, one, zero], [one, one, n1, one], [n1, field.neg(two), zero, n1]], 2),
    ]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_field_rank_insertion_branches_and_seeded_matrices(field):
    for grid, rank in _insertion_cases(field):
        assert dense_rank(grid, field) == _dense_rank(grid, field) == rank, grid
    # seeded sparse matrices of a few entries per row (collisions with
    # longer pivots and displaced pivots are common), and dense ones
    elems = _field_elems(field)
    nonzero = [e for e in elems if e != field.zero]
    rng = random.Random(409)
    for m, n, per_row in ((12, 12, 2), (24, 24, 3), (40, 32, 4), (20, 40, 3), (16, 16, 16), (9, 14, 14)):
        for _ in range(6):
            grid = [[field.zero] * n for _ in range(m)]
            for row in grid:
                for j in rng.sample(range(n), rng.randrange(per_row + 1)):
                    row[j] = rng.choice(nonzero)
            if rng.random() < 0.5:  # a dependent row: a combination of two others
                a, b, s = rng.randrange(m), rng.randrange(m), rng.choice(nonzero)
                grid[rng.randrange(m)] = [field.add(x, field.mul(s, y)) for x, y in zip(grid[a], grid[b])]
            assert dense_rank(grid, field) == _dense_rank(grid, field)


class _CountingField:
    """A field that counts its add, mul, neg and inv calls."""

    def __init__(self, field):
        self.zero, self.one = field.zero, field.one
        self.calls = dict.fromkeys(("add", "mul", "neg", "inv"), 0)
        for name in self.calls:
            setattr(self, name, self._counted(name, getattr(field, name)))

    def _counted(self, name, fn):
        def counted(*args):
            self.calls[name] += 1
            return fn(*args)
        return counted


@pytest.mark.parametrize("field", [prime_field(5), make_extension(3, 2), QQ], ids=str)
def test_field_rank_operation_counts(field):
    one, zero = field.one, field.zero
    two = field.add(one, one)
    # rows with distinct least columns, given in any order, each store a
    # pivot and meet none: no field operation at all
    rng = random.Random(5)
    grid = [[zero] * i + [rng.choice([one, two]) for _ in range(8 - i)] for i in range(8)]
    rng.shuffle(grid)
    counting = _CountingField(field)
    assert dense_rank(grid, counting) == 8
    assert counting.calls == dict.fromkeys(("add", "mul", "neg", "inv"), 0)
    # each pivot is inverted on its first use only: row 0 is e_0 + e_1 and
    # row i > 0 is e_0 + e_(i+1), which meets the pivots of columns 0 .. i-1
    # (each a difference e_k - e_(k+1) up to sign, never shorter than the
    # row) and is stored at column i: 9 pivots, the first 8 inverted once,
    # where a pivot inverted per use would cost 1 + 2 + .. + 8
    grid = [[one if j in (0, i + 1) else zero for j in range(10)] for i in range(9)]
    counting = _CountingField(field)
    assert dense_rank(grid, counting) == 9
    assert counting.calls["inv"] == counting.calls["neg"] == 8
    # a displacement stores one pivot more: [1 1 1] is stored, displaced by
    # [1 1 0] and stored again as [0 0 1]; of the three pivots stored only
    # [1 1 0] is used, and inverted once
    grid, rank = _insertion_cases(field)[0]
    counting = _CountingField(field)
    assert dense_rank(grid, counting) == rank
    assert counting.calls["inv"] == 1
