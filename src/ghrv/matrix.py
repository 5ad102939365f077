"""Exact matrix algebra over the ambient polynomial ring and over fields.

A matrix is a rectangular tuple-of-tuples grid; a periodic pair is two such
grids plus its generator degrees (complexes.PeriodicComplex), and keeps them
by their distinct nonzero entries as well (complexes.DistinctEntries): its
values, and rows of (column, index) pairs.  mat_mul multiplies two matrices
given that way, over one tuple of values.  A pair's rows repeat few values
at many positions, and many of its values are scalar multiples of one
another, so mat_mul writes each value once as c * u with u monic and sums
the field coefficients c * c' per (output column, unordered monic pair)
before it forms any polynomial: a product u * u' is formed once per call,
and only where its summed coefficient is nonzero.  The other routines here
that read polynomial entries, but for the rank_by_minors oracle, take a
matrix by sparse rows, the (column, entry) pairs of each row's nonzero
entries by ascending column, which a pair hands out over its distinct
entries and a caller holding a dense grid converts at the edge
(sparse_rows), and their callers' per-entry passes run once per distinct
object.  The polynomial rank (rank_over_domain) eliminates on sparse rows
with pivots chosen against fill-in, in two phases.  A one-term pivot is a
unit of the Laurent ring, which has the ambient ring's fraction field, so
it clears its column by plain row subtraction, with no scaling and no
division; only the rows it meets are touched.  When no entry has one
term, the rows left are shifted back to polynomial rows by monomials and
ranked by textbook fraction-free (Bareiss) elimination, each division
exact by the minor identity and done by exact_div (divide_single with a
zero remainder).

Minor enumeration takes exterior products of sparse rows, v_i1 ^ .. ^ v_ir,
whose coefficients are the r x r minors on those rows; only nonzero
coefficients are kept, so a sparse matrix costs in proportion to its
nonzero minors rather than to all of them, and each nonzero minor is built
as a polynomial once, from its wedge's terms.

The one field-level routine is rank (rank_over_field).  It inserts rows
given as dicts of their nonzero scalars into an echelon of pivots keyed by
least column, so a row is reduced only by the pivots it meets, and the
shorter of two rows sharing a least column is kept as the pivot; it costs
in proportion to the nonzero scalars it touches.  Its callers hold a
matrix by its nonzero entries, as a verdict at a point holds the residue
pencil and the oracle holds A and B, and build those dicts directly; no
dense grid of field scalars is formed.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb, inf
from operator import add as _mono_add, sub as _mono_sub
from typing import Sequence

from .errors import BoundExceeded
from .fields import Field
from .poly import Poly, PolyRing, exact_div

Grid = tuple[tuple[Poly, ...], ...]

# all_minors refuses a minor size with more than this many minors, zero or
# not, before computing any: the fail-fast bound on the count, since a dense
# 12x12 at r = 6 (853,776 minors) already takes seconds.
MAX_MINORS = 10**6


def as_grid(rows: Sequence[Sequence[Poly]]) -> Grid:
    grid = tuple(tuple(r) for r in rows)
    if grid and any(len(r) != len(grid[0]) for r in grid):
        raise ValueError("ragged matrix")
    return grid


def mat_shape(rows: Sequence[Sequence[Poly]]) -> tuple[int, int]:
    grid = as_grid(rows)
    return (len(grid), len(grid[0]) if grid else 0)


def sparse_rows(rows: Sequence[Sequence[Poly]]) -> list[list[tuple[int, Poly]]]:
    """The rows of a grid as the routines here take them: each the list of
    (column, entry) pairs of its nonzero entries, by ascending column."""
    return [[(j, e) for j, e in enumerate(row) if e.terms] for row in as_grid(rows)]


def mat_mul(values, left, right, ring: PolyRing) -> list[list[tuple[int, Poly]]]:
    """The product of two matrices over the distinct nonzero `values` of a
    pair, each matrix given by rows of (column, index) pairs as
    DistinctEntries.rows holds them (entry (i, j) is values[k] for (j, k)
    in row i), as sparse rows (sparse_rows).

    Each value is written once as c * u, with u monic, so scalar multiples
    share one u, and each distinct leading coefficient is inverted once per
    call.  Row i of left*right meets left's (col, k) with right's
    (j, k') over row col of right, and each meeting adds c_k * c_k' to the
    field coefficient of the key (j, {u, u'}), the output column and the
    unordered pair of monic values; the pair {u, u'} and c_k * c_k' are
    formed once per call for each two values that meet.  Only a key whose
    summed coefficient is nonzero forms a polynomial: u * u' is formed once
    per call, on first need, and its scaled terms are added into entry
    (i, j).  A matrix factorization's off-diagonal keys cancel as
    c u u' - c u' u before any polynomial exists.  Each entry is summed in
    one monomial -> coefficient dict, whose zero coefficients are dropped
    once, and becomes one Poly unless nothing is left: keys that survive
    may still cancel as polynomials."""
    fld = ring.field
    add, mul, is_zero = fld.add, fld.mul, fld.is_zero
    units: dict[Poly, int] = {}  # each distinct monic value -> its index
    scale, unit = [], []  # values[k] = scale[k] * monics[unit[k]]
    inverses: dict = {}  # each leading coefficient met -> its inverse
    for v in values:
        u = v.monic(inverses)
        scale.append(v.terms[u.leading_monomial()])
        unit.append(units.setdefault(u, len(units)))
    monics = tuple(units)
    # meets[k][k2]: the monic pair (a, b), a <= b, of values[k] * values[k2]
    # and its coefficient, formed the first time the two values meet
    meets: list[dict] = [{} for _ in values]
    products: dict[tuple[int, int], dict] = {}  # (a, b) -> the terms of monics[a] * monics[b]
    out = []
    for row in left:
        sums: dict = {}  # (j, (a, b)) -> summed coefficient
        for col, k in row:
            met = meets[k]
            for j, k2 in right[col]:
                pair = met.get(k2)
                if pair is None:
                    a, b = unit[k], unit[k2]
                    pair = met[k2] = ((a, b) if a <= b else (b, a), mul(scale[k], scale[k2]))
                key = (j, pair[0])
                s = pair[1]
                sums[key] = add(sums[key], s) if key in sums else s
        entries: dict[int, dict] = {}  # column -> its terms
        for (j, ab), s in sums.items():
            if not is_zero(s):
                prod = products.get(ab)
                if prod is None:
                    prod = products[ab] = (monics[ab[0]] * monics[ab[1]]).terms
                _add_scaled(entries.setdefault(j, {}), prod, s, fld)
        new = []
        for j in sorted(entries):
            terms = {mono: c for mono, c in entries[j].items() if not is_zero(c)}
            if terms:
                new.append((j, Poly._of_nonzero(ring, terms)))
        out.append(new)
    return out


def _add_scaled(acc: dict, terms: dict, s, fld: Field) -> None:
    """acc += s * terms, on monomial -> coefficient dicts, in place."""
    add, mul = fld.add, fld.mul
    for mono, c in terms.items():
        c = mul(s, c)
        acc[mono] = add(acc[mono], c) if mono in acc else c


# ---------------------------------------------------------------------------
# minors and ranks
# ---------------------------------------------------------------------------

def all_minors(rows: Sequence[Sequence[tuple[int, Poly]]], ncols: int, r: int, ring: PolyRing):
    """Yield every nonzero r x r minor determinant of the matrix with ncols
    columns whose sparse rows are `rows` (sparse_rows), in ascending
    lexicographic order of (row set, column set); zero minors are left out.

    Row subsets i1 < .. < ik are walked depth first, keeping the exterior
    product w = v_i1 ^ .. ^ v_ik of their rows as a dict from a sorted
    column tuple to the terms of its nonzero coefficient, which is the minor
    on those rows and columns.  A prefix whose w is empty is pruned, since
    every minor through it is zero.  Each wedge keeps only nonzero
    coefficients, so each minor is a Poly on its wedge's terms, built once
    with no second filter.  r = 0 yields the one empty minor, 1.

    Raises BoundExceeded, before any minor is computed, when there are more
    than MAX_MINORS r x r minors, zero or not."""
    m, n = len(rows), ncols
    if r < 0 or r > min(m, n):
        return
    count = comb(m, r) * comb(n, r)
    if count > MAX_MINORS:
        raise BoundExceeded(
            f"{count} minors of size {r} in a {m}x{n} matrix exceed the cap of {MAX_MINORS}"
        )
    if r == 0:
        yield ring.one()
        return
    fld = ring.field
    add, mul, neg, is_zero = fld.add, fld.mul, fld.neg, fld.is_zero
    row_entries = [[(j, e.terms) for j, e in row] for row in rows]

    def wedge(w: dict, entries: list) -> dict:
        # w ^ v: coefficient w_S v_j lands on S + {j} with sign
        # (-1)^(number of columns in S greater than j), the Laplace expansion
        # of the new minor along its last row.
        sums: dict = {}
        for cols, w_terms in w.items():
            k = len(cols)
            for j, v_terms in entries:
                pos = bisect_left(cols, j)
                if pos < k and cols[pos] == j:
                    continue
                acc = sums.setdefault(cols[:pos] + (j,) + cols[pos:], {})
                odd = (k - pos) % 2
                for m1, c1 in w_terms.items():
                    for m2, c2 in v_terms.items():
                        mono = tuple(map(_mono_add, m1, m2))
                        c = neg(mul(c1, c2)) if odd else mul(c1, c2)
                        acc[mono] = add(acc[mono], c) if mono in acc else c
        out = {}
        for cols, acc in sums.items():
            terms = {mono: c for mono, c in acc.items() if not is_zero(c)}
            if terms:
                out[cols] = terms
        return out

    def walk(start: int, depth: int, w: dict):
        for i in range(start, m - r + depth + 1):
            ext = wedge(w, row_entries[i])
            if not ext:
                continue
            if depth + 1 == r:
                for cols in sorted(ext):
                    yield Poly._of_nonzero(ring, ext[cols])
            else:
                yield from walk(i + 1, depth + 1, ext)

    yield from walk(0, 0, {(): {(0,) * ring.nvars: fld.one}})


def _bareiss_update(ring: PolyRing, pivot_terms, e: Poly | None, neg_m_terms, f: Poly | None,
                    prev: Poly | None) -> Poly:
    """(pivot * e - m * f) / prev as one Poly, for rank_over_domain's second
    phase: the pivot and -m come as term lists, e or f is None for zero and
    prev None for one.  The products are summed in one monomial ->
    coefficient dict, and the division is exact_div."""
    fld = ring.field
    add, mul = fld.add, fld.mul
    acc: dict = {}
    for left, right in ((pivot_terms, e), (neg_m_terms, f)):
        if right is None:
            continue
        for m1, c1 in left:
            for m2, c2 in right.terms.items():
                mono = tuple(map(_mono_add, m1, m2))
                c = mul(c1, c2)
                acc[mono] = add(acc[mono], c) if mono in acc else c
    return Poly(ring, acc) if prev is None else exact_div(Poly(ring, acc), prev)


def rank_over_domain(rows, ring: PolyRing) -> int:
    """Rank over the fraction field of the (integral) ambient ring of the
    matrix with sparse rows `rows` (sparse_rows), by elimination on rows
    kept as dicts of their nonzero entries, in two phases.  Each pivot is
    chosen against fill-in (Markowitz): it minimizes (term count, live
    entries in its column, entries in its row), the first such entry in
    row order winning a tie, and the count of live entries in each column
    is kept up to date through fill-in and cancellation.  Any pivot order
    is an elimination of a permuted matrix, so the rank does not depend on
    it.

    Phase 1 runs while some live entry has one term, so each pivot is a
    monomial p = c * x^a: a unit of the Laurent ring k[vars^(+-1)], a
    localization of the ambient ring with the same fraction field.  So the
    rank does not change when each row with an entry e in the pivot's
    column becomes row - (e / p) * pivot_row; no other row is touched.  The
    pivot row is scaled by -1/p once, one Poly product per entry, and each
    touched entry sums its products in one monomial -> coefficient dict.
    Exponents may go negative, and there is no scaling or division.  After
    k steps each entry is the (k+1)-minor that Bareiss would hold there
    times a Laurent monomial (Sylvester's identity), so it has no more
    terms.

    Phase 2 starts when no live entry has one term.  Each row is shifted by
    a monomial, a unit scaling, so that its least exponent of each variable
    is zero, and what is left is ranked by textbook fraction-free (Bareiss)
    elimination: every live row becomes (pivot * row - m * pivot_row) /
    prev, m its entry in the pivot's column and prev the last pivot (one at
    first), and each division is exact by the minor identity."""
    fld = ring.field
    add, mul, neg, inv, is_zero = fld.add, fld.mul, fld.neg, fld.inv, fld.is_zero
    live = [dict(row) for row in rows if row]
    count: dict[int, int] = {}  # column -> live rows with an entry there
    for row in live:
        for j in row:
            count[j] = count.get(j, 0) + 1
    rank, prev, laurent = 0, None, True
    while live:
        bt = bc = bw = inf  # the best (terms, column count, row width) so far
        for i, row in enumerate(live):
            width = len(row)
            for j, e in row.items():
                t = len(e.terms)
                if t > bt:
                    continue
                c = count[j]
                if t < bt or c < bc or c == bc and width < bw:
                    bt, bc, bw, pi, pc = t, c, width, i, j
        if laurent and bt > 1:  # phase 2: each row shifted to a polynomial row
            laurent = False
            for i, row in enumerate(live):
                # the row's least exponent of each variable (its entries have
                # two terms or more, so map is given two monomials or more)
                low = tuple(map(min, *(m for e in row.values() for m in e.terms)))
                if any(low):
                    live[i] = {j: Poly._of_nonzero(ring, {tuple(map(_mono_sub, m, low)): c
                                                          for m, c in e.terms.items()})
                               for j, e in row.items()}
        pivot_row = live.pop(pi)
        pivot = pivot_row.pop(pc)
        del count[pc]
        for j in pivot_row:
            count[j] -= 1
        rank += 1
        kept = []
        if laurent:  # row - (e / pivot) * pivot_row
            ((pm, p),) = pivot.terms.items()
            unit = Poly._of_nonzero(ring, {tuple(-a for a in pm): neg(inv(p))})  # -1/pivot
            scaled = [(j, (f * unit).terms.items()) for j, f in pivot_row.items()]
            for row in live:
                e = row.pop(pc, None)
                if e is not None:
                    e_terms = e.terms.items()
                    for j, s_terms in scaled:
                        old = row.get(j)
                        acc = {} if old is None else dict(old.terms)
                        for m1, c1 in e_terms:
                            for m2, c2 in s_terms:
                                mono = tuple(map(_mono_add, m1, m2))
                                c = mul(c1, c2)
                                if mono in acc:
                                    c = add(acc[mono], c)
                                    if is_zero(c):
                                        del acc[mono]
                                        continue
                                acc[mono] = c
                        if acc:
                            row[j] = Poly._of_nonzero(ring, acc)
                            if old is None:
                                count[j] += 1
                        elif old is not None:
                            del row[j]
                            count[j] -= 1
                if row:
                    kept.append(row)
        else:  # (pivot * row - m * pivot_row) / prev
            pivot_terms = list(pivot.terms.items())
            for row in live:
                m = row.pop(pc, None)
                if m is None:
                    neg_m_terms, cols = [], list(row)
                else:
                    neg_m_terms = [(mono, neg(c)) for mono, c in m.terms.items()]
                    cols = list(row) + [j for j in pivot_row if j not in row]
                new = {}
                for j in cols:
                    e = _bareiss_update(ring, pivot_terms, row.get(j), neg_m_terms, pivot_row.get(j), prev)
                    if e.terms:
                        new[j] = e
                for j in row:
                    count[j] -= 1
                for j in new:
                    count[j] += 1
                if new:
                    kept.append(new)
            prev = pivot
        live = kept
    return rank


def rank_by_minors(rows: Sequence[Sequence[Poly]], ring: PolyRing) -> int:
    """Reference implementation: the largest r for which all_minors yields
    anything, searched downward by exhaustive enumeration.  Exponential;
    used as an independent oracle for small matrices."""
    m, n = mat_shape(rows)
    sparse = sparse_rows(rows)
    for r in range(min(m, n), 0, -1):
        if next(all_minors(sparse, n, r, ring), None) is not None:
            return r
    return 0


# ---------------------------------------------------------------------------
# linear algebra over a field
# ---------------------------------------------------------------------------

def rank_over_field(rows: list[dict], field: Field) -> int:
    """Rank by echelon insertion on rows given as dicts column -> nonzero
    scalar; the dicts are consumed, and an empty one is a zero row.

    The rows are taken in order, and each stored pivot row is keyed by its
    least column.  A row is reduced against the pivot keyed by its own
    least column j: with f = -1/pivot[j], formed on that pivot's first use
    and kept beside it, row[j] * f times the pivot row is added to it, one
    mul and one add per other entry of the pivot row.  That clears j and
    leaves a larger least column, so a row meets only the pivots of the
    least columns it passes through, never every stored row.  It goes on
    until it is empty or its least column keys no pivot, where it is
    stored.  When the row is shorter than the pivot it meets, the row takes
    the key and the old pivot is reduced in its place, which keeps pivots
    short and fill-in low.  An entry that cancels is deleted, so the cost
    follows the nonzero entries, not the shape.  Each step adds a multiple
    of one row to another, so the pivots and the rows still to come span
    what the input rows span; the pivots have distinct least columns, so
    they are independent, and the rank is their count."""
    zero = field.zero
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    pivots: dict = {}  # least column -> [pivot row, its -1/pivot or None]
    for row in rows:
        while row:
            j = min(row)
            slot = pivots.get(j)
            if slot is None:
                pivots[j] = [row, None]
                break
            if len(row) < len(slot[0]):
                row, slot[0], slot[1] = slot[0], row, None
            pivot_row, f = slot
            if f is None:
                f = slot[1] = neg(inv(pivot_row[j]))
            s = mul(row.pop(j), f)
            for k, e in pivot_row.items():
                if k != j:
                    t = mul(s, e)
                    if k in row:
                        v = add(row[k], t)
                        if v == zero:
                            del row[k]
                        else:
                            row[k] = v
                    else:
                        row[k] = t
    return len(pivots)
