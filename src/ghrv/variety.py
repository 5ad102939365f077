"""Rank varieties of periodic complexes.

For a valid pair (A, B) of size n over R the complex is contractible iff both
differentials have the expected minor ideals full, and the failure locus in
projective (c-1)-space is cut out by the images in k[x] of the critical minor
ideals:

    V(C) = Z(image I_rA(A)) union Z(image I_rB(B)),   rA + rB = n.

Ranks over R are computed on sparse rows (matrix.sparse_rows), which
ranks_over_R reads from the pair's distinct entries (C.pair_entries), so
the normal form mod w and the elimination below run once per distinct
entry, not once per position.  Eliminating x_1: inverting f_1 identifies
R[1/f_1] with a localized polynomial ring in (x_2..x_c, y), sending x_1 to
-(f_2 x_2 + .. + f_c x_c)/f_1, and row scaling by powers of f_1 clears the
denominators without changing the rank.  With u = f_1 x_1 - w and top a
row's largest x_1-degree, a term c x_1^t m becomes c m u^t f_1^(top - t).
Each multiplier u^t f_1^(top - t) is built once per ring and kept on it as
a term list (u itself only when one is missing), each distinct (entry
object, top) is expanded once per elimination and summed in one dict, and
a row without x_1 passes unchanged.  Elimination on sparse rows
(rank_over_domain: one-term pivots as Laurent units, then Bareiss on any
rows left) then gives the rank.  The exhaustive descending
minor search is kept in matrix.py as the oracle this path is tested
against.  An exact matrix factorization, A*B = B*A = w*I over P, has
rank(B) = n - rank(A) by the complement rule
(PeriodicComplex.is_factorization), and when a step (cone_mul, shift,
dual, direct_sum) built it, rank(A) follows from its parents' by the
step's law (ranks_over_R): only the leaves its derivation reaches
through shifts, duals and sums are eliminated, each on its A, and a
cone's rank is its parent's size, read with no elimination at all.  ranks_over_R eliminates both A and B only
when the identity fails.

Both sides rest on one reduction, the ring map P = Q[x] -> k[x], y -> 0.
It kills w, because every term of w has positive y-degree, so it factors
through R.  Applied entrywise it gives the residue pencil (Abar, Bbar) =
(A, B)|_{y=0} over k[x].  The image of I_r(A) mod w is I_r(Abar), so the
minor-ideal images are the minors of the pencil, with no reduction mod w.
rank_variety reads them from the pair's distinct entries
(critical_images): each distinct nonzero value of C.pair_entries is mapped
y -> 0 once, and the sparse rows of Abar and Bbar are the pair's
(column, index) rows over those images (DistinctEntries.sparse_rows), a
zero image dropped.  all_minors
walks those rows, sparsest first, and builds each nonzero minor as a Poly
once, from its wedge's terms; _canonical_gens keys repeats by their monic
terms, builds a Poly only for a new key, and orders them.  No dense image
grid is formed.

Emptiness over the algebraic closure is decided, not scanned (is_empty):
forms with no common projective zero generate every form of Lazard's
degree D = d_1 + .. + d_c - c + 1 (Lazard, EUROCAL '83, after Macaulay),
so one field rank of the multiples of the generators in degree D decides
each component, over QQ as over F_q, since a rank does not change under
field extension.  Over QQ that rank is taken modulo a large prime first,
and a full rank there decides it at finite-field speed.

Membership of a point is evaluation of generators, optionally through a
deterministic field embedding, so a variety computed over GF(p) can be
scanned over GF(p^j) towers.  A point alpha is a ProjPoint or a tuple of
coordinates in the ring's field.  Contractibility at alpha evaluates the
pencil at alpha and tests rank(Abar(alpha)) + rank(Bbar(alpha)) = n.  Each
pair keeps its pencil by its distinct nonzero entries
(PeriodicComplex.pencil_entries): the images y -> 0 of the nonzero entries
of A and B, equal images sharing one index, and for each of Abar and Bbar
rows of (column, index) pairs.  A scan over many points therefore pays for
y -> 0 once.  Every pair, whatever built it, reaches its pencil by the same
route: each value of its own C.pair_entries is mapped y -> 0 once, a zero
image dropped.  Next to its pencil each pair keeps an evaluation plan
(PeriodicComplex.pencil_plan): each distinct value as its terms
(coefficient, ((variable index, exponent), ...)), zero exponents dropped,
its exponents walked once per pair and its coefficients mapped into each
point field once.  A verdict checks its point (point_coords, which refuses
a coordinate that is not an element of the point's field), tables each
coordinate's powers once, evaluates every distinct value in one loop over
the plan, and _ranks builds each row's dict of nonzero scalars straight
from its pairs for the one field rank (matrix.rank_over_field), which
inserts each row into an echelon keyed by least column, so a row meets
only the pivots of the columns it reaches.
So a verdict costs in proportion to the distinct nonzero entries, and no
dense grid is formed.  Specializing x -> a along chosen preimages a of
alpha and then reducing y -> 0 gives the same scalars for every choice of
preimages; that route is kept as the oracle (_oracle_scalars), and only
the preimage perturbation check runs it, ranked by _ranks on the rows of
C.pair_entries.  The oracle substitutes the full preimages into each
distinct nonzero entry of A and B, once per point, and reads the residue
from the whole specialized polynomial, so it costs more than the verdict
it checks; no oracle scalar comes from the pencil.  Each preimage keeps
its powers (Poly.__pow__), so a trial raises each preimage once for all
entries.  A zero entry skips the oracle, since specialize(0) = 0
exactly.  A verdict validates its point and evaluates the pencil; it
builds no preimages, which only the oracle reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from operator import add as _mono_add

from .complexes import DistinctEntries, PeriodicComplex, _cone, _sum
from .errors import BoundExceeded, InvalidComplex, UnsupportedField
from .fields import MAX_EXTENSION_DEGREE, Field, _smallest_factor, make_extension, prime_field
from .matrix import all_minors, rank_over_domain, rank_over_field, sparse_rows
from .poly import Poly, PolyRing, evaluator, order_key
from .ring import RingSpec, point_coords, residue, specialize


# points_up_to refuses a projective space with more than this many points,
# before building any: a scan over them would not finish.
MAX_POINTS = 10**6

# is_empty refuses a Macaulay matrix with more than this many columns (the
# monomials of its degree), before building any row: on three dense random
# forms in three variables its rank took 5.6 s at 630 columns over GF(5),
# and 9.9 s at 276 columns over QQ, where the coefficients grow (CPython
# 3.11, one core of a 2-CPU x86_64 machine).  Over QQ it is first ranked
# modulo MACAULAY_PRIME, at finite-field speed.
MAX_MACAULAY_COLUMNS = 500

# is_empty ranks a Macaulay matrix over QQ modulo this prime first, or
# modulo the next prime that divides no denominator of its entries.
MACAULAY_PRIME = 2**31 - 1


# ---------------------------------------------------------------------------
# rank over R
# ---------------------------------------------------------------------------

def _eliminate_x1(rows, ring: RingSpec) -> list:
    """Image of the matrix with sparse rows `rows` under x_1 -> u/f_1, each
    row scaled by f_1^top (see the module docstring), as sparse rows;
    entries stay in the ambient ring, x_1-free.  The multipliers
    u^t f_1^(top - t) are kept on the ring (RingSpec._x1_multipliers), u
    built only when one is missing, and each distinct (entry object, top)
    is expanded once per call; the rows hold every entry for the call.  An
    image that cancels to zero is left out."""
    amb = ring.ambient
    idx = amb.var_index(ring.xvars[0])
    f1 = ring.f[0]
    multipliers = ring._x1_multipliers
    u = None
    add, mul = amb.field.add, amb.field.mul
    expanded: dict[int, dict[int, Poly]] = {}  # top -> id of an entry -> its image
    out = []
    for row in rows:
        top = max((m[idx] for _, e in row for m in e.terms), default=0)
        if not top:
            out.append(row)
            continue
        memo = expanded.setdefault(top, {})
        new_row = []
        for j, e in row:
            new = memo.get(id(e))
            if new is None:
                acc: dict = {}
                for m, c in e.terms.items():
                    t = m[idx]
                    mult = multipliers.get((t, top))
                    if mult is None:
                        if u is None:  # the x_1-free part, negated
                            u = f1 * amb.variable(ring.xvars[0]) - ring.w
                        mult = multipliers[t, top] = list((u**t * f1 ** (top - t)).terms.items())
                    stripped = m[:idx] + (0,) + m[idx + 1:]
                    for mm, cc in mult:
                        mono = tuple(map(_mono_add, stripped, mm))
                        v = mul(c, cc)
                        acc[mono] = add(acc[mono], v) if mono in acc else v
                new = memo[id(e)] = Poly(amb, acc)
            if new.terms:
                new_row.append((j, new))
        out.append(new_row)
    return out


def rank_over_R(rows, ring: RingSpec) -> int:
    """Rank over R of the matrix of representatives with sparse rows `rows`
    (matrix.sparse_rows).  Each entry is reduced mod w first, once per
    distinct entry object, and one whose normal form is zero is left out;
    x_1 is eliminated (_eliminate_x1) and rank_over_domain ranks the rows
    over the domain that leaves, by one-term pivots while there are any
    and Bareiss on what is left."""
    normal: dict[int, Poly] = {}  # id of an entry -> its normal form
    reduced = []
    for row in rows:
        new = []
        for j, e in row:
            nf = normal.get(id(e))
            if nf is None:
                nf = normal[id(e)] = ring.normal_form(e)
            if nf.terms:
                new.append((j, nf))
        reduced.append(new)
    return rank_over_domain(_eliminate_x1(reduced, ring), ring.ambient)


def ranks_over_R(C: PeriodicComplex) -> tuple[int, int]:
    """(rank A, rank B) over R.  A pair that is not an exact factorization
    has both matrices eliminated.  When C.is_factorization holds, every
    ancestor of C is an exact factorization too, and the ranks follow from
    the complement rule, rank B = n - rank A, and the law of the step that
    built C (shift and dual swap the roles of A and B):

    - a leaf (a pair no step built): rank A is eliminated;
    - cone_mul(P, p), A = [[A_P, pI], [0, -B_P]]: rank A = P.size, whatever
      p is.  If p is nonzero in the domain the elimination ranks over,
      multiplying on the right by [[I, 0], [-A_P/p, I]] gives
      [[0, pI], [B_P A_P/p, -B_P]], and B_P A_P = wI is zero there, so the
      rank is that of pI; if p is zero, A = diag(A_P, -B_P) has rank
      rank A_P + rank B_P = P.size by the complement rule;
    - shift(P) = (-B_P, -A_P) and dual(P) = (B_P^t, A_P^t): rank A =
      rank B_P = P.size - rank A_P;
    - direct_sum(P, Q): rank A = rank A_P + rank A_Q.

    So only the A of each leaf the derivation reaches before a cone is
    eliminated, leaves in order, each as the sparse rows of its pair's
    distinct entries (C.pair_entries).  The derivation is walked with a
    stack of (pair, swapped), so its depth is not bounded by Python's
    recursion limit.  Nothing is kept: each call walks to the leaves
    again."""
    if not C.is_factorization:
        entries = C.pair_entries
        return rank_over_R(entries.sparse_rows(0), C.ring), rank_over_R(entries.sparse_rows(1), C.ring)
    r_a = r_b = 0
    todo = [(C, False)]
    while todo:
        P, swapped = todo.pop()
        if P._derivation is None:
            a = rank_over_R(P.pair_entries.sparse_rows(0), P.ring)
            b = P.size - a
        else:
            rule, parents = P._derivation
            if rule is _sum:
                todo += [(Q, swapped) for Q in reversed(parents)]
                continue
            if rule is not _cone:  # shift or dual
                todo.append((parents[0], not swapped))
                continue
            a = b = parents[0].size
        if swapped:
            a, b = b, a
        r_a, r_b = r_a + a, r_b + b
    return r_a, r_b


def rank_over_R_by_minors(rows, ring: RingSpec) -> int:
    """Oracle path, on a grid: largest r with some r x r minor nonzero mod
    w, descending exhaustive search.  Exponential; small matrices only."""
    nf_rows = sparse_rows([[ring.normal_form(e) for e in row] for row in rows])
    m = len(nf_rows)
    n = len(rows[0]) if m else 0
    for r in range(min(m, n), 0, -1):
        for minor in all_minors(nf_rows, n, r, ring.ambient):
            if not ring.normal_form(minor).is_zero():
                return r
    return 0


# ---------------------------------------------------------------------------
# ideals and zero sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealGens:
    """Homogeneous ideal of k[x] by monic generators in canonical order; the
    empty list is the zero ideal (zero set = all of projective space)."""

    ring: PolyRing
    gens: tuple[Poly, ...]

    def describe(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(g.to_string(strict=False) for g in self.gens) + ")"


def _tie_key(g: Poly) -> str:
    """The repr of g's sorted terms with each QQ coefficient as a Fraction.
    An integral rational is an int (RationalField), and repr(n) sorts apart
    from repr(Fraction(n, 1)); rendering both as Fractions keeps the printed
    order of generators one and the same whichever form a value takes."""
    terms = g.sorted_terms()
    if not g.ring.field.finite:
        terms = [(m, Fraction(c)) for m, c in terms]
    return repr(terms)


def _canonical_gens(ring: PolyRing, gens) -> tuple[Poly, ...]:
    """The distinct monic generators by leading monomial, descending; those
    sharing one are ordered by _tie_key, descending, a key built only for
    such groups.  A constant generator gives (1).  Repeats are keyed by
    their terms scaled to leading coefficient one in a plain dict, with no
    zero filter, so a Poly is built only for a new key (a monic generator
    is kept itself) and keeps its leading monomial, which grouping then
    reads without a search."""
    one, mul, inv = ring.field.one, ring.field.mul, ring.field.inv
    seen = {}
    for g in gens:
        if g.terms:
            lm = g.leading_monomial()
            terms, lc = g.terms, g.terms[lm]
            if lc != one:
                s = inv(lc)
                terms = {m: mul(c, s) for m, c in terms.items()}
            key = frozenset(terms.items())
            if key not in seen:
                if terms is not g.terms:
                    g = Poly._of_nonzero(ring, terms)
                    g._lm = lm
                seen[key] = g
    if any(g.is_constant() for g in seen.values()):
        return (ring.one(),)
    groups: dict = {}
    for g in seen.values():
        groups.setdefault(g.leading_monomial(), []).append(g)
    ordered = []
    for lm in sorted(groups, key=order_key, reverse=True):
        group = groups[lm]
        if len(group) > 1:
            group.sort(key=_tie_key, reverse=True)
        ordered += group
    return tuple(ordered)


def minor_ideal_image(rows, r: int, ring: RingSpec) -> IdealGens:
    """Image in k[x] of the ideal of r x r minors of a square matrix M over
    P, taken mod w: the r x r minors of M|_{y=0}, since y -> 0 is a ring map
    that kills w.  `rows` are the sparse rows of M|_{y=0} over k[x], each
    the (column, entry) pairs of its nonzero entries by ascending column
    (matrix.sparse_rows).  r <= 0 gives the unit ideal by the usual
    convention I_0 = (1).

    The rows are walked sparsest first (a stable sort by pair count), so
    zero rows lead and all_minors prunes them at their first wedge, and the
    dense rows are wedged onto few partial minors.  Reordering rows changes
    only the order and signs of the minors, and _canonical_gens makes each
    monic, drops repeats and orders them, so the generators are the same."""
    if r <= 0:
        return IdealGens(ring.kx, (ring.kx.one(),))
    rows = sorted(rows, key=len)
    gens = all_minors(rows, len(rows), r, ring.kx)
    return IdealGens(ring.kx, _canonical_gens(ring.kx, gens))


def critical_images(C: PeriodicComplex, ranks: tuple[int, int], names: str = "AB") -> tuple[IdealGens, ...]:
    """The minor-ideal images of the matrices of C named in `names` ("A",
    "B" or both), I_rA(A) and I_rB(B) with (rA, rB) = ranks, in that order.
    They are read from C.pair_entries by the pencil's own route: each
    distinct nonzero value of A and B is mapped y -> 0 once, a zero image
    is dropped, and each matrix's image rows are its (column, index) rows
    over those images.  Equal images are not merged here, which the minors
    do not need.  A refusal of minor_ideal_image (BoundExceeded, by
    MAX_MINORS) names its matrix, "A: " or "B: " before the message.
    Nothing is kept on the pair."""
    ring = C.ring
    entries = C.pair_entries
    # The kept pencil (C.pencil_entries) holds these images already, and
    # reading its rows instead maps nothing; that one-line change waits for
    # the benchmark to stop expecting image_in_kx calls on this path
    # (ROADMAP item 1a).
    images = [ring.image_in_kx(v) for v in entries.values]
    out = []
    for name in names:
        g = "AB".index(name)
        try:
            out.append(minor_ideal_image(entries.sparse_rows(g, images), ranks[g], ring))
        except BoundExceeded as exc:
            raise BoundExceeded(f"{name}: {exc}") from None
    return tuple(out)


@dataclass(frozen=True)
class ZeroSetUnion:
    """Finite union of zero sets of homogeneous ideals in projective
    (c-1)-space over the base field of `ring`."""

    ring: PolyRing
    components: tuple[IdealGens, ...]

    def describe(self) -> str:
        return " union ".join(f"Z{c.describe()}" for c in self.components)


def rank_variety(C: PeriodicComplex) -> ZeroSetUnion:
    """V(C) as the union of the two critical minor-ideal zero sets
    (critical_images).  The two components are kept separate; they are not
    intersected or combined."""
    r_a, r_b = ranks_over_R(C)
    if r_a + r_b != C.size:
        raise InvalidComplex(
            f"rank(A) + rank(B) = {r_a} + {r_b} != {C.size}; pair is not a valid complex"
        )
    return ZeroSetUnion(C.ring.kx, critical_images(C, (r_a, r_b)))


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjPoint:
    """Point of projective space, normalized so the first nonzero coordinate
    is 1; equality of tuples is then equality of points."""

    field: Field
    coords: tuple

    def __str__(self):
        return "(" + ":".join(self.field.format(a) for a in self.coords) + ")"


def proj_point(field: Field, coords) -> ProjPoint:
    coords = tuple(field.from_int(a) if isinstance(a, int) else a for a in coords)
    lead = next((a for a in coords if not field.is_zero(a)), None)
    if lead is None:
        raise ValueError("the zero tuple is not a projective point")
    inv = field.inv(lead)
    return ProjPoint(field, tuple(field.mul(a, inv) for a in coords))


def _check_point_count(field: Field, c: int, degree: int):
    """Refuse, with BoundExceeded, a points_up_to listing of P^(c-1) over
    the extensions of the finite `field` of degree 1..degree when one has
    more than MAX_POINTS points, naming the first.  Only point counts are
    computed, never a field or a point.  Once the order passes MAX_POINTS,
    P^(c-1) has either been refused (c >= 2) or has one point over every
    extension (c = 1), so the scan stops there."""
    order = 1
    for _ in range(degree):
        order *= field.order
        count = 0
        for _ in range(c):  # 1 + q + .. + q^(c-1), one term per leading position
            count = count * order + 1
            if count > MAX_POINTS:
                raise BoundExceeded(
                    f"P^{c - 1}(GF({order})) has more than the cap of {MAX_POINTS} points"
                )
        if order > MAX_POINTS:
            return


def points_up_to(field: Field, c: int, degree: int):
    """(F_(q^j), P^(c-1)(F_(q^j))) for j = 1..degree, F_q the finite `field`,
    each list built when reached, in enumerate_points' order.  Every refusal
    comes at the call, before any point is built: UnsupportedField for a
    field that is not finite, ValueError for c or degree below 1, and
    BoundExceeded for too many points (_check_point_count) or for an
    extension past MAX_EXTENSION_DEGREE, which make_extension refuses."""
    if not field.finite:
        raise UnsupportedField("point enumeration needs a finite field")
    if c < 1:
        raise ValueError(f"point enumeration needs c >= 1 coordinates, got {c}")
    if degree < 1:
        raise ValueError(f"point enumeration needs a degree >= 1, got {degree}")
    _check_point_count(field, c, degree)
    top = field.e * degree  # the degree over GF(p) of the last extension
    if top > MAX_EXTENSION_DEGREE:
        raise BoundExceeded(f"extension degree {top} exceeds bound {MAX_EXTENSION_DEGREE}")

    def listing(fld: Field) -> list[ProjPoint]:
        elems = list(fld.elements()) if c > 1 else []  # P^0 needs no element list
        return [ProjPoint(fld, (fld.zero,) * lead + (fld.one,) + rest)
                for lead in range(c) for rest in product(elems, repeat=c - lead - 1)]

    extensions = (extension_of(field, j) for j in range(1, degree + 1))
    return ((fld, listing(fld)) for fld in extensions)


def enumerate_points(field: Field, c: int) -> list[ProjPoint]:
    """All of P^(c-1) over a finite field: leading-one position ascending,
    trailing coordinates in field element order.  The one listing of
    points_up_to(field, c, 1), refused as that refuses."""
    return next(points_up_to(field, c, 1))[1]


def membership(V: ZeroSetUnion, point: ProjPoint) -> bool:
    """Evaluation test; scaling invariance holds because generators are
    homogeneous.  The point may live in an extension of V's field, and needs
    one coordinate per variable of V's ring (else ValueError)."""
    if len(point.coords) != len(V.ring.vars):
        raise ValueError(f"expected {len(V.ring.vars)} coordinates, got {len(point.coords)}")
    at = evaluator(V.ring, dict(zip(V.ring.vars, point.coords)), point.field)
    is_zero = point.field.is_zero
    return any(all(is_zero(at(g)) for g in comp.gens) for comp in V.components)


def extension_of(field: Field, j: int) -> Field:
    """The degree-j extension of a finite field, built deterministically;
    j = 1 returns the field itself."""
    if j <= 1:
        return field
    if not field.finite:
        raise UnsupportedField(f"cannot extend {field}")
    return make_extension(field.p, field.e * j)


def is_empty(V: ZeroSetUnion) -> bool:
    """Whether V has no point in P^(c-1) over the algebraic closure of its
    field, decided exactly, component by component, stopping at the first
    nonempty one.  A component with a constant generator is empty, and one
    with fewer than c nonconstant generators is not (a projective zero set
    of fewer than c forms in c variables is never empty).  Otherwise, with
    d_1 >= d_2 >= .. the generators' degrees, forms with no common zero
    generate every form of degree D = d_1 + .. + d_c - c + 1 (Lazard,
    "Groebner bases, Gaussian elimination and resolution of systems of
    algebraic equations", EUROCAL '83, LNCS 162; after Macaulay), while
    forms with a common zero miss some form of every degree.  So it is
    empty iff the rows x^a g_j with |a| = D - d_j, keyed by exponent tuple,
    span all C(D + c - 1, c - 1) monomials of degree D: one field rank
    (_spans, which over QQ ranks modulo a prime first), whose value does
    not change under field extension, so the answer holds over QQ as over
    F_q.  A matrix of more than MAX_MACAULAY_COLUMNS
    columns raises BoundExceeded before any row is built."""
    c = len(V.ring.vars)
    for comp in V.components:
        if any(g.is_constant() for g in comp.gens):
            continue
        if len(comp.gens) < c:
            return False
        degrees = [sum(g.leading_monomial()) for g in comp.gens]
        degree = sum(sorted(degrees)[-c:]) - c + 1
        columns = comb(degree + c - 1, c - 1)
        if columns > MAX_MACAULAY_COLUMNS:
            raise BoundExceeded(f"Macaulay matrix of degree {degree} has {columns} columns, "
                                f"more than the cap of {MAX_MACAULAY_COLUMNS}")
        rows = [{tuple(map(_mono_add, m, shift)): v for m, v in g.terms.items()}
                for g, d in zip(comp.gens, degrees)
                for a in combinations_with_replacement(range(c), degree - d)
                for shift in [tuple(map(a.count, range(c)))]]
        if not _spans(rows, columns, V.ring.field):
            return False
    return True


def _spans(rows: list[dict], columns: int, field: Field) -> bool:
    """Whether the rows, dicts column -> nonzero scalar, have rank
    `columns`; the dicts are consumed.  Over QQ they are ranked modulo a
    prime p first, MACAULAY_PRIME or the next prime dividing none of their
    denominators, with each a/b read as a * b^-1 mod p.  A minor that is
    nonzero mod p is nonzero over QQ, so a full rank mod p answers at once;
    a deficient one may be p's alone, and the rows are then ranked over
    QQ."""
    if not field.finite:
        denominators = {v.denominator for row in rows for v in row.values()}
        p = MACAULAY_PRIME
        while any(b % p == 0 for b in denominators) or _smallest_factor(p) != p:
            p += 1
        modular = [{k: r for k, v in row.items() if (r := v.numerator * pow(v.denominator, -1, p) % p)}
                   for row in rows]
        if rank_over_field(modular, prime_field(p)) == columns:
            return True
    return rank_over_field(rows, field) == columns


# ---------------------------------------------------------------------------
# contractibility at a point
# ---------------------------------------------------------------------------

def _field_and_point(C: PeriodicComplex, alpha) -> tuple[Field, tuple]:
    """The field and coordinates of a ProjPoint, or of coordinates in the
    ring's field, validated by point_coords (as lift_point validates them)
    without lifting them to preimages, which the pencil never reads."""
    if isinstance(alpha, ProjPoint):
        return alpha.field, point_coords(C.ring, alpha.coords, alpha.field)
    return C.ring.field, point_coords(C.ring, tuple(alpha))


def _ranks(entries: DistinctEntries, scalars, field: Field) -> tuple[int, int]:
    """The field ranks of the two grids of `entries` with scalars[k] at each
    (column, k) pair, eliminated on rows of the nonzero scalars, each row's
    dict built straight from its pairs; no dense grid is formed."""
    zero = field.zero
    r_a, r_b = (
        rank_over_field([{j: s for j, k in pairs if (s := scalars[k]) != zero} for pairs in rows],
                        field)
        for rows in entries.rows
    )
    return r_a, r_b


def residue_ranks(C: PeriodicComplex, alpha) -> tuple[int, int]:
    """(rank Abar(alpha), rank Bbar(alpha)) by _ranks on the kept pencil,
    its distinct values evaluated at alpha, once each, from the plan the
    pair keeps for alpha's field (C.pencil_plan)."""
    fld, point = _field_and_point(C, alpha)
    return _ranks(C.pencil_entries, C.pencil_plan(fld).values_at(point, fld), fld)


def contractible_at(C: PeriodicComplex, alpha) -> bool:
    """True iff the specialized complex at alpha is contractible: the residue
    ranks of the two differentials partition the size."""
    r_a, r_b = residue_ranks(C, alpha)
    return r_a + r_b == C.size


def _oracle_scalars(C: PeriodicComplex, preimages: tuple[Poly, ...]) -> list:
    """The scalars of Abar and Bbar at the point the preimages lift, by the
    oracle route, indexed like C.pair_entries.values: each distinct nonzero
    entry of A and B is specialized along the preimages and then reduced
    y -> 0, once.  A zero entry has no pair and so reads as zero without
    that route, which is exact because specialize(0) = 0."""
    ring = C.ring
    return [residue(specialize(e, preimages, ring), ring) for e in C.pair_entries.values]


# ---------------------------------------------------------------------------
# preimage independence
# ---------------------------------------------------------------------------

@dataclass
class PerturbationReport:
    """alpha as given, the pencil's verdict (baseline) and the oracle's
    verdict in each seeded trial (verdicts)."""

    point: object
    trials: int
    seed: int
    baseline: bool
    verdicts: list[bool]

    @property
    def stable(self) -> bool:
        return all(v == self.baseline for v in self.verdicts)


@lru_cache(maxsize=None)
def _y_monomials(c: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors over the c x-variables and d y-variables of the
    y-monomials of degree 1, then of degree 2, each degree in
    combinations_with_replacement order: the terms a perturbed preimage
    draws a coefficient for, in the order the seeded draws follow."""
    nvars = c + d
    return tuple(tuple(ys.count(v) for v in range(nvars))
                 for k in (1, 2) for ys in combinations_with_replacement(range(c, nvars), k))


def preimage_independence_check(C: PeriodicComplex, alpha, trials: int, seed: int) -> PerturbationReport:
    """Re-test contractibility at alpha, over a finite field, under seeded
    random preimages: constant term the coordinate plus y-terms of degree 1
    and 2, built directly, so there is nothing to validate per trial.  The
    verdict must never move.  The baseline takes the residue pencil; each
    perturbed verdict takes the oracle route, specialize then residue
    (_oracle_scalars), ranked by _ranks on the rows of C.pair_entries, so
    two routes are compared.  alpha is validated here and once more by the
    baseline contractible_at, whatever `trials` is."""
    ring = C.ring
    fld, coords = _field_and_point(C, alpha)
    if not fld.finite:
        raise UnsupportedField("perturbation sampling needs a finite field")
    amb = ring.ambient_over(fld)
    baseline = contractible_at(C, alpha)
    rng = random.Random(seed)
    elems = list(fld.elements())

    monos = _y_monomials(ring.c, ring.d)
    constant = (0,) * (ring.c + ring.d)
    verdicts = []
    for _ in range(trials):
        preimages = tuple(Poly(amb, {constant: a} | {m: elems[rng.randrange(len(elems))] for m in monos})
                          for a in coords)  # zero coefficients drop out
        verdicts.append(sum(_ranks(C.pair_entries, _oracle_scalars(C, preimages), fld)) == C.size)
    return PerturbationReport(alpha, trials, seed, baseline, verdicts)
