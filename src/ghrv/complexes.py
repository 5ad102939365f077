"""Totally acyclic complexes over R presented as periodic matrix pairs.

A pair (A, B) of square matrices over the ambient ring P with A*B = B*A = w*I
is a matrix factorization of w; reducing mod w gives a 2-periodic complex of
free R-modules, and every totally acyclic complex over the hypersurface is of
this shape up to the usual eventual-periodicity.  The pair is stored with
generator degrees for the two underlying modules:

    .. --A--> C_0(degrees0) --B(+1 twist)--> C_1(degrees1) --A--> ..

A pair is two n x n grids of polynomials of the ambient ring ring.ambient
plus the two degree tuples.  PeriodicComplex(ring, a_grid, b_grid, degrees0,
degrees1, certified) is the only way a pair is built; it stores the grids as
given and checks shapes only.  validate_pair checks that every entry is a
polynomial of ring.ambient, and is the one place the degree rule is applied:
A maps degrees1 to degrees0, and B maps degrees0 twisted by 1 (the x-degree
of w) to degrees1.  A is the odd-to-even differential.  Homogeneity: a
nonzero entry (i, j) of a map has x-degree deg_source(j) - deg_target(i) as
an R-class, that is, its normal form mod w is zero or x-homogeneous of that
degree (homogeneity_violations).  Every term of w has x-degree 1, so a
division step by w removes a term and adds terms of that same x-degree: a
stored entry that is zero or x-homogeneous of the wanted degree has such a
normal form, and only the other entries are reduced.  Certification (the
exact A*B = w*I check over P) is judged on the stored representatives, by
one matrix product per pair read from a file or built by hand (mat_mul on
the pair's values and index rows), which sums field coefficients per
(column, monic value pair) and forms a polynomial only where one survives.

A pair keeps its own entries (pair_entries) and its residue pencil
(Abar, Bbar) = (A, B)|_{y=0} (pencil_entries) by their distinct nonzero
entries (DistinctEntries), with the pencil's evaluation plan for each
point field beside them (pencil_plan), and every per-entry pass over a
pair reads pair_entries, not the grids: the certifying product, the degree check,
the ranks over R, the pencil and the writer each run once per distinct
value, or on the sparse rows over those values, and never walk the n^2
positions.  Each step (cone_mul, shift, dual, direct_sum) is
one rule over DistinctEntries, which _derived runs on the parents'
pair_entries for the new grids; a loaded file's entries are indexed as
its strings are parsed (serialize.complex_from_obj); every other pair
(fixtures, the Shamash tail, pairs built by hand) reads its entries from
its grids (distinct_entries), the one pass over the positions, which also
checks each entry object's ring.  The pencil has one route for every pair,
whatever built it: y -> 0 is a ring map, so the pencil is the image of the
pair's own distinct entries, each value of pair_entries mapped once.  A
derived pair's verdict and certification claim are its parents'.  A rule
reuses a parent's object for an equal value, and the Shamash tail signs
each variable and each f_i once for both folds, so pairs built here hold
one object per value, and -(-e) is e.

The Koszul complex here is taken on all m = c + d variables of P.  The
Shamash resolution of the residue field, G_n = sum_j F_(n-2j) with
differential d = del + xi-wedge, is 2-periodic past index m, and its tail is
del + xi-wedge between the even and the odd exterior powers of the Koszul
complex.  One fold, _koszul_fold, maps each e_S by del + xi-wedge between
any two lists of subsets.  shamash_resolution is two calls of it, between
the even and the odd powers, certified as the complete resolution of k;
koszul_differential and xi_wedge are its restrictions to one power.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BoundExceeded,
    CertificationFailed,
    GhrvError,
    NotAComplex,
    NotHomogeneous,
    NotHomogeneousScalar,
    RankDefect,
    RingMismatch,
)
from .fields import Field, embedding
from .matrix import Grid, as_grid, mat_mul
from .poly import Poly, PolyRing
from .ring import RingSpec

# shamash_resolution refuses more than this many variables c + d before any
# work: the tail is a dense 2^(c+d-1) square, and 12 already take seconds.
MAX_KOSZUL_VARIABLES = 12


def homogeneity_violations(ring: RingSpec, rows, source: tuple[int, ...],
                           target: tuple[int, ...]) -> list[str]:
    """Entries of the matrix with sparse rows `rows` (matrix.sparse_rows),
    the matrix of a degree-0 map from generators of degrees `source` to
    generators of degrees `target`, whose normal form mod w is neither zero
    nor x-homogeneous of degree source[j] - target[i].

    The stored entry is looked at first.  Every term of w has x-degree 1, so
    each division step by w replaces a term by terms of the same x-degree;
    an entry that is x-homogeneous of the wanted degree therefore has a
    normal form that is zero or is too, and is passed without reducing it.
    Any other entry is judged, and reported, on its normal form.  The set
    of x-degrees of the stored terms is formed once per distinct entry
    object, and each position compares it with its wanted degree."""
    degrees: dict[int, set[int]] = {}  # id of an entry -> the x-degrees of its terms
    out = []
    for i, row in enumerate(rows):
        for j, e in row:
            degs = degrees.get(id(e))
            if degs is None:
                degs = degrees[id(e)] = e.x_degrees()
            want = source[j] - target[i]
            if degs == {want}:
                continue
            nf = ring.normal_form(e)
            nf_degs = nf.x_degrees()
            if nf_degs <= {want}:
                continue
            if len(nf_degs) > 1:
                out.append(f"entry ({i},{j}) = {nf} is not x-homogeneous")
            else:
                (deg,) = nf_degs
                out.append(f"entry ({i},{j}) = {nf} has x-degree {deg}, expected {want}")
    return out


@dataclass(frozen=True)
class DistinctEntries:
    """Two square grids of polynomials by their distinct nonzero entries.

    values holds each distinct nonzero entry once, in the order first met
    (the first grid row by row, then the second); entries share an index
    when they are equal as polynomials, whether or not they are one object.
    rows[g][i] lists the (column, index) pairs of the nonzero entries of row
    i of grid g by ascending column, so entry (i, j) is values[k] for (j, k)
    in rows[g][i], and zero when row i has no pair for column j.
    distinct_entries reads one from grids, a step's rule derives one from
    its parents' (_derived), the loader indexes one as it parses a file
    (serialize.complex_from_obj), and all give the same for the same
    grids; a pair's pencil is the image of its own (pencil_entries)."""

    values: tuple[Poly, ...]
    rows: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    def sparse_rows(self, g: int, values=None) -> list[list[tuple[int, Poly]]]:
        """The sparse rows (matrix.sparse_rows) of grid g with values[k] at
        each (column, k) pair, a zero value left out.  values is indexed
        like self.values (for example their images y -> 0), and is
        self.values when not given."""
        values = self.values if values is None else values
        return [[(j, e) for j, k in pairs if (e := values[k]).terms] for pairs in self.rows[g]]

    def grids(self, values, zero) -> tuple[list[list], ...]:
        """Both grids in full, as lists of row lists: values[k] at every
        (column, k) pair, values indexed like self.values (the values
        themselves, or one string or scalar per value), and zero
        elsewhere."""
        out = []
        for rows in self.rows:
            grid = []
            for pairs in rows:
                row = [zero] * len(rows)
                for j, k in pairs:
                    row[j] = values[k]
                grid.append(row)
            out.append(grid)
        return tuple(out)


class EvaluationPlan(NamedTuple):
    """Polynomials of one ring laid out for evaluation at many points.
    terms[k] lists the terms of the k-th polynomial as (coefficient,
    ((variable index, exponent), ...)), zero exponents dropped, and
    degrees[i] is the largest exponent of variable i in any term, the
    length a table of its powers needs.  _evaluation_plan builds one from
    polynomials, and poly.evaluator is the general route it is tested
    against."""

    terms: tuple[tuple[tuple[object, tuple[tuple[int, int], ...]], ...], ...]
    degrees: tuple[int, ...]

    def mapped(self, embed) -> EvaluationPlan:
        """The same plan with every coefficient mapped by `embed`, for
        example a field embedding (fields.embedding)."""
        return EvaluationPlan(tuple(tuple((embed(c), factors) for c, factors in terms)
                                    for terms in self.terms), self.degrees)

    def values_at(self, point: tuple, field: Field) -> list:
        """The value of each polynomial, in order, at `point`, one scalar
        of `field` per variable; the coefficients must be scalars of
        `field` too (mapped).  Each coordinate's powers are tabled once, up
        to its degree, and a term is then one product per variable it
        has."""
        mul, add, zero = field.mul, field.add, field.zero
        powers = []
        for a, top in zip(point, self.degrees):
            table = [field.one, a]
            while len(table) <= top:
                table.append(mul(table[-1], a))
            powers.append(table)
        out = []
        for terms in self.terms:
            acc = zero
            for t, factors in terms:
                for i, e in factors:
                    t = mul(t, powers[i][e])
                acc = add(acc, t)
            out.append(acc)
        return out


def _evaluation_plan(polys, nvars: int) -> EvaluationPlan:
    """The EvaluationPlan of `polys`, polynomials in `nvars` variables."""
    terms = tuple(tuple((c, tuple((i, e) for i, e in enumerate(m) if e)) for m, c in p.terms.items())
                  for p in polys)
    degrees = tuple(max((m[i] for p in polys for m in p.terms), default=0) for i in range(nvars))
    return EvaluationPlan(terms, degrees)


def distinct_entries(grids, ring: PolyRing) -> DistinctEntries:
    """The nonzero entries of `grids`, a pair's two square grids (other
    grids are read the same way), indexed by distinct value (see
    DistinctEntries), each entry checked to be a polynomial of `ring`
    (PolyRing.coerce: RingMismatch for one of another ring, TypeError for
    anything else), a zero entry too.  This is the one pass over the
    positions of a pair: it builds the entries of every pair that no step
    derived and no file was loaded into (fixtures, the Shamash tail, pairs
    built by hand), and is the reference the tests compare a derived or
    loaded pair's with."""
    index: dict[Poly, int] = {}
    rows = tuple(tuple(tuple((j, index.setdefault(e, len(index))) for j, e in enumerate(row)
                             if ring.coerce(e).terms) for row in grid) for grid in grids)
    return DistinctEntries(tuple(index), rows)


class PeriodicComplex:
    """2-periodic complex of free R-modules, represented by the pair (A, B).

    The only constructor of a pair: two n x n grids A and B of polynomials
    of ring.ambient and the reference degrees of C_0 and C_1, of length n
    each.  Going up in homological degree the module degrees gain 1 per
    period, so the two reference tuples determine every module in the
    doubly infinite complex.  The grids are stored as given, entry objects
    and all, and nothing beyond shapes is checked here: validate_pair checks
    the ring of the entries, the degree rule and the complex condition, and
    periodic_from_pair refuses a pair that fails them.  A and B are never
    reassigned after construction, which is what lets the pair keep its
    residue pencil, its distinct entries and its is_factorization verdict.
    """

    def __init__(self, ring: RingSpec, a_grid, b_grid, degrees0, degrees1, certified: bool):
        degrees0 = tuple(degrees0)
        degrees1 = tuple(degrees1)
        if len(degrees0) != len(degrees1):
            raise ValueError("pair must be square of equal size")
        n = len(degrees0)

        self.A, self.B = as_grid(a_grid), as_grid(b_grid)
        for grid in (self.A, self.B):
            shape = (len(grid), len(grid[0]) if grid else 0)
            if shape != (n, n):
                raise ValueError(f"entry grid is {shape[0]}x{shape[1]}, expected {n}x{n}")
        self.ring = ring
        self.degrees0 = degrees0
        self.degrees1 = degrees1
        self.certified = certified
        # (rule, parents) of a pair a step built (_derived), None for any
        # other pair
        self._derivation = None
        # field -> the pencil's evaluation plan over it (pencil_plan)
        self._pencil_plans: dict[Field, EvaluationPlan] = {}

    @property
    def size(self) -> int:
        return len(self.degrees0)

    @cached_property
    def is_factorization(self) -> bool:
        """A*B = B*A = w*I exactly over P, decided on a leaf by the one
        product A*B of its pair_entries, values and index rows (mat_mul),
        whose row i must be exactly w at column i; only the verdict is
        kept.  mat_mul sums field coefficients per (column, monic value
        pair), so in a factorization the off-diagonal keys, which cancel
        as c u u' - c u' u, form no polynomial, and row i forms only the
        products that sum to w at column i.

        P is a domain and w is nonzero (make_ring refuses a zero f_i), so
        det A * det B = w^n is nonzero: A is invertible over the fraction
        field of P, B = w A^-1, and hence B*A = w*I.  The identity also
        gives the rank partition, the complement rule: the complex over R is
        then exact (if B v = w u then w v = A B v = w A u, so v = A u, P
        being a domain), so over the fraction field of the domain R,
        rank(B) = size - rank(A) (Eisenbud, Trans. AMS 260, 1980).  Its
        users: variety.ranks_over_R, which then reads a derived pair's
        rank(A) from its step's law and eliminates no B and no A but a
        leaf's, and validate_pair, which then skips the mod-w pass and the
        RankDefect check (a pair that fails forms A*B again in that pass).
        Judged on the stored grids and never on the `certified` flag, which
        a file may claim falsely.  A pair a step
        built multiplies nothing: (-B)(-A) = B*A, B^t A^t = (A*B)^t, a block
        sum multiplies block by block, and a cone's blocks multiply to
        [[A*B, 0], [0, B*A]] (cone_mul), so each is an exact factorization
        exactly when its parents are, and so exactly when every leaf its
        derivation reaches is.  Its derivation is walked with a stack, as
        ranks_over_R walks it, leaves in order, to the leaves or to an
        ancestor whose verdict is kept, and stops at the first false one;
        each leaf reached keeps its verdict, so a leaf met again multiplies
        nothing.  Computed on first use and kept."""
        if self._derivation is None:
            entries, w = self.pair_entries, self.ring.w
            prod = mat_mul(entries.values, *entries.rows, self.ring.ambient)
            return all(row == [(i, w)] for i, row in enumerate(prod))
        todo = list(reversed(self._derivation[1]))
        while todo:
            P = todo.pop()
            if P._derivation is None or "is_factorization" in vars(P):
                if not P.is_factorization:
                    return False
            else:
                todo += reversed(P._derivation[1])
        return True

    @cached_property
    def pencil_entries(self) -> DistinctEntries:
        """The residue pencil (Abar, Bbar) = (A, B)|_{y=0} over k[x], kept by
        its distinct nonzero entries.  It is the image of pair_entries under
        the ring map y -> 0, for every pair whatever built it: image_in_kx
        runs once per value, in order, an image that is zero is left out,
        and equal images share one index in the order first met, so it is
        the DistinctEntries of the image grids.  A verdict at a point
        evaluates each distinct value once, from the plan kept beside it
        (pencil_plan), and reads the rows of (column, index) pairs, so it
        costs in proportion to the distinct nonzero entries; no dense grid
        is kept.  Built on first use and kept."""
        entries = self.pair_entries
        index: dict[Poly, int] = {}
        to = [index.setdefault(v, len(index)) if (v := self.ring.image_in_kx(e)).terms else None
              for e in entries.values]
        rows = tuple(tuple(tuple((j, to[k]) for j, k in row if to[k] is not None) for row in grid)
                     for grid in entries.rows)
        return DistinctEntries(tuple(index), rows)

    def pencil_plan(self, field: Field) -> EvaluationPlan:
        """The evaluation plan (EvaluationPlan) of the pencil's distinct
        values, pencil_entries.values in order, with its coefficients in
        `field`, the ring's field or an extension of it.  The exponents
        are walked once per pair, from pencil_entries on first use, and
        the coefficients mapped into each other field once
        (fields.embedding); every plan is kept, so a scan over many points
        and fields builds nothing after its first point in each field."""
        plans = self._pencil_plans
        plan = plans.get(field)
        if plan is None:
            base = self.ring.field
            plan = plans.get(base)
            if plan is None:
                plan = plans[base] = _evaluation_plan(self.pencil_entries.values, self.ring.c)
            if field != base:
                plan = plans[field] = plan.mapped(embedding(base, field))
        return plan

    @cached_property
    def pair_entries(self) -> DistinctEntries:
        """A and B over P by their distinct nonzero entries, which every
        per-entry pass over the pair reads (see the module docstring).  A
        pair a step built keeps the entries its rule gave (_derived), and a
        loaded pair those its loader indexed; any other pair reads them from
        its grids on first use (distinct_entries), which checks the ring of
        each entry."""
        return distinct_entries((self.A, self.B), self.ring.ambient)

    def __eq__(self, other):
        """Equal rings and degrees, and equal entries position by position.
        The two rings are compared once; the entries, polynomials of that
        ring, are then compared by their terms, so a pair loaded from a file,
        whose ring is a new object, pays no ring comparison per position."""
        return (
            isinstance(other, PeriodicComplex)
            and other.degrees0 == self.degrees0
            and other.degrees1 == self.degrees1
            and other.ring == self.ring
            and all(x.terms == y.terms
                    for g, h in ((self.A, other.A), (self.B, other.B))
                    for r, s in zip(g, h) for x, y in zip(r, s))
        )

    def __repr__(self):
        cert = "certified" if self.certified else "uncertified"
        return f"<periodic pair, size {self.size}, {cert}>"


@dataclass
class ValidationReport:
    """Outcome of structural checks; findings is empty iff everything asked
    for passed.  A finding is (exception class, message), printed "finding
    <class name>: <message>"; notes record uncertified assumptions."""

    findings: list[tuple[type[GhrvError], str]] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, kind: type[GhrvError], message: str):
        self.findings.append((kind, message))

    def describe(self) -> str:
        lines = []
        if self.ok:
            lines.append("valid: no findings")
        else:
            for kind, message in self.findings:
                lines.append(f"finding {kind.__name__}: {message}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def validate_pair(C: PeriodicComplex) -> ValidationReport:
    """Full structural report: complex condition mod w, entrywise
    homogeneity, certification when claimed, and the rank partition
    rank(A) + rank(B) = size.  This is where the degree rule is applied: A
    maps degrees1 to degrees0, and B maps degrees0 twisted by 1 (the x-degree
    of w) to degrees1.

    Every pass reads C.pair_entries.  Reading it first checks that every
    entry is a polynomial of ring.ambient: a pair read from its grids has
    each entry checked (distinct_entries), so an entry of another
    ring raises RingMismatch, and one that is not a polynomial TypeError;
    a loaded pair's entries were parsed in that ring, and a derived pair's
    are its parents' and its cone scalar's normal form.  The exact identity
    A*B = B*A = w*I is read from C.is_factorization, which judges the
    stored entries whatever the file claims.  When it holds, both products
    are zero mod w, so the mod-w pass runs only on a pair that fails it;
    the pass forms its own A*B and B*A, each by mat_mul on the values and
    index rows of C.pair_entries, summed per (column, monic value pair),
    and reduces each nonzero entry of each.  The identity also
    gives the rank partition by the complement rule
    (PeriodicComplex.is_factorization), so the RankDefect check runs only
    on pairs that are complexes mod w without being exact factorizations.
    Findings come in the order NotAComplex, NotHomogeneous,
    CertificationFailed, RankDefect, so a certified pair that fails the
    identity reports CertificationFailed before any RankDefect."""
    report = ValidationReport()
    ring = C.ring
    entries = C.pair_entries
    if not C.is_factorization:
        a, b = entries.rows
        for name, left, right in (("A*B", a, b), ("B*A", b, a)):
            prod = mat_mul(entries.values, left, right, ring.ambient)
            bad = [(i, j) for i, row in enumerate(prod) for j, e in row if not ring.normal_form(e).is_zero()]
            if bad:
                report.add(NotAComplex, f"{name} is nonzero mod w at entries {bad[:4]}")

    twisted0 = tuple(d + 1 for d in C.degrees0)
    for label, g, source, target in (("A", 0, C.degrees1, C.degrees0), ("B", 1, twisted0, C.degrees1)):
        for msg in homogeneity_violations(ring, entries.sparse_rows(g), source, target):
            report.add(NotHomogeneous, f"{label}: {msg}")

    if not C.certified:
        report.notes.append("certification not claimed; total acyclicity is assumed, not checked")
    elif not C.is_factorization:
        report.add(CertificationFailed, "A*B = B*A = w*I fails on stored representatives")

    if not C.is_factorization and not any(kind is NotAComplex for kind, _ in report.findings):
        from .variety import ranks_over_R  # local: variety imports this module

        r_a, r_b = ranks_over_R(C)
        if r_a + r_b != C.size:
            report.add(RankDefect, f"rank(A) + rank(B) = {r_a} + {r_b} != {C.size}")
    return report


def periodic_from_pair(ring: RingSpec, a_grid, b_grid, degrees0, degrees1) -> PeriodicComplex:
    """Validating constructor: the pair, marked certified, must pass
    validate_pair; its first finding is raised as its class(message)."""
    C = PeriodicComplex(ring, a_grid, b_grid, degrees0, degrees1, certified=True)
    findings = validate_pair(C).findings
    if findings:
        kind, message = findings[0]
        raise kind(message)
    return C


# ---------------------------------------------------------------------------
# operations producing new complexes
# ---------------------------------------------------------------------------

def shift(C: PeriodicComplex) -> PeriodicComplex:
    """Suspension: swaps the roles of A and B with a global sign and drops
    the reference degrees by the appropriate twist.  Involutive up to the
    degree relabeling; shift(shift(C)) has all degrees down by 1.  Takes
    C's verdict and claim (_derived)."""
    return _derived(_shift, (C,), None, tuple(d - 1 for d in C.degrees1), C.degrees0)


def dual(C: PeriodicComplex) -> PeriodicComplex:
    """R-linear dual; transposes the pair and negates degrees.  An exact
    involution: dual(dual(C)) == C.  Takes C's verdict and claim (_derived)."""
    return _derived(_dual, (C,), None, tuple(-d - 1 for d in C.degrees0),
                    tuple(-d for d in C.degrees1))


def direct_sum(C: PeriodicComplex, D: PeriodicComplex) -> PeriodicComplex:
    """The block-diagonal pair [[A_C, 0], [0, A_D]], [[B_C, 0], [0, B_D]],
    whose verdict and claim hold when both parents' do (_derived)."""
    if C.ring != D.ring:
        raise RingMismatch("direct sum of complexes over different rings")
    return _derived(_sum, (C, D), None, C.degrees0 + D.degrees0, C.degrees1 + D.degrees1)


def cone_mul(C: PeriodicComplex, p) -> PeriodicComplex:
    """Mapping cone of multiplication by p on C.

    p must be x-homogeneous as a class mod w (its normal form is tested);
    the new summands' degrees shift by its x-degree, 0 for the zero class.
    The blocks [[A, pI], [0, -B]] and [[B, pI], [0, -A]] multiply to
    [[A*B, 0], [0, B*A]], and in the other order to [[B*A, 0], [0, A*B]],
    whatever p is, so the cone is an exact factorization exactly when C is,
    and takes C's verdict (is_factorization) and claim (certified).  When C
    is certified, C's verdict (computed once if it is not yet kept) decides
    at once: CertificationFailed when it is false.  The reduced scalar
    enters the cone's entries (_derived) and is not kept apart from them.
    """
    ring = C.ring
    rep = ring.normal_form(p)
    degs = rep.x_degrees()
    if len(degs) > 1:
        raise NotHomogeneousScalar(f"cone scalar {rep} is not x-homogeneous mod w")
    g = max(degs, default=0)
    if C.certified and not C.is_factorization:
        raise CertificationFailed("cone blocks do not multiply to w*I")
    return _derived(_cone, (C,), rep, C.degrees0 + tuple(d + g - 1 for d in C.degrees1),
                    C.degrees1 + tuple(d + g for d in C.degrees0))


def _derived(rule, parents: tuple[PeriodicComplex, ...], rep: Poly | None, degrees0,
             degrees1) -> PeriodicComplex:
    """The pair a step builds from `parents`, with `rep` the reduced scalar
    of a cone and None otherwise.  rule(parents' pair_entries, rep) gives
    the new pair's DistinctEntries, expanded here into the dense A and B
    with values[k] at each (column, k) pair and the ring's one zero
    elsewhere, and kept as the pair's pair_entries, whose image is its
    pencil.  The pair claims certification when every parent does, and
    keeps (rule, parents), from which its verdict (is_factorization) and
    its ranks over R (variety.ranks_over_R) follow."""
    ring = parents[0].ring
    entries = rule([P.pair_entries for P in parents], rep)
    C = PeriodicComplex(ring, *entries.grids(entries.values, ring.ambient.zero()), degrees0, degrees1,
                        all(P.certified for P in parents))
    C.pair_entries = entries
    C._derivation = (rule, parents)
    return C


# The step rules.  Each takes its parents' pair_entries and a scalar (a
# cone's, else None), and gives the new pair's.  `known` indexes values by
# value, a parent's values first under their own indices, so a value met
# again is the parent's object, and _indexed keeps the values the new rows
# meet.

def _index(known: dict, values) -> list[int]:
    """The index in `known` (value -> index) of each of `values`, a value
    not yet known getting the next index."""
    return [known.setdefault(v, len(known)) for v in values]


def _moved(rows, offset: int, to: list[int]) -> tuple:
    """`rows` with each column moved by `offset` and each index k made to[k]."""
    return tuple(tuple((j + offset, to[k]) for j, k in row) for row in rows)


def _indexed(values, grids) -> DistinctEntries:
    """The DistinctEntries of `grids`, rows of (column, k) pairs whose k
    index `values`: the values met, renumbered in the order first met."""
    new: dict[int, int] = {}
    rows = tuple(tuple(tuple((j, new.setdefault(k, len(new))) for j, k in row) for row in grid)
                 for grid in grids)
    return DistinctEntries(tuple(values[k] for k in new), rows)


def _cone(parents, scalar) -> DistinctEntries:
    """[[A, pI], [0, -B]] and [[B, pI], [0, -A]]; a zero p is left out."""
    (P,) = parents
    known = {v: k for k, v in enumerate(P.values)}
    neg = _index(known, [-v for v in P.values])
    p = known.setdefault(scalar, len(known)) if scalar.terms else None
    rows_a, rows_b = P.rows
    n = len(rows_a)

    def block(upper, lower):
        if p is not None:
            upper = tuple(row + ((n + i, p),) for i, row in enumerate(upper))
        return upper + _moved(lower, n, neg)

    return _indexed(list(known), (block(rows_a, rows_b), block(rows_b, rows_a)))


def _shift(parents, scalar) -> DistinctEntries:
    """(-B, -A)."""
    (P,) = parents
    known = {v: k for k, v in enumerate(P.values)}
    neg = _index(known, [-v for v in P.values])
    rows_a, rows_b = P.rows
    return _indexed(list(known), (_moved(rows_b, 0, neg), _moved(rows_a, 0, neg)))


def _dual(parents, scalar) -> DistinctEntries:
    """(B^t, A^t)."""
    (P,) = parents

    def transpose(rows):
        cols = [[] for _ in rows]
        for i, row in enumerate(rows):
            for j, k in row:
                cols[j].append((i, k))
        return tuple(map(tuple, cols))

    rows_a, rows_b = P.rows
    return _indexed(P.values, (transpose(rows_b), transpose(rows_a)))


def _sum(parents, scalar) -> DistinctEntries:
    """The block diagonal of the two parents, grid by grid."""
    C, D = parents
    known = {v: k for k, v in enumerate(C.values)}
    to = _index(known, D.values)
    n = len(C.rows[0])
    return _indexed(list(known), tuple(top + _moved(low, n, to) for top, low in zip(C.rows, D.rows)))


def trivial_pair(ring: RingSpec) -> PeriodicComplex:
    """The contractible pair (1, w); its variety is empty."""
    return periodic_from_pair(ring, [[ring.ambient.one()]], [[ring.w]], (0,), (0,))


# ---------------------------------------------------------------------------
# Koszul complex and the Shamash resolution of the residue field
# ---------------------------------------------------------------------------

def _koszul_signs(ring: RingSpec) -> list:
    """For each of the c + d variables v_i of P, the pair (v_i, -v_i) and,
    for an x-index i, the pair (f_i, -f_i), None for a y-index.  Each value
    is one object, the first one made of that value (-v_i is v_i in
    characteristic 2, and an f_i equal to an earlier signed value is that
    value's object)."""
    amb = ring.ambient
    known: dict[Poly, Poly] = {}

    def signed(v: Poly) -> tuple[Poly, Poly]:
        v = known.setdefault(v, v)
        neg = -v
        return v, known.setdefault(neg, neg)

    return [(signed(amb.variable(v)), signed(ring.f[i]) if i < ring.c else None)
            for i, v in enumerate(amb.vars)]


def _koszul_fold(ring: RingSpec, signs: list, src: list[tuple[int, ...]],
                 tgt: list[tuple[int, ...]]) -> Grid:
    """The matrix of del + xi-wedge from the span of the e_S, S in `src`,
    to the span of the e_T, T in `tgt`: a len(tgt) x len(src) grid, each
    subset a sorted tuple of indices of the c + d variables of P (the
    x-variables first).  With p = #{s in S : s < i}, e_S goes to
    (-1)^p v_i e_(S - i) for each i in S, v_i the i-th variable (del), and
    to (-1)^p f_i e_(S + i) for each x-index i not in S (xi-wedge); a term
    whose target is not in `tgt` is left out.  Each (T, S) pair gets at
    most one term, since T and S determine i.  The signed coefficients are
    the objects of `signs` (_koszul_signs), so every entry of a given value
    is one object, across calls that share `signs`."""
    row_of = {t: row for row, t in enumerate(tgt)}
    zero = ring.ambient.zero()
    grid = [[zero] * len(src) for _ in tgt]
    for col, s in enumerate(src):
        for i, (var, f) in enumerate(signs):
            p = bisect_left(s, i)
            if p < len(s) and s[p] == i:
                t, coeff = s[:p] + s[p + 1:], var
            elif f is not None:
                t, coeff = s[:p] + (i,) + s[p:], f
            else:
                continue
            if t in row_of:
                grid[row_of[t]][col] = coeff[p % 2]
    return as_grid(grid)


def koszul_differential(ring: RingSpec, n: int) -> Grid:
    """del_n : F_n -> F_(n-1) of the Koszul complex on all c + d variables,
    bases ordered by itertools.combinations: the fold restricted to F_n
    and F_(n-1)."""
    m = ring.c + ring.d
    return _koszul_fold(ring, _koszul_signs(ring), list(combinations(range(m), n)),
                        list(combinations(range(m), n - 1)))


def xi_wedge(ring: RingSpec, n: int) -> Grid:
    """Wedging with xi = sum f_i e_(x_i) : F_n -> F_(n+1); the null-homotopy
    of multiplication by w on the Koszul complex (Cartan's identity), the
    fold restricted to F_n and F_(n+1)."""
    m = ring.c + ring.d
    return _koszul_fold(ring, _koszul_signs(ring), list(combinations(range(m), n)),
                        list(combinations(range(m), n + 1)))


def shamash_resolution(ring: RingSpec) -> PeriodicComplex:
    """The certified periodic tail of the Shamash resolution of the residue
    field, G_n = sum_j F_(n-2j) with differential del + xi-wedge, which is
    2-periodic past index m = c + d.  C_0 holds the exterior powers F_k with
    k = m, m-2, .. and C_1 those with k = m-1, m-3, .., each side by
    descending k and in combinations order within F_k.  A (C_1 -> C_0) and
    B (C_0 -> C_1) are both the one fold del + xi-wedge between the two
    bases (_koszul_fold): from every source summand F_k, del_k into F_(k-1)
    and xi-wedge into F_(k+1), where that target is present.  Generator
    e_S, with s of the x-variables in S, has degree s + (m - k)/2 on C_0
    and s + (m + 1 - k)/2 on C_1.  Entries are y-variables, x-variables and
    the f_i, all already in normal form mod w.  A ring of more than
    MAX_KOSZUL_VARIABLES variables raises BoundExceeded before any work."""
    m = ring.c + ring.d
    if m > MAX_KOSZUL_VARIABLES:
        raise BoundExceeded(f"the Shamash tail on c + d = {m} variables exceeds the cap of "
                            f"{MAX_KOSZUL_VARIABLES}")
    sides = [[s for k in range(m - parity, -1, -2) for s in combinations(range(m), k)]
             for parity in (0, 1)]
    degrees = [tuple(sum(1 for i in s if i < ring.c) + (m + parity - len(s)) // 2 for s in side)
               for parity, side in enumerate(sides)]
    even, odd = sides
    signs = _koszul_signs(ring)
    return periodic_from_pair(ring, _koszul_fold(ring, signs, odd, even),
                              _koszul_fold(ring, signs, even, odd), *degrees)
