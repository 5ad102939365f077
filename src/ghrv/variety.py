"""Rank varieties of periodic complexes.

For a valid pair (A, B) of size n over R the complex is contractible iff both
differentials have the expected minor ideals full, and the failure locus in
projective (c-1)-space is cut out by the images in k[x] of the critical minor
ideals:

    V(C) = Z(image I_rA(A)) union Z(image I_rB(B)),   rA + rB = n.

Ranks over R are computed by eliminating x_1: inverting f_1 identifies
R[1/f_1] with a localized polynomial ring in (x_2..x_c, y), sending x_1 to
-(f_2 x_2 + .. + f_c x_c)/f_1, and row scaling by powers of f_1 clears the
denominators without changing the rank.  With u = f_1 x_1 - w and top a
row's largest x_1-degree, a term c x_1^t m becomes c m u^t f_1^(top - t).
Each multiplier u^t f_1^(top - t) is built once per ring and kept on it as
a term list (u itself only when one is missing), each distinct (entry
object, top) is expanded once per elimination and summed in one dict, and
a row without x_1 passes unchanged.  Fraction-free elimination on sparse
rows (rank_over_domain) then gives the rank.  The exhaustive descending
minor search is kept in matrix.py as the oracle this path is tested
against.  A pair needs one such elimination when it is an exact matrix
factorization, A*B = B*A = w*I over P: then rank(B) = n - rank(A) by the
complement rule (PeriodicComplex.is_factorization).  ranks_over_R applies
it and eliminates B as well only when the identity fails.

Both sides rest on one reduction, the ring map P = Q[x] -> k[x], y -> 0.
It kills w, because every term of w has positive y-degree, so it factors
through R.  Applied entrywise it gives the residue pencil (Abar, Bbar) =
(A, B)|_{y=0} over k[x].  The image of I_r(A) mod w is I_r(Abar), so the
minor-ideal images are the minors of the pencil, with no reduction mod w.

Membership of a point is evaluation of generators, optionally through a
deterministic field embedding, so a variety computed over GF(p) can be
scanned over GF(p^j) towers.  A point alpha is a ProjPoint or a tuple of
coordinates in the ring's field.  Contractibility at alpha evaluates the
pencil at alpha and tests rank(Abar(alpha)) + rank(Bbar(alpha)) = n.  Each
pair keeps its pencil by its distinct nonzero entries
(PeriodicComplex.pencil_entries): the images y -> 0 of the nonzero entries
of A and B, equal images sharing one index, and for each of Abar and Bbar
rows of (column, index) pairs.  A scan over many points therefore pays for
y -> 0 once.  A pair built by a step (cone_mul, shift, dual,
direct_sum) runs the step's rule on its parents' pencils, since y -> 0 is
a ring map, with one image_in_kx on a cone's scalar and none otherwise;
any other pair maps each distinct nonzero entry object of A and B once
(complexes.distinct_entries).  A verdict builds one poly.evaluator per point, which looks up
the embedding once and keeps one power table per coordinate, evaluates
each distinct entry once, and _ranks builds each row's dict of nonzero
scalars straight from its pairs for the one field rank
(matrix.rank_over_field).  So a verdict costs in proportion to the distinct
nonzero entries, and no dense grid is formed.  Specializing x -> a along
chosen preimages a of alpha and then reducing y -> 0 gives the same scalars
for every choice of preimages; that route is kept as the oracle
(_oracle_scalars), and only the preimage perturbation check runs it, ranked
by _ranks on the rows of C.pair_entries.  The oracle substitutes the full
preimages into each distinct nonzero entry of A and B, once per point, and
reads the residue from the whole specialized polynomial, so it costs more
than the verdict it checks; no oracle scalar comes from the pencil.  Each
preimage keeps its powers (Poly.__pow__), so a trial raises each preimage
once for all entries.  A zero entry skips the oracle, since
specialize(0) = 0 exactly.  A verdict validates its point and evaluates the
pencil; it builds no preimages, which only the oracle reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from operator import add as _mono_add

from .complexes import DistinctEntries, PeriodicComplex
from .errors import BoundExceeded, InvalidComplex, UnsupportedField
from .fields import Field, make_extension
from .matrix import all_minors, map_entries, rank_over_domain, rank_over_field
from .poly import Poly, PolyRing, evaluator, order_key
from .ring import RingSpec, point_coords, residue, specialize


# points_up_to refuses a projective space with more than this many points,
# before building any: a scan over them would not finish.
MAX_POINTS = 10**6


# ---------------------------------------------------------------------------
# rank over R
# ---------------------------------------------------------------------------

def _eliminate_x1(rows, ring: RingSpec):
    """Image of the grid under x_1 -> u/f_1, each row scaled by f_1^top (see
    the module docstring); entries stay in the ambient ring, x_1-free.  The
    multipliers u^t f_1^(top - t) are kept on the ring (RingSpec._x1_multipliers),
    u built only when one is missing, and each distinct (entry object, top)
    is expanded once per call; the rows hold every entry for the call."""
    amb = ring.ambient
    idx = amb.var_index(ring.xvars[0])
    f1 = ring.f[0]
    multipliers = ring._x1_multipliers
    u = None
    add, mul = amb.field.add, amb.field.mul
    expanded: dict[int, dict[int, Poly]] = {}  # top -> id of an entry -> its image
    out = []
    for row in rows:
        top = max((m[idx] for e in row for m in e.terms), default=0)
        if not top:
            out.append(tuple(row))
            continue
        memo = expanded.setdefault(top, {})
        new_row = []
        for e in row:
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
                new = memo[id(e)] = Poly(amb, acc) if acc else e
            new_row.append(new)
        out.append(tuple(new_row))
    return tuple(out)


def rank_over_R(rows, ring: RingSpec) -> int:
    """Rank of a matrix of representatives as a matrix over R.  Nonzero
    entries are reduced mod w first, each distinct entry object once
    (map_entries); a zero entry is its own normal form."""
    (nf_rows,) = map_entries(lambda e: ring.normal_form(e) if e.terms else e, rows)
    return rank_over_domain(_eliminate_x1(nf_rows, ring), ring.ambient)


def ranks_over_R(C: PeriodicComplex) -> tuple[int, int]:
    """(rank A, rank B) over R.  B's rank is n - rank A by the complement
    rule when C.is_factorization holds, and is eliminated otherwise."""
    r_a = rank_over_R(C.A, C.ring)
    if C.is_factorization:
        return r_a, C.size - r_a
    return r_a, rank_over_R(C.B, C.ring)


def rank_over_R_by_minors(rows, ring: RingSpec) -> int:
    """Oracle path: largest r with some r x r minor nonzero mod w,
    descending exhaustive search.  Exponential; small matrices only."""
    nf_rows = [[ring.normal_form(e) for e in row] for row in rows]
    m = len(nf_rows)
    n = len(nf_rows[0]) if m else 0
    for r in range(min(m, n), 0, -1):
        for minor in all_minors(nf_rows, r, ring.ambient):
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


def _canonical_gens(ring: PolyRing, gens) -> tuple[Poly, ...]:
    """The distinct monic generators by leading monomial, descending; those
    sharing one are ordered by the repr of their sorted terms, descending,
    a key built only for such groups.  A constant generator gives (1)."""
    seen = {}
    for g in gens:
        if g.terms:
            g = g.monic()
            seen[frozenset(g.terms.items())] = g
    if any(g.is_constant() for g in seen.values()):
        return (ring.one(),)
    groups: dict = {}
    for g in seen.values():
        groups.setdefault(g.leading_monomial(), []).append(g)
    ordered = []
    for lm in sorted(groups, key=order_key, reverse=True):
        group = groups[lm]
        if len(group) > 1:
            group.sort(key=lambda g: repr(g.sorted_terms()), reverse=True)
        ordered += group
    return tuple(ordered)


def minor_ideal_image(rows, r: int, ring: RingSpec) -> IdealGens:
    """Image in k[x] of the ideal of r x r minors, taken mod w: the r x r
    minors of rows|_{y=0}, since y -> 0 is a ring map that kills w.  r <= 0
    gives the unit ideal by the usual convention I_0 = (1)."""
    if r <= 0:
        return IdealGens(ring.kx, (ring.kx.one(),))
    gens = all_minors(ring.image_grid(rows), r, ring.kx)
    return IdealGens(ring.kx, _canonical_gens(ring.kx, gens))


@dataclass(frozen=True)
class ZeroSetUnion:
    """Finite union of zero sets of homogeneous ideals in projective
    (c-1)-space over the base field of `ring`."""

    ring: PolyRing
    components: tuple[IdealGens, ...]

    def describe(self) -> str:
        return " union ".join(f"Z{c.describe()}" for c in self.components)


def rank_variety(C: PeriodicComplex) -> ZeroSetUnion:
    """V(C) as the union of the two critical minor-ideal zero sets.  The two
    components are kept separate; they are not intersected or combined."""
    ring = C.ring
    r_a, r_b = ranks_over_R(C)
    if r_a + r_b != C.size:
        raise InvalidComplex(
            f"rank(A) + rank(B) = {r_a} + {r_b} != {C.size}; pair is not a valid complex"
        )
    return ZeroSetUnion(
        ring.kx,
        (
            minor_ideal_image(C.A, r_a, ring),
            minor_ideal_image(C.B, r_b, ring),
        ),
    )


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
    BoundExceeded for too many points (_check_point_count)."""
    if not field.finite:
        raise UnsupportedField("point enumeration needs a finite field")
    if c < 1:
        raise ValueError(f"point enumeration needs c >= 1 coordinates, got {c}")
    if degree < 1:
        raise ValueError(f"point enumeration needs a degree >= 1, got {degree}")
    _check_point_count(field, c, degree)

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


@dataclass(frozen=True)
class EmptinessVerdict:
    empty_up_to: bool
    bound: int
    witness: ProjPoint | None = None
    witness_degree: int | None = None

    def describe(self) -> str:
        if self.empty_up_to:
            return f"no points over extensions of degree <= {self.bound}"
        return f"point {self.witness} found over the degree-{self.witness_degree} extension"


def is_empty(V: ZeroSetUnion, bound: int = 4) -> EmptinessVerdict:
    """Bounded semi-decision: scan P^(c-1)(F_(q^j)) for j = 1..bound in
    deterministic order (points_up_to) and report the first witness, if
    any.  bound < 1 raises ValueError: a scan over no extension decides
    nothing, and one over an extension of more than MAX_POINTS points
    raises BoundExceeded before any point is scanned."""
    base = V.ring.field
    if not base.finite:
        raise UnsupportedField("emptiness scan needs a finite base field")
    if bound < 1:
        raise ValueError(f"emptiness scan needs bound >= 1, got {bound}")
    for j, (_, points) in enumerate(points_up_to(base, len(V.ring.vars), bound), start=1):
        for pt in points:
            if membership(V, pt):
                return EmptinessVerdict(False, bound, witness=pt, witness_degree=j)
    return EmptinessVerdict(True, bound)


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
    """(rank Abar(alpha), rank Bbar(alpha)) by _ranks on the kept pencil.
    One evaluator serves the point, so the embedding and the powers of each
    coordinate are computed once, and each distinct entry of
    C.pencil_entries.values is evaluated once."""
    fld, point = _field_and_point(C, alpha)
    at = evaluator(C.ring.kx, dict(zip(C.ring.xvars, point)), fld)
    return _ranks(C.pencil_entries, [at(e) for e in C.pencil_entries.values], fld)


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

    nvars = ring.c + ring.d
    monos = [tuple(ys.count(v) for v in range(nvars))
             for k in (1, 2) for ys in combinations_with_replacement(range(ring.c, nvars), k)]

    constant = (0,) * nvars
    verdicts = []
    for _ in range(trials):
        preimages = tuple(Poly(amb, {constant: a} | {m: elems[rng.randrange(len(elems))] for m in monos})
                          for a in coords)  # zero coefficients drop out
        verdicts.append(sum(_ranks(C.pair_entries, _oracle_scalars(C, preimages), fld)) == C.size)
    return PerturbationReport(alpha, trials, seed, baseline, verdicts)
