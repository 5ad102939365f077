"""Totally acyclic complexes over R presented as periodic matrix pairs.

A pair (A, B) of square matrices over the ambient ring P with A*B = B*A = w*I
is a matrix factorization of w; reducing mod w gives a 2-periodic complex of
free R-modules, and every totally acyclic complex over the hypersurface is of
this shape up to the usual eventual-periodicity.  The pair is stored with
generator degrees for the two underlying modules:

    .. --A--> C_0(degrees0) --B(+1 twist)--> C_1(degrees1) --A--> ..

PeriodicComplex(ring, a_grid, b_grid, degrees0, degrees1, certified) is the
only way a pair is built, and it owns the degree rule: A maps degrees1 to
degrees0, and B maps degrees0 twisted by 1 (the x-degree of w) to degrees1.
A is the odd-to-even differential.  Homogeneity: a nonzero entry (i, j) of a
map has x-degree  deg_source(j) - deg_target(i), judged on normal forms mod w
since entries only matter as R-classes.  Certification (the exact A*B = w*I
check over P) is judged on the stored representatives.

The Koszul complex here is taken on all c + d variables of P, and the Shamash
construction G_n = sum_j F_{n-2j} with differential d = del + xi-wedge turns
it into an R-free resolution of the residue field whose tail is periodic;
extracting consecutive differentials past index c + d gives the certified
pair used as the complete resolution of k.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations

from .errors import (
    CertificationFailed,
    NotAComplex,
    NotHomogeneous,
    NotHomogeneousScalar,
    NotStabilized,
    RingMismatch,
)
from .matrix import Grid, as_grid, block_matrix, identity, mat_mul, mat_neg, mat_shape, mat_transpose, zero_matrix
from .poly import NEG_INF
from .ring import RElem, RingSpec


@dataclass(frozen=True)
class GradedFreeModule:
    """Free module with a generator degree for each basis element."""

    degrees: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class HomMatrix:
    """Matrix of a degree-0 map between graded free modules; entry (i, j) is
    the coefficient of target generator i in the image of source generator j."""

    source: GradedFreeModule
    target: GradedFreeModule
    entries: Grid

    def __post_init__(self):
        m, n = mat_shape(self.entries)
        if (m, n) != (self.target.rank, self.source.rank):
            raise ValueError(
                f"entry grid is {m}x{n}, expected {self.target.rank}x{self.source.rank}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.target.rank, self.source.rank)

    def homogeneity_violations(self, ring: RingSpec) -> list[str]:
        out = []
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                nf = ring.normal_form(e)
                if nf.is_zero():
                    continue
                want = self.source.degrees[j] - self.target.degrees[i]
                if not nf.is_x_homogeneous():
                    out.append(f"entry ({i},{j}) = {nf} is not x-homogeneous")
                elif nf.x_homogeneous_degree() != want:
                    out.append(
                        f"entry ({i},{j}) = {nf} has x-degree "
                        f"{nf.x_homogeneous_degree()}, expected {want}"
                    )
        return out


class PeriodicComplex:
    """2-periodic complex of free R-modules, represented by the pair (A, B).

    The only constructor of a pair.  It takes the two grids and the reference
    degrees and applies the degree rule: A maps degrees1 to degrees0, and B
    maps degrees0 twisted by 1 (the x-degree of w) to degrees1.  Going up in
    homological degree the module degrees gain 1 per period, so the two
    reference tuples determine every module in the doubly infinite complex.
    Entries are coerced with ring.coerce; nothing beyond shapes is checked
    (periodic_from_pair and validate do that).  A and B are never reassigned
    after construction, which is what lets the pair keep its residue pencil.
    """

    def __init__(self, ring: RingSpec, a_grid, b_grid, degrees0, degrees1, certified: bool):
        degrees0 = tuple(degrees0)
        degrees1 = tuple(degrees1)
        if len(degrees0) != len(degrees1):
            raise ValueError("pair must be square of equal size")

        def hom(grid, source, target):
            entries = as_grid([[ring.coerce(e) for e in row] for row in grid])
            return HomMatrix(GradedFreeModule(source), GradedFreeModule(target), entries)

        self.ring = ring
        self.A = hom(a_grid, degrees1, degrees0)
        self.B = hom(b_grid, tuple(d + 1 for d in degrees0), degrees1)
        self.certified = certified

    @property
    def size(self) -> int:
        return self.A.source.rank

    @property
    def degrees0(self) -> tuple[int, ...]:
        return self.A.target.degrees

    @property
    def degrees1(self) -> tuple[int, ...]:
        return self.A.source.degrees

    @cached_property
    def pencil(self) -> tuple[Grid, Grid]:
        """The residue pencil (Abar, Bbar) = (A, B)|_{y=0}, grids over k[x];
        built on first use and kept with the pair."""
        return self.ring.image_grid(self.A.entries), self.ring.image_grid(self.B.entries)

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicComplex)
            and other.ring == self.ring
            and other.A == self.A
            and other.B == self.B
        )

    def __repr__(self):
        cert = "certified" if self.certified else "uncertified"
        return f"<periodic pair, size {self.size}, {cert}>"


@dataclass
class ValidationReport:
    """Outcome of structural checks; findings is empty iff everything asked
    for passed.  notes record assumptions that were not certified."""

    findings: list[tuple[str, str]] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code: str, message: str):
        self.findings.append((code, message))

    def describe(self) -> str:
        lines = []
        if self.ok:
            lines.append("valid: no findings")
        else:
            for code, message in self.findings:
                lines.append(f"finding {code}: {message}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def validate_pair(ring: RingSpec, A: HomMatrix, B: HomMatrix, claims_certified: bool,
                  check_rank: bool = True) -> ValidationReport:
    """Full structural report: complex condition mod w, entrywise
    homogeneity, certification when claimed, and the rank partition
    rank(A) + rank(B) = size.  Shapes and the degree drift are fixed by the
    PeriodicComplex constructor that built A and B."""
    report = ValidationReport()
    n = A.source.rank
    ab = mat_mul(A.entries, B.entries, ring.ambient)
    ba = mat_mul(B.entries, A.entries, ring.ambient)
    # A*B = B*A = w*I exactly makes both products zero mod w, so a certified
    # pair that passes the exact comparison needs no normal forms
    w_id = identity(ring.ambient, n, ring.w)
    certified = claims_certified and ab == w_id and ba == w_id
    if not certified:
        for name, prod in (("A*B", ab), ("B*A", ba)):
            bad = [
                (i, j)
                for i, row in enumerate(prod)
                for j, e in enumerate(row)
                if not ring.normal_form(e).is_zero()
            ]
            if bad:
                report.add("NotAComplex", f"{name} is nonzero mod w at entries {bad[:4]}")

    for label, hom in (("A", A), ("B", B)):
        for msg in hom.homogeneity_violations(ring):
            report.add("NotHomogeneous", f"{label}: {msg}")

    if not claims_certified:
        report.notes.append("certification not claimed; total acyclicity is assumed, not checked")
    elif not certified:
        report.add("CertificationFailed", "A*B = B*A = w*I fails on stored representatives")

    if check_rank and not any(code == "NotAComplex" for code, _ in report.findings):
        from .variety import rank_over_R

        r_a = rank_over_R(A.entries, ring)
        r_b = rank_over_R(B.entries, ring)
        if r_a + r_b != n:
            report.add("RankDefect", f"rank(A) + rank(B) = {r_a} + {r_b} != {n}")
    return report


def periodic_from_pair(ring: RingSpec, a_grid, b_grid, degrees0, degrees1,
                       certify: bool = False) -> PeriodicComplex:
    """Validating constructor.  With certify=True the exact w*I identity is
    required and the result is marked certified."""
    C = PeriodicComplex(ring, a_grid, b_grid, degrees0, degrees1, certified=certify)
    report = validate_pair(ring, C.A, C.B, claims_certified=certify, check_rank=False)
    for code, message in report.findings:
        if code == "NotAComplex":
            raise NotAComplex(message)
        if code == "NotHomogeneous":
            raise NotHomogeneous(message)
        if code == "CertificationFailed":
            raise CertificationFailed(message)
        raise ValueError(message)
    return C


def validate(C: PeriodicComplex, check_rank: bool = True) -> ValidationReport:
    return validate_pair(C.ring, C.A, C.B, claims_certified=C.certified, check_rank=check_rank)


# ---------------------------------------------------------------------------
# operations producing new complexes
# ---------------------------------------------------------------------------

def shift(C: PeriodicComplex) -> PeriodicComplex:
    """Suspension: swaps the roles of A and B with a global sign and drops
    the reference degrees by the appropriate twist.  Involutive up to the
    degree relabeling; shift(shift(C)) has all degrees down by 1."""
    return PeriodicComplex(
        C.ring,
        mat_neg(C.B.entries),
        mat_neg(C.A.entries),
        degrees0=tuple(d - 1 for d in C.degrees1),
        degrees1=C.degrees0,
        certified=C.certified,
    )


def dual(C: PeriodicComplex) -> PeriodicComplex:
    """R-linear dual; transposes the pair and negates degrees.  An exact
    involution: dual(dual(C)) == C."""
    return PeriodicComplex(
        C.ring,
        mat_transpose(C.B.entries),
        mat_transpose(C.A.entries),
        degrees0=tuple(-d - 1 for d in C.degrees0),
        degrees1=tuple(-d for d in C.degrees1),
        certified=C.certified,
    )


def direct_sum(C: PeriodicComplex, D: PeriodicComplex) -> PeriodicComplex:
    if C.ring != D.ring:
        raise RingMismatch("direct sum of complexes over different rings")
    ring = C.ring
    n, m = C.size, D.size
    a = block_matrix([
        [C.A.entries, zero_matrix(ring.ambient, n, m)],
        [zero_matrix(ring.ambient, m, n), D.A.entries],
    ])
    b = block_matrix([
        [C.B.entries, zero_matrix(ring.ambient, n, m)],
        [zero_matrix(ring.ambient, m, n), D.B.entries],
    ])
    return PeriodicComplex(
        ring,
        a,
        b,
        degrees0=C.degrees0 + D.degrees0,
        degrees1=C.degrees1 + D.degrees1,
        certified=C.certified and D.certified,
    )


def cone_mul(C: PeriodicComplex, p) -> PeriodicComplex:
    """Mapping cone of multiplication by p on C.

    p must be x-homogeneous as a class mod w (its normal form is tested); the
    blocks [[A, pI], [0, -B]] and [[B, pI], [0, -A]] again multiply to w*I,
    which is re-verified exactly when C is certified.
    """
    ring = C.ring
    rep = ring.normal_form(p.rep if isinstance(p, RElem) else p)
    if not rep.is_x_homogeneous():
        raise NotHomogeneousScalar(f"cone scalar {rep} is not x-homogeneous mod w")
    g_deg = rep.x_homogeneous_degree()
    g = 0 if g_deg == NEG_INF else g_deg

    n = C.size
    amb = ring.ambient
    p_block = identity(amb, n, rep)
    a = block_matrix([
        [C.A.entries, p_block],
        [zero_matrix(amb, n, n), mat_neg(C.B.entries)],
    ])
    b = block_matrix([
        [C.B.entries, p_block],
        [zero_matrix(amb, n, n), mat_neg(C.A.entries)],
    ])
    degrees0 = C.degrees0 + tuple(d + g - 1 for d in C.degrees1)
    degrees1 = C.degrees1 + tuple(d + g for d in C.degrees0)
    certified = False
    if C.certified:
        w_id = identity(amb, 2 * n, ring.w)
        if mat_mul(a, b, amb) != w_id or mat_mul(b, a, amb) != w_id:
            raise CertificationFailed("cone blocks do not multiply to w*I")  # pragma: no cover
        certified = True
    return PeriodicComplex(ring, a, b, degrees0, degrees1, certified=certified)


def trivial_pair(ring: RingSpec, degree: int = 0) -> PeriodicComplex:
    """The contractible pair (1, w); its variety is empty."""
    return periodic_from_pair(
        ring,
        [[ring.ambient.one()]],
        [[ring.w]],
        degrees0=(degree,),
        degrees1=(degree,),
        certify=True,
    )


# ---------------------------------------------------------------------------
# Koszul complex and the Shamash resolution of the residue field
# ---------------------------------------------------------------------------

@dataclass
class FiniteComplex:
    """Complex in a finite window [lo, hi]; diffs[i] maps slot lo+i+1 to
    slot lo+i.  `over` records whether d*d vanishes exactly (P) or mod w (R)."""

    ring: RingSpec
    lo: int
    modules: tuple[GradedFreeModule, ...]
    diffs: tuple[HomMatrix, ...]
    over: str

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def module(self, n: int) -> GradedFreeModule:
        return self.modules[n - self.lo]

    def diff(self, n: int) -> HomMatrix:
        """The differential leaving slot n downward."""
        return self.diffs[n - self.lo - 1]


def _koszul_basis(m: int, n: int):
    return list(combinations(range(m), n))


def _basis_degrees(ring: RingSpec, basis) -> tuple[int, ...]:
    c = ring.c
    return tuple(sum(1 for i in s if i < c) for s in basis)


def koszul_differential(ring: RingSpec, n: int) -> Grid:
    """del_n : F_n -> F_(n-1) of the Koszul complex on all c + d variables,
    bases ordered by itertools.combinations."""
    m = ring.c + ring.d
    amb = ring.ambient
    src = _koszul_basis(m, n)
    tgt = _koszul_basis(m, n - 1)
    tgt_index = {s: i for i, s in enumerate(tgt)}
    grid = [[amb.zero() for _ in src] for _ in tgt]
    gens = [amb.variable(v) for v in amb.vars]
    for j, s in enumerate(src):
        for t, i in enumerate(s):
            rest = s[:t] + s[t + 1 :]
            val = gens[i] if t % 2 == 0 else -gens[i]
            row = tgt_index[rest]
            grid[row][j] = grid[row][j] + val
    return as_grid(grid)


def xi_wedge(ring: RingSpec, n: int) -> Grid:
    """Wedging with xi = sum f_i e_(x_i) : F_n -> F_(n+1); the null-homotopy
    of multiplication by w on the Koszul complex (Cartan's identity)."""
    m = ring.c + ring.d
    amb = ring.ambient
    src = _koszul_basis(m, n)
    tgt = _koszul_basis(m, n + 1)
    tgt_index = {s: i for i, s in enumerate(tgt)}
    grid = [[amb.zero() for _ in src] for _ in tgt]
    for j, s in enumerate(src):
        members = set(s)
        for i in range(ring.c):
            if i in members:
                continue
            smaller = sum(1 for t in s if t < i)
            val = ring.f[i] if smaller % 2 == 0 else -ring.f[i]
            row = tgt_index[tuple(sorted(s + (i,)))]
            grid[row][j] = grid[row][j] + val
    return as_grid(grid)


def koszul(ring: RingSpec) -> FiniteComplex:
    """The full Koszul complex over P on (x_1..x_c, y_1..y_d)."""
    m = ring.c + ring.d
    modules = []
    diffs = []
    for n in range(m + 1):
        basis = _koszul_basis(m, n)
        modules.append(GradedFreeModule(_basis_degrees(ring, basis)))
    for n in range(1, m + 1):
        diffs.append(HomMatrix(modules[n], modules[n - 1], koszul_differential(ring, n)))
    return FiniteComplex(ring, 0, tuple(modules), tuple(diffs), over="P")


def _shamash_summands(m: int, n: int):
    """(j, koszul index n - 2j) pairs with nonempty Koszul piece, j ascending."""
    out = []
    j = 0
    while n - 2 * j >= 0:
        if n - 2 * j <= m:
            out.append((j, n - 2 * j))
        j += 1
    return out


def shamash_resolution(ring: RingSpec, N: int) -> FiniteComplex:
    """R-free resolution of the residue field on the window [0, N]:
    G_n = sum_j F_(n-2j) with generator degrees bumped by j, differential
    del + xi-wedge.  Entries are y-variables, x-variables and the f_i, all
    already in normal form mod w."""
    m = ring.c + ring.d
    if N < m + 2:
        raise NotStabilized(f"window [0, {N}] too short; need N >= {m + 2} to reach the periodic tail")
    amb = ring.ambient
    koszul_diff = {n: koszul_differential(ring, n) for n in range(1, m + 1)}
    wedge = {n: xi_wedge(ring, n) for n in range(0, m)}
    basis_deg = {n: _basis_degrees(ring, _koszul_basis(m, n)) for n in range(m + 1)}
    ranks = {n: len(basis_deg[n]) for n in range(m + 1)}

    modules = []
    layouts = []
    for n in range(N + 1):
        summands = _shamash_summands(m, n)
        offsets = {}
        degs: list[int] = []
        for j, kn in summands:
            offsets[(j, kn)] = len(degs)
            degs.extend(d + j for d in basis_deg[kn])
        layouts.append((summands, offsets))
        modules.append(GradedFreeModule(tuple(degs)))

    diffs = []
    for n in range(1, N + 1):
        src_summands, src_off = layouts[n]
        tgt_summands, tgt_off = layouts[n - 1]
        grid = [[amb.zero() for _ in range(modules[n].rank)] for _ in range(modules[n - 1].rank)]

        def paste(block, row0, col0):
            for i, row in enumerate(block):
                for j2, e in enumerate(row):
                    if not e.is_zero():
                        grid[row0 + i][col0 + j2] = e

        for j, kn in src_summands:
            if kn >= 1 and (j, kn - 1) in tgt_off:
                paste(koszul_diff[kn], tgt_off[(j, kn - 1)], src_off[(j, kn)])
            if (j - 1, kn + 1) in tgt_off:
                paste(wedge[kn], tgt_off[(j - 1, kn + 1)], src_off[(j, kn)])
        diffs.append(HomMatrix(modules[n], modules[n - 1], as_grid(grid)))
        del paste
    return FiniteComplex(ring, 0, tuple(modules), tuple(diffs), over="R")


def extract_mf(resolution: FiniteComplex, ring: RingSpec) -> PeriodicComplex:
    """Take the two consecutive differentials just past homological degree
    c + d, where the Shamash resolution has become strictly 2-periodic, and
    certify them as a matrix factorization."""
    m = ring.c + ring.d
    if resolution.hi < m + 2:
        raise NotStabilized(f"window reaches {resolution.hi}, need {m + 2}")
    a_hom = resolution.diff(m + 1)
    b_hom = resolution.diff(m + 2)
    n0, n1 = a_hom.shape
    if n0 != n1 or b_hom.shape != (n1, n0):
        raise NotStabilized(f"ranks {n0}, {n1} have not stabilized")  # pragma: no cover
    return periodic_from_pair(
        ring,
        a_hom.entries,
        b_hom.entries,
        degrees0=a_hom.target.degrees,
        degrees1=a_hom.source.degrees,
        certify=True,
    )


def validate_finite(fc: FiniteComplex) -> ValidationReport:
    """d o d = 0 (exactly over P, mod w over R) plus homogeneity."""
    report = ValidationReport()
    ring = fc.ring
    for n in range(fc.lo + 2, fc.hi + 1):
        prod = mat_mul(fc.diff(n - 1).entries, fc.diff(n).entries, ring.ambient)
        for i, row in enumerate(prod):
            for j, e in enumerate(row):
                bad = not e.is_zero() if fc.over == "P" else not ring.normal_form(e).is_zero()
                if bad:
                    report.add("NotAComplex", f"d_{n-1} d_{n} nonzero at ({i},{j})")
                    break
            else:
                continue
            break
    for n in range(fc.lo + 1, fc.hi + 1):
        for msg in fc.diff(n).homogeneity_violations(ring):
            report.add("NotHomogeneous", f"d_{n}: {msg}")
    return report
