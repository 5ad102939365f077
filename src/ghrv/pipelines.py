"""End-to-end constructions: the Shamash tail on all variables (built by
complexes.shamash_resolution), realizability of closed sets by iterated
cones, module-level varieties, and the scripted worked-example checks.

The realizability pipeline starts from the Shamash tail K, takes the cone by
each requested x-homogeneous class in turn, and certifies pointwise that each
cone relates to its parent by the intersection law V(C^p) = V(C) n Z(p-bar).

A warning on the base complex: the Shamash tail resolves R/(y, x), the
quotient by every variable (the residue field of R itself), which the
specialization x -> alpha sends to Q/(y, w_alpha, alpha) = 0.  Its critical
minor-ideal images are powers of (x_1..x_c), so its own rank variety is EMPTY
(every specialization is contractible).  The intersection law is verified relative to that base, so
the trace records the requested zero set and the honest pointwise data side
by side rather than claiming the two coincide.  The 2x2 documented fixture
(fixture_k) resolves k[x] = R/(y)R, the residue field of Q/(f) extended to
R; it is the complex whose variety really is all of projective space, and
iterated cones on it realize the requested zero sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .complexes import (
    PeriodicComplex,
    cone_mul,
    periodic_from_pair,
    shamash_resolution,
)
from .errors import InternalCheckError, InvalidComplex, UnsupportedField
from .fields import Field, field_name, prime_field
from .poly import Poly
from .ring import RingSpec, make_ring
from .variety import (
    IdealGens,
    ZeroSetUnion,
    _canonical_gens,
    contractible_at,
    enumerate_points,
    is_empty,
    membership,
    preimage_independence_check,
    rank_variety,
    ranks_over_R,
)


def complete_resolution_of_k(ring: RingSpec) -> PeriodicComplex:
    """Certified periodic tail of the Shamash resolution of R/(y, x), the
    quotient of R by all c + d variables (the residue field of R itself, not
    the residue field of Q/(f) extended to R; see fixture_k).  It is
    shamash_resolution(ring): del + xi-wedge between the even and the odd
    exterior powers of the Koszul complex, of size 2^(c+d-1).

    The tail is minimal (every entry lies in the irrelevant maximal ideal),
    so it is the canonical matrix factorization behind that module's
    eventual periodicity.  Its minor-ideal images are x-primary, hence its
    rank variety is empty; see the module docstring.
    """
    return shamash_resolution(ring)


@dataclass
class TraceStage:
    scalar: Poly | None  # None for the starting complex
    complex: PeriodicComplex
    # base-field points where the stage is not contractible; None when the
    # base field is not enumerable or verification was skipped
    noncontractible: tuple | None = None

    @property
    def size(self) -> int:
        return self.complex.size


@dataclass
class RealizationTrace:
    ring: RingSpec
    stages: list[TraceStage]
    requested: ZeroSetUnion  # zero set of the input scalars' images in k[x]
    verified_points: int = 0

    @property
    def final(self) -> PeriodicComplex:
        return self.stages[-1].complex

    @property
    def sizes(self) -> list[int]:
        return [s.size for s in self.stages]


def realize(ring: RingSpec, scalars, verify: bool = True) -> RealizationTrace:
    """Iterated cones on complete_resolution_of_k, the tail for R/(y, x).

    Each scalar must be x-homogeneous mod w.  The trace records the requested
    zero set Z(p1-bar, ..., pm-bar) and, over a finite base field, the honest
    pointwise data for every stage.  Verification checks the intersection law
    at each cone step: a point is non-contractible for stage i exactly when
    it is non-contractible for stage i-1 and the i-th scalar vanishes on it.
    A violation raises InternalCheckError, since the law holds for every
    matrix factorization; the law is relative, so it does not by itself make
    the final pointwise data match the requested zero set (the base complex
    has empty variety, see the module docstring).  The check ranks each
    stage's whole 2n x 2n pencil at every base-field point (contractible_at);
    each stage builds that pencil by mapping each value of its own
    pair_entries y -> 0 once (PeriodicComplex.pencil_entries), and its
    evaluation plan once (PeriodicComplex.pencil_plan).
    """
    reps = [ring.normal_form(p) for p in scalars]
    current = complete_resolution_of_k(ring)
    stages = [TraceStage(None, current)]
    for rep in reps:
        current = cone_mul(current, rep)
        stages.append(TraceStage(rep, current))

    images = [ring.image_in_kx(rep) for rep in reps]
    requested = ZeroSetUnion(ring.kx, (IdealGens(ring.kx, _canonical_gens(ring.kx, images)),))

    trace = RealizationTrace(ring, stages, requested)
    if verify and ring.field.finite:
        points = enumerate_points(ring.field, ring.c)
        names = ring.kx.vars
        in_variety = {}
        for i, stage in enumerate(stages):
            current_points = []
            for pt in points:
                here = not contractible_at(stage.complex, pt)
                if i > 0:
                    value = images[i - 1].evaluate(dict(zip(names, pt.coords)), target=pt.field)
                    expect = in_variety[pt] and pt.field.is_zero(value)
                    if here != expect:
                        raise InternalCheckError(
                            f"cone stage {i} breaks the intersection law at {pt}"
                        )
                    trace.verified_points += 1
                in_variety[pt] = here
                if here:
                    current_points.append(pt)
            stage.noncontractible = tuple(current_points)
    return trace


def module_variety(C: PeriodicComplex) -> ZeroSetUnion:
    """V(M) for the maximal Cohen-Macaulay module M = image of the even
    differential of the certified pair C, which is its complete resolution:
    the variety of C.  An uncertified pair raises InvalidComplex."""
    if not C.certified:
        raise InvalidComplex("module presentation needs a certified pair")
    return rank_variety(C)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def worked_ring(field: Field) -> RingSpec:
    """The running example: k[x,y] base, w = x^2*x1 + y^2*x2."""
    return make_ring(field, yvars=("x", "y"), xvars=("x1", "x2"), f=("x^2", "y^2"))


def _worked_variables(ring: RingSpec):
    """(u, v, s, t): the y- and then the x-variables of a ring of the worked
    shape, two of each with f = (u^2, v^2); ValueError for any other ring."""
    if ring.c != 2 or ring.d != 2:
        raise ValueError("fixture needs a ring with two x- and two y-variables")
    amb = ring.ambient
    u, v = (amb.variable(n) for n in ring.yvars)
    if ring.f != (u * u, v * v):
        raise ValueError("fixture needs coefficients f = (y1^2, y2^2)")
    s, t = (amb.variable(n) for n in ring.xvars)
    return u, v, s, t


def fixture_k(ring: RingSpec) -> PeriodicComplex:
    """2x2 complete resolution of k[x1, x2] = R/(y)R, the residue field of
    Q/(f) extended to R, for the worked ring; its variety is all of P^1."""
    u, v, s, t = _worked_variables(ring)
    return periodic_from_pair(
        ring,
        [[-v, u * s], [u, v * t]],
        [[-v * t, u * s], [u, v]],
        degrees0=(0, 0),
        degrees1=(0, 1),
    )


def fixture_rank_one(ring: RingSpec) -> PeriodicComplex:
    """The 2x2 pair with both ranks one and empty variety."""
    u, v, s, t = _worked_variables(ring)
    return periodic_from_pair(
        ring,
        [[s, -(v * v)], [t, u * u]],
        [[u * u, v * v], [-t, s]],
        degrees0=(0, 0),
        degrees1=(1, 0),
    )


def documented_cone_pair(ring: RingSpec):
    """The 4x4 pair the cone of fixture_k by x1*x2 must equal, written out
    entry by entry as an independent reference."""
    u, v, s, t = _worked_variables(ring)
    z = ring.ambient.zero()
    p = s * t
    d_grid = (
        (-v, u * s, p, z),
        (u, v * t, z, p),
        (z, z, v * t, -(u * s)),
        (z, z, -u, -v),
    )
    d_prime_grid = (
        (-v * t, u * s, p, z),
        (u, v, z, p),
        (z, z, v, -(u * s)),
        (z, z, -u, -v * t),
    )
    return d_grid, d_prime_grid


FIXTURE_NAMES = ("k5-example", "k-resolution", "rank-one-pair")


def named_fixture(name: str, ring: RingSpec) -> PeriodicComplex:
    """Built-in complexes for the CLI: the 4x4 worked cone, the 2x2
    resolution of R/(y)R (fixture_k), and the rank-one pair."""
    if name == "k5-example":
        _, _, s, t = _worked_variables(ring)
        return cone_mul(fixture_k(ring), s * t)
    if name == "k-resolution":
        return fixture_k(ring)
    if name == "rank-one-pair":
        return fixture_rank_one(ring)
    raise ValueError(f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}")


@dataclass
class ClaimCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ReproReport:
    field: Field
    seed: int
    claims: list[ClaimCheck] = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.claims.append(ClaimCheck(name, passed, detail))


def reproduce_examples(field: Field | None = None, seed: int = 0) -> ReproReport:
    """Re-run the documented worked examples over a chosen finite field and
    report each claim separately."""
    if field is None:
        field = prime_field(5)
    if not field.finite:
        raise UnsupportedField("the worked examples need a finite field")
    report = ReproReport(field, seed)
    ring = worked_ring(field)

    pair = fixture_rank_one(ring)
    report.add("rank-one pair certifies as a matrix factorization", pair.certified)

    r_a, r_b = ranks_over_R(pair)
    report.add("both differentials of the pair have rank one over R",
               r_a == 1 and r_b == 1, f"ranks {r_a}, {r_b}")

    v_pair = rank_variety(pair)
    x1 = ring.kx.variable(ring.xvars[0])
    x2 = ring.kx.variable(ring.xvars[1])
    want = (x1, x2)
    report.add("both critical minor-ideal images equal (x1, x2)",
               all(comp.gens == want for comp in v_pair.components),
               v_pair.describe())

    report.add("the pair's variety is empty over the algebraic closure", is_empty(v_pair))

    k = fixture_k(ring)
    report.add("2x2 resolution pair of R/(y)R certifies", k.certified)

    _, _, s, t = _worked_variables(ring)
    cone = cone_mul(k, s * t)
    d_grid, d_prime_grid = documented_cone_pair(ring)
    report.add("cone by x1*x2 reproduces the documented 4x4 pair exactly",
               cone.A == d_grid and cone.B == d_prime_grid)

    v_cone = rank_variety(cone)
    base_points = enumerate_points(field, ring.c)
    in_v = [pt for pt in base_points if membership(v_cone, pt)]
    two = [str(pt) for pt in in_v]
    expected = {"(1:0)", "(0:1)"}
    report.add("variety of the cone is exactly {(1:0), (0:1)} over the base field",
               set(two) == expected and len(in_v) == 2,
               "points " + ", ".join(two))

    report.add("the two-point variety is a disconnection witness",
               len(in_v) == 2 and in_v[0] != in_v[1]
               and not membership(v_cone, enumerate_points(field, 2)[1]),
               "distinct points with (1:1) outside")

    v_k = rank_variety(k)
    report.add("every base-field point lies in the resolution pair's variety",
               all(membership(v_k, pt) for pt in base_points))

    stable = True
    for pt in in_v:
        rep = preimage_independence_check(cone, pt, trials=5, seed=seed)
        stable = stable and rep.stable and rep.baseline is False
    report.add("seeded preimage perturbations never move the verdicts",
               stable, f"seed {seed}, 5 trials per point")
    return report


def describe_report(report: ReproReport) -> str:
    lines = [f"worked examples over {field_name(report.field)} (seed {report.seed})"]
    for claim in report.claims:
        status = "ok" if claim.passed else "FAIL"
        suffix = f" [{claim.detail}]" if claim.detail else ""
        lines.append(f"  [{status}] {claim.name}{suffix}")
    lines.append("all claims hold" if report.all_passed else "SOME CLAIMS FAILED")
    return "\n".join(lines)
