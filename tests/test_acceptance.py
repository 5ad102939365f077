"""Acceptance suite: one test per criterion, exact arithmetic, stated time
budgets, one pass/fail line each.

Two objects carry the name "resolution of the residue field", and criteria 3
and 7 keep them apart.  complete_resolution_of_k is the 8x8 Shamash tail on
all c + d variables: it resolves R/(y, x), which dies under every
specialization x -> alpha, so its variety is empty.  fixture_k is the 2x2
tail of the Koszul complex on the y-block: it resolves k[x1, x2] = R/(y)R, the
residue field of Q/(f) extended to R, and its variety is all of P^1.  The
paper's statements (the residue field's variety is all of P^(c-1); every
closed set is realized by iterated cones) attach to the second object.
Criterion 3 checks the empty verdict on the first by a symbolic and a
pointwise route and the full verdict on the second; criterion 7 checks that
realize obeys the relative cone law on its 8x8 base and realizes the
requested sets from fixture_k.
"""

import random
import time
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from ghrv.complexes import (
    cone_mul,
    direct_sum,
    dual,
    koszul_differential,
    shift,
    trivial_pair,
    validate_pair,
    xi_wedge,
)
from ghrv.fields import finite_field, prime_field
from ghrv.matrix import as_grid, sparse_rows
from ghrv.pipelines import (
    complete_resolution_of_k,
    documented_cone_pair,
    fixture_k,
    fixture_rank_one,
    realize,
    worked_ring,
)
from ghrv.variety import (
    contractible_at,
    critical_images,
    enumerate_points,
    extension_of,
    is_empty,
    membership,
    preimage_independence_check,
    rank_over_R,
    rank_variety,
)

from dense import grid_product, identity


def _finish(number: int, budget: float, t0: float, failures: list[str]):
    elapsed = time.perf_counter() - t0
    status = "pass" if not failures else "FAIL"
    print(f"criterion {number}: {status} in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"
    assert not failures, "; ".join(failures)


@lru_cache(maxsize=None)
def _ring(p: int):
    return worked_ring(prime_field(p))


SuiteEntry = namedtuple("SuiteEntry", "label complex kind related")


def _random_scalar(rng, ring, degree: int):
    """Nonzero x-homogeneous class of the given x-degree with random
    coefficients, some terms carrying a y-squared factor."""
    amb = ring.ambient
    fld = ring.field
    nonzero = [e for e in fld.elements() if not fld.is_zero(e)]
    i1, i2 = (amb.var_index(v) for v in ring.xvars)
    monos = []
    for i in range(degree + 1):
        m = [0] * amb.nvars
        m[i1], m[i2] = i, degree - i
        monos.append(m)
    p = amb.zero()
    while p.is_zero():
        for m in monos:
            if rng.random() < 0.6:
                term = list(m)
                if rng.random() < 0.3:
                    term[amb.var_index(ring.yvars[rng.randrange(2)])] += 2
                p = p + amb.monomial(tuple(term), nonzero[rng.randrange(len(nonzero))])
    return p


@lru_cache(maxsize=None)
def _suite() -> tuple[SuiteEntry, ...]:
    """>= 20 complexes over GF(3) and GF(5): the two fixtures, their shifts,
    duals and sums, and cones by seeded random x-homogeneous scalars of
    degree <= 2."""
    entries = []
    for p in (3, 5):
        ring = _ring(p)
        rng = random.Random(900 + p)
        k = fixture_k(ring)
        r1 = fixture_rank_one(ring)
        entries.append(SuiteEntry(f"k|GF({p})", k, "base", None))
        entries.append(SuiteEntry(f"rank-one|GF({p})", r1, "base", None))
        entries.append(SuiteEntry(f"shift(k)|GF({p})", shift(k), "base", None))
        entries.append(SuiteEntry(f"shift(rank-one)|GF({p})", shift(r1), "base", None))
        entries.append(SuiteEntry(f"dual(k)|GF({p})", dual(k), "base", None))
        entries.append(SuiteEntry(f"dual(rank-one)|GF({p})", dual(r1), "base", None))
        entries.append(SuiteEntry(f"k+rank-one|GF({p})", direct_sum(k, r1), "sum", (k, r1)))
        entries.append(SuiteEntry(f"k+k|GF({p})", direct_sum(k, k), "sum", (k, k)))
        for i in range(4):
            base = k if i % 2 == 0 else r1
            scalar = _random_scalar(rng, ring, 1 + i // 2)
            entries.append(
                SuiteEntry(
                    f"cone[{scalar.to_string()}]|GF({p})",
                    cone_mul(base, scalar),
                    "cone",
                    (base, scalar),
                )
            )
    return tuple(entries)


@lru_cache(maxsize=None)
def _points(p: int):
    ring = _ring(p)
    base = enumerate_points(ring.field, ring.c)
    ext = enumerate_points(extension_of(ring.field, 2), ring.c)
    return tuple(base) + tuple(ext)


@lru_cache(maxsize=None)
def _realization(scalars: tuple):
    return realize(_ring(5), list(scalars))


def test_criterion_1_rank_one_pair_reproduction():
    t0 = time.perf_counter()
    failures = []
    ring = _ring(5)
    pair = fixture_rank_one(ring)
    if not pair.certified:
        failures.append("pair did not certify")
    r_a = rank_over_R(sparse_rows(pair.A), ring)
    r_b = rank_over_R(sparse_rows(pair.B), ring)
    if (r_a, r_b) != (1, 1):
        failures.append(f"ranks over R are {r_a}, {r_b}, expected 1, 1")
    x1 = ring.kx.variable("x1")
    x2 = ring.kx.variable("x2")
    for which, ideal in zip("AB", critical_images(pair, (r_a, r_b))):
        if ideal.gens != (x1, x2):
            failures.append(f"image of I_1({which}) is {ideal.describe()}, expected (x1, x2)")
    if not is_empty(rank_variety(pair)):
        failures.append("variety not empty over the algebraic closure")
    _finish(1, 1.0, t0, failures)


def test_criterion_2_cone_fixture_reproduction():
    t0 = time.perf_counter()
    failures = []
    for field in (prime_field(2), prime_field(3), prime_field(5), finite_field(9)):
        ring = worked_ring(field)
        k = fixture_k(ring)
        if not k.certified:
            failures.append(f"2x2 fixture failed to certify over {field}")
            continue
        cone = cone_mul(k, ring.parse("x1*x2"))
        d_grid, d_prime_grid = documented_cone_pair(ring)
        if cone.A != d_grid or cone.B != d_prime_grid:
            failures.append(f"cone by x1*x2 deviates from the documented 4x4 pair over {field}")
        v = rank_variety(cone)
        members = [pt for pt in enumerate_points(field, 2) if membership(v, pt)]
        got = {str(pt) for pt in members}
        if got != {"(1:0)", "(0:1)"} or len(members) != 2:
            failures.append(f"variety over {field} is {sorted(got)}, expected (1:0) and (0:1)")
    _finish(2, 1.0, t0, failures)


def test_criterion_3_residue_field_resolution_variety():
    t0 = time.perf_counter()
    failures = []
    ring = _ring(3)
    res = complete_resolution_of_k(ring)
    if not res.certified or res.size != 8:
        failures.append(f"resolution pair is size {res.size}, certified {res.certified}")
    pts = _points(3)

    # The 8x8 tail resolves R/(y, x); specializing x -> alpha kills it, so its
    # variety is empty.  Symbolic route: (x1, x2)^4 holds x1^4 and x2^4, so it
    # has no projective zero over any extension; the exact decision (a
    # Macaulay rank at Lazard's degree) must say so too.
    v8 = rank_variety(res)
    x1, x2 = ring.kx.variable("x1"), ring.kx.variable("x2")
    fourth_power = {x1 ** (4 - i) * x2 ** i for i in range(5)}
    for which, comp in zip("AB", v8.components):
        if set(comp.gens) != fourth_power:
            failures.append(f"image for {which} is {comp.describe()}, expected (x1, x2)^4")
    if not is_empty(v8):
        failures.append("8x8 pair's variety is not empty over the algebraic closure")
    # Pointwise route: no member, and contractible, at every point.
    inside = [pt for pt in pts if membership(v8, pt)]
    if inside:
        failures.append(f"8x8 pair's variety contains {len(inside)} of {len(pts)} points")
    stuck = [pt for pt in pts if not contractible_at(res, pt)]
    if stuck:
        failures.append(f"8x8 pair is not contractible at {len(stuck)} of {len(pts)} points")

    # The residue-field claim: k[x1, x2] = R/(y)R has variety all of P^1.
    k = fixture_k(ring)
    vk = rank_variety(k)
    missing = [pt for pt in pts if not membership(vk, pt)]
    if missing:
        failures.append(f"{len(missing)} of {len(pts)} points are outside the 2x2 fixture's variety")
    split = [pt for pt in pts if contractible_at(k, pt)]
    if split:
        failures.append(f"2x2 fixture is contractible at {len(split)} of {len(pts)} points")
    _finish(3, 5.0, t0, failures)


def test_criterion_4_membership_matches_contractibility():
    t0 = time.perf_counter()
    failures = []
    suite = _suite()
    assert len(suite) >= 20
    checks = 0
    for entry in suite:
        c = entry.complex
        v = rank_variety(c)
        p = c.ring.field.char
        for pt in _points(p):
            inside = membership(v, pt)
            split = contractible_at(c, pt)
            checks += 1
            if inside != (not split):
                failures.append(
                    f"{entry.label} at {pt}: membership {inside}, contractible {split}"
                )
    assert checks >= 20 * 14
    _finish(4, 60.0, t0, failures)


def test_criterion_5_preimage_independence():
    t0 = time.perf_counter()
    failures = []
    for entry in _suite():
        c = entry.complex
        p = c.ring.field.char
        for pt in _points(p):
            rep = preimage_independence_check(c, pt, trials=10, seed=31)
            if not rep.stable:
                failures.append(
                    f"{entry.label} at {pt}: baseline {rep.baseline}, verdicts {rep.verdicts}"
                )
    _finish(5, 60.0, t0, failures)


def test_criterion_6_variety_calculus():
    t0 = time.perf_counter()
    failures = []
    for entry in _suite():
        c = entry.complex
        pts = _points(c.ring.field.char)
        v = rank_variety(c)
        hits = {pt: membership(v, pt) for pt in pts}
        for op_name, op in (("shift", shift), ("dual", dual)):
            v_op = rank_variety(op(c))
            bad = [pt for pt in pts if membership(v_op, pt) != hits[pt]]
            if bad:
                failures.append(f"V({op_name}({entry.label})) differs at {bad[:3]}")
        if entry.kind == "sum":
            left, right = entry.related
            vl, vr = rank_variety(left), rank_variety(right)
            bad = [
                pt for pt in pts
                if hits[pt] != (membership(vl, pt) or membership(vr, pt))
            ]
            if bad:
                failures.append(f"V({entry.label}) is not the union of its parts at {bad[:3]}")
        if entry.kind == "cone":
            base, _scalar = entry.related
            v_base = rank_variety(base)
            bad = [pt for pt in pts if hits[pt] and not membership(v_base, pt)]
            if bad:
                failures.append(f"V({entry.label}) escapes the base variety at {bad[:3]}")
    _finish(6, 30.0, t0, failures)


def test_criterion_7_realizability():
    t0 = time.perf_counter()
    failures = []
    ring = _ring(5)
    base_pts = enumerate_points(ring.field, 2)
    cases = [
        ((), [8], "Z(0)", set(str(pt) for pt in base_pts)),
        (("x1*x2",), [8, 16], "Z(x1*x2)", {"(1:0)", "(0:1)"}),
        (("x1",), [8, 16], "Z(x1)", {"(0:1)"}),
        (("x1", "x2"), [8, 16, 32], "Z(x1, x2)", set()),
    ]
    for scalars, sizes, requested, expected_points in cases:
        label = "[" + ", ".join(scalars) + "]"
        # realize promises only the relative law V(C^p) = V(C) n Z(p-bar) on
        # top of its 8x8 base, and checks it itself (verify=True).
        trace = _realization(scalars)
        if trace.sizes != sizes:
            failures.append(f"{label}: trace sizes {trace.sizes}, expected {sizes}")
        if trace.requested.describe() != requested:
            failures.append(
                f"{label}: requested zero set {trace.requested.describe()}, expected {requested}"
            )
        # Realizability: the same cones on fixture_k, whose variety is P^1,
        # cut out exactly the requested set.
        chain = fixture_k(ring)
        for scalar in scalars:
            chain = cone_mul(chain, ring.parse(scalar))
        if chain.size != 2 * 2 ** len(scalars):
            failures.append(f"{label}: cone chain on fixture_k has size {chain.size}")
        v = rank_variety(chain)
        by_membership = {str(pt) for pt in base_pts if membership(v, pt)}
        by_residue = {str(pt) for pt in base_pts if not contractible_at(chain, pt)}
        for route, got in (("membership", by_membership), ("residue ranks", by_residue)):
            if got != expected_points:
                failures.append(
                    f"{label}: cone chain on fixture_k has points {sorted(got) or 'none'} "
                    f"by {route}, expected {sorted(expected_points) or 'none'}"
                )
    # bounded emptiness for the last list: no witness over the base field or
    # its degree-2 extension at the final stage
    final = _realization(("x1", "x2")).final
    f25 = extension_of(ring.field, 2)
    witness = [
        pt
        for fld in (ring.field, f25)
        for pt in enumerate_points(fld, 2)
        if not contractible_at(final, pt)
    ]
    if witness:
        failures.append(f"final 32x32 stage has noncontractible witness {witness[0]}")
    _finish(7, 10.0, t0, failures)


def test_criterion_8_structural_invariants():
    t0 = time.perf_counter()
    failures = []

    everything = [(e.label, e.complex) for e in _suite()]
    everything.append(("trivial|GF(5)", trivial_pair(_ring(5))))
    everything.append(("res8|GF(3)", complete_resolution_of_k(_ring(3))))
    trace = _realization(("x1", "x2"))
    for i, stage in enumerate(trace.stages):
        everything.append((f"realize-stage{i}|GF(5)", stage.complex))

    for label, c in everything:
        report = validate_pair(c)
        if not report.ok:
            failures.append(f"{label}: {report.describe()}")

    # null-homotopy identities on the Koszul complex behind the resolution:
    # d s + s d = w id at every index and s s = 0
    for p in (3, 5):
        ring = _ring(p)
        amb = ring.ambient
        m = ring.c + ring.d
        for n in range(m + 1):
            size = len(list(combinations(range(m), n)))
            want = identity(amb, size, ring.w)
            if n == 0:
                got = grid_product(koszul_differential(ring, 1), xi_wedge(ring, 0), amb)
            elif n == m:
                got = grid_product(xi_wedge(ring, m - 1), koszul_differential(ring, m), amb)
            else:
                a = grid_product(koszul_differential(ring, n + 1), xi_wedge(ring, n), amb)
                b = grid_product(xi_wedge(ring, n - 1), koszul_differential(ring, n), amb)
                got = as_grid([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
            if got != want:
                failures.append(f"homotopy identity fails at index {n} over GF({p})")
        for n in range(m - 1):
            prod = grid_product(xi_wedge(ring, n + 1), xi_wedge(ring, n), amb)
            if not all(e.is_zero() for row in prod for e in row):
                failures.append(f"homotopy square nonzero at index {n} over GF({p})")
    _finish(8, 10.0, t0, failures)
