"""The three benchmark workloads: seeded inputs, reference verdicts computed
in set-up, the timed operation, and the check of each operation's output.

Every workload talks to ghrv only through its public modules, handed in as
`gh` (see run.load_ghrv).  Each check compares the operation's answer with
a verdict reached by an independent route:

- symbolic:   rank_variety(C), checked by membership against contractible_at
              at every scanned point (fixed small integer points over QQ);
- pointwise:  contractible_at(C, pt), plus a perturbation check at the
              base-field points, checked against membership in
              rank_variety(C); the realize stages are
              checked by the intersection law V(C^p) = V(C) n Z(p-bar)
              against their parent stage;
- cli-realize: one `ghrv` verb, checked by its exit code and by reading its
              output back (file equality, validity, rank sum, variety).
"""

from __future__ import annotations

import io
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout

SUITE_FIELDS = ("GF(3)", "GF(5)", "GF(9)", "QQ")
CLI_FIELDS = ("GF(5)", "GF(7)", "GF(9)")
# Over QQ every random cone scalar is a product of linear forms with
# coefficients +-1, +-2, so each of its zeros is one of these points.
QQ_POINTS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1))
QQ_COEFFS = (1, 2, -1, -2)
PERTURBATION_TRIALS = 1
# Scalar degrees of each realize list per cli-realize field: 8 -> 16 once,
# 8 -> 16 -> 32 twice.
SCALAR_LISTS = ((1,), (1, 2), (2, 1))
RESOLUTION = ("res", "shift res", "dual res")


class Workload:
    """Interface: `setup` builds the inputs and references, calling `tick`
    between steps (the runner samples CPU speed there); `run` is the timed
    operation; `check` returns (ok, verdict) without timing."""

    name = ""
    shuffle = True

    def setup(self, gh, seed: int, workdir: str, tick):
        raise NotImplementedError

    def run(self, gh, state, op):
        raise NotImplementedError

    def check(self, gh, state, op, result) -> tuple[bool, object]:
        raise NotImplementedError


class State:
    def __init__(self):
        self.ops: list = []


# ---------------------------------------------------------------------------
# seeded suite
# ---------------------------------------------------------------------------

def random_form(gh, ring, rng: random.Random, degree: int):
    """An x-homogeneous form of the given degree in k[x1, x2]."""
    amb = ring.ambient
    x1, x2 = (amb.variable(v) for v in ring.xvars)
    field = ring.field
    if not field.finite:
        acc = amb.one()
        for _ in range(degree):
            a, b = rng.choice(QQ_COEFFS), rng.choice(QQ_COEFFS)
            acc = acc * (amb.from_int(a) * x1 + amb.from_int(b) * x2)
        return acc
    # outside the prime subfield where there is one, so that every seed
    # costs the same extension arithmetic
    units = [e for e in field.elements() if not field.is_zero(e)
             and not (hasattr(field, "in_prime_subfield") and field.in_prime_subfield(e))]
    terms = {(i, degree - i) + (0,) * ring.d: rng.choice(units) for i in range(degree + 1)}
    return gh.poly.Poly(amb, terms)


def build_suite(gh, field_text: str, rng: random.Random):
    """Named complexes up to 8x8 over one field of the worked ring."""
    cx, pl = gh.complexes, gh.pipelines
    ring = pl.worked_ring(gh.fields.parse_field(field_text))
    k, r1 = pl.fixture_k(ring), pl.fixture_rank_one(ring)
    res = pl.complete_resolution_of_k(ring)
    suite = [
        ("K", k), ("R1", r1),
        ("shift K", cx.shift(k)), ("dual K", cx.dual(k)),
        ("shift R1", cx.shift(r1)), ("dual R1", cx.dual(r1)),
        ("K + R1", cx.direct_sum(k, r1)),
    ]
    for base_name, base in suite[:6]:
        for degree in (1, 2):
            p = random_form(gh, ring, rng, degree)
            suite.append((f"cone {base_name} by {p}", cx.cone_mul(base, p)))
    suite += [("res", res), ("shift res", cx.shift(res)), ("dual res", cx.dual(res))]
    return ring, suite


def scan_points(gh, field):
    """P^1(F_q) in the base field followed by P^1(F_q^2); fixed small
    integer points over QQ."""
    var = gh.variety
    if not field.finite:
        return [var.proj_point(field, c) for c in QQ_POINTS]
    return var.enumerate_points(field, 2) + var.enumerate_points(var.extension_of(field, 2), 2)


# ---------------------------------------------------------------------------
# symbolic: one operation = rank_variety of one complex
# ---------------------------------------------------------------------------

class Symbolic(Workload):
    name = "symbolic"

    def setup(self, gh, seed, workdir, tick):
        rng = random.Random(seed)
        st = State()
        for text in SUITE_FIELDS:
            ring, suite = build_suite(gh, text, rng)
            pts = scan_points(gh, ring.field)
            for name, C in suite:
                tick()
                ref = tuple(gh.variety.contractible_at(C, pt) for pt in pts)
                st.ops.append((f"{text} {name}", C, pts, ref))
        return st

    def run(self, gh, state, op):
        return gh.variety.rank_variety(op[1])

    def check(self, gh, state, op, V):
        label, _C, pts, ref = op
        members = tuple(gh.variety.membership(V, pt) for pt in pts)
        ok = all(m != contractible for m, contractible in zip(members, ref))
        if label.split(" ", 1)[1] in RESOLUTION:
            # the resolution of k has empty variety by both routes
            ok = ok and not any(members) and all(ref)
        return ok, (V.describe(), members)


# ---------------------------------------------------------------------------
# pointwise: one operation = one (complex, point) verdict
# ---------------------------------------------------------------------------

class Pointwise(Workload):
    name = "pointwise"

    def setup(self, gh, seed, workdir, tick):
        rng = random.Random(seed)
        var = gh.variety
        st = State()
        res5_variety = None
        for text in SUITE_FIELDS:
            ring, suite = build_suite(gh, text, rng)
            pts = scan_points(gh, ring.field)
            for name, C in suite:
                tick()
                V = var.rank_variety(C)
                if text == "GF(5)" and name == "res":
                    res5_variety = V
                for pt in pts:
                    trials = PERTURBATION_TRIALS if pt.field == ring.field and ring.field.finite else 0
                    st.ops.append((f"{text} {name} at {pt}", C, pt, var.membership(V, pt), trials))

        # 8 -> 16 -> 32 realize stages over GF(5), scanned over GF(25); each
        # stage's reference follows from its parent's by the intersection law
        ring = gh.pipelines.worked_ring(gh.fields.parse_field("GF(5)"))
        scalars = [random_form(gh, ring, rng, 1), random_form(gh, ring, rng, 2)]
        tick()
        trace = gh.pipelines.realize(ring, scalars, verify=False)
        pts25 = var.enumerate_points(var.extension_of(ring.field, 2), 2)
        names = ring.kx.vars
        in_v = {pt: var.membership(res5_variety, pt) for pt in pts25}
        for i, stage in enumerate(trace.stages):
            if stage.scalar is not None:
                img = ring.image_in_kx(stage.scalar)
                for pt in pts25:
                    value = img.evaluate(dict(zip(names, pt.coords)), target=pt.field)
                    in_v[pt] = in_v[pt] and pt.field.is_zero(value)
            for pt in pts25:
                st.ops.append((f"realize stage {i} (n={stage.size}) at {pt}",
                               stage.complex, pt, in_v[pt], 0))
        st.seed = seed
        return st

    def run(self, gh, state, op):
        _label, C, pt, _in_v, trials = op
        verdict = gh.variety.contractible_at(C, pt)
        report = None
        if trials:
            report = gh.variety.preimage_independence_check(C, pt, trials=trials, seed=state.seed)
        return verdict, report

    def check(self, gh, state, op, result):
        in_v = op[3]
        verdict, report = result
        ok = verdict == (not in_v)
        if report is not None:
            ok = ok and report.stable and report.baseline == verdict
        return ok, (verdict, None if report is None else tuple(report.verdicts))


# ---------------------------------------------------------------------------
# cli-realize: one operation = one `ghrv` verb run in-process
# ---------------------------------------------------------------------------

def _form_text(rng: random.Random, p: int, degree: int) -> str:
    monos = [f"x1^{i}*x2^{degree - i}" for i in range(degree + 1)]
    return " + ".join(f"{rng.randrange(1, p)}*{m}" for m in monos)


class CliRealize(Workload):
    name = "cli-realize"
    shuffle = False  # verbs of one session read the files earlier verbs wrote

    def setup(self, gh, seed, workdir, tick):
        rng = random.Random(seed)
        pl, ser, var = gh.pipelines, gh.serialize, gh.variety
        st = State()
        for text in CLI_FIELDS:
            field = gh.fields.parse_field(text)
            ring = pl.worked_ring(field)
            tag = text[3:-1]
            ring_path = os.path.join(workdir, f"ring{tag}.json")
            ser.save_ring(ring, ring_path)
            for i, degrees in enumerate(SCALAR_LISTS):
                texts = [_form_text(rng, field.char, d) for d in degrees]
                out = os.path.join(workdir, f"trace{tag}_{i}.json")
                scalars = [gh.parser.parse_poly(ring.ambient, t) for t in texts]
                tick()
                final = pl.realize(ring, scalars, verify=False).final
                argv = ["realize", ring_path]
                for t in texts:
                    argv += ["--p", t]
                sizes = " -> ".join(str(8 << j) for j in range(len(texts) + 1))
                st.ops.append(("realize", argv + ["--points", "--out", out], out, (final, sizes)))
                st.ops.append(("check", ["check", out], out, None))
                st.ops.append(("rank", ["rank", out], out, final.size))
            res_path = os.path.join(workdir, f"res{tag}.json")
            res = pl.complete_resolution_of_k(ring)
            pts = var.enumerate_points(field, 2)
            contractible = tuple(var.contractible_at(res, pt) for pt in pts)
            st.ops.append(("resolve-k", ["resolve-k", ring_path, "--out", res_path], res_path, res))
            st.ops.append(("rank", ["rank", res_path], res_path, res.size))
            st.ops.append(("variety", ["variety", res_path, "--points"], res_path,
                           (ring, pts, contractible)))
        return st

    def run(self, gh, state, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gh.cli.run(op[1])
        return code, out.getvalue(), err.getvalue()

    def check(self, gh, state, op, result):
        verb, _argv, path, expected = op
        code, out, _err = result
        ok = code == 0
        if ok and verb == "realize":
            final, sizes = expected
            ok = f"trace sizes: {sizes}\n" in out and gh.serialize.load_complex(path) == final
        elif ok and verb == "resolve-k":
            ok = gh.serialize.load_complex(path) == expected
        elif ok and verb == "check":
            ok = out.startswith("valid: no findings")
        elif ok and verb == "rank":
            ranks = dict(re.findall(r"^(rank\(A\)|rank\(B\)|size) = (\d+)$", out, re.M))
            ok = (len(ranks) == 3 and int(ranks["size"]) == expected
                  and int(ranks["rank(A)"]) + int(ranks["rank(B)"]) == expected)
        elif ok and verb == "variety":
            ok = self._variety_agrees(gh, out, *expected)
        return ok, (code, out)

    @staticmethod
    def _variety_agrees(gh, out: str, ring, pts, contractible) -> bool:
        """Members of the printed components, by evaluation, must be exactly
        the points where the resolution is not contractible, and the printed
        point list must agree."""
        lines = out.splitlines()
        if len(lines) < 2 or not lines[0].startswith("components: "):
            return False
        components = []
        for comp in lines[0][len("components: "):].split(" union "):
            body = comp[2:-1]  # Z(g1, g2, ...)
            gens = [] if body == "0" else [gh.parser.parse_poly(ring.kx, g) for g in body.split(", ")]
            components.append(gens)
        names = ring.kx.vars
        for pt, contr in zip(pts, contractible):
            at = dict(zip(names, pt.coords))
            member = any(all(ring.field.is_zero(g.evaluate(at)) for g in gens) for gens in components)
            if member == contr:
                return False
        listed = lines[1].split(": ", 1)[1]
        want = ", ".join(str(pt) for pt, contr in zip(pts, contractible) if not contr)
        return listed == "{" + want + "}"


WORKLOADS = {wl.name: wl for wl in (Symbolic(), Pointwise(), CliRealize())}
