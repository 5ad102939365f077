"""Command-line front end.

Verb-style interface over the engine modules; human-readable report on
stdout, machine artifacts only through --out.  Exit codes: 0 success, 1
mathematical failure (validation findings, invalid inputs at the math level),
2 usage or parse errors, and 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended) when the reader of a pipe goes away, as stdout's
does in `ghrv points --field "GF(101)" --c 3 | head -2`; that prints
nothing on stderr.  Output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .complexes import cone_mul, validate_pair
from .errors import FieldError, GhrvError, ParseError
from .fields import RationalField, field_name, parse_field
from .parser import parse_poly
from .pipelines import (
    FIXTURE_NAMES,
    complete_resolution_of_k,
    describe_report,
    module_variety,
    named_fixture,
    realize,
    reproduce_examples,
)
from .ring import lift_point, specialize
from .serialize import load_complex, load_ring, save_complex, save_trace
from .variety import (
    critical_images,
    enumerate_points,
    membership,
    points_up_to,
    rank_variety,
    ranks_over_R,
    residue_ranks,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghrv",
        description="rank varieties of periodic complexes over generic hypersurface rings",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate a complex file and report findings")
    p.add_argument("complex")

    p = sub.add_parser("rank", help="ranks of the differentials over R")
    p.add_argument("complex")
    p.add_argument("--which", choices=("A", "B"))

    p = sub.add_parser("ideal", help="image in k[x] of the critical minor ideal")
    p.add_argument("complex")
    p.add_argument("--which", choices=("A", "B"), required=True)

    p = sub.add_parser("variety", help="rank variety as a union of zero sets")
    p.add_argument("complex", help="complex file, or ring file with --fixture")
    p.add_argument("--points", action="store_true")
    p.add_argument("--ext-bound", type=int, default=1, dest="ext_bound")
    p.add_argument("--fixture", choices=FIXTURE_NAMES)

    p = sub.add_parser("points", help="enumerate projective space over a finite field")
    p.add_argument("--field", required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("specialize", help="specialize a complex at a point")
    p.add_argument("complex")
    p.add_argument("--alpha", required=True)
    p.add_argument("--preimages")

    p = sub.add_parser("contractible", help="contractibility verdict at a point")
    p.add_argument("complex")
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("cone", help="mapping cone of multiplication by p")
    p.add_argument("complex")
    p.add_argument("--p", required=True)

    p = sub.add_parser("resolve-k", help="complete resolution of R/(y, x): the Shamash tail")
    p.add_argument("ring")
    p.add_argument("--out", required=True)

    p = sub.add_parser("realize", help="realize a closed set by iterated cones")
    p.add_argument("ring")
    p.add_argument("--p", action="append", default=[], dest="ps")
    p.add_argument("--points", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("module-variety", help="variety of the presented module")
    p.add_argument("complex")

    p = sub.add_parser("reproduce", help="re-run the documented worked examples")
    p.add_argument("--field", default="GF(5)")
    p.add_argument("--seed", type=int, default=0)

    return parser


# a coordinate: a signed number of ASCII decimal digits, or over QQ also a
# fraction of such a number by a nonzero one of unsigned digits
_COORD = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def _parse_coords(text: str, field):
    coords = []
    for tok in text.split(","):
        tok = tok.strip()
        m = _COORD.fullmatch(tok)
        try:
            if m is not None and m[2] is None:
                coords.append(field.from_int(int(m[1])))
                continue
            if m is not None and isinstance(field, RationalField) and int(m[2]):
                num, den = field.from_int(int(m[1])), field.from_int(int(m[2]))
                coords.append(field.mul(num, field.inv(den)))
                continue
        except ValueError:  # more digits than int() converts
            pass
        raise ParseError(f"bad coordinate {tok!r}")
    return tuple(coords)


def _format_pair(names, entries, texts) -> str:
    """The two matrices of a pair's DistinctEntries, named `names`, with
    texts[k], one string per distinct value, at each (column, k) pair and 0
    elsewhere."""
    lines = []
    for name, grid in zip(names, entries.grids(texts, "0")):
        lines.append(f"{name} =")
        lines += ["  [ " + ", ".join(row) + " ]" for row in grid]
    return "\n".join(lines)


def _print_points(V, scan):
    """V's points per listing of `scan`: points_up_to's, or () without --points."""
    for fld, points in scan:
        body = ", ".join(str(pt) for pt in points if membership(V, pt))
        print(f"points over {field_name(fld)}: {{{body}}}")


def _format_point(field, coords) -> str:
    return "(" + ", ".join(field.format(a) for a in coords) + ")"


def _cmd_check(args) -> int:
    C = load_complex(args.complex)
    report = validate_pair(C)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_rank(args) -> int:
    C = load_complex(args.complex)
    r_a, r_b = ranks_over_R(C)
    if args.which in (None, "A"):
        print(f"rank(A) = {r_a}")
    if args.which in (None, "B"):
        print(f"rank(B) = {r_b}")
    if args.which is None:
        print(f"size = {C.size}")
    return 0


def _cmd_ideal(args) -> int:
    C = load_complex(args.complex)
    r_a, r_b = ranks_over_R(C)
    r = r_a if args.which == "A" else r_b
    (ideal,) = critical_images(C, (r_a, r_b), args.which)
    print(f"image of I_{r}({args.which}) in k[x]: {ideal.describe()}")
    return 0


def _cmd_variety(args) -> int:
    if args.ext_bound < 1:
        raise ValueError(f"--ext-bound needs a degree >= 1, got {args.ext_bound}")
    if args.fixture:
        ring = load_ring(args.complex)
        scan = points_up_to(ring.field, ring.c, args.ext_bound) if args.points else ()
        C = named_fixture(args.fixture, ring)
    else:
        C = load_complex(args.complex)
        scan = points_up_to(C.ring.field, C.ring.c, args.ext_bound) if args.points else ()
    V = rank_variety(C)
    print("components: " + V.describe())
    _print_points(V, scan)
    return 0


def _cmd_points(args) -> int:
    field = parse_field(args.field)
    pts = enumerate_points(field, args.c)
    print(f"P^{args.c - 1}({field_name(field)}): {len(pts)} points")
    for pt in pts:
        print(str(pt))
    return 0


def _cmd_specialize(args) -> int:
    C = load_complex(args.complex)
    ring = C.ring
    coords = _parse_coords(args.alpha, ring.field)
    given = tuple(tok.strip() for tok in args.preimages.split(",")) if args.preimages else None
    preimages = lift_point(ring, coords, given)
    print(f"alpha = {_format_point(ring.field, coords)}")
    print(f"w_alpha = {specialize(ring.w, preimages, ring)}")
    entries = C.pair_entries
    texts = [str(specialize(e, preimages, ring)) for e in entries.values]
    print(_format_pair(("A|alpha", "B|alpha"), entries, texts))
    r_a, r_b = residue_ranks(C, coords)
    print(f"residue ranks: rank(A) = {r_a}, rank(B) = {r_b}, size = {C.size}")
    return 0


def _cmd_contractible(args) -> int:
    C = load_complex(args.complex)
    coords = _parse_coords(args.alpha, C.ring.field)
    r_a, r_b = residue_ranks(C, coords)
    verdict = r_a + r_b == C.size
    print(f"contractible at {_format_point(C.ring.field, coords)}: {verdict} "
          f"(residue ranks {r_a} + {r_b} vs size {C.size})")
    return 0


def _cmd_cone(args) -> int:
    C = load_complex(args.complex)
    p = parse_poly(C.ring.ambient, args.p)
    cone = cone_mul(C, p)
    print(f"cone by {C.ring.normal_form(p)}: size {cone.size}, "
          f"certified {cone.certified}")
    print(f"degrees0 = {list(cone.degrees0)}")
    print(f"degrees1 = {list(cone.degrees1)}")
    print(_format_pair("AB", cone.pair_entries, [str(v) for v in cone.pair_entries.values]))
    return 0


def _cmd_resolve_k(args) -> int:
    ring = load_ring(args.ring)
    C = complete_resolution_of_k(ring)
    print(f"complete resolution of k: size {C.size}, certified {C.certified}")
    save_complex(C, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_realize(args) -> int:
    ring = load_ring(args.ring)
    scan = points_up_to(ring.field, ring.c, 1) if args.points else ()
    scalars = [parse_poly(ring.ambient, p) for p in args.ps]
    trace = realize(ring, scalars)
    print("trace sizes: " + " -> ".join(str(s) for s in trace.sizes))
    print("requested zero set: " + trace.requested.describe())
    if trace.verified_points:
        print(f"pointwise cone law verified at {trace.verified_points} base-field points")
    final = trace.stages[-1]
    if final.noncontractible is not None:
        if final.noncontractible:
            names = ", ".join(str(pt) for pt in final.noncontractible)
            print(f"noncontractible base-field points: {names}")
        else:
            print("contractible at every base-field point")
    _print_points(trace.requested, scan)
    if args.out:
        save_trace(trace, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_module_variety(args) -> int:
    V = module_variety(load_complex(args.complex))
    print("module variety components: " + V.describe())
    return 0


def _cmd_reproduce(args) -> int:
    field = parse_field(args.field)
    report = reproduce_examples(field, seed=args.seed)
    print(describe_report(report))
    return 0 if report.all_passed else 1


_DISPATCH = {
    "check": _cmd_check,
    "rank": _cmd_rank,
    "ideal": _cmd_ideal,
    "variety": _cmd_variety,
    "points": _cmd_points,
    "specialize": _cmd_specialize,
    "contractible": _cmd_contractible,
    "cone": _cmd_cone,
    "resolve-k": _cmd_resolve_k,
    "realize": _cmd_realize,
    "module-variety": _cmd_module_variety,
    "reproduce": _cmd_reproduce,
}


# One parser serves every run in a process: building the twelve subparsers
# costs more than a small verb, and parsing leaves the parser as it was.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _DISPATCH[args.verb](args)
    except (ParseError, FieldError, OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError):  # a reader went away: end silently, as SIGPIPE would
            return 141
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GhrvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    code = run(sys.argv[1:])
    try:  # output that fit in stdout's buffer meets a closed pipe only here
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    if code == 141:  # what stdout still holds goes nowhere, and exit has no flush to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
