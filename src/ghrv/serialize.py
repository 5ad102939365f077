"""JSON file formats.

Ring file:    {"field": "GF(5)"|"QQ", "yvars": [..], "xvars": [..], "f": ["x^2", ..]}
Complex file: {"ring": <path or inline ring>, "periodic": {"A": [[..]], "B": [[..]],
               "degrees0": [..], "degrees1": [..], "certified": bool}}
Trace file:   the complex file format for the final pair, plus a "trace" array
              of {"p": str|null, "size": int, "variety-summary": str} records,
              so every trace file is also loadable as a complex file.

Matrix entries and generators use the expression grammar, so whatever the
tool writes it can parse back.  Saving a complex prints each distinct entry
object of A and B once (map_entries), which a cone's blocks, holding their
parent's entries again, repeat at many positions.  Loading a complex parses
each distinct entry string once and lets equal entries share that one
immutable polynomial (a 32x32 realize trace holds about 2000 entry strings
and 15 distinct ones), so every later per-entry pass over the loaded pair
runs about 15 times rather than 2000; entries are parsed in file order, so
the first bad one raises the error.
Loading performs no validation beyond shapes: a matrix, each of its rows,
a degree list and a ring's variable and coefficient lists must be JSON
arrays, and a string or number in their place raises ParseError naming the
key (and the row), never being iterated.  Each degree must be a JSON
integer (not a float or a boolean), each variable name and each f_i a
string, and "certified", when present, a JSON boolean; anything else
raises ParseError naming the key, never being coerced.  The stored
"certified" flag is a claim that `check` re-tests.
"""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import PeriodicComplex
from .errors import ParseError
from .fields import field_name, parse_field
from .matrix import map_entries
from .parser import parse_poly
from .pipelines import RealizationTrace
from .poly import Poly
from .ring import RingSpec, make_ring


def ring_to_obj(ring: RingSpec) -> dict:
    return {
        "field": field_name(ring.field),
        "yvars": list(ring.yvars),
        "xvars": list(ring.xvars),
        "f": [fi.to_string() for fi in ring.f],
    }


def _list(value, what: str) -> list:
    """value itself when it is a JSON array; ParseError naming it otherwise,
    so a string or number is never iterated as if it were one."""
    if not isinstance(value, list):
        raise ParseError(f"{what} is not a list")
    return value


def ring_from_obj(obj: dict) -> RingSpec:
    if not isinstance(obj, dict):
        raise ParseError("ring object is not a JSON object")
    for key in ("field", "yvars", "xvars", "f"):
        if key not in obj:
            raise ParseError(f"ring object lacks {key!r}")
    if not isinstance(obj["field"], str):
        raise ParseError("ring object's 'field' is not a string")
    for key in ("yvars", "xvars"):
        names = _list(obj[key], f"ring object's {key!r}")
        if not all(isinstance(name, str) for name in names):
            raise ParseError(f"ring object's {key!r} holds a name that is not a string")
    field = parse_field(obj["field"])
    f = _list(obj["f"], "ring object's 'f'")
    if not all(isinstance(fi, str) for fi in f):
        raise ParseError("ring object's 'f' holds an entry that is not a string")
    return make_ring(field, obj["yvars"], obj["xvars"], f)


def load_ring(path: str | Path) -> RingSpec:
    with open(path) as fh:
        return ring_from_obj(json.load(fh))


def save_ring(ring: RingSpec, path: str | Path):
    Path(path).write_text(json.dumps(ring_to_obj(ring), indent=2) + "\n")


def complex_to_obj(C: PeriodicComplex) -> dict:
    a, b = map_entries(Poly.to_string, C.A, C.B)
    return {
        "ring": ring_to_obj(C.ring),
        "periodic": {
            "A": [list(row) for row in a],
            "B": [list(row) for row in b],
            "degrees0": list(C.degrees0),
            "degrees1": list(C.degrees1),
            "certified": C.certified,
        },
    }


def complex_from_obj(obj: dict, base_dir: str | Path | None = None) -> PeriodicComplex:
    if not isinstance(obj, dict):
        raise ParseError("complex file is not a JSON object")
    ring_obj = obj.get("ring")
    if isinstance(ring_obj, str):
        ring_path = Path(ring_obj)
        if not ring_path.is_absolute() and base_dir is not None:
            ring_path = Path(base_dir) / ring_path
        ring = load_ring(ring_path)
    elif isinstance(ring_obj, dict):
        ring = ring_from_obj(ring_obj)
    else:
        raise ParseError("complex object needs a 'ring' (inline or path)")
    periodic = obj.get("periodic")
    if not isinstance(periodic, dict):
        raise ParseError("complex object needs a 'periodic' block")
    for key in ("A", "B", "degrees0", "degrees1"):
        if key not in periodic:
            raise ParseError(f"'periodic' block lacks {key!r}")
    certified = periodic.get("certified", False)
    if not isinstance(certified, bool):
        raise ParseError("'periodic' block's 'certified' is not a boolean")
    parsed: dict[str, Poly] = {}

    def entry(text) -> Poly:
        if not isinstance(text, str):
            raise ParseError(f"matrix entry {json.dumps(text)} is not a string")
        poly = parsed.get(text)
        if poly is None:
            poly = parsed[text] = parse_poly(ring.ambient, text)
        return poly

    def matrix(key: str) -> list[list[Poly]]:
        rows = _list(periodic[key], f"'periodic' block's {key!r}")
        return [[entry(e) for e in _list(row, f"row {i} of {key!r}")] for i, row in enumerate(rows)]

    def degrees(key: str) -> tuple[int, ...]:
        what = f"'periodic' block's {key!r}"
        values = _list(periodic[key], what)
        if not all(type(d) is int for d in values):  # a JSON integer; bool is not one
            raise ParseError(f"{what} holds a degree that is not an integer")
        return tuple(values)

    return PeriodicComplex(
        ring,
        matrix("A"),
        matrix("B"),
        degrees("degrees0"),
        degrees("degrees1"),
        certified=certified,
    )


def load_complex(path: str | Path) -> PeriodicComplex:
    path = Path(path)
    with open(path) as fh:
        return complex_from_obj(json.load(fh), base_dir=path.parent)


def save_complex(C: PeriodicComplex, path: str | Path):
    Path(path).write_text(json.dumps(complex_to_obj(C), indent=2) + "\n")


def trace_to_obj(trace: RealizationTrace) -> dict:
    obj = complex_to_obj(trace.final)
    records = []
    fld = trace.ring.field
    for stage in trace.stages:
        if stage.noncontractible is None:
            summary = "pointwise data not enumerated"
        elif stage.noncontractible:
            names = ", ".join(str(pt) for pt in stage.noncontractible)
            summary = f"noncontractible over {field_name(fld)}: {names}"
        else:
            summary = f"contractible at every {field_name(fld)} point"
        records.append(
            {
                "p": None if stage.scalar is None else stage.scalar.to_string(),
                "size": stage.size,
                "variety-summary": summary,
            }
        )
    obj["trace"] = records
    obj["requested-zero-set"] = [g.to_string() for g in trace.requested.components[0].gens]
    return obj


def save_trace(trace: RealizationTrace, path: str | Path):
    Path(path).write_text(json.dumps(trace_to_obj(trace), indent=2) + "\n")
