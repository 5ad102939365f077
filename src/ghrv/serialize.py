"""JSON file formats.

Ring file:    {"field": "GF(5)"|"QQ", "yvars": [..], "xvars": [..], "f": ["x^2", ..]}
Complex file: {"ring": <path or inline ring>, "periodic": {"A": [[..]], "B": [[..]],
               "degrees0": [..], "degrees1": [..], "certified": bool}}
Trace file:   the complex file format for the final pair, plus a "trace" array
              of {"p": str|null, "size": int, "variety-summary": str} records,
              so every trace file is also loadable as a complex file.

Matrix entries and generators use the expression grammar, so whatever the
tool writes it can parse back.  Saving a complex formats each distinct
value of the pair's entries (PeriodicComplex.pair_entries) once, and writes
it at every position that holds it, with "0" elsewhere.  One writer
(_write) serves ring, complex and trace files: it prints exactly the bytes
of json.dumps(obj, indent=2), but encodes each list of strings, a matrix
row, with the C string encoder json.dumps uses, where json.dumps with an
indent runs its pure-Python encoder over every string.  Loading a complex
parses each distinct entry string once, and indexes the pair's distinct
entries as it goes: equal values, even when spelled apart ("x1 + x2" and
"x2 + x1"), share one polynomial and one index, and a string that parses
to zero gets none.  The loaded pair keeps those entries as its
pair_entries, so every later per-entry pass runs once per distinct value
and on sparse rows: a 32x32 realize trace holds 2048 positions and 15
distinct values, and no pass walks the positions again.  A row whose
strings have all been parsed is looked up in one C-level pass; a row with
a new string, or an entry that is not a string, is read entry by entry in
file order, so the first bad entry of the file, A row by row and then B,
raises the error.
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

from .complexes import DistinctEntries, PeriodicComplex
from .errors import ParseError
from .fields import field_name, parse_field
from .parser import parse_poly
from .pipelines import RealizationTrace
from .poly import Poly
from .ring import RingSpec, make_ring

_encode = json.encoder.encode_basestring_ascii  # the string encoder of json.dumps


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


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for JSON data whose keys are strings, each
    list of strings encoded by one C-level map of the string encoder.
    `indent` is the newline and indentation of obj's own line."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_encode(k)}: {_dumps(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            items = list(map(_encode, obj))
        except TypeError:  # not every item is a string
            items = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj)


def _write(obj, path: str | Path):
    Path(path).write_text(_dumps(obj) + "\n")


def _load_json(path: str | Path):
    """The JSON data of the file at path; ParseError naming the file when
    it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not JSON: {exc}") from None


def load_ring(path: str | Path) -> RingSpec:
    return ring_from_obj(_load_json(path))


def save_ring(ring: RingSpec, path: str | Path):
    _write(ring_to_obj(ring), path)


def complex_to_obj(C: PeriodicComplex) -> dict:
    entries = C.pair_entries
    a, b = entries.grids([v.to_string() for v in entries.values], "0")
    return {
        "ring": ring_to_obj(C.ring),
        "periodic": {
            "A": a,
            "B": b,
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
    values: list[Poly] = []  # the distinct nonzero values, in the order first met
    index: dict[Poly, int] = {}  # each of values -> its index
    polys: dict[str, Poly] = {}  # entry string -> its value, one object per value
    slots: dict[str, int | None] = {}  # entry string -> its index, None for zero

    def parse(text):
        """Parse a string no row has held yet, and index its value."""
        if not isinstance(text, str):
            raise ParseError(f"matrix entry {json.dumps(text)} is not a string")
        poly, k = parse_poly(ring.ambient, text), None
        if poly.terms:
            k = index.setdefault(poly, len(values))
            if k == len(values):
                values.append(poly)
            poly = values[k]
        polys[text], slots[text] = poly, k

    def matrix(key: str) -> tuple[list, tuple]:
        """The grid of `key` and its rows of (column, index) pairs."""
        grid, rows = [], []
        for i, row in enumerate(_list(periodic[key], f"'periodic' block's {key!r}")):
            row = _list(row, f"row {i} of {key!r}")
            try:  # every entry a string parsed before: the row in one C-level pass
                got = tuple(map(polys.__getitem__, row))
            except (KeyError, TypeError):  # a new string, or an entry that is not one
                got = None
            if got is None:  # outside the handler, so no error chains to its KeyError
                for text in row:  # the new strings, in file order
                    if not isinstance(text, str) or text not in polys:
                        parse(text)
                got = tuple(map(polys.__getitem__, row))
            grid.append(got)
            rows.append(tuple([(j, k) for j, k in enumerate(map(slots.__getitem__, row)) if k is not None]))
        return grid, tuple(rows)

    def degrees(key: str) -> tuple[int, ...]:
        what = f"'periodic' block's {key!r}"
        values = _list(periodic[key], what)
        if not all(type(d) is int for d in values):  # a JSON integer; bool is not one
            raise ParseError(f"{what} holds a degree that is not an integer")
        return tuple(values)

    (a_grid, a_rows), (b_grid, b_rows) = matrix("A"), matrix("B")
    C = PeriodicComplex(ring, a_grid, b_grid, degrees("degrees0"), degrees("degrees1"),
                        certified=certified)
    C.pair_entries = DistinctEntries(tuple(values), (a_rows, b_rows))
    return C


def load_complex(path: str | Path) -> PeriodicComplex:
    path = Path(path)
    return complex_from_obj(_load_json(path), base_dir=path.parent)


def save_complex(C: PeriodicComplex, path: str | Path):
    _write(complex_to_obj(C), path)


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
    _write(trace_to_obj(trace), path)
