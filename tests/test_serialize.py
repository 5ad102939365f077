"""File-format round trips.

Everything the tool writes it must parse back to an equal object, and a trace
file must itself be loadable as a complex file.
"""

import json
import random
import re
from pathlib import Path

import pytest

from ghrv import serialize
from ghrv.cli import run
from ghrv.complexes import DistinctEntries, PeriodicComplex, cone_mul, distinct_entries, validate_pair
from ghrv.errors import ParseError
from ghrv.fields import field_name, make_extension, parse_field
from ghrv.matrix import mat_mul, sparse_rows
from ghrv.pipelines import (
    RealizationTrace,
    TraceStage,
    complete_resolution_of_k,
    fixture_k,
    fixture_rank_one,
    realize,
    worked_ring,
)
from ghrv.serialize import (
    complex_from_obj,
    complex_to_obj,
    load_complex,
    load_ring,
    ring_from_obj,
    ring_to_obj,
    save_complex,
    save_ring,
    save_trace,
    trace_to_obj,
)
from ghrv.poly import Poly, PolyRing
from ghrv.ring import RingSpec, make_ring
from ghrv.variety import IdealGens, ZeroSetUnion, proj_point, ranks_over_R

from dense import dense_product, image_entries
from test_cli_golden import invocations, write_inputs


def test_ring_round_trip(ring5, ringq, tmp_path):
    for i, ring in enumerate((ring5, ringq, worked_ring(make_extension(3, 2)))):
        assert ring_from_obj(ring_to_obj(ring)) == ring
        path = tmp_path / f"ring{i}.json"
        save_ring(ring, path)
        assert load_ring(path) == ring


def test_ring_obj_wants_all_keys(ring5):
    with pytest.raises(ParseError):
        ring_from_obj({})
    obj = ring_to_obj(ring5)
    del obj["f"]
    with pytest.raises(ParseError):
        ring_from_obj(obj)


def test_complex_round_trip(ring5, tmp_path):
    for i, c in enumerate((fixture_rank_one(ring5), fixture_k(ring5), complete_resolution_of_k(ring5))):
        path = tmp_path / f"c{i}.json"
        save_complex(c, path)
        loaded = load_complex(path)
        assert loaded == c
        assert loaded.certified == c.certified
        assert loaded.degrees0 == c.degrees0
        assert loaded.degrees1 == c.degrees1


def test_a_loaded_pair_compares_its_ring_once(ring5, tmp_path, monkeypatch):
    # a loaded 32x32 trace holds a ring of its own, equal to the realized
    # pair's but not the same object: equality compares the two rings once
    # and then the entries' terms, so the ring comparisons are a constant
    # number (those of the f_i), not one per position
    final = realize(ring5, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False).final
    save_complex(final, tmp_path / "trace.json")
    C = load_complex(tmp_path / "trace.json")
    assert C.size == 32 and C.ring is not final.ring
    calls = []
    ring_eq = PolyRing.__eq__
    monkeypatch.setattr(PolyRing, "__eq__", lambda p, q: calls.append(1) or ring_eq(p, q))
    assert C == final and final == C
    assert 0 < len(calls) <= 4 * len(ring5.f)
    monkeypatch.undo()

    # still unequal: one entry, a degree, the ring, or not a pair at all
    for g in (0, 1):
        grids = [[list(row) for row in final.A], [list(row) for row in final.B]]
        grids[g][31][0] = grids[g][31][0] + ring5.parse("x1*x2")
        changed = PeriodicComplex(ring5, *grids, final.degrees0, final.degrees1, final.certified)
        assert C != changed and changed != C
    shifted = PeriodicComplex(ring5, final.A, final.B, final.degrees0[:-1] + (final.degrees0[-1] + 1,),
                              final.degrees1, final.certified)
    assert C != shifted and shifted != C
    other_ring = make_ring(ring5.field, ring5.yvars, ring5.xvars, ["x^3", "y^2"])
    assert C != PeriodicComplex(other_ring, C.A, C.B, C.degrees0, C.degrees1, C.certified)
    assert C != "pair" and C != None and C != C.A
    assert C == PeriodicComplex(ring5, C.A, C.B, C.degrees0, C.degrees1, certified=False)


def test_complex_with_ring_by_path(ring5, tmp_path):
    save_ring(ring5, tmp_path / "ring.json")
    obj = complex_to_obj(fixture_k(ring5))
    obj["ring"] = "ring.json"
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(obj))
    assert load_complex(path) == fixture_k(ring5)


def test_complex_obj_wants_all_keys(ring5):
    with pytest.raises(ParseError):
        complex_from_obj({})
    obj = complex_to_obj(fixture_k(ring5))
    del obj["periodic"]["B"]
    with pytest.raises(ParseError):
        complex_from_obj(obj)
    with pytest.raises(ParseError):
        complex_from_obj({"ring": ring_to_obj(ring5), "periodic": "nope"})


def test_each_distinct_entry_is_parsed_once(ring5, monkeypatch):
    # a realize trace repeats few entry strings many times; loading it equals
    # parsing every entry on its own, with one parse per distinct string
    obj = trace_to_obj(realize(ring5, ["x1", "x2"], verify=False))
    texts = [e for key in ("A", "B") for row in obj["periodic"][key] for e in row]
    assert len(set(texts)) < len(texts) // 10
    seen = []
    parse = serialize.parse_poly
    monkeypatch.setattr(serialize, "parse_poly", lambda ring, text: seen.append(text) or parse(ring, text))
    loaded = complex_from_obj(obj)
    assert sorted(seen) == sorted(set(texts))
    amb = ring5.ambient
    one_by_one = PeriodicComplex(
        ring5,
        [[parse(amb, e) for e in row] for row in obj["periodic"]["A"]],
        [[parse(amb, e) for e in row] for row in obj["periodic"]["B"]],
        obj["periodic"]["degrees0"],
        obj["periodic"]["degrees1"],
        certified=obj["periodic"]["certified"],
    )
    assert loaded == one_by_one


def test_each_per_entry_pass_runs_once_per_distinct_object(ring5, monkeypatch):
    # the 32x32 realize stage repeats its parent's few entry objects at many
    # positions; each per-entry pass calls its function once per distinct
    # object and gives what the same function gives position by position
    trace = realize(ring5, ["x1", "x2"], verify=False)
    parent, C = trace.stages[-2].complex, trace.final
    assert C.size == 32
    amb = ring5.ambient

    def objects(*grids, nonzero=False):
        return len({id(e) for grid in grids for row in grid for e in row if not nonzero or e.terms})

    calls = {}

    def count(cls, name):
        fn = getattr(cls, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    # the pencil: image_in_kx once per value of the pair's entries, which
    # here hold one object per value
    fresh = PeriodicComplex(ring5, C.A, C.B, C.degrees0, C.degrees1, certified=True)
    count(RingSpec, "image_in_kx")
    pencil = fresh.pencil_entries
    assert calls["image_in_kx"] == len(fresh.pair_entries.values) == objects(C.A, C.B, nonzero=True) < 256
    monkeypatch.undo()
    index: dict = {}
    rows = tuple(
        tuple(tuple((j, index.setdefault(v, len(index))) for j, e in enumerate(row)
                    if e.terms and (v := ring5.image_in_kx(e)).terms) for row in grid)
        for grid in (C.A, C.B)
    )
    assert pencil == DistinctEntries(tuple(index), rows)

    # the save: to_string once per distinct value of the pair's entries,
    # and once per f_i; a zero entry is written as "0" with no call
    count(Poly, "to_string")
    obj = complex_to_obj(C)
    assert calls["to_string"] == len(C.pair_entries.values) + len(ring5.f) < 2 * 32 * 32
    monkeypatch.undo()
    for key, grid in (("A", C.A), ("B", C.B)):
        assert obj["periodic"][key] == [[e.to_string() for e in row] for row in grid]

    # the cone: one negation per distinct nonzero value of the parent's A
    # and B together, which the parent holds one object each
    count(Poly, "__neg__")
    cone = cone_mul(parent, trace.stages[-1].scalar)
    assert calls["__neg__"] == objects(parent.A, parent.B, nonzero=True) == 12
    monkeypatch.undo()
    n = parent.size
    zero = amb.zero()
    p_block = [[trace.stages[-1].scalar if j == i else zero for j in range(n)] for i in range(n)]
    for grid, top, bottom in ((cone.A, parent.A, parent.B), (cone.B, parent.B, parent.A)):
        want = [list(l) + r for l, r in zip(top, p_block)] + [[zero] * n + [-e for e in row] for row in bottom]
        assert [list(row) for row in grid] == want

    # the constructor: no per-entry pass at all; the pair keeps the entry
    # objects it is given, position by position, and so equals C
    count(PolyRing, "coerce")
    built = PeriodicComplex(ring5, [list(row) for row in C.A], [list(row) for row in C.B],
                            C.degrees0, C.degrees1, certified=True)
    assert calls["coerce"] == 0
    monkeypatch.undo()
    assert built == C
    for got, given in ((built.A, C.A), (built.B, C.B)):
        assert all(e is f for row, given_row in zip(got, given) for e, f in zip(row, given_row))


@pytest.mark.parametrize("ring_name", ["ring5", "ring9", "ringq"])
def test_saved_bytes_are_the_per_position_json(ring_name, request, tmp_path):
    # the bytes save_complex and save_trace write are json.dumps, indent 2,
    # of grids printed entry by entry
    ring = request.getfixturevalue(ring_name)

    def complex_obj(C):
        return {
            "ring": {
                "field": field_name(ring.field),
                "yvars": list(ring.yvars),
                "xvars": list(ring.xvars),
                "f": [fi.to_string() for fi in ring.f],
            },
            "periodic": {
                "A": [[e.to_string() for e in row] for row in C.A],
                "B": [[e.to_string() for e in row] for row in C.B],
                "degrees0": list(C.degrees0),
                "degrees1": list(C.degrees1),
                "certified": C.certified,
            },
        }

    tail = complete_resolution_of_k(ring)
    save_complex(tail, tmp_path / "tail.json")
    assert (tmp_path / "tail.json").read_text() == json.dumps(complex_obj(tail), indent=2) + "\n"

    trace = realize(ring, ["x1 + 2*x2", "x1*x2 + 2*x2^2"])
    assert trace.sizes == [8, 16, 32]
    save_trace(trace, tmp_path / "trace.json")
    want = complex_obj(trace.final)
    records = trace_to_obj(trace)
    want["trace"] = records["trace"]
    want["requested-zero-set"] = records["requested-zero-set"]
    assert [r["p"] for r in want["trace"]] == [None] + [s.scalar.to_string() for s in trace.stages[1:]]
    assert (tmp_path / "trace.json").read_text() == json.dumps(want, indent=2) + "\n"
    assert load_complex(tmp_path / "trace.json") == trace.final


@pytest.mark.parametrize("ring_name", ["ring5", "ring9", "ringq"])
def test_a_loaded_pair_maps_each_value_of_its_entries_once(ring_name, request, tmp_path, monkeypatch):
    # a loaded pair is a leaf, and its pencil is the image of its own
    # distinct entries: one image_in_kx per value of its pair_entries, in
    # order, and none once kept.  It is the image-grid reference on the
    # 32x32 trace, and on the rank-one pair with B's x1 and x^2 spelt
    # "1*x1" and "1*x^2", two strings of one value each, which the loader
    # reads as one object each, and whose entries x^2 and y^2 have image
    # zero (6 values, 3 nonzero images)
    ring = request.getfixturevalue(ring_name)
    save_trace(realize(ring, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False), tmp_path / "trace.json")
    save_complex(fixture_rank_one(ring), tmp_path / "pair.json")
    obj = json.loads((tmp_path / "pair.json").read_text())
    a, b = obj["periodic"]["A"], obj["periodic"]["B"]
    assert (b[1][1], b[0][0]) == (a[0][0], a[1][1]) == ("x1", "x^2")
    b[1][1], b[0][0] = "1*x1", "1*x^2"
    (tmp_path / "respelt.json").write_text(json.dumps(obj))
    image = RingSpec.image_in_kx
    calls = []
    monkeypatch.setattr(RingSpec, "image_in_kx", lambda r, p: calls.append(p) or image(r, p))
    for name, objects, values, images in (("trace.json", 15, 15, None), ("respelt.json", 6, 6, 3)):
        C = load_complex(tmp_path / name)
        assert len({id(e) for grid in (C.A, C.B) for row in grid for e in row if e.terms}) == objects
        del calls[:]
        pencil = C.pencil_entries
        assert [id(e) for e in calls] == [id(v) for v in C.pair_entries.values]
        assert len(calls) == values
        del calls[:]
        assert C.pencil_entries is pencil and calls == []
        assert pencil == image_entries(ring, (C.A, C.B))
        assert images is None or len(pencil.values) == images


def test_writer_matches_json_dumps():
    # the one writer of ring, complex and trace files prints exactly what
    # json.dumps(obj, indent=2) prints
    cases = [
        [], {}, None, True, False, 0, -7, 2**70, "", [[]], [{}], {"a": {}}, {"a": []},
        ["quote \" mark", "back\\slash", "caf\u00e9 \u2603", "tab\tnew\nline"],
        {"k\"ey": {"nested": {"deep": [1, "two", None, True, [3, []]]}}, "empty": ""},
        [[1, 2], ["a", "b"], [True, False, None]],
        {"ring": {"f": ["x^2"], "yvars": []}, "periodic": {"A": [["0", "x1*y"]], "certified": False}},
    ]
    for obj in cases:
        assert serialize._dumps(obj) == json.dumps(obj, indent=2)


@pytest.fixture(scope="module")
def trace32_obj(ring5):
    trace = realize(ring5, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False)
    assert trace.sizes == [8, 16, 32]
    return trace_to_obj(trace)


@pytest.mark.parametrize("edits, message", [
    ({("A", 0, 0): "x1+", ("A", 2): "x1"}, "unexpected end of input (at position 3)"),
    ({("A", 1, 3): [1], ("A", 4, 0): 7}, "matrix entry [1] is not a string"),
    ({("B", 0, 0): 3, ("A", 5, 1): "2**"}, "expected a term, got '*' (at position 2)"),
])
def test_loader_raises_the_first_error_in_file_order(trace32_obj, edits, message):
    # two faults in a 32x32 trace: the one met first, reading A row by row
    # and then B, is the one reported, whatever its kind
    obj = json.loads(json.dumps(trace32_obj))
    for (*path, last), value in edits.items():
        target = obj["periodic"]
        for key in path:
            target = target[key]
        target[last] = value
    with pytest.raises(ParseError) as err:
        complex_from_obj(obj)
    assert str(err.value) == message


def test_first_malformed_entry_is_reported(ring5, tmp_path, capsys):
    obj = complex_to_obj(fixture_k(ring5))
    obj["periodic"]["A"][0][1] = "x1 +* 2"
    obj["periodic"]["B"][0][0] = "q"
    with pytest.raises(ParseError, match=re.escape("expected a term, got '*' (at position 4)")):
        complex_from_obj(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a term, got '*' (at position 4)\n"


def test_readme_file_format_examples(ring5, tmp_path):
    # the ring and complex blocks of the README, the complex naming the ring
    # file by a relative path
    readme = Path(__file__).resolve().parents[1] / "README.md"
    ring_text, complex_text = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    (tmp_path / "ring.json").write_text(ring_text)
    (tmp_path / "C.json").write_text(complex_text)
    C = load_complex(tmp_path / "C.json")
    assert validate_pair(C).ok
    assert C.certified and C == fixture_k(ring5)


def test_trace_file_is_a_complex_file(ring5, tmp_path):
    trace = realize(ring5, ["x1", "x2"])
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    assert load_complex(path) == trace.final

    obj = json.loads(path.read_text())
    assert obj["requested-zero-set"] == ["x1", "x2"]
    records = obj["trace"]
    assert [r["size"] for r in records] == [8, 16, 32]
    assert records[0]["p"] is None
    assert records[1]["p"] == "x1"
    assert all(r["variety-summary"] == "contractible at every GF(5) point" for r in records)


def test_trace_summaries(ring5):
    skipped = realize(ring5, ["x1"], verify=False)
    obj = trace_to_obj(skipped)
    assert all(r["variety-summary"] == "pointwise data not enumerated" for r in obj["trace"])

    pts = (proj_point(ring5.field, (1, 0)), proj_point(ring5.field, (0, 1)))
    hand = RealizationTrace(
        ring5,
        [TraceStage(None, fixture_k(ring5), noncontractible=pts)],
        ZeroSetUnion(ring5.kx, (IdealGens(ring5.kx, ()),)),
    )
    obj = trace_to_obj(hand)
    assert obj["trace"][0]["variety-summary"] == "noncontractible over GF(5): (1:0), (0:1)"
    assert obj["requested-zero-set"] == []


def _loaded_as_its_grids(path):
    """Load the complex file at `path` and check it against the pair built
    from its grids alone: the loader's pair_entries are those its grids give
    (distinct_entries), values and rows, with one object per value at every
    position, and the verdict, the findings and the ranks over R are that
    pair's.  Both products mat_mul forms from the loaded values and rows are
    the schoolbook products of the grids.  Returns the loaded pair."""
    C = load_complex(path)
    entries = C.pair_entries
    assert entries == distinct_entries((C.A, C.B), C.ring.ambient)
    amb = C.ring.ambient
    a, b = entries.rows
    assert mat_mul(entries.values, a, b, amb) == sparse_rows(dense_product(C.A, C.B, amb))
    assert mat_mul(entries.values, b, a, amb) == sparse_rows(dense_product(C.B, C.A, amb))
    assert {id(e) for grid in (C.A, C.B) for row in grid for e in row if e.terms} == {id(v) for v in entries.values}
    fresh = PeriodicComplex(C.ring, C.A, C.B, C.degrees0, C.degrees1, C.certified)
    assert C.is_factorization == fresh.is_factorization
    assert validate_pair(C).findings == validate_pair(fresh).findings
    assert ranks_over_R(C) == ranks_over_R(fresh)
    return C


@pytest.mark.parametrize("field_text", ["GF(5)", "GF(9)", "QQ"])
def test_a_loaded_pair_indexes_the_entries_of_its_grids(field_text, tmp_path):
    # every complex file of the CLI's golden table: its input pairs (bad.json
    # included, which fails the identity and the degree rule) and the files
    # resolve-k and realize write there
    write_inputs(field_text, tmp_path)
    for argv in invocations(field_text):
        if "--out" in argv:
            assert run([arg.replace("<tmp>", str(tmp_path)) for arg in argv]) == 0
    names = sorted(path.name for path in tmp_path.glob("*.json") if path.name != "ring.json")
    assert names == ["bad.json", "k.json", "loose.json", "pair.json", "tail.json", "trace.json", "trace32.json"]
    verdicts = {name: _loaded_as_its_grids(tmp_path / name).is_factorization for name in names}
    assert [name for name, ok in verdicts.items() if not ok] == ["bad.json"]


def _form_text(rng, p, degree):
    """A random binary form of `degree` with coefficients 1 .. p - 1."""
    return " + ".join(f"{rng.randrange(1, p)}*x1^{i}*x2^{degree - i}" for i in range(degree + 1))


def test_realize_traces_load_as_their_grids(tmp_path):
    # the realize --out traces of seeds 0 to 5 over GF(5), GF(7) and GF(9),
    # each by one scalar (8 -> 16) and by two (8 -> 16 -> 32) of degrees 1
    # and 2: the scalar lists the cli-realize benchmark writes and reads
    sizes = []
    for seed in range(6):
        rng = random.Random(seed)
        for field_text in ("GF(5)", "GF(7)", "GF(9)"):
            field = parse_field(field_text)
            ring_path = tmp_path / "ring.json"
            save_ring(worked_ring(field), ring_path)
            for degrees in ((1,), (1, 2), (2, 1)):
                argv = ["realize", str(ring_path), "--out", str(tmp_path / "trace.json")]
                for d in degrees:
                    argv += ["--p", _form_text(rng, field.char, d)]
                assert run(argv) == 0
                sizes.append(_loaded_as_its_grids(tmp_path / "trace.json").size)
    assert sorted(set(sizes)) == [16, 32]


def _respelt(poly):
    """poly written with its terms in reverse order, so x1 + x2 reads
    x2 + x1."""
    text = ""
    for m, c in reversed(poly.sorted_terms()):
        term = Poly(poly.ring, {m: c}).to_string()
        text += term if not text else f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text


@pytest.mark.parametrize("ring_name", ["ring5", "ring9", "ringq"])
def test_a_value_spelt_two_ways_is_one_entry(ring_name, request, tmp_path):
    # seeded rewrites of the 32x32 trace and of the rank-one pair: entries
    # respelt with their terms in another order (x1 + x2 and x2 + x1), or
    # with terms that cancel or are zero (e + x2 - x2, e + 0*x1), and zeros
    # written as 0*x1, x1 - x1 or 0*y^2; each file's entries are indexed by
    # value, so a value keeps one index and one object, and a zero gets none
    ring = request.getfixturevalue(ring_name)
    save_trace(realize(ring, ["x1 + 2*x2", "x1*x2 + 2*x2^2"], verify=False), tmp_path / "trace.json")
    save_complex(fixture_rank_one(ring), tmp_path / "pair.json")
    rng = random.Random(f"respelt {ring_name}")
    respelt = 0
    for name in ("trace.json", "pair.json"):
        obj = json.loads((tmp_path / name).read_text())
        want = load_complex(tmp_path / name)
        for key in ("A", "B"):
            for row in obj["periodic"][key]:
                for j, text in enumerate(row):
                    if rng.random() < 0.5:
                        continue
                    poly = ring.parse(text)
                    if not poly.terms:
                        row[j] = rng.choice(["0*x1", "x1 - x1", "0*y^2"])
                    else:
                        row[j] = rng.choice([_respelt(poly), f"{text} + x2 - x2", f"{text} + 0*x1"])
                    respelt += row[j] != text
        path = tmp_path / f"respelt-{name}"
        path.write_text(json.dumps(obj))
        C = _loaded_as_its_grids(path)
        assert C == want and C.pair_entries == want.pair_entries
    assert respelt > 500
