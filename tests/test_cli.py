"""Command-line behaviors: output text, artifacts, exit codes.

Everything drives ghrv.cli.run() in process; one smoke test at the end runs
the console script declared in pyproject.toml as a separate process, and the
installed `ghrv` script too when one is on PATH.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ghrv
import ghrv.cli
import ghrv.variety

from ghrv.cli import build_parser, run
from ghrv.fields import prime_field
from ghrv.pipelines import fixture_k, fixture_rank_one, named_fixture, worked_ring
from ghrv.ring import make_ring
from ghrv.serialize import load_complex, save_complex, save_ring


@pytest.fixture()
def ring_file(ring5, tmp_path):
    path = tmp_path / "ring.json"
    save_ring(ring5, path)
    return str(path)


@pytest.fixture()
def pair_file(ring5, tmp_path):
    path = tmp_path / "pair.json"
    save_complex(fixture_rank_one(ring5), path)
    return str(path)


@pytest.fixture()
def k_file(ring5, tmp_path):
    path = tmp_path / "k.json"
    save_complex(fixture_k(ring5), path)
    return str(path)


def test_points(capsys):
    assert run(["points", "--field", "GF(3)", "--c", "2"]) == 0
    out = capsys.readouterr().out
    assert "P^1(GF(3)): 4 points" in out
    assert out.strip().splitlines()[1:] == ["(1:0)", "(1:1)", "(1:2)", "(0:1)"]


def test_points_over_large_fields(capsys):
    # the one point of P^0 needs no list of the field's elements
    assert run(["points", "--field", "GF(1000000000039)", "--c", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "P^0(GF(1000000000039)): 1 points\n(1)\n"
    assert captured.err == ""
    # 1000004 points exceed MAX_POINTS and are refused before any is printed
    assert run(["points", "--field", "GF(1000003)", "--c", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "BoundExceeded: P^1(GF(1000003)) has more than the cap of 1000000 points\n"


def test_a_prime_past_the_trial_division_cap_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert run(["points", "--field", "GF(2305843009213693951)", "--c", "2"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("BoundExceeded: 2305843009213693951 has no factor up to the "
                            "trial-division cap of 10000000; its primality is not decided\n")


def test_a_shamash_tail_past_the_cap_is_refused_at_once(tmp_path, capsys):
    # c + d = 13: the tail would be a dense 4096 x 4096 pair
    ring = make_ring(prime_field(5), [f"y{i}" for i in range(1, 12)], ["x1", "x2"], ["y1", "y2"])
    ring_path = tmp_path / "ring.json"
    save_ring(ring, ring_path)
    out = tmp_path / "out.json"
    for argv in (["resolve-k", str(ring_path), "--out", str(out)],
                 ["realize", str(ring_path), "--p", "x1", "--out", str(out)]):
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "BoundExceeded: the Shamash tail on c + d = 13 variables exceeds the cap of 12\n"
        assert not out.exists()


def test_check_valid(pair_file, capsys):
    assert run(["check", pair_file]) == 0
    assert "valid: no findings" in capsys.readouterr().out


def test_check_corrupted(pair_file, tmp_path, capsys):
    obj = json.loads(Path(pair_file).read_text())
    obj["periodic"]["A"][0][0] = "x1 + 1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "finding" in out


def test_rank(pair_file, capsys):
    assert run(["rank", pair_file]) == 0
    out = capsys.readouterr().out
    assert "rank(A) = 1" in out and "rank(B) = 1" in out and "size = 2" in out
    assert run(["rank", pair_file, "--which", "A"]) == 0
    out = capsys.readouterr().out
    assert "rank(A) = 1" in out and "rank(B)" not in out


def test_ideal(pair_file, capsys, monkeypatch):
    # ranks come from ranks_over_R; the pair is an exact factorization, so
    # B's rank is n - rank A by the complement rule and only A is eliminated
    eliminated = []
    rank_over_R = ghrv.variety.rank_over_R
    monkeypatch.setattr(ghrv.variety, "rank_over_R",
                        lambda rows, ring: eliminated.append(rows) or rank_over_R(rows, ring))
    assert run(["ideal", pair_file, "--which", "B"]) == 0
    assert "image of I_1(B) in k[x]: (x1, x2)" in capsys.readouterr().out
    assert eliminated == [load_complex(pair_file).pair_entries.sparse_rows(0)]
    monkeypatch.undo()
    # --which is mandatory here
    assert run(["ideal", pair_file]) == 2


def test_variety_fixture_with_points(ring_file, capsys):
    assert run(["variety", ring_file, "--fixture", "k5-example", "--points"]) == 0
    out = capsys.readouterr().out
    assert "components:" in out
    assert "points over GF(5): {(1:0), (0:1)}" in out


def test_variety_from_file_with_extensions(pair_file, capsys):
    assert run(["variety", pair_file, "--points", "--ext-bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "components: Z(x1, x2) union Z(x1, x2)" in out
    assert "points over GF(5): {}" in out
    assert "points over GF(25): {}" in out


def test_specialize(k_file, capsys):
    assert run(["specialize", k_file, "--alpha", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "w_alpha = x^2 + y^2" in out
    assert "A|alpha =" in out
    assert "residue ranks: rank(A) = 0, rank(B) = 0, size = 2" in out


def test_specialize_maps_each_entry_object_once(ring_file, tmp_path, capsys, monkeypatch):
    # specialize prints A|alpha and B|alpha position by position, but
    # specializes w and then each distinct nonzero value of the loaded
    # pair's entries once, in the order first met, printing "0" at every
    # other position: on the 32x32 trace, 16 calls (w and 15 values) where
    # one call per position, w included, made 2049.  The loader gives each
    # value one object, so that is one call per nonzero entry object.
    trace = str(tmp_path / "trace.json")
    assert run(["realize", ring_file, "--p", "x1*x2", "--p", "x1+x2", "--out", trace]) == 0
    C = load_complex(trace)
    objects = list({id(e): e for grid in (C.A, C.B) for row in grid for e in row if e.terms}.values())
    calls = []
    specialize = ghrv.cli.specialize
    monkeypatch.setattr(ghrv.cli, "specialize", lambda e, *a: calls.append(e) or specialize(e, *a))
    monkeypatch.setattr(ghrv.cli, "load_complex", lambda path: C)
    capsys.readouterr()
    assert run(["specialize", trace, "--alpha", "1,2"]) == 0
    out = capsys.readouterr().out
    assert C.size == 32 and len(objects) == 15
    assert [id(e) for e in calls[1:]] == [id(e) for e in objects] == [id(v) for v in C.pair_entries.values]
    assert calls[0] == C.ring.w
    assert out.count("\n  [ ") == 64


def test_specialize_with_preimages(k_file, capsys):
    assert run(["specialize", k_file, "--alpha", "1,1", "--preimages", "1 + y,1 + x"]) == 0
    out = capsys.readouterr().out
    assert "residue ranks: rank(A) = 0, rank(B) = 0, size = 2" in out


def test_contractible(k_file, pair_file, capsys):
    assert run(["contractible", k_file, "--alpha", "1,1"]) == 0
    assert "contractible at" in capsys.readouterr().out
    assert run(["contractible", pair_file, "--alpha", "1,0"]) == 0
    assert "True (residue ranks 1 + 1 vs size 2)" in capsys.readouterr().out


def test_rational_alpha_coordinates(ringq, tmp_path, capsys):
    # over QQ a coordinate may be a fraction: contractible and specialize on
    # the resolve-k file at (1/2, 1)
    ring_path, k_path = tmp_path / "ring.json", tmp_path / "k.json"
    save_ring(ringq, ring_path)
    assert run(["resolve-k", str(ring_path), "--out", str(k_path)]) == 0
    capsys.readouterr()
    assert run(["contractible", str(k_path), "--alpha", "1/2,1"]) == 0
    assert capsys.readouterr().out == "contractible at (1/2, 1): True (residue ranks 4 + 4 vs size 8)\n"
    assert run(["specialize", str(k_path), "--alpha", "1/2,1"]) == 0
    assert capsys.readouterr().out == """\
alpha = (1/2, 1)
w_alpha = 1/2*x^2 + y^2
A|alpha =
  [ 0, 0, -y^2, x^2, 0, 0, 0, 0 ]
  [ x, y, 0, 0, -y^2, x^2, 0, 0 ]
  [ -1, 0, y, 0, 0, 0, x^2, 0 ]
  [ 0, -1, -x, 0, 0, 0, 0, x^2 ]
  [ 1/2, 0, 0, y, 0, 0, y^2, 0 ]
  [ 0, 1/2, 0, -x, 0, 0, 0, y^2 ]
  [ 0, 0, 1/2, 1, 0, 0, 0, 0 ]
  [ 0, 0, 0, 0, 1/2, 1, x, y ]
B|alpha =
  [ -y, 0, -y^2, 0, x^2, 0, 0, 0 ]
  [ x, 0, 0, -y^2, 0, x^2, 0, 0 ]
  [ -1, 0, 0, 0, 0, 0, x^2, 0 ]
  [ 1/2, 0, 0, 0, 0, 0, y^2, 0 ]
  [ 0, -1, -x, -y, 0, 0, 0, x^2 ]
  [ 0, 1/2, 0, 0, -x, -y, 0, y^2 ]
  [ 0, 0, 1/2, 0, 1, 0, -y, 0 ]
  [ 0, 0, 0, 1/2, 0, 1, x, 0 ]
residue ranks: rank(A) = 4, rank(B) = 4, size = 8
"""


def test_bad_alpha_coordinates(ringq, k_file, tmp_path, capsys):
    # a coordinate is a signed number of ASCII decimal digits, and over QQ
    # also a fraction by a nonzero one: anything else is a bad coordinate,
    # exit 2, for contractible and for specialize (\u0665 is the Arabic-Indic
    # five, which int() reads as 5)
    ring_path, q_path = tmp_path / "ring.json", tmp_path / "kq.json"
    save_ring(ringq, ring_path)
    assert run(["resolve-k", str(ring_path), "--out", str(q_path)]) == 0
    capsys.readouterr()
    cases = [(str(q_path), tok) for tok in ("1/0", "0/0", "1_0", "1_0/3", "1/0_3", "\u0665", "1/\u0665", "+-1")]
    cases += [(k_file, tok) for tok in ("1_0", "\u0665", "1/2", "1/0")]
    for path, tok in cases:
        for verb in ("contractible", "specialize"):
            assert run([verb, path, "--alpha", f"{tok},1"]) == 2, (verb, tok)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: bad coordinate {tok!r}\n"
    # a sign and a fraction stay valid over QQ, and a sign over GF(5)
    for path, alpha, shown in ((str(q_path), "-3,1/2", "(-3, 1/2)"), (str(q_path), "+1/2,-1", "(1/2, -1)"),
                               (k_file, "-3,1", "(2, 1)")):
        assert run(["contractible", path, f"--alpha={alpha}"]) == 0
        assert capsys.readouterr().out.startswith(f"contractible at {shown}: ")
        assert run(["specialize", path, f"--alpha={alpha}"]) == 0
        assert capsys.readouterr().out.startswith(f"alpha = {shown}\n")


def test_cone(k_file, capsys):
    assert run(["cone", k_file, "--p", "x1*x2"]) == 0
    out = capsys.readouterr().out
    assert "cone by x1*x2: size 4, certified True" in out
    assert "degrees0 = [0, 0, 1, 2]" in out


def test_cone_rejects_bad_scalar(k_file, capsys):
    assert run(["cone", k_file, "--p", "x1 + x1*x2"]) == 1
    assert "NotHomogeneousScalar" in capsys.readouterr().err


def test_cone_rejects_a_literal_past_the_digit_limit(k_file, capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(["cone", k_file, "--p", "9" * 5000 + "*x1"]) == 2
    finally:
        sys.set_int_max_str_digits(old)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: number literal of 5000 digits exceeds the limit of 4300 digits (at position 0)\n"


def test_deep_nesting_is_a_usage_error(ring_file, k_file, tmp_path, capsys):
    # a scalar or a file entry nested past the recursion limit exits 2 with
    # the parser's message, not a traceback; 200 levels still parse
    nested = "(" * 300 + "x1" + ")" * 300
    assert run(["realize", ring_file, "--p", nested]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression nested too deeply\n"
    assert run(["cone", k_file, "--p", "(" * 200 + "x1" + ")" * 200]) == 0
    capsys.readouterr()
    obj = json.loads(Path(k_file).read_text())
    obj["periodic"]["A"][0][0] = "(" * 400 + obj["periodic"]["A"][0][0] + ")" * 400
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(obj))
    assert run(["check", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression nested too deeply\n"


def test_cone_rechecks_a_false_certification(ring_file, tmp_path, capsys):
    path = tmp_path / "liar.json"
    periodic = {"A": [["x1"]], "B": [["x2"]], "degrees0": [0], "degrees1": [1], "certified": True}
    path.write_text(json.dumps({"ring": ring_file, "periodic": periodic}))
    assert run(["cone", str(path), "--p", "x1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "CertificationFailed: cone blocks do not multiply to w*I\n"
    assert captured.out == ""


def test_a_false_certification_gets_both_ranks(ring_file, tmp_path, capsys):
    # the resolve-k file with A[0][0] changed but "certified" kept: the
    # claim is re-tested on the grids, so rank eliminates both matrices
    res = tmp_path / "res.json"
    assert run(["resolve-k", ring_file, "--out", str(res)]) == 0
    obj = json.loads(res.read_text())
    assert obj["periodic"]["certified"] is True
    obj["periodic"]["A"][0][0] = "x1 + " + obj["periodic"]["A"][0][0]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert not load_complex(bad).is_factorization
    capsys.readouterr()
    assert run(["rank", str(bad)]) == 0
    assert capsys.readouterr().out == "rank(A) = 5\nrank(B) = 4\nsize = 8\n"
    assert run(["variety", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == "InvalidComplex: rank(A) + rank(B) = 5 + 4 != 8; pair is not a valid complex\n"
    assert run(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("finding NotAComplex: A*B is nonzero mod w")
    assert "finding CertificationFailed" in out


def test_resolve_k(ring_file, tmp_path, ring5, capsys):
    out_path = tmp_path / "res.json"
    assert run(["resolve-k", ring_file, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "complete resolution of k: size 8, certified True" in out
    loaded = load_complex(out_path)
    assert loaded.size == 8
    assert loaded.certified


def test_realize(ring_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = run([
        "realize", ring_file, "--p", "x1", "--p", "x2", "--points", "--out", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace sizes: 8 -> 16 -> 32" in out
    assert "requested zero set: Z(x1, x2)" in out
    assert "pointwise cone law verified at 12 base-field points" in out
    assert "contractible at every base-field point" in out
    assert "points over GF(5): {}" in out
    final = load_complex(trace_path)
    assert final.size == 32
    assert json.loads(trace_path.read_text())["requested-zero-set"] == ["x1", "x2"]


def test_points_over_qq_are_refused_before_any_work(ringq, tmp_path, capsys):
    # --points needs a finite field; over QQ the verb stops before it builds
    # or prints anything, and writes no file
    ring_path = tmp_path / "ringQQ.json"
    save_ring(ringq, ring_path)
    k_path = tmp_path / "kQQ.json"
    save_complex(fixture_k(ringq), k_path)
    trace_path = tmp_path / "t.json"
    for argv in (
        ["realize", str(ring_path), "--p", "x1", "--points", "--out", str(trace_path)],
        ["variety", str(k_path), "--points"],
        ["variety", str(ring_path), "--fixture", "k5-example", "--points"],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "UnsupportedField: point enumeration needs a finite field\n"
    assert not trace_path.exists()


def test_points_over_the_cap_are_refused_before_any_work(pair_file, ring_file, tmp_path, capsys):
    # P^1(GF(5^9)) has more than MAX_POINTS points: the listing is refused
    # before the variety is computed or any smaller extension is listed,
    # naming the first extension over the cap however large the bound is
    refusal = "BoundExceeded: P^1(GF(1953125)) has more than the cap of 1000000 points\n"
    start = time.perf_counter()
    for argv in (
        ["variety", pair_file, "--points", "--ext-bound", "9"],
        ["variety", pair_file, "--points", "--ext-bound", "1000000000"],
        ["variety", ring_file, "--fixture", "k5-example", "--points", "--ext-bound", "9"],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal
    assert time.perf_counter() - start < 5
    # without --points the bound lists nothing, so it is not checked
    assert run(["variety", pair_file, "--ext-bound", "9"]) == 0
    assert capsys.readouterr().out == "components: Z(x1, x2) union Z(x1, x2)\n"
    # realize lists the base field only: P^1(GF(1000003)) is refused before
    # the trace is built, and no file is written
    ring_path = tmp_path / "ring1000003.json"
    save_ring(worked_ring(prime_field(1000003)), ring_path)
    trace_path = tmp_path / "t.json"
    assert run(["realize", str(ring_path), "--p", "x1", "--points", "--out", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "BoundExceeded: P^1(GF(1000003)) has more than the cap of 1000000 points\n"
    assert not trace_path.exists()


def test_ideal_refuses_a_minor_count_over_the_cap(ring_file, tmp_path, capsys):
    # The 16x16 realize stage has C(16, 8)^2, about 1.7e8, minors of size 8:
    # too many to enumerate in memory, so the verb must refuse at once, and
    # the refusal names the matrix.  `variety` refuses the same way, on A,
    # the first of its two images.
    trace_path = tmp_path / "trace16.json"
    assert run(["realize", ring_file, "--p", "x1*x2", "--out", str(trace_path)]) == 0
    assert load_complex(trace_path).size == 16
    capsys.readouterr()
    cap = "minors of size 8 in a 16x16 matrix exceed the cap of 1000000\n"
    for argv, name in ((["ideal", str(trace_path), "--which", "A"], "A"),
                       (["ideal", str(trace_path), "--which", "B"], "B"),
                       (["variety", str(trace_path)], "A")):
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"BoundExceeded: {name}: 165636900 {cap}"


def test_module_variety(pair_file, capsys):
    assert run(["module-variety", pair_file]) == 0
    assert "module variety components: Z(x1, x2) union Z(x1, x2)" in capsys.readouterr().out


def test_module_variety_needs_certification(pair_file, tmp_path, capsys):
    obj = json.loads(Path(pair_file).read_text())
    obj["periodic"]["certified"] = False
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(obj))
    assert run(["module-variety", str(loose)]) == 1
    assert capsys.readouterr().err == "InvalidComplex: module presentation needs a certified pair\n"


def test_reproduce(capsys):
    assert run(["reproduce", "--field", "GF(3)", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "all claims hold" in out


def test_usage_errors(pair_file, k_file, tmp_path, capsys):
    assert run(["rank", str(tmp_path / "missing.json")]) == 2
    assert run(["points", "--field", "ZZ", "--c", "2"]) == 2
    capsys.readouterr()
    # a field body of anything but ASCII decimal digits is an unrecognized field
    for text in ("GF(1_3)", "GF(\u0665)", "GF(+5)"):
        assert run(["points", "--field", text, "--c", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized field {text!r}; expected QQ or GF(q)\n"
    for c in ("0", "-2"):
        assert run(["points", "--field", "GF(5)", "--c", c]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point enumeration needs c >= 1 coordinates, got {c}\n"
    for bound in ("0", "-3"):
        assert run(["variety", pair_file, "--points", "--ext-bound", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --ext-bound needs a degree >= 1, got {bound}\n"
    assert run(["contractible", pair_file, "--alpha", "1,oops"]) == 2
    capsys.readouterr()
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    ring3 = tmp_path / "ring3.json"
    save_ring(make_ring(prime_field(5), ("u", "v", "z"), ("x1", "x2", "x3"), ("u^2", "v^2", "z^3")), ring3)
    for argv, message in (
        (["resolve-k", str(array), "--out", str(tmp_path / "out.json")], "ring object is not a JSON object"),
        (["specialize", k_file, "--alpha", "1,2", "--preimages", "1+y"], "expected 2 preimages, got 1"),
        (["variety", str(ring3), "--fixture", "k5-example"],
         "fixture needs a ring with two x- and two y-variables"),
        (["cone", k_file, "--p", "1/x1"], "denominator must be a nonnegative integer (at position 2)"),
        (["points", "--field", "GF(1)", "--c", "2"], "1 is not a prime power"),
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert run(["frobnicate"]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["check", str(garbled)]) == 2
    capsys.readouterr()


def test_check_rejects_non_string_entries(k_file, tmp_path, capsys):
    # a JSON number or null is not an expression; the first such entry in
    # file order (A before B, row by row) is the one named
    obj = json.loads(Path(k_file).read_text())
    obj["periodic"]["A"][0][1] = 0
    obj["periodic"]["A"][1][1] = None
    obj["periodic"]["B"][0][0] = 2.5
    bad = tmp_path / "numbers.json"
    bad.write_text(json.dumps(obj))
    assert run(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix entry 0 is not a string\n"
    obj = json.loads(Path(k_file).read_text())
    obj["periodic"]["B"][1][0] = None
    bad.write_text(json.dumps(obj))
    assert run(["rank", str(bad)]) == 2
    assert capsys.readouterr().err == "error: matrix entry null is not a string\n"


def _replaced(obj, path, value):
    """obj with the item at `path` replaced by value; the empty path
    replaces obj itself."""
    if not path:
        return value
    *keys, last = path
    inner = obj
    for key in keys:
        inner = inner[key]
    inner[last] = value
    return obj


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("periodic", "A", 1), "yx", "row 1 of 'A' is not a list"),
        (("periodic", "degrees0"), "01", "'periodic' block's 'degrees0' is not a list"),
        (("periodic", "A"), 5, "'periodic' block's 'A' is not a list"),
        (("periodic", "A", 0), 5, "row 0 of 'A' is not a list"),
        (("periodic", "degrees0"), 5, "'periodic' block's 'degrees0' is not a list"),
        (("ring", "xvars"), 7, "ring object's 'xvars' is not a list"),
        (("ring", "xvars"), ["x1", 7], "ring object's 'xvars' holds a name that is not a string"),
        (("ring", "f"), "x^2", "ring object's 'f' is not a list"),
        (("ring", "field"), 5, "ring object's 'field' is not a string"),
        (
            ("periodic", "degrees1"),
            [0, None],
            "'periodic' block's 'degrees1' holds a degree that is not an integer",
        ),
        ((), [], "complex file is not a JSON object"),
        (
            ("periodic", "degrees0"),
            [0.5, 0],
            "'periodic' block's 'degrees0' holds a degree that is not an integer",
        ),
        (
            ("periodic", "degrees1"),
            [False, True],
            "'periodic' block's 'degrees1' holds a degree that is not an integer",
        ),
        (
            ("periodic", "degrees1"),
            ["1", "0"],
            "'periodic' block's 'degrees1' holds a degree that is not an integer",
        ),
        (
            ("periodic", "degrees0"),
            ["a", 0],
            "'periodic' block's 'degrees0' holds a degree that is not an integer",
        ),
        (("ring", "f"), [5, "y^2"], "ring object's 'f' holds an entry that is not a string"),
        (("ring", "f"), [None, "y^2"], "ring object's 'f' holds an entry that is not a string"),
        (("periodic", "certified"), "false", "'periodic' block's 'certified' is not a boolean"),
    ],
    ids=[
        "row-string", "degrees-string", "matrix-number", "row-number", "degrees-number",
        "xvars-number", "xvars-entry", "f-string", "field-number", "degree-null", "top-level-list",
        "degree-float", "degree-bool", "degree-string", "degree-letter", "f-number", "f-null",
        "certified-string",
    ],
)
def test_malformed_json_shapes_are_usage_errors(k_file, tmp_path, capsys, path, value, message):
    # a string or number where a JSON array belongs is never iterated: a row
    # "yx" was read as two entries, and a number raised a traceback; nor is a
    # degree, an f_i or the certified flag coerced: 0.5 became 0, "1" became
    # 1, and "false" counted as a claim
    obj = _replaced(json.loads(Path(k_file).read_text()), path, value)
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(obj))
    assert run(["rank", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_malformed_json_names_its_file(ring_file, k_file, tmp_path, capsys):
    # a file that is not JSON is a usage error that names the file: an
    # empty ring file read by realize, a truncated complex file read by
    # check, and a complex file whose ring path points at a truncated ring
    # file, which names the ring file and not the complex file
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run(["realize", str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {empty} is not JSON: Expecting value: line 1 column 1 (char 0)\n"

    text = Path(k_file).read_text()
    cut = tmp_path / "cut.json"
    cut.write_text(text[: len(text) // 2])
    assert run(["check", str(cut)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {cut} is not JSON: ")

    bad_ring = tmp_path / "bad-ring.json"
    bad_ring.write_text(Path(ring_file).read_text()[:-3])
    obj = json.loads(text)
    obj["ring"] = "bad-ring.json"
    pair = tmp_path / "pair-by-path.json"
    pair.write_text(json.dumps(obj))
    for argv in (["check", str(pair)], ["rank", str(pair)], ["variety", str(pair)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad_ring} is not JSON: ")
        assert str(pair) not in captured.err
    obj["ring"] = "ring.json"  # the good ring file beside it loads
    pair.write_text(json.dumps(obj))
    assert run(["check", str(pair)]) == 0
    assert capsys.readouterr().out.startswith("valid: no findings")


def test_one_parser_serves_every_run(ring_file, capsys):
    # --p appends to a fresh list on every run, so scalars never carry over
    # from one run to the next, and a bad flag still exits 2 afterwards
    assert run(["realize", ring_file, "--p", "x1"]) == 0
    assert "trace sizes: 8 -> 16\nrequested zero set: Z(x1)\n" in capsys.readouterr().out
    assert run(["realize", ring_file, "--p", "x2"]) == 0
    assert "trace sizes: 8 -> 16\nrequested zero set: Z(x2)\n" in capsys.readouterr().out
    assert run(["realize", ring_file, "--bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ghrv")
    assert run(["realize", ring_file]) == 0
    assert "trace sizes: 8\n" in capsys.readouterr().out


def test_jobs_flag_is_gone(pair_file, capsys):
    # --jobs was a documented no-op and has been removed
    assert run(["--jobs", "4", "rank", pair_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ghrv")
    assert "--jobs" not in build_parser().format_help()


def test_console_script(ring5, tmp_path):
    path = tmp_path / "pair.json"
    save_complex(named_fixture("rank-one-pair", ring5), path)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # The `ghrv = "module:func"` line of [project.scripts]; read without a
    # TOML library, which Python 3.10 lacks.
    scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^ghrv\s*=\s*"([^"]+)"', scripts, re.M)
    assert target, "pyproject.toml declares no ghrv console script"
    module, func = target.group(1).split(":")
    # What the generated wrapper does: call the target and exit with its result.
    entry = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(ghrv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    commands = [[sys.executable, "-c", entry]]
    installed = shutil.which("ghrv")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            command + ["rank", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "rank(A) = 1" in proc.stdout


def _main_command():
    """The command and environment that run ghrv.cli.main in a fresh
    interpreter on this source tree."""
    src = str(Path(ghrv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    entry = "import sys; from ghrv.cli import main; sys.exit(main())"
    return [sys.executable, "-c", entry], dict(os.environ, PYTHONPATH=pythonpath)


def test_a_closed_stdout_pipe_ends_the_verb_quietly(pair_file):
    # The reader of stdout goes away: the verb ends with exit status 141
    # (128 + SIGPIPE) and nothing on stderr, not even the interpreter's
    # report of a failed flush at exit.  points prints 10303 lines, more
    # than the pipe, the reader's and stdout's buffers hold, so its pipe
    # breaks while it prints, after the reader has taken one line; rank
    # prints three short lines, which meet the pipe, closed before the
    # process starts, only when stdout is flushed at exit.
    command, env = _main_command()
    proc = subprocess.Popen(command + ["points", "--field", "GF(101)", "--c", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"P^2(GF(101)): 10303 points\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(command + ["rank", pair_file], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
    # any other OSError is still a usage error, reported on stderr
    proc = subprocess.run(command + ["rank", pair_file + ".missing"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("error: [Errno 2] No such file")
