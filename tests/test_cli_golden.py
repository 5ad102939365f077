"""Byte-for-byte outputs of the CLI over GF(5), GF(9) and QQ.

Each invocation runs ghrv.cli.run in process on files this module writes
into a temporary directory.  Its exit code, stdout, stderr and the sha256
of the file it writes through --out, if any, must equal the entry of
cli_golden.json, with the temporary directory written as <tmp> both in the
arguments and in the output.  The invocations of one field run in order,
so later ones read the files earlier ones wrote.

Running this file as a script rewrites cli_golden.json from the ghrv on the
import path; do that only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ghrv.cli import run
from ghrv.fields import parse_field
from ghrv.pipelines import fixture_k, fixture_rank_one, worked_ring
from ghrv.serialize import save_complex, save_ring

TABLE = Path(__file__).with_name("cli_golden.json")
FIELDS = ("GF(5)", "GF(9)", "QQ")


def write_inputs(field_text: str, tmp: Path):
    """The worked ring, the rank-one pair, the 2x2 resolution pair, the pair
    with its certified flag cleared, and the resolution pair with one entry
    that is not x-homogeneous and one of the wrong x-degree."""
    ring = worked_ring(parse_field(field_text))
    save_ring(ring, tmp / "ring.json")
    save_complex(fixture_rank_one(ring), tmp / "pair.json")
    save_complex(fixture_k(ring), tmp / "k.json")
    obj = json.loads((tmp / "pair.json").read_text())
    obj["periodic"]["certified"] = False
    (tmp / "loose.json").write_text(json.dumps(obj))
    obj = json.loads((tmp / "k.json").read_text())
    obj["periodic"]["A"][0][0] = "x1 + x"
    obj["periodic"]["B"][1][1] = "x1^2*y"
    (tmp / "bad.json").write_text(json.dumps(obj))


def invocations(field_text: str) -> list[list[str]]:
    finite = field_text != "QQ"
    ext_points = ["--points", "--ext-bound", "2"] if finite else []
    realize_points = ["--points"] if finite else []
    return [
        ["check", "<tmp>/pair.json"],
        ["check", "<tmp>/bad.json"],
        ["check", "<tmp>/loose.json"],
        ["rank", "<tmp>/pair.json"],
        ["rank", "<tmp>/pair.json", "--which", "B"],
        ["ideal", "<tmp>/pair.json", "--which", "A"],
        ["ideal", "<tmp>/k.json", "--which", "B"],
        ["variety", "<tmp>/pair.json", *ext_points],
        ["variety", "<tmp>/k.json", *ext_points],
        ["cone", "<tmp>/k.json", "--p", "x1*x2"],
        ["cone", "<tmp>/k.json", "--p", "x1 + x1*x2"],
        ["cone", "<tmp>/k.json", "--p", "x^2*x1 + y^2*x2"],
        ["contractible", "<tmp>/k.json", "--alpha", "1,2"],
        ["specialize", "<tmp>/k.json", "--alpha", "1,0"],
        ["specialize", "<tmp>/k.json", "--alpha", "0,0"],
        ["module-variety", "<tmp>/pair.json"],
        ["module-variety", "<tmp>/loose.json"],
        ["resolve-k", "<tmp>/ring.json", "--out", "<tmp>/tail.json"],
        ["realize", "<tmp>/ring.json", "--p", "x1*x2", *realize_points, "--out", "<tmp>/trace.json"],
        ["check", "<tmp>/trace.json"],
        ["rank", "<tmp>/trace.json"],
        ["realize", "<tmp>/ring.json", "--p", "x1 + 2*x2", "--p", "x1*x2 + 2*x2^2", *realize_points,
         "--out", "<tmp>/trace32.json"],
        ["check", "<tmp>/trace32.json"],
        ["rank", "<tmp>/trace32.json"],
        ["rank", "<tmp>/trace32.json", "--which", "B"],
        ["variety", "<tmp>/ring.json", "--fixture", "k5-example", *ext_points],
        ["points", "--field", field_text, "--c", "2"],
        ["reproduce", "--field", field_text],
    ]


def outcome(argv: list[str], tmp: Path) -> dict:
    """Run one templated invocation; its exit code, output and written file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([arg.replace("<tmp>", str(tmp)) for arg in argv])
    written = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1].replace("<tmp>", str(tmp)))
        written = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
        "stderr": err.getvalue().replace(str(tmp), "<tmp>"),
        "written_sha256": written,
    }


def outcomes(field_text: str, tmp: Path) -> dict:
    write_inputs(field_text, tmp)
    return {" ".join(argv): outcome(argv, tmp) for argv in invocations(field_text)}


@pytest.mark.parametrize("field_text", FIELDS)
def test_cli_output_matches_the_table(field_text, tmp_path):
    want = json.loads(TABLE.read_text())[field_text]
    got = outcomes(field_text, tmp_path)
    assert list(got) == list(want)
    for label, expected in want.items():
        assert got[label] == expected, label


if __name__ == "__main__":
    import tempfile

    table = {}
    for field_text in FIELDS:
        with tempfile.TemporaryDirectory() as tmp:
            table[field_text] = outcomes(field_text, Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
