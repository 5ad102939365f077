"""ghrv benchmark runner.

    python3 perfbench/run.py --workload {symbolic,pointwise,cli-realize,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: ghrv is imported from `src/` next
to this directory, never from an installed copy, and the run fails without
printing a result when `src/ghrv` is absent.

Untraced (`--trace 0`): set-up (fresh import of ghrv, field construction,
seeded suite, reference verdicts) runs SETUP_REPEATS times and `setup_s` is
the median.  Then whole rounds of the workload's operations run until
`--seconds` have passed and at least MIN_OPS operations are done; every
operation is timed alone and its output checked against the reference.
Times are scaled by the CPU-speed gauge (see Gauge) to time on an idle core;
the human report prints the unscaled figures beside them.

Traced (`--trace 1`): one traced set-up, one plain round, one traced round
of the same operations.  The plain round wraps only the functions timed by
matrix size and field (`...n8_ms`, `...gf25_n32_ms`), so those medians carry
almost no tracing overhead.  The other layer metrics come from the traced
round, and `fields.make_extension.*` from set-up.  `trace.overhead` is the
traced round's operation time over the plain round's.  Both rounds must give
identical verdicts.  Spans of set-up and the traced round are written to
`.perfbench_out/`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  One process, no threads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import KEYED, MODULES, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_OPS = 140  # op_ms.p90 has at least 14 samples beyond it; 100 left cli-realize p90 unsteady
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
GAUGE_REF_S = 0.023  # gauge kernel time on an idle core of the reference machine
GAUGE_GAP_S = 0.4  # least time between two gauge samples in the timed window
GAUGE_WINDOW = 2  # gauge samples taken on each side of an operation
# ghrv slows as this power of the gauge when the core is shared: rounds in
# which the gauge took 2.0x as long ran ghrv 1.84x as long (0.88).
GAUGE_EXPONENT = 0.9


def use_source_tree() -> bool:
    """Put SRC first on the import path; False, with a message, without it."""
    if not (SRC / "ghrv" / "__init__.py").is_file():
        print(f"perfbench: no ghrv sources at {SRC}; run from a source checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def load_ghrv():
    """Import ghrv afresh from SRC, dropping any earlier import, so every
    set-up pays for imports and starts with empty module-level caches."""
    for name in [m for m in sys.modules if m == "ghrv" or m.startswith("ghrv.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("ghrv")
    if Path(pkg.__file__).resolve().parent != SRC / "ghrv":
        raise ImportError(f"ghrv imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"ghrv.{m}") for m in MODULES})


def gauge_kernel() -> float:
    """Seconds for a fixed pure-Python kernel shaped like ghrv's inner loops,
    with the collector off: a table of tuple keys walked in sorted order
    (slows less than ghrv when the core is shared) and a sparse product of
    tuple-keyed dicts (slows more); their sum tracks ghrv best."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    table = {}
    for i in range(20000):
        table[(i, i % 7, i % 13)] = i
    acc = 0
    for key in sorted(table, key=lambda m: (sum(m), m)):
        acc += table[key]
    factor = {(i, j, k % 3, 1): (i + j + k) % 5 + 1 for i in range(6) for j in range(6) for k in range(3)}
    product: dict = {}
    for m1, c1 in factor.items():
        for m2, c2 in factor.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = c1 * c2 % 5
            product[m] = (product[m] + c) % 5 if m in product else c
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Gauge:
    """CPU speed over the run, sampled between operations.

    The machine this benchmark is tuned on shares its cores with other
    machines: the same code runs up to twice as slow for seconds at a time.
    Each operation's time is scaled by (GAUGE_REF_S / median gauge time
    around it) ** GAUGE_EXPONENT, which turns it into time on an idle core
    of the reference machine; the unscaled values are printed beside the
    scaled ones.  A set-up is scaled by the gauge samples taken during it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")
        self.spent = 0.0  # wall time spent sampling, to subtract from set-up

    def sample(self, n: int = 1):
        t0 = perf_counter()
        for _ in range(n):
            self.samples.append(gauge_kernel())
        self.last = perf_counter()
        self.spent += self.last - t0

    def tick(self):
        if perf_counter() - self.last >= GAUGE_GAP_S:
            self.sample()

    def scale(self, lo: int, hi: int) -> float:
        window = self.samples[max(lo, 0):hi] or self.samples
        return (GAUGE_REF_S / statistics.median(window)) ** GAUGE_EXPONENT


class Round:
    """Timed operations with their verdicts and failures."""

    def __init__(self):
        self.times: list[float] = []
        self.verdicts: list = []
        self.marks: list[int] = []  # gauge samples taken before each operation
        self.failures: list[str] = []


def run_round(wl, gh, state, rng: random.Random, tracer: Tracer | None = None,
              gauge: Gauge | None = None) -> Round:
    out = Round()
    order = list(range(len(state.ops)))
    if wl.shuffle:
        rng.shuffle(order)
    for i in order:
        op = state.ops[i]
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = perf_counter()
        try:
            result = wl.run(gh, state, op)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        out.times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                ok, verdict = wl.check(gh, state, op, result)
            except Exception:
                ok, verdict = False, traceback.format_exc(limit=3)
        else:
            ok, verdict = False, error
        out.verdicts.append((i, verdict))
        if gauge is not None:
            out.marks.append(len(gauge.samples))
            gauge.tick()
        if not ok:
            out.failures.append(f"{wl.name} op {i} [{op[0]}]: {verdict}")
    return out


def end_to_end(times: list[float], setup_times: list[float]) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(times) * 1000, "ms"),
        "op_ms.p90": (deciles[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_untraced(wl, seed: int, seconds: float, workdir: str):
    gauge = Gauge()
    raw_setup, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        gauge.sample(2)
        first, spent = len(gauge.samples) - 2, gauge.spent
        t0 = perf_counter()
        gh = load_ghrv()
        state = wl.setup(gh, seed, workdir, gauge.tick)
        raw_setup.append(perf_counter() - t0 - (gauge.spent - spent))
        gauge.sample(2)
        setup_times.append(raw_setup[-1] * gauge.scale(first, len(gauge.samples)))
    rng = random.Random(seed)
    raw, marks, failures, rounds = [], [], [], 0
    start = perf_counter()
    while perf_counter() - start < seconds or len(raw) < MIN_OPS:
        r = run_round(wl, gh, state, rng, gauge=gauge)
        raw += r.times
        marks += r.marks
        failures += r.failures
        rounds += 1
    times = [t * gauge.scale(m - GAUGE_WINDOW, m + GAUGE_WINDOW) for t, m in zip(raw, marks)]
    metrics = end_to_end(times, setup_times)
    unscaled = end_to_end(raw, raw_setup)
    n = len(times)
    notes = {
        "ops_per_s": f"{n} ops in {rounds} rounds, {sum(times):.2f} s of operation time",
        "op_ms.p50": f"n={n}",
        "op_ms.p90": f"n={n}, {n - int(0.9 * n)} beyond",
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup_times),
    }
    for key in ("ops_per_s", "op_ms.p50", "op_ms.p90", "setup_s"):
        notes[key] += f"; unscaled {unscaled[key][0]:.6g}"
    speed = GAUGE_REF_S / statistics.median(gauge.samples)
    notes["peak_rss_mb"] = f"gauge: {len(gauge.samples)} samples, median speed {speed:.3f} of reference"
    return metrics, notes, n, failures


def run_traced(wl, seed: int, workdir: str):
    gh = load_ghrv()
    tracer = Tracer(gh)
    tracer.phase("setup")
    tracer.install()
    state = wl.setup(gh, seed, workdir, lambda: None)
    tracer.uninstall()

    tracer.phase("plain")
    tracer.storing = False
    tracer.install(only=KEYED)
    try:
        plain = run_round(wl, gh, state, random.Random(seed), tracer)
    finally:
        tracer.uninstall()
    tracer.phase("ops")
    tracer.storing = True
    tracer.install()
    try:
        traced = run_round(wl, gh, state, random.Random(seed), tracer)
    finally:
        tracer.uninstall()
    failures = plain.failures + traced.failures
    if plain.verdicts != traced.verdicts:
        failures.append(f"{wl.name}: traced and untraced rounds gave different verdicts")

    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = (sum(traced.times) / sum(plain.times), "ratio")
    spans_path = OUT_DIR / f"spans-{wl.name}.json.gz"
    tracer.write_spans(str(spans_path))
    notes = {"trace.overhead": f"{sum(traced.times):.2f} s traced vs {sum(plain.times):.2f} s plain;"
                               f" {tracer.span_count} spans stored in {spans_path.relative_to(ROOT)}"}
    attempted = len(plain.times) + len(traced.times)
    return metrics, notes, attempted, failures, tracer


def environment() -> str:
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"{platform.system()} {platform.machine()}")


def print_block(title: str, metrics: dict, notes: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_source_tree():
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    TMP_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_DIR)
    result_metrics, attempted, failures = {}, 0, []
    try:
        for name in names:
            wl = WORKLOADS[name]
            if args.trace:
                metrics, notes, n, fails, _ = run_traced(wl, args.seed, workdir)
            else:
                metrics, notes, n, fails = run_untraced(wl, args.seed, args.seconds, workdir)
            notes["fail_ratio"] = f"{len(fails)} of {n}"
            print_block(f"workload {name}, seed {args.seed}, trace {args.trace}:",
                        {**metrics, "fail_ratio": (len(fails) / n, "ratio")}, notes)
            prefix = f"{name}." if len(names) > 1 else ""
            for key, (value, unit) in metrics.items():
                result_metrics[prefix + key] = {"value": value, "unit": unit}
            attempted += n
            failures += fails
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    for line in failures[:20]:
        print("FAILED " + line.replace("\n", " | "), file=sys.stderr)
    print("environment: " + environment())
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
