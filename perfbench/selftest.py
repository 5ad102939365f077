"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed N] [--workload NAME]

For each workload it makes two traced runs with the same seed and asserts:

1. every layer metric that meta.json's layer_map expects on the workload is
   nonzero;
2. every count (calls per span name in both phases, and every counter)
   repeats exactly across the two runs;
3. the traced and untraced rounds of each run give identical verdicts, and
   no operation fails.

Exits 0 when all hold, 1 otherwise, printing each violation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from tracer import layer_metrics


def counts(tracer) -> dict:
    out = {}
    for phase, agg in tracer.phases.items():
        for name, calls in zip(tracer.names, agg.calls):
            out[f"{phase}:{name}.calls"] = calls
        for key, value in agg.counters.items():
            out[f"{phase}:{key}"] = value
    return out


def expected_nonzero(workload: str) -> set[str]:
    meta = json.loads((run.HERE / "meta.json").read_text())
    return {m for entry in meta["layer_map"] if workload in entry["nonzero_on"]
            for m in entry["metrics"]}


def check_workload(wl, seed: int, workdir: str) -> list[str]:
    problems = []
    runs = []
    for _ in range(2):
        _metrics, _notes, _n, failures, tracer = run.run_traced(wl, seed, workdir)
        problems += [f"{wl.name}: {f}" for f in failures]
        runs.append(tracer)
    values = layer_metrics(runs[0])
    for name in sorted(expected_nonzero(wl.name)):
        if not values[name][0]:
            problems.append(f"{wl.name}: layer metric {name} is zero")
    first, second = counts(runs[0]), counts(runs[1])
    for key in sorted(set(first) | set(second)):
        if first.get(key, 0) != second.get(key, 0):
            problems.append(f"{wl.name}: count {key} differs: {first.get(key)} vs {second.get(key)}")
    print(f"{wl.name}: {len(first)} counts compared, {len(expected_nonzero(wl.name))} "
          f"metrics expected nonzero, {len(problems)} problems")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-test of the traced benchmark run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    if not run.use_source_tree():
        return 2
    names = [args.workload] if args.workload else sorted(run.WORKLOADS)
    run.TMP_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.TMP_DIR)
    problems = []
    try:
        for name in names:
            problems += check_workload(run.WORKLOADS[name], args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.TMP_DIR.rmdir()
        except OSError:
            pass
    for line in problems:
        print("PROBLEM " + line)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
