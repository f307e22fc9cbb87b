#!/usr/bin/env python3
"""Self-test for tools/perf_gate, run by ctest (PerfGateTest).

Writes synthetic perfbench result lines for a base and a change side and
checks the gate against the repository's BENCHMARK.json bounds: identical
distributions pass, planted regressions past a bound fail, an incorrect
change run or a higher failed share fails, and malformed input exits 2.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS, "perf_gate")


def base_runs():
    """Three runs in the real result schema with a little spread."""
    runs = []
    for jitter in (0.98, 1.0, 1.02):
        values = {"setup_s": 0.011, "peak_rss_mb": 120.0,
                  "light_p90_ms": 11.0, "heavy_p90_ms": 10.5,
                  "work_per_s": 145.0, "cpu_us_per_work": 6900.0}
        units = {"setup_s": "s", "peak_rss_mb": "MB", "light_p90_ms": "ms",
                 "heavy_p90_ms": "ms", "work_per_s": "1/s",
                 "cpu_us_per_work": "us"}
        runs.append({"correct": True, "attempted": 1000, "failed": 2,
                     "metrics": {name: {"value": value * jitter,
                                        "unit": units[name]}
                                 for name, value in values.items()}})
    return runs


def scaled(runs, metric, factor):
    out = copy.deepcopy(runs)
    for run in out:
        run["metrics"][metric]["value"] *= factor
    return out


def write_lines(directory, name, lines):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        for line in lines:
            f.write((line if isinstance(line, str) else json.dumps(line)))
            f.write("\n")
    return path


def run_gate(directory, base, change):
    proc = subprocess.run(
        [sys.executable, TOOL,
         "--base", write_lines(directory, "base.jsonl", base),
         "--change", write_lines(directory, "change.jsonl", change)],
        capture_output=True, text=True)
    return proc


def main():
    failures = []

    def expect(name, base, change, code):
        with tempfile.TemporaryDirectory() as directory:
            proc = run_gate(directory, base, change)
        if proc.returncode != code:
            failures.append(f"{name}: exit {proc.returncode}, expected {code}"
                            f"\n{proc.stdout}{proc.stderr}")

    runs = base_runs()
    expect("identical distributions pass", runs, copy.deepcopy(runs), 0)
    expect("a 10% work_per_s drop stays inside its 0.24 bound", runs,
           scaled(runs, "work_per_s", 0.9), 0)
    expect("a planted 30% work_per_s drop fails", runs,
           scaled(runs, "work_per_s", 0.7), 1)
    expect("a planted 30% heavy_p90_ms rise fails", runs,
           scaled(runs, "heavy_p90_ms", 1.3), 1)
    expect("a 15% peak_rss_mb rise fails its 0.1 bound", runs,
           scaled(runs, "peak_rss_mb", 1.15), 1)
    expect("a 30% faster change passes", runs,
           scaled(runs, "cpu_us_per_work", 0.7), 0)

    incorrect = copy.deepcopy(runs)
    incorrect[1]["correct"] = False
    expect("a change run with correct: false fails", runs, incorrect, 1)
    expect("an incorrect base run does not fail the change", incorrect,
           runs, 0)

    more_failed = copy.deepcopy(runs)
    more_failed[0]["failed"] += 1
    expect("a higher failed share fails", runs, more_failed, 1)

    expect("a malformed line exits 2", runs, runs[:2] + ["not json"], 2)
    missing = copy.deepcopy(runs)
    del missing[0]["metrics"]["setup_s"]
    expect("a missing end-to-end metric exits 2", runs, missing, 2)
    expect("an empty side exits 2", runs, [], 2)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"perf_gate_test: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
