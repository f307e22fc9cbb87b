#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_sweep, fault_storm, serve_lookup (see perfbench/README.md).
Configures and builds the `perfbench` program from this checkout's sources
into $CARGO_TARGET_DIR (default .bench_build) on first use, runs it, checks
that its result names exactly the metrics BENCHMARK.json lists, and passes
its output through: the last stdout line is the result JSON.  Exits with
the program's code (nonzero when a correctness check failed), or nonzero
without a result when the sources or the build are missing.

    python3 perfbench/run.py --workload all --seconds 10   # every workload in turn
    python3 perfbench/run.py --self-test   # builds and runs the benchmark's own tests
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_sweep", "fault_storm", "serve_lookup")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def source_revision():
    """The git revision when available, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}; cannot build")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return True


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this run kind, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Problems with the program's result line (empty list when it conforms)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last output line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected result keys {sorted(result)}")
        return problems
    expected = expected_metrics(trace)
    if expected is not None:
        got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
        if sorted(got) != sorted(expected):
            problems.append("metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(expected) - set(got))}, "
                            f"extra {sorted(set(got) - set(expected))}")
    return problems


def reference_digest(workload, seed):
    meta = json.loads((BENCH_DIR / "metrics.json").read_text())
    return meta["workloads"][workload].get("reference_digests", {}).get(str(seed))


def run(args):
    if not build("perfbench"):
        return 3
    out = build_dir()
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out / "out")]
    digest = reference_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    env = dict(os.environ, PERFBENCH_REV=source_revision())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace)
    for problem in problems:
        log(problem)
    if problems:
        # A nonconforming run prints no result line.
        print("\n".join(lines[:-1]), flush=True)
        return done.returncode or 5
    print("\n".join(lines), flush=True)
    return done.returncode


def self_test():
    if not build("all"):
        return 3
    done = subprocess.run(["ctest", "--output-on-failure"], cwd=build_dir())
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    # "all" runs every workload in turn, each on its default seed unless
    # --seed is given; the exit code is the worst of the runs.
    meta = json.loads((BENCH_DIR / "metrics.json").read_text())
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        seed = args.seed
        if seed is None:
            seed = meta["workloads"][workload]["default_seed"]
        worst = max(worst, run(argparse.Namespace(
            workload=workload, seed=seed, seconds=args.seconds,
            trace=args.trace)))
    return worst


if __name__ == "__main__":
    sys.exit(main())
