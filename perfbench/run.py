#!/usr/bin/env python3
"""End-to-end benchmark of the McVerSi generate -> simulate -> check -> evolve loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload explore|hunt|check-replay \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark (a CMake package in this directory that compiles the
McVerSi libraries from the checkout's sources) into .bench_build/ on first
use, then runs one measurement. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is non-zero when an output is incorrect. --self-test builds and runs
the correctness gate's self-test instead. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configure once and (re)build @target; cmake skips up-to-date work."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no McVerSi sources at {ROOT}: run from the root of a checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as err:
                fail(f"cannot run {cmd[0]}: {err}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd)}); log: {log_path}")
    return BUILD_DIR / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd):
    """Run @cmd with stderr passed through; return (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["explore", "hunt", "check-replay"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the correctness gate's self-test")
    args = parser.parse_args()

    if args.self_test:
        code, out = run([str(build("perfbench_gate_selftest"))])
        print(out, end="")
        sys.exit(code)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.csv")]
    code, out = run(cmd)
    if code < 0:
        fail(f"{binary.name} was killed by signal {-code}: the program under "
             "test crashed (see the crash report above)")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no JSON result from {binary}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(out, end="")
    sys.exit(code if code != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
