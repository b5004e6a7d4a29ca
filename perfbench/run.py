#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The first form runs one workload and ends its standard output with the
result object.  `--workload all` runs every workload in BENCHMARK.json and
prints one table of every metric with its unit.  Extra flags
(--rate, --tamper, --report-dir) pass through to the benchmark binary.

The benchmark binary and the library are configured and built with CMake under
.bench_build/perfbench in the checkout; the harness self-tests run before
every benchmark run.  See perfbench/README.md.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"])
    run_quiet([os.path.join(BUILD, "perfbench_selftest")])


def run_one(args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    if "--report-dir" not in args:
        args = args + ["--report-dir", os.path.join(ROOT, ".bench_build", "out")]
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + args,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    flag = args.index("--workload")
    rows = []
    status = 0
    for workload in spec["workloads"]:
        args[flag + 1] = workload["name"]
        code, out = run_one(args)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"{workload['name']}: failed with exit code {code}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        for name, metric in result["metrics"].items():
            rows.append((workload["name"], name, metric["value"], metric["unit"]))
        rows.append((workload["name"], "correct",
                     f"{result['correct']} ({result['failed']} of "
                     f"{result['attempted']} passes failed)", ""))
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"{workload:14} {name:26} {shown:>22} {unit}")
    return status


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if "--workload" in args and args.index("--workload") + 1 < len(args) \
            and args[args.index("--workload") + 1] == "all":
        return run_all(args)
    code, out = run_one(args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
