#!/usr/bin/env python3
"""Bytes-per-query gate for the CLI fleet.

    python3 tools/check_fleet_memory.py [path/to/paris_elsa_cli]

Runs the Release CLI fleet three times, all 100 po2c servers with sharded
placement, four models and --jobs 4:
  * fault-free: 8 replicas at 30,000 q/s, 2,000,000 queries;
  * serverloss: the same fleet with --faults serverloss;
  * retry-regrowth: 50 replicas at 40,000 q/s, 1,000,000 queries, losing
    half the fleet for 7 s (serverloss:count=50,down-ms=7000,
    deadline-ms=250), so survivors take retries past their routed rows.
Each run is the only child of its own measuring process, which reads that
child's peak RSS through resource.getrusage(RUSAGE_CHILDREN).  The gate
fails when a peak passes its bound, 15% over the peak measured when the
bound was set (Release build, GCC 12, shared 4-vCPU VM).  The default CLI
path is build/tools/ under the repo root.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = ["--models", "resnet,mobilenet,bert,shufflenet"]
FLEET = ["fleet", "--servers", "100", "--policy", "po2c",
         "--placement", "sharded", "--jobs", "4", "--seed", "1"] + MODELS
BASE = ["--replicas", "8", "--rate", "30000"]
# name -> (queries, extra flags)
RUNS = {
    "fault-free": (2_000_000, BASE),
    "serverloss": (2_000_000, BASE + ["--faults", "serverloss"]),
    "retry-regrowth": (1_000_000, [
        "--replicas", "50", "--rate", "40000", "--faults",
        "serverloss:count=50,down-ms=7000,deadline-ms=250"]),
}
# Peak RSS in MiB when the bounds were set; each bound is 15% above.
MEASURED_MIB = {"fault-free": 197.5, "serverloss": 204.1,
                "retry-regrowth": 103.0}

# Runs the command in argv[1:] as this process's only child and prints its
# peak RSS in KiB.
MEASURE = ("import resource, subprocess, sys\n"
           "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def peak_mib(cli, args):
    out = subprocess.run([sys.executable, "-c", MEASURE, cli] + args,
                         check=True, stdout=subprocess.PIPE, text=True)
    return int(out.stdout) / 1024.0


def main():
    cli = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "build", "tools", "paris_elsa_cli")
    failed = False
    for name, (queries, extra) in RUNS.items():
        peak = peak_mib(cli, FLEET + ["--queries", str(queries)] + extra)
        bound = MEASURED_MIB[name] * 1.15
        per_query = peak * 1024 * 1024 / queries
        verdict = "ok" if peak <= bound else "FAIL"
        print(f"{name:14} peak {peak:7.1f} MiB ({per_query:5.1f} B/query), "
              f"bound {bound:6.1f} MiB: {verdict}")
        failed = failed or peak > bound
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
