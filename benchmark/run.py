#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the checkout root; build output goes to
stderr.  The last line of stdout is the run's JSON result (correct,
attempted, failed, metrics): the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  Exits non-zero, without
a result line, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    # The Makefile exists only once a configure has succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "bench_e2e",
         "bench_e2e_traced"],
        check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "e2e-work")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work, "--result-line"]
    if args.trace:
        trace = os.path.join(work, f"trace-{args.workload}-{args.seed}.json")
        cmd = [os.path.join(BUILD, "bench_e2e_traced")] + cmd + ["--trace", trace]
    else:
        cmd = [os.path.join(BUILD, "bench_e2e")] + cmd
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
