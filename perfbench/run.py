#!/usr/bin/env python3
"""Service benchmark: one workload against a child bosd.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Builds bosd and perfbench_driver from this checkout (first run only) under
$CARGO_TARGET_DIR (default .bench_build), runs the driver in a fresh work
directory and removes it afterwards. The last line of stdout is the
driver's JSON result; build output and progress go to stderr. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bosd", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(out_root, "runs", f"{tag}-{os.getpid()}")
    trace_dir = os.path.join(out_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--bosd={os.path.join(build_dir, 'bos', 'tools', 'bosd')}",
           f"--work-dir={work_dir}",
           f"--trace-out={os.path.join(trace_dir, tag + '.json')}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
