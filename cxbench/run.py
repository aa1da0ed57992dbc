#!/usr/bin/env python3
"""Build and run the CXP/1 benchmark for one workload.

    python3 cxbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds cxml_serverd and the load generator
from this checkout into .bench_build/cxbench (Release), then runs one
measurement. The last stdout line is one JSON object; see README.md for
the workloads and metrics. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("read_hot", "read_cold", "edit_durable", "corpus")
# A measurement must end within 180 s; the first run in a checkout, which
# builds, within 900 s.
RUN_TIMEOUT_S = 170
TOTAL_TIMEOUT_S = 890


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        done = subprocess.run(configure, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=TOTAL_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return False
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "cxbench", "cxml_serverd"]
    done = subprocess.run(compile_, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=TOTAL_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build", "cxbench")
    try:
        if not build(bench_dir, build_dir):
            sys.stderr.write("cxbench: build failed\n")
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("cxbench: build failed: %s\n" % e)
        return 1

    work_dir = os.path.join(root, ".bench_run",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(os.path.dirname(work_dir), exist_ok=True)
    command = [os.path.join(build_dir, "cxbench"),
               "--serverd", os.path.join(build_dir, "cxml_serverd"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--out-dir", os.path.join(root, ".bench_out")]
    # A session of its own, so a timeout can stop the servers it started.
    proc = subprocess.Popen(command, start_new_session=True)
    budget = min(RUN_TIMEOUT_S, TOTAL_TIMEOUT_S - (time.monotonic() - started))
    try:
        return proc.wait(timeout=max(10, budget))
    except subprocess.TimeoutExpired:
        sys.stderr.write("cxbench: run timed out\n")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
