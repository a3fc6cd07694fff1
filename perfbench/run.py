#!/usr/bin/env python3
"""Builds and runs the audited-statement benchmark (perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload tpch_audit --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the engine from src/) into
.bench_build/perfbench, runs the helper unit tests, then runs auditbench
once. Prints a run-metadata line, the benchmark's report and, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero when the build, the helper tests or an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tpch_audit", "oltp_audit", "oltp_audit_sync")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build():
    run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "auditbench",
               "trace_test"])
    run_quiet([os.path.join(BUILD_DIR, "trace_test")])
    os.sync()  # write back the build's output now, not during the measurement


def git_sha():
    """HEAD of the repository holding this benchmark, or 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [os.path.join(BUILD_DIR, "auditbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--trace-out", trace_out, "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"auditbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"auditbench exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("auditbench printed a malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    with open(os.path.join(ROOT, ".bench_build", "runs.jsonl"), "a") as runs:
        runs.write(lines[0] + "\n" + lines[-1] + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
