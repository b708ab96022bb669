#!/usr/bin/env python3
"""Repo benchmark: builds perfbench_main from source and runs workloads.

    python3 perfbench/run.py [--workload serving|stream|fleet|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With one workload the last line of stdout
is that workload's JSON result; with `all` (the default) every workload runs
in turn and the exit code is nonzero if any of them failed a check.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serving", "stream", "fleet")
DEFAULT_SEED = 1
# Held out: not used while the benchmark or a change measured with it is
# tuned, so a claim can be rechecked on inputs nobody looked at.
HELDOUT_SEED = 7919
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds perfbench_main; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_main",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_main")


def run_workload(binary, build_dir, workload, args):
    # Fingerprints are kept per binary: a rebuilt program may legitimately
    # simulate something else, the same binary never may.
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    fp_dir = os.path.join(build_dir, "fingerprints", digest)
    os.makedirs(fp_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--fp-dir", fp_dir]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(build_dir, f"trace-{workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for w in workloads:
        status = run_workload(binary, build_dir, w, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
