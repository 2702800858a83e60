#!/usr/bin/env python3
"""Bridge benchmark entry point.

Builds the benchmark program from this checkout's sources (first run only;
later runs are incremental no-ops), then runs one workload:

    python3 perfbench/run.py --workload client_mix --seed 7 --seconds 10 --trace 0

The last line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer ones.  Build output goes to standard error.

Determinism self-check (no result line; exit 0 when it holds):

    python3 perfbench/run.py --selfcheck --workload client_mix --seed 7

runs the workload twice with the same seed and once with the next seed, and
requires identical virtual digests for the first pair and a different one
for the third run.

Run from the root of a checkout.  Everything it writes stays inside the
checkout: the build in .bench_build/ (or $CARGO_TARGET_DIR, resolved against
the checkout) and traces in .bench_out/.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("sort_p64", "client_mix", "parity_rebuild")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.normpath(os.path.join(ROOT, target))
    if os.path.commonpath([ROOT, path]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Bridge sources (src/) in this checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "bridge_bench")


def run_bench(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def digest_of(output):
    found = re.search(r"^virt_digest ([0-9a-f]{16})$", output, re.M)
    return found.group(1) if found else None


def selfcheck(binary, workload, seed):
    runs = [(seed, run_bench(binary, workload, seed, 1, 0)),
            (seed, run_bench(binary, workload, seed, 1, 0)),
            (seed + 1, run_bench(binary, workload, seed + 1, 1, 0))]
    digests = []
    for s, proc in runs:
        digest = digest_of(proc.stdout)
        print(f"{workload} seed {s}: exit {proc.returncode} digest {digest}")
        if proc.returncode != 0 or digest is None:
            return 1
        digests.append(digest)
    same = digests[0] == digests[1]
    differs = digests[0] != digests[2]
    print(f"same seed identical: {same}; next seed differs: {differs}")
    return 0 if same and differs else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.selfcheck:
        return selfcheck(binary, args.workload, args.seed)
    try:
        proc = run_bench(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
