#!/usr/bin/env python3
"""Build and run the spooftrack end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload NAME --seed N --worker-gate
    python3 e2ebench/run.py --self-test

Run from the root of the source tree. Every invocation first configures and
builds the library (src/) and the benchmark (e2ebench/) from this tree in a
build directory of its own, .e2ebench_build/, so a run never measures a
stale binary; an up-to-date build is a no-op. The benchmark's last line of
standard output is its JSON result; build output goes to standard error.
Scratch files and span files go to .e2ebench_out/.
"""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "e2ebench"
BUILD = ROOT / ".e2ebench_build"
JOBS = "2"


def tree_id():
    """Content digest of the library and benchmark sources, plus the git
    commit when the tree is a git checkout."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", PACKAGE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "sources-sha256:" + digest.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if commit.returncode == 0:
            ident += " git:" + commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no library sources at %s" % (ROOT / "src"))
    steps = [
        ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", target, "-j", JOBS],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(step))
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--worker-gate", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("e2ebench_oracle_tests")
        return subprocess.run([str(tests)], cwd=ROOT).returncode

    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not args.worker_gate and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required")

    binary = build("e2ebench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed),
               "--tree", tree_id()]
    if args.worker_gate:
        command.append("--worker-gate")
    else:
        command += ["--seconds", repr(args.seconds), "--trace", args.trace]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
