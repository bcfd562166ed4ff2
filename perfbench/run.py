#!/usr/bin/env python3
"""Build BranchLab's benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-warm --seed 19890528 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The library and the benchmark are
built with CMake into $CARGO_TARGET_DIR (default .bench_build); build
output goes to standard error, so the last line of standard output is
the run's JSON result. The exit status is the benchmark's: nonzero on
any output mismatch or broken invariant. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-cold", "paper-warm", "sweep-grid", "serve-zipf")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(build_root):
    """Configure (once) and build the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no BranchLab sources at %s; run "
                         "from a full checkout\n" % os.path.join(ROOT, "src"))
        return None
    build_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "-j", build_jobs()]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=19890528)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    parser.add_argument("--make-digests", action="store_true",
                        help="regenerate perfbench/digests/<seed>.txt "
                             "through the virtual-dispatch reference path")
    args = parser.parse_args()
    if not (args.self_test or args.make_digests or args.workload):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    build_dir = build(build_root)
    if build_dir is None:
        return 2

    if args.self_test:
        return subprocess.call([os.path.join(build_dir, "blbench_tests")])

    cmd = [os.path.join(build_dir, "blbench"),
           "--seed", str(args.seed),
           "--work-dir", build_root,
           "--digest-dir", os.path.join(HERE, "digests")]
    if args.make_digests:
        return subprocess.call(cmd + ["--make-digests"], cwd=ROOT)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = max(status, subprocess.call(
            cmd + ["--workload", workload,
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], cwd=ROOT))
    return status


if __name__ == "__main__":
    sys.exit(main())
