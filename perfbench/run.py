#!/usr/bin/env python3
"""End-to-end benchmark of the sops pipeline.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library and `sopsd` from the repository sources) and runs one workload:

    python3 perfbench/run.py --workload paper-row --seed 1 --seconds 20 --trace 0

Workloads: paper-row, fig4-ensemble, large-collective, service-mix (see
perfbench/src/workloads.cpp for why each exists). With --trace 0 the last
stdout line is a JSON object carrying the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run. Everything above that line
is a human-readable report (host, every metric with its unit, the traced
run's wall accounting).

`--self-test` builds and runs the benchmark's own unit tests instead.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under that root; build logs go to stderr so that stdout ends
with the result line.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark package; build output goes
    to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    # The benchmark builds the program from source; without the repository's
    # sources there is nothing to measure.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the sops sources (CMakeLists.txt, src/) are not "
              "next to perfbench/", file=sys.stderr)
        return 2
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]
                              ).returncode
    return subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--work-dir", os.path.relpath(build_dir, ROOT)], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
