#!/usr/bin/env python3
"""Build the benchmark package from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit-small --seed 1 --seconds 10 --trace 0

The package in this directory depends on the repository's crates by
path, so it builds only inside a full checkout. Cargo's output goes to
standard error; the benchmark binary then replaces this process, and the
last line it prints to standard output is the result object. The build
lands in $CARGO_TARGET_DIR, or in `.bench_build` at the checkout root.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit-small", "serve-hot", "serve-churn")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=23577)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False,
    )
    if build.returncode != 0:
        print("perfbench: the benchmark did not build", file=sys.stderr)
        return 3

    binary = os.path.join(os.path.abspath(target), "release", "nmt-perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary,
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)])
    return 0  # not reached: execv replaces the process


if __name__ == "__main__":
    sys.exit(main())
