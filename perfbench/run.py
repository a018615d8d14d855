#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload warm_analyze --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build).  The last
line of standard output is the benchmark's JSON result; build output goes
to standard error.  Exits non-zero, printing no result, if either build
or the run fails.
"""

import os
import subprocess
import sys


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--offline",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates/engine"):
        sys.exit("perfbench: run from the repository root (Cargo.toml and crates/ are missing)")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build("Cargo.toml", "-p", "sil-engine", "--bin", "sild")
    build(os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    sild = os.path.join(release, "sild")
    done = subprocess.run([bench, *sys.argv[1:], "--sild", sild])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
