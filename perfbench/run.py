#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <compute|serve|verified|fleet> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The Rust package next to this script is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the current directory),
offline, with its output on stderr. Every argument is passed to the
benchmark binary, whose standard output ends with one JSON result line.
Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
