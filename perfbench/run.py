#!/usr/bin/env python3
"""Build the gcln benchmark and run one workload.

    python3 perfbench/run.py --workload <nla_heavy|linear_suite|serve_open> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench/` (a Cargo package
of its own that depends on the repository's crates by path) in release
mode into $CARGO_TARGET_DIR, default `.bench_build`, then runs the
benchmark binary with the same arguments. The last line of standard
output is the result object; the exit code is the binary's, or non-zero
when the build fails or the run overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
# A run must end within 180 s. An untraced run makes one pass of at most
# --seconds (at least one pass whatever its length); a traced solo run
# drops its comparisons against the scheduler once they would take it
# past 150 s, so a build a few times slower still prints its metrics
# before this limit.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the benchmark build overran its time limit", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "gcln-perfbench")
    state = os.path.join(target, "perfbench")
    try:
        return subprocess.run([exe, *sys.argv[1:], "--state-dir", state], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: the benchmark run overran its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
