#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|serve|validate|all \
        --seed N --seconds S --trace 0|1

Builds the harness in perfbench/harness (a Cargo package of its own that
depends on the repository's crates by path) in release mode, then runs
it with the given arguments from the repository root. The harness prints
a human-readable report and, as its last line, one JSON result object.
Cargo writes to $CARGO_TARGET_DIR, or .bench_build when that is unset.
The harness's own tests run with
`cargo test --release --manifest-path perfbench/harness/Cargo.toml`.

Workloads, load shapes, op definitions, the layer-to-end-to-end metric
map and the default and held-out seeds are in perfbench/workloads.json.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
BINARY = "perfbench-harness"
# A run must end within 180 s; the harness itself measures for --seconds.
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: the repository's crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path", MANIFEST]
    # Build chatter goes to stderr so the result stays the last stdout line.
    code = subprocess.run(build, env=env, stdout=sys.stderr).returncode
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", BINARY)
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
