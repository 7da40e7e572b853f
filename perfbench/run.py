#!/usr/bin/env python3
"""Build xqdb's benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload indexed_mix --seed 1 --seconds 20 --trace 0

The Go toolchain builds perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into the build
directory, $CARGO_TARGET_DIR or .bench_build, with the build cache and
Go's configuration kept there too. All arguments pass through to the
benchmark binary; its output and exit code are the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CARGO_TARGET_DIR": build,
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
