#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload corpus_cli --seed 1 --seconds 20 --trace 0

Workloads: corpus_cli, chain_ladder, serve_mixed. --trace 1 runs the traced
run and reports the per-layer metrics instead of the end-to-end ones.
Extra flags for development and the benchmark's own tests: --smoke (tiny
inputs), --break miscompile|response (deliberately fail a correctness gate).

The benchmark binary is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the library from src/. It is built into $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the last line of stdout is the
binary's JSON result.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus_cli", "chain_ladder", "serve_mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break", dest="break_gate",
                        choices=["miscompile", "response"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        root, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # The daemon's Unix socket lives in the build directory; a relative
    # path keeps it inside the sockaddr_un length limit.
    work_dir = os.path.relpath(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.break_gate:
        cmd += ["--break", args.break_gate]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
