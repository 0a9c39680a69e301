#!/usr/bin/env python3
"""Builds and runs the serve benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload count_cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark is compiled from the
checkout's own sources (src/ and perfbench/) into .bench_build/perfbench,
its self-test runs, then perfbench_serve measures one workload. The last
line of stdout is the result object; build output goes to stderr. Stores,
per-run result files (host and configuration stamp, slo_qps probes) and the
build all stay under .bench_build/.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Names the code measured: the git commit when there is one, and a
    digest of src/ and perfbench/ (checkouts need not be git repos)."""
    digest = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return f"git:{sha},src:{digest.hexdigest()[:16]}"


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_serve", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}: run from a full checkout")
        return 2
    try:
        build()
        if subprocess.run([str(BUILD / "perfbench_selftest"), "--gtest_brief=1"],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=60).returncode != 0:
            log("self-test failed")
            return 1
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        log(str(err))
        return 1

    cmd = [str(BUILD / "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", str(BUILD / "store"),
           "--results-dir", str(BUILD / "results"),
           "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"no result within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
