#!/usr/bin/env python3
"""Builds and runs the end-to-end `seqrtg serve` benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and compiles
servebench/ (which pulls in the repository's libraries from src/) into
.bench_build/servebench/build; later calls rebuild incrementally. The
benchmark's own output goes to stdout, ending with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Build logs go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "servebench")
BUILD = os.path.join(OUT, "build")
BINARY = os.path.join(BUILD, "bench_serve")
# Warm stores and references kept per seed; older builds' entries go.
CACHE_ROOT = os.path.join(OUT, "cache")
CACHE_KEEP = 4
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bench_serve", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def cache_dir():
    """A cache directory keyed by the binary, so a rebuilt program never
    starts from a warm store an older build wrote."""
    st = os.stat(BINARY)
    key = "%x-%x" % (st.st_mtime_ns, st.st_size)
    os.makedirs(CACHE_ROOT, exist_ok=True)
    for entry in os.listdir(CACHE_ROOT):
        if entry != key:
            shutil.rmtree(os.path.join(CACHE_ROOT, entry), ignore_errors=True)
    path = os.path.join(CACHE_ROOT, key)
    os.makedirs(path, exist_ok=True)
    seeds = sorted((os.path.join(path, e) for e in os.listdir(path)),
                   key=os.path.getmtime)
    for old in seeds[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("servebench: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(OUT, "work"),
           "--cache", cache_dir(),
           "--trace-out",
           os.path.join(OUT, "traces", args.workload + ".spans.tsv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("servebench: bench_serve exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("servebench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
