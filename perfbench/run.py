#!/usr/bin/env python3
"""Builds engine_bench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
(CMake, Release) under $CARGO_TARGET_DIR (default .bench_build)/perfbench;
later calls only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, without
a result, when the build or the run fails, and with exit code 1 after the
result when the result is not correct. Extra flags (--smoke 1,
--referee-selftest 1) pass through to engine_bench.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    out = build_dir()
    binary = out / "engine_bench"
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "engine_bench",
                    "-j", "3"], check=True, stdout=sys.stderr, stderr=sys.stderr)
    if not binary.exists():
        raise FileNotFoundError(binary)
    return binary


def main(argv):
    args = list(argv)
    if "--workload" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out", str(build_dir() / f"trace-{workload}.jsonl")]
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
