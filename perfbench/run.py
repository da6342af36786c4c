#!/usr/bin/env python3
"""Pipeline benchmark entry point (see README.md in this directory).

Builds the worker from source in an optimized configuration, runs one
workload in its own process and prints the worker's JSON result as the last
line of standard output:

    python3 perfbench/run.py --workload mis_planar --seed 1 --seconds 20 --trace 0

The build tree goes to $CARGO_TARGET_DIR/perfbench (default .bench_build in
the current directory); span files of traced runs go next to it in
perfbench-out/. Build output is sent to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def configured_source(build_dir: Path):
    """The source directory a build tree was configured for, or None."""
    try:
        cache = (build_dir / "CMakeCache.txt").read_text()
    except OSError:
        return None
    for line in cache.splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1])
    return None


def build(source: Path, build_dir: Path) -> Path:
    configured = configured_source(build_dir) == source
    if not configured:
        # A build tree of another checkout would keep its objects.
        shutil.rmtree(build_dir, ignore_errors=True)
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    if not configured:
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "pipeline_bench",
         "-j", "4"],
        stdout=sys.stderr, env=env, check=True)
    return build_dir / "pipeline_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        worker = build(source, target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    start = time.monotonic()
    proc = subprocess.Popen(
        [str(worker), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS or \
            result["attempted"] < 1:
        print(f"malformed worker result: {lines[-1]}", file=sys.stderr)
        return 1
    print(f"worker took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
