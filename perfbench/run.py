#!/usr/bin/env python3
"""Builds reoptdb's wall-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tpcd_mix --seed 1 --seconds 30 --trace 0

Run it from the repository root. The engine library and the benchmark
binary are built with CMake into $CARGO_TARGET_DIR (default .bench_build)
under the root. The binary's stderr (layer table, diagnostics) passes
through; the last line of stdout is the run's JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; run.py checks the names against that file.
The exit code is 0 only when every answer was right.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cached_source_dir(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"engine sources missing under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    cached = cached_source_dir(bdir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(bdir)  # configured for another checkout
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", bdir, "--parallel", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail(f"build failed, see {log_path}")
    return os.path.join(bdir, "perfbench")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--cycles", type=int, default=0,
                    help="run exactly this many cycles instead of --seconds")
    ap.add_argument("--report", default="",
                    help="also write every metric computed to this file")
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.cycles:
        cmd += ["--cycles", str(args.cycles)]
    if args.report:
        cmd += ["--report", args.report]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited with {proc.returncode}")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(declared) ^ set(result['metrics']))}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
