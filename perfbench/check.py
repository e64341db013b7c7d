#!/usr/bin/env python3
"""Checks on the benchmark itself. Run from the repository root.

  python3 perfbench/check.py steady --workload W [--seed N] [--cycles C]
      Runs the traced mode twice at one seed for a fixed number of cycles
      and requires every counter (storage, reopt, optimizer and exec counts,
      read_sim_ms) to come out identical: a single-client run has nothing
      nondeterministic in it, so a drifting counter is a bug in the
      benchmark or the engine.

  python3 perfbench/check.py spread [--workloads W,...] [--seeds 1-10]
      Runs --trace 0 once per seed and prints, per end-to-end metric, the
      median and the spread (third minus first quartile, over the median)
      against the metric's bound in BENCHMARK.json. Exits non-zero when a
      spread other than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counters that must repeat exactly at a fixed seed and cycle count.
STEADY = [
    "read_sim_ms", "statements",
    "optimizer.plans_enumerated", "optimizer.qerror_p50",
    "optimizer.qerror_max", "reopt.steps", "reopt.collectors",
    "reopt.reopts_considered", "reopt.plans_switched",
    "reopt.overhead_sim_ms", "memory.reallocations", "exec.rows_produced",
    "storage.page_reads", "storage.page_writes", "storage.pages_allocated",
    "storage.pool_hit_ratio", "storage.dirty_evictions",
    "txn.wal_records_per_commit", "txn.fsyncs_per_commit",
]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return json.loads(lines[-1])


def steady(args):
    reports = []
    for i in range(2):
        path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"),
                            f"steady-{args.workload}-{i}.json")
        run(args.workload, args.seed, 60, 1,
            ["--cycles", str(args.cycles), "--report", path])
        with open(path) as f:
            reports.append(json.load(f))
    drifted = 0
    for name in STEADY:
        a, b = (r[name]["value"] for r in reports)
        ok = a == b
        drifted += not ok
        print(f"{name:32s} {a:>18.10g} {b:>18.10g} {'same' if ok else 'DRIFT'}")
    print(f"{args.workload}: {drifted} counter(s) drifted")
    return 1 if drifted else 0


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in s["workloads"]]
    bad = 0
    for w in names:
        values = {m: [] for m in bounds}
        for seed in seeds(args.seeds):
            res = run(w, seed, s["run_seconds"], 0)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: wrong answers")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            verdict = ("ok" if rel < bounds[m] / 3 else
                       "within bound" if rel <= bounds[m] else "TOO WIDE")
            if m != "setup_s" and rel > bounds[m]:
                bad += 1
            print(f"{w:10s} {m:18s} median {statistics.median(v):12.6g} "
                  f"spread {rel:7.4f} bound {bounds[m]:5.3f} {verdict:12s} "
                  f"runs {' '.join(f'{x:.4g}' for x in v)}", flush=True)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    st = sub.add_parser("steady")
    st.add_argument("--workload", required=True)
    st.add_argument("--seed", type=int, default=1)
    st.add_argument("--cycles", type=int, default=3)
    sp = sub.add_parser("spread")
    sp.add_argument("--workloads", default="")
    sp.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    sys.exit(steady(args) if args.cmd == "steady" else spread(args))


if __name__ == "__main__":
    main()
