#!/usr/bin/env python3
"""Calibration: run the benchmark N times per workload, each time with
another seed, and print for every metric the median and the spread the
driver judges it by: (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).

    python3 benchmark/spread.py [-n 10] [-trace 0] [-seconds 20] [workload ...]

Run it from the root of the repository. It prints one table per workload and
exits non-zero if a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["store-a", "tcp-single-b", "tcp-batch32-b", "chain3-a"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("-trace", type=int, default=0)
    ap.add_argument("-seconds", type=int, default=None)
    ap.add_argument("-first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in args.workloads:
        runs, walls = [], []
        for i in range(args.n):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(args.first_seed + i),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - t0)
            if p.returncode != 0:
                sys.exit(f"{wl}: run {i} exited {p.returncode}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl}: run {i}: {res['failed']} of {res['attempted']} failed")
            runs.append(res["metrics"])
            print(f"# {wl} seed {args.first_seed + i} done", file=sys.stderr, flush=True)
        print(f"== {wl}: {args.n} runs of {seconds} s, trace {args.trace}; "
              f"wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"{'metric':36s} {'median':>14s} {'unit':7s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                mark = "  <-- above a third of the bound"
            print(f"{name:36s} {med:14.4f} {runs[0][name]['unit']:7s} {spread:8.4f} "
                  f"{'' if bound is None else format(bound, '6.2f')}{mark}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
