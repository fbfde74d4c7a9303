#!/usr/bin/env python3
"""Run every workload repeatedly and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seed 1000]
                                [--workloads locate,private] [--trace 0]
                                [--dump runs.json]

Each run is a fresh process started with the command in BENCHMARK.json,
with its own seed (seed, seed + 1, ...), and the workload order
alternates between rounds (forward, then backward) so slow drift of the
host does not land on one workload. For every workload and metric it
prints the median and quartiles of the per-run values (whole-run
medians, not samples within a run) and the interquartile spread as a
share of the median, next to the metric's bound. With --sets 2 it runs
two interleaved sets, prints the second set's spread too and how far
its median moved from the first, which is what a bound has to absorb.
--dump writes every run's seed and values to a JSON file.

The verdict at the end compares each spread with a third of its bound,
except for setup_s: set-up time is gated only on how far its median
moves between sets of runs, not on its spread across seeds, so its
spread is printed but left out of the verdict. Every shift, setup_s's
too, is compared with its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def load_spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="interleaved sets of runs")
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--dump", help="write every run's values to this JSON file")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [w for w in args.workloads.split(",") if w]
    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in listed}

    # values[set][workload][metric] -> per-run values
    values = [{w: {} for w in names} for _ in range(args.sets)]
    shares = [{w: [] for w in names} for _ in range(args.sets)]
    walls = {w: [] for w in names}
    dump = []
    for r in range(args.runs):
        for s in range(args.sets):
            order = names if (r * args.sets + s) % 2 == 0 else names[::-1]
            for w in order:
                seed = args.seed + r * args.sets + s
                result, wall = run_once(spec, w, seed, args.trace)
                walls[w].append(wall)
                shares[s][w].append(result["failed"] / result["attempted"])
                for name, metric in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(metric["value"])
                dump.append({"set": s + 1, "workload": w, "seed": seed, "wall_s": wall,
                             "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
                print(f"run {r + 1}/{args.runs} set {s + 1} {w} seed {seed}: "
                      f"{wall:.1f} s, {result['attempted']} ops, {result['failed']} failed",
                      file=sys.stderr, flush=True)

    if args.dump:
        Path(args.dump).write_text(json.dumps(dump, indent=1))

    worst = 0.0
    worst_shift = 0.0
    for w in names:
        print(f"\n== {w}: {args.runs} runs per set, wall median "
              f"{statistics.median(walls[w]):.1f} s, failed shares "
              f"{sorted({x for s in shares for x in s[w]})}")
        print(f"{'metric':<32}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}"
              f"{'spread2':>9}{'bound':>8}{'shift':>9}")
        for name in values[0][w]:
            q1, med, q3 = quartiles(values[0][w][name])
            spreads = [spread_of(values[s][w][name]) for s in range(args.sets)]
            bound = bounds.get(name)
            spread2 = f"{spreads[1]:9.3f}" if args.sets > 1 else ""
            shift = ""
            if args.sets > 1:
                other = statistics.median(values[1][w][name])
                moved = (other - med) / med if med else float("inf")
                shift = f"{moved:+9.3f}"
                if bound is not None:
                    worst_shift = max(worst_shift, abs(moved) / bound)
            # setup_s is held to its shift between sets only (see above).
            if bound is not None and name != "setup_s":
                worst = max(worst, max(spreads) / bound)
            print(f"{name:<32}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}{spreads[0]:>9.3f}"
                  f"{spread2:>9}{bound if bound is not None else '':>8}{shift}")
    if args.trace == 0:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f} "
              f"(steady when below 0.33)")
        if args.sets > 1:
            print(f"largest |shift| / bound between sets: {worst_shift:.2f} "
                  f"(within bounds when below 1)")


if __name__ == "__main__":
    main()
