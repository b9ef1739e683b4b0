#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and spread (interquartile range as a share of the median).

Run from the repository root:

    python3 perfbench/spread.py --workload submit --seeds 1-10 --seconds 10

A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json; the script marks each metric against that target.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(k)
        mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{k:24s} median={med:.4g} spread={spread:.3f} bound={bound} {mark}")


if __name__ == "__main__":
    main()
