#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark over seeds and compare spreads
with the bounds in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]
                                [--seed-base 1000] [--trace]

For each workload it runs perfbench/run.py --runs times with distinct
seeds and prints, per end-to-end metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A spread above a third of the metric's
bound is flagged "wide", above the bound "FAIL" (setup_s is held only to
the median check). With --sets 2 it repeats the whole sampling and
requires each second median to be no worse than the first by more than
the bound. sim_cpi must read identically on every run. With --trace it
runs the traced mode instead and requires every count-unit metric to
read identically on every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct")
    print(f"{workload:16} seed {seed}: " + " ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        if v["unit"] != "count"), flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}, \
        {k: v["unit"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            runs = [run_once(workload, args.seed_base + 100 * s + i,
                             bench["run_seconds"], args.trace)
                    for i in range(args.runs)]
            values = {k: [r[0][k] for r in runs] for k in runs[0][0]}
            units = runs[0][1]
            medians.append({k: statistics.median(v)
                            for k, v in values.items()})
            for name, vals in values.items():
                if args.trace:
                    if units[name] == "count" and len(set(vals)) != 1:
                        print(f"{workload:16} {name:32} counts differ: "
                              f"{sorted(set(vals))}")
                        ok = False
                    continue
                sp = spread(vals)
                bound = metrics[name]["bound"]
                verdict = "ok"
                if name == "sim_cpi" and len(set(vals)) != 1:
                    verdict = "FAIL (not exact)"
                elif sp > bound and name != "setup_s":
                    verdict = "FAIL"
                elif sp > bound / 3:
                    verdict = "wide"
                ok &= not verdict.startswith("FAIL")
                print(f"{workload:16} set {s + 1} {name:14} median "
                      f"{statistics.median(vals):14.6f} spread "
                      f"{sp:7.4f} bound {bound:5.3f} {verdict}  "
                      f"min {min(vals):.6g} max {max(vals):.6g}",
                      flush=True)
        if args.sets == 2 and not args.trace:
            for name, m in metrics.items():
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "FAIL"
                ok &= verdict == "ok"
                print(f"{workload:16} {name:14} median shift "
                      f"{worse:+.4f} (bound {m['bound']}) {verdict}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
