#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

usage (from the root of a rudoop checkout):

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,...]
                                    [--seconds S] [--out FILE]

Runs `perfbench/run.py --trace 0` once per (workload, seed), then prints,
per workload and metric, the median, the quartiles and the spread: the
distance between the first and third quartile (Python's
`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. Raw result lines go to `--out`
(JSON lines) when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out")
    a = p.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(a.out, "a") if a.out else None

    print("| workload | metric | runs | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in a.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if r.returncode != 0:
                sys.exit(f"{workload} seed {seed}: run.py exited with {r.returncode}")
            line = r.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {line}")
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            print(f"| {workload} | {name} | {len(xs)} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {bounds[name]} | {spread / bounds[name]:.2f} |", flush=True)


if __name__ == "__main__":
    main()
