#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, untraced and
traced.

usage (from the root of a rudoop checkout):

    python3 perfbench/smoke.py

Asserts that each untraced run prints every end-to-end metric of
BENCHMARK.json with its unit, that each traced run prints every per-layer
metric with its unit and a non-zero value for each layer that runs on the
workload, and that no operation fails. Exits non-zero on the first
violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON = ["load.build_s", "load.validate_s", "load.hierarchy_s", "load.instructions",
          "solve.derivations", "solve.derivations_per_s", "solve.project_s",
          "solve.bytes_estimate_mb", "clients.precision_s", "trace.wall_s",
          "trace.peak_rss_mb"]
# The per-layer metrics whose layer runs on each workload (non-zero there).
RUNS = {
    "paper-2objH": COMMON + [
        "first_pass.s", "first_pass.derivations", "introspection.metrics_s",
        "introspection.select_s", "introspection.not_refined_frac", "solve.2objH_s",
        "solve.introA_s", "solve.introB_s", "solve.contexts"],
    "context-free": COMMON + [
        "first_pass.s", "first_pass.derivations", "cutshortcut.pass_s",
        "cutshortcut.cut_points", "cutshortcut.methods_cut_frac", "summaries.pass_s",
        "summaries.distilled_frac", "summaries.atoms", "solve.cutshortcut_s",
        "solve.summaries_s"],
    "clients": COMMON + [
        "solve.2objH_s", "solve.insens_s", "solve.contexts", "taint.s", "taint.leaks",
        "races.s", "races.races", "lints.s", "lints.diagnostics", "render.s",
        "render.bytes"],
    "service": [
        "service.send_ms", "service.first_byte_ms", "service.read_ms",
        "service.response_bytes", "service.summary_cache_hit_frac",
        "service.degraded_frac", "trace.wall_s", "trace.peak_rss_mb"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit(f"FAIL {workload} trace={trace}: run.py exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        sys.exit(f"FAIL {msg}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        check(name in RUNS, f"{name}: no smoke expectations")
        for trace, schema in [(0, bench["end_to_end"]), (1, bench["per_layer"])]:
            result = run(name, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={trace}: fail_frac is not 0: {result}")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in schema},
                  f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            for m in schema:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']}")
                if trace == 0:
                    check(got["value"] > 0, f"{name}: {m['name']} is {got['value']}")
            if trace == 1:
                for layer in RUNS[name]:
                    check(metrics[layer]["value"] > 0, f"{name}: layer metric {layer} is 0")
            print(f"ok {name} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} ops, 0 failed", flush=True)


if __name__ == "__main__":
    main()
