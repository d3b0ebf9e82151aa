#!/usr/bin/env python3
"""Runs one workload of the rudoop benchmark and prints its result line.

usage (from the root of a rudoop checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Builds `rudoopd` and the harness (`perfbench/`, a package of its own) in
release mode under $CARGO_TARGET_DIR (default `.bench_build`), then runs
the harness. The harness prints a report on stderr and, as the last line
of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Exits non-zero, printing no result, when the checkout is
incomplete, a build fails, or the harness fails or overruns.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-2objH", "context-free", "clients", "service"]
# A run must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")

    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        fail(f"{ROOT} is not a rudoop checkout (no Cargo.toml and crates/)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [os.path.join(ROOT, "Cargo.toml"), "--bin", "rudoopd"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest, *extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"]
        cmd += ["--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    run_dir = os.path.join(target, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "rudoop-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--size", a.size,
        "--rudoopd", os.path.join(target, "release", "rudoopd"),
        "--run-dir", run_dir,
        "--expected", os.path.join(HERE, "expected.tsv"),
    ]
    # The harness runs in its own process group, so an overrun kills the
    # daemons it spawned along with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness overran {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(lines[-1])


if __name__ == "__main__":
    main()
