#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at the tiny size through run.py, with
and without --trace, and checks that each run passes its output checks and
prints every metric BENCHMARK.json names, with its unit.  Then runs each
workload on a deliberately corrupted input (--corrupt) and checks that the
run's correctness checks trip: a failed CHECK and a non-zero exit.

Usage (from the repository root):  python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def check_clean(workload, trace, spec, failures):
    label = f"{workload} --trace {trace}"
    proc = run(workload, trace, corrupt=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    host = json.loads(lines[0]).get("host", {})
    for key in ("nproc", "effective_parallelism", "commit", "shards"):
        if key not in host:
            failures.append(f"{label}: host line lacks {key}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        failures.append(f"{label}: result {lines[-1][:200]}")
    metrics = result.get("metrics", {})
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None:
            failures.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            failures.append(f"{label}: metric {m['name']} = {got}")


def check_corrupted(workload, trace, failures):
    label = f"{workload} --trace {trace} --corrupt"
    proc = run(workload, trace, corrupt=True)
    if proc.returncode == 0:
        failures.append(f"{label}: exited 0 on a corrupted input")
    if "CHECK FAILED" not in proc.stderr:
        failures.append(f"{label}: no correctness check tripped\n"
                        f"{proc.stderr[-2000:]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_clean(workload, trace, spec, failures)
            check_corrupted(workload, trace, failures)
        print(f"{workload}: done", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
