#!/usr/bin/env python3
"""End-to-end benchmark of the DynaMiner pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload live_mix|pcap_scan \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt]

Builds the harness and the library sources it links (perfbench/CMakeLists.txt)
into .bench_build/perfbench, runs one workload and prints the harness output.
The last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1, in BENCHMARK.json order; a layer the
workload does not run reads 0.  BENCHMARK.json is the only list of metric
names and units.  Exits non-zero when the build fails, an output check
fails, or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live_mix", "pcap_scan")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "dm_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "dm_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """(name -> unit), in BENCHMARK.json order, that the result must carry."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def fill_layers(metrics, expected):
    """Puts per-layer metrics in BENCHMARK.json order; a layer the workload
    does not run reads 0.  Unknown names stay, for validate() to flag."""
    filled = {name: metrics.get(name, {"value": 0, "unit": unit})
              for name, unit in expected.items()}
    filled.update((name, m) for name, m in metrics.items() if name not in filled)
    return filled


def validate(result, expected):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got.get("unit") != unit:
            problems.append(f"metric {name} unit {got.get('unit')} != {unit}")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} not in BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the workload input (smoke test only)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work_dir,
           "--commit", source_id()]
    if args.corrupt:
        cmd.append("--corrupt")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        log(f"{args.workload} exited {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        log("last line is not a JSON result")
        return 1
    expected = expected_metrics(args.trace)
    if args.trace and isinstance(result.get("metrics"), dict):
        result["metrics"] = fill_layers(result["metrics"], expected)
    problems = validate(result, expected)
    if result.get("correct") is not True:
        problems.append("output checks failed")
    for line in lines[:-1]:
        print(line)
    print(f'{{"run": {{"seconds": {time.monotonic() - started:.3f}}}}}')
    print(json.dumps(result), flush=True)
    for problem in problems:
        log(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
