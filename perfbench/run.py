#!/usr/bin/env python3
"""Build and run the STCO benchmark.

    python3 perfbench/run.py --workload stco-spice --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark program stco_perfbench (and the libraries it links) into
.bench_build/perfbench; later runs only check that the build is up to date.
Build output goes to stderr. The program's report goes to stdout, ending
with one JSON line {correct, attempted, failed, metrics}; this script checks
that line against BENCHMARK.json (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1) and withholds it if it does not match.

Exit codes: 0 success, 1 build or usage error, 2 an output check failed,
3 the program timed out, 4 the program's result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "stco_perfbench"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "stco_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(1, f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(1, f"build step failed: {' '.join(cmd)}")


def check_result(line, spec, trace):
    """Problems with the program's JSON line, as a list of strings."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {declared[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(1, f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(1, f"unknown workload {args.workload}")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD / "traces")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(3, f"stco_perfbench did not finish within {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    problems = check_result(lines[-1], spec, args.trace == 1)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(4, "; ".join(problems))
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(proc.returncode if proc.returncode > 0 else 1,
             f"stco_perfbench exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
