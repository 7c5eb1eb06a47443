#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload file_store --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 its per_layer metrics; a per-layer
metric whose layer the workload does not run reads 0. The line before it records
the host and the build. Exits non-zero when an output check fails or the program
cannot be built.

    python3 perfbench/run.py --self-test

runs file_store on a lock that excludes nothing and exits 0 only if the
benchmark's checks report that run as failed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary's path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(binary, args):
    """Runs the program; returns (exit code, lines before the result, result)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, lines[:-1], result


def schema_metrics(schema, trace):
    """Names and units the output must hold, and the names it may hold at all."""
    want = schema["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in schema["end_to_end"] + schema["per_layer"]}
    return {m["name"]: m["unit"] for m in want}, known


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["file_store", "vm_churn", "metis_wrmem"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        schema = json.load(f)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    sha = git_sha()

    if a.self_test:
        code, _, result = run(binary, ["--workload", "file_store", "--broken-lock",
                                       "--seed", str(a.seed), "--seconds",
                                       str(min(a.seconds, 5.0)), "--git-sha", sha])
        if code != 0 and result is not None and result["correct"] is False:
            print("self-test passed: file_store on a lock that excludes nothing is "
                  "reported as failed")
            return 0
        print("self-test FAILED: the checks did not catch a lock that excludes nothing")
        return 1

    code, head, result = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                      "--seconds", str(a.seconds), "--trace",
                                      str(a.trace), "--git-sha", sha])
    if result is None:
        log(f"perfbench exited with code {code} and printed no result")
        return 1
    want, known = schema_metrics(schema, a.trace)
    got = result["metrics"]
    unknown = sorted(set(got) - known)
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {unknown}")
        return 1
    metrics = {}
    for name, unit in want.items():
        if name in got:
            if got[name]["unit"] != unit:
                log(f"{name}: unit {got[name]['unit']} but BENCHMARK.json says {unit}")
                return 1
            metrics[name] = got[name]
        elif a.trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not run by this workload
        else:
            log(f"end-to-end metric {name} was not measured")
            return 1
    for line in head:
        print(line)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
