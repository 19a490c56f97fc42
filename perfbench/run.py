#!/usr/bin/env python3
"""Builds and runs the scorpio end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 30 --trace 0

builds the library and the driver from source into .bench_build/perfbench
(Release), runs one workload and prints its metrics; the last stdout line
is the JSON result. --trace 1 prints the per-layer metrics instead and
writes the spans to .bench_build/perfbench/trace_<workload>.json.

Two more modes:

    python3 perfbench/run.py --workload sobel_tiles --repeat 10 --seed 1
        steadiness: runs seeds 1..10 and prints the median, quartiles and
        spread (IQR / median) of every end-to-end metric next to its bound.
    python3 perfbench/run.py --self-test
        the benchmark's own tests: same-seed determinism, oracles rejecting
        tampered results, printed metric names matching BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# A run may take 180 s in all; leave room for the build check.
RUN_TIMEOUT_S = 170
# Old run directories under .bench_build/perfbench/work: pruned to
# KEEP_RUNS once there are more than PRUNE_AT (about 14 MB each).
PRUNE_AT = 64
KEEP_RUNS = 32


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Analysis.h")):
        fail("scorpio sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail("cannot run %s: %s" % (step[0], err))
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def prune_work_dirs():
    """Keeps the shard directories merge_warm leaves behind bounded.

    The driver never deletes its files while it runs (deleting slows the
    disk for the runs that follow), so old run directories are removed
    here, before any timing, once they pile up.
    """
    work = os.path.join(BUILD, "work")
    if not os.path.isdir(work):
        return
    runs = sorted((os.path.join(work, d) for d in os.listdir(work)),
                  key=os.path.getmtime)
    if len(runs) <= PRUNE_AT:
        return
    for path in runs[:len(runs) - KEEP_RUNS]:
        shutil.rmtree(path, ignore_errors=True)


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_driver(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the driver once; returns the parsed result (last stdout line)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", BUILD,
           "--commit", commit_id()] + list(extra)
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail("driver exited with %d" % result.returncode, 1)
    lines = result.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return lines[-1], json.loads(lines[-1])


def check_names(result, trace, spec):
    """The metrics printed must be exactly the ones BENCHMARK.json names."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "metric names differ from BENCHMARK.json: missing %s, " \
               "extra %s, unit mismatch %s" % (missing, extra, units)
    return None


def single(args, spec):
    line, result = run_driver(args.workload, args.seed, args.seconds,
                              args.trace)
    problem = check_names(result, args.trace, spec)
    if problem:
        fail(problem, 1)
    print(line)


def steadiness(args, spec):
    """Repeats the workload over seeds and prints median and IQR spread."""
    values = {}
    failed = 0
    for i in range(args.repeat):
        seed = args.seed + i
        _, result = run_driver(args.workload, seed, args.seconds, 0,
                               echo=False)
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in
            result["metrics"].items())), flush=True)
    print("\n%-14s %14s %14s %14s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "steady"))
    summary = {}
    for m in spec["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = spread < m["bound"] / 3
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"]}
        print("%-14s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (
            m["name"], med, q1, q3, spread, m["bound"],
            "yes" if steady else "NO"))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed": failed, "metrics": summary}))


def self_test(spec):
    """The benchmark's own tests."""
    result = subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                             BUILD], timeout=RUN_TIMEOUT_S)
    ok = result.returncode == 0
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            _, res = run_driver(workload, 1, 0.2, trace, ["--setups", "1"],
                                echo=False)
            problem = check_names(res, trace, spec)
            good = problem is None and res["correct"] and res["failed"] == 0
            print("%s  %s --trace %d: %s" % (
                "ok   " if good else "FAIL ", workload, trace,
                problem or "metric names match BENCHMARK.json, %d/%d "
                "calls correct" % (res["attempted"] - res["failed"],
                                   res["attempted"])))
            ok &= good
    print("self-test: " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    prune_work_dirs()
    if not os.path.isfile(SPEC_PATH):
        fail("BENCHMARK.json not found at " + SPEC_PATH)
    spec = load_spec()
    if args.self_test:
        self_test(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("--workload must be one of %s" %
             [w["name"] for w in spec["workloads"]])
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.repeat:
        steadiness(args, spec)
    else:
        single(args, spec)


if __name__ == "__main__":
    main()
