#!/usr/bin/env python3
"""Builds and runs the service benchmark in this directory.

    python3 perfbench/run.py --workload large_square --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ together with the library
sources of its checkout under $CARGO_TARGET_DIR/perfbench (.bench_build when
the variable is unset); later calls rebuild only what changed. Build output
goes to stderr, so the benchmark's JSON result stays the last stdout line.

--selftest runs every workload perfbench knows at tiny sizes in both modes
and passes when each metric BENCHMARK.json names is printed with its unit,
and when a deliberately corrupted R is counted as a failed operation.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Every workload perfbench knows; BENCHMARK.json gates a subset of them.
WORKLOADS = ("large_square", "tall_skinny", "small_mixed")


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def capture(binary, args):
    proc = subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", wl, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            proc, res = capture(binary, args)
            where = "%s --trace %d" % (wl, trace)
            if proc.returncode != 0 or res is None:
                problems.append("%s: exit %d, stderr: %s"
                                % (where, proc.returncode, proc.stderr.strip()))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: %d of %d operations failed"
                                % (where, res["failed"], res["attempted"]))
            for metric in spec[group]:
                got = res["metrics"].get(metric["name"])
                if got is None:
                    problems.append("%s: %s missing" % (where, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s in %s, not %s" % (
                        where, metric["name"], got["unit"], metric["unit"]))
            print("ok   %s: %d metrics, %d operations"
                  % (where, len(res["metrics"]), res["attempted"]))
    for wl in WORKLOADS:
        proc, res = capture(binary, ["--workload", wl, "--seed", "3",
                                     "--seconds", "1", "--tiny",
                                     "--corrupt", "3"])
        where = "%s --corrupt 3" % wl
        if res is None or res["correct"] or res["failed"] < 1 \
                or proc.returncode == 0:
            problems.append("%s: corrupted R not counted as a failure (%s)"
                            % (where, res))
        else:
            print("ok   %s: %d of %d operations failed, as it should"
                  % (where, res["failed"], res["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(binary)
    try:
        return subprocess.run([binary, "--workload", args.workload,
                               "--seed", args.seed, "--seconds", args.seconds,
                               "--trace", args.trace],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
