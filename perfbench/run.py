#!/usr/bin/env python3
"""Repository benchmark: builds the advisor from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --drift-rate R \\
      --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --drift-rate R --self-test

The first form builds perfbench/ with CMake (Release) into
.bench_build/perfbench, runs the workload in its own process, checks that
its result carries every metric BENCHMARK.json lists for the mode (end to
end with --trace 0, per layer with --trace 1) with the listed unit, and
prints the result as the last line of standard output. The workload
program checks the advisor's outputs itself. Any failure (build, output
check, missing metric) exits non-zero without printing a result.

--self-test runs every workload for one second in both modes and checks
the same, as a quick test of the benchmark itself.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compiler processes too) and waits for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no advisor sources (src/) next to perfbench/")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                 "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", "4"]):
        returncode, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}, [
        w["name"] for w in spec["workloads"]]


def run_workload(args, workload, seed, seconds, trace):
    """Runs one workload; returns its validated result line."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--drift-rate", str(args.drift_rate), "--trace-dir", TRACE_DIR]
    returncode, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if returncode != 0 or not lines:
        if lines:
            log(lines[-1])
        raise BenchError(f"{workload} exited with {returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise BenchError(f"{workload}: output check failed")
    want, _ = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"{workload}: metrics differ from BENCHMARK.json "
                         f"(missing {missing}, unlisted {extra}, "
                         f"unit mismatch {units})")
    return lines[-1]


def self_test(args):
    _, workloads = expected_metrics(False)
    for workload in workloads:
        for trace in (0, 1):
            run_workload(args, workload, seed=1, seconds=1, trace=trace)
            log(f"self-test: {workload} trace={trace}: every metric emitted")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--drift-rate", type=float, required=True)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.self_test:
            self_test(args)
        elif args.workload is None:
            raise BenchError("--workload is required")
        else:
            print(run_workload(args, args.workload, args.seed, args.seconds,
                               args.trace), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
