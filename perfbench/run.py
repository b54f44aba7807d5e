#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <solve_large|serve_mix|sim_gpu> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds the
library sources next to this directory plus the benchmark into the build
directory (CARGO_TARGET_DIR when set, else .bench_build); later calls only
re-check the build.  Build output goes to stderr, so the last stdout line
is the benchmark's JSON result.  The script exits nonzero, without a
result, when the build fails, when the result line is malformed or names
other metrics than BENCHMARK.json, and when any answer was wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd):
    """Runs a build step with its output on stderr only when it fails."""
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-8000:])
        sys.stderr.write("build step failed: %s\n" % " ".join(cmd))
    return p.returncode == 0


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "-j", jobs, "--target", target]):
        return None
    return os.path.join(out, target)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(res)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a positive integer"
    got = set(res["metrics"])
    want = declared_metrics(trace)
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - got), sorted(got - want))
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            return "metric %s is malformed" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark helpers' unit test")
    a = ap.parse_args()

    if a.selftest:
        exe = build("perfbench_helpers_test")
        if exe is None:
            return 1
        return subprocess.run([exe], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    if not a.workload:
        ap.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        return 1
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, "%s-%d.json" % (a.workload, a.seed))]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stdout or "") if isinstance(e.stdout, str) else "")
        sys.stderr.write("benchmark timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = p.stdout.rstrip("\n").split("\n")
    problem = valid_result(lines[-1], a.trace) if lines else "no output"
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("invalid benchmark result: %s\n" % problem)
        return 1
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
