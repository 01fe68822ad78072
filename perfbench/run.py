#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary from the checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build, under the checkout root), runs the
benchmark's self-test, then runs one workload and prints its result:

    python3 perfbench/run.py --workload serve --seed 3 --seconds 20 --trace 0

The last stdout line is the JSON result. Its metric names and units are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1) before it is printed. Build output and diagnostics go to stderr.
Any failure exits non-zero without printing a result.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rollout", "serve", "cluster_serve", "train")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AERIS sources next to the benchmark (src/CMakeLists.txt)")
    # A build tree configured for another checkout cannot be reused.
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [os.path.realpath(l.split("=", 1)[1].strip()) for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [os.path.realpath(HERE)]:
            shutil.rmtree(out)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(cache):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        # Keep the compiler's temporary files inside the checkout too.
        tmp = os.path.join(out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
            if done.returncode:
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {r["name"]: r["unit"] for r in rows}


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail("result is not JSON: %s" % e)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys: %s" % sorted(result))
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        fail("self-test failed")

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--out", os.path.join(ROOT, ".bench_out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        fail("%s exited with %d" % (args.workload, run.returncode))
    validate(lines[-1], args.trace == "1")
    sys.stdout.write(run.stdout.rstrip("\n") + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
