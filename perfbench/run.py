#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
the benchmark and the library it measures (from this checkout's src/)
into .bench_build/perfbench; later runs only rebuild what changed.
Before measuring it runs the benchmark's self-tests and checks
BENCHMARK.json's metric names; after measuring it checks that the
result line names exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1), each with its unit.

The last line of standard output is the result object. The exit code is
the benchmark's: 0 ok, 1 failed correctness gate or check, 2 usage,
3 invalid traced run (the load generator fell behind its schedule).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json, with every metric name and unit checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]):
                problems.append("bad metric name %r" % m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r for %s" % (m["unit"], m["name"]))
            if m["name"] in seen:
                problems.append("metric %s listed twice" % m["name"])
            seen.add(m["name"])
    for w in spec["workloads"]:
        if not NAME_RE.match(w["name"]):
            problems.append("bad workload name %r" % w["name"])
    return spec, problems


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(os.cpu_count() or 2)],
        check=True, stdout=sys.stderr)


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def check_result(result, expected):
    """Exactly the contract's keys, and exactly the expected metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    got = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s unit %r, expected %r"
                            % (name, got[name].get("unit"), unit))
    for name in got:
        if name not in expected:
            problems.append("metric %s not in BENCHMARK.json" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec, problems = load_spec()
    if problems:
        log("BENCHMARK.json: " + "; ".join(problems))
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[group]}

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    if subprocess.run([BINARY, "--selftest"]).returncode != 0:
        log("benchmark self-tests failed")
        return 1

    trace_file = os.path.join(
        BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--trace-file", trace_file]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if run.returncode not in (0, 1) or not lines:
        log("benchmark exited with code %d" % run.returncode)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not a result: %r" % lines[-1][:200])
        return 1
    problems = check_result(result, expected)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    for line in lines:
        print(line)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
