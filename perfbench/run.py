#!/usr/bin/env python3
"""Builds the store from source and runs one benchmark workload.

Run from the root of the repository:

  python3 perfbench/run.py --workload tpch --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. The last line of stdout is the result object of the run;
see perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch", "serve")
RUN_TIMEOUT_S = 170
# Long enough that each fifth of a tpch window holds the >= 1000 latencies
# that put 10 beyond its p99, even at a third of a quiet 4-core box's rate.
SELF_CHECK_SECONDS = 15


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def check_call(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"build step failed: {error}", file=sys.stderr)
        return False


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "build.ninja")) and \
            not os.path.exists(os.path.join(out, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not check_call(cmd):
            return None
    jobs = str(os.cpu_count() or 1)
    if not check_call(["cmake", "--build", out, "-j", jobs]):
        return None
    binary = os.path.join(out, "adict_perfbench")
    return binary if os.path.exists(binary) else None


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def src_digest():
    """sha256 over the store's sources: identifies the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return []
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected-dir", os.path.join(HERE, "expected"),
           "--out-dir", os.path.join(build_dir(), "runs"),
           "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    # Shipped defaults: no ADICT_* knob (pool width = nproc, obs on,
    # default cache, store tracing off).
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADICT_")}
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return result.returncode, result.stdout.splitlines()


def validate(lines, trace):
    """Problems with the result line, or [] when it is complete."""
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["last line is not a JSON object"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("an output check failed")
    metrics = result.get("metrics", {})
    for name in declared_metrics(trace):
        value = metrics.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} missing or not a number")
    return problems


def self_check(binary):
    """Each workload briefly, untraced and traced, with the gated runs'
    set-up path: every declared metric present and every output check
    passing."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(binary, workload, 1,
                                     SELF_CHECK_SECONDS, trace)
            problems = validate(lines, trace)
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-check {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help=f"run every workload for {SELF_CHECK_SECONDS} s "
                             "in both modes")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check(binary)

    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    problems = validate(lines, args.trace)
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    return code if code != 0 else (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
