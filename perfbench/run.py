#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark package (perfbench/) is
built from source in release mode into $CARGO_TARGET_DIR (default
.bench_build), then its binary runs the workload in a fresh process.
Build output and the binary's report go to standard error; standard
output carries only the binary's final JSON result line. With
--trace 1 the recorded spans are written to $CARGO_TARGET_DIR as JSON
lines. Any build or run failure exits non-zero without a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The binary stops after its --seconds budget plus one trial; this only
# guards against a hung simulation.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def run(cmd, timeout, **kw):
    """Runs cmd to completion (killing it on timeout) and returns it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        sys.exit(1)
    return proc.returncode, out


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code, _ = run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"run.py: build failed (exit {code})", file=sys.stderr)
        sys.exit(1)

    cmd = [os.path.join(target, "release", "perfbench")] + args
    if flag(args, "--trace") == "1":
        spans = os.path.join(
            target, f"spans-{flag(args, '--workload')}-{flag(args, '--seed')}.jsonl")
        cmd += ["--spans-out", spans]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        print(f"run.py: benchmark failed (exit {code})", file=sys.stderr)
        sys.exit(code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run.py: benchmark printed no result line", file=sys.stderr)
        sys.exit(1)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
