#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload on one CPU.

    python3 perfbench/run.py --workload <paper|explore> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), scratch files and span traces to `.bench_work`.
The last line of standard output is the report: one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. Any failure exits
non-zero without printing a report.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper", "explore")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_bounded(argv, timeout, **kwargs):
    """Runs argv to completion. Past the timeout, or if this script is
    interrupted or terminated, kills it and waits for it to end."""
    proc = subprocess.Popen(argv, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{argv[0]} exceeded {timeout}s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    # Terminating this script ends the process it is waiting for too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    # The build may use every CPU; only the measured process is pinned.
    code, _ = run_bounded(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        BUILD_TIMEOUT_S, cwd=root, env=env, stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed")

    # One CPU for the server, its worker and the client: unpinned, warm
    # hits paid for cross-CPU wake-ups (see NOTES.md).
    cpu = max(os.sched_getaffinity(0))
    start = time.monotonic()
    code, out = run_bounded(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--workdir", os.path.join(root, ".bench_work")],
        RUN_TIMEOUT_S, cwd=root, stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if code != 0:
        fail(f"workload {args.workload} exited with {code}")
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"no report: {e}")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed report keys {sorted(report)}")
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f}s "
          f"on CPU {cpu}", file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
