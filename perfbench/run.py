#!/usr/bin/env python3
"""Builds and runs the namtree benchmark from a source checkout.

    python3 perfbench/run.py --workload point_uniform --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which compiles ../src) as a Release build into
.bench_build/perfbench under the checkout root, builds the namtree_perf
binary, runs it and relays its standard output, whose last line is the JSON
result. Build output goes to standard error. The exit code is the binary's;
a failed build exits non-zero without printing a result.

    python3 perfbench/run.py --test

builds and runs the benchmark's own tests instead, in .bench_build/
perfbench-test with the RDMA verb-protocol auditor compiled in, so their
output checks also require fabric.CheckAuditClean().
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=None):
    """Runs `cmd` in its own process group and returns its exit code.

    On timeout, SIGTERM or SIGINT the whole group (compilers under make, or
    the benchmark) is killed and waited for before returning or exiting.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            start_new_session=True)

    def stop(signum=None, frame=None):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if signum is not None:
            sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        print("perfbench: %s exceeded %d s" % (cmd[0], timeout),
              file=sys.stderr)
        return 1


def build(test):
    """Configures and builds namtree_perf, or with `test` perfbench_test
    with the auditor compiled in; returns the binary's path, or None."""
    target = "perfbench_test" if test else "namtree_perf"
    name = "perfbench-test" if test else "perfbench"
    build_dir = os.path.join(ROOT, ".bench_build", name)
    configure = [
        "cmake", "-S", HERE, "-B", build_dir,
        "-DCMAKE_BUILD_TYPE=Release",
        "-DNAMTREE_AUDIT=" + ("ON" if test else "OFF"),
    ]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (configure, ["cmake", "--build", build_dir, "--target",
                             target, "-j", jobs]):
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return None
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    binary = build(args.test)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.test:
        return run([binary], RUN_TIMEOUT_S)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
