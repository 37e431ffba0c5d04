#!/usr/bin/env python3
"""Builds and runs the host-speed benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the perfbench binary
(an optimized CMake build under .bench_build/perfbench); later calls rebuild
only what changed. The binary's output passes through unchanged, so the last
line is its JSON result. --trace 1 also writes the run's spans as Perfetto
JSON under .bench_build/perfbench-traces/. --self-test runs the unit tests of
the benchmark's own arithmetic.

Exit codes: 0 success, 1 a correctness failure or a failed build, 2 bad
arguments, 3 an unoptimized or sanitizer build, 4 the run overran its time
limit (30 s plus twice --seconds) and was stopped.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
WORKLOADS = ("copy_stream_60k", "remap_sweep")
MAX_SECONDS = 60
EXIT_TIMEOUT = 4


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    # Compiler temporaries stay inside the tree too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def source_digest():
    """SHA-256 over the paths and bytes of every file under src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, timeout_s):
    """Runs `cmd`, echoing its stdout; returns its exit code, or EXIT_TIMEOUT
    once it has been stopped after `timeout_s` seconds."""
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=timeout_s)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: run exceeded %d s and was stopped\n" % timeout_s)
        if e.stdout:
            out = e.stdout if isinstance(e.stdout, str) else e.stdout.decode()
            sys.stderr.write(out)
        return EXIT_TIMEOUT
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_stats_test"):
            return 1
        return run([os.path.join(BUILD, "perfbench_stats_test")], 60)

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in [1, %d]" % MAX_SECONDS)
    if not build("perfbench"):
        return 1

    print("provenance: git_sha=%s source_sha256=%s" % (git_sha(), source_digest()))
    sys.stdout.flush()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    # An end-to-end run times --seconds of epochs plus their set-ups and
    # checks; a traced run's ladder takes a fraction of --seconds.
    return run(cmd, 30 + 2 * args.seconds)


if __name__ == "__main__":
    sys.exit(main())
