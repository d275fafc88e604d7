#!/usr/bin/env python3
"""Builds the wlanbench benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload link --seed 1 --seconds 20 --trace 0

All arguments go to the benchmark binary unchanged (see README.md). The
build tree is <CARGO_TARGET_DIR>/wlanbench, with CARGO_TARGET_DIR taken
relative to the repository root and defaulting to .bench_build. Build
output goes to stderr, so stdout carries only the benchmark's own output;
its last line is the JSON result. The exit code is nonzero, and no result
is printed, when the build or the run fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def call(cmd, timeout_s, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout_s)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = call(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return code
    return call(["cmake", "--build", build_dir, "--target", "wlanbench",
                 "--parallel", BUILD_JOBS], BUILD_TIMEOUT_S, stdout=sys.stderr)


def main():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "wlanbench")
    try:
        code = build(build_dir)
        if code != 0:
            print("run.py: build failed", file=sys.stderr)
            return code
        sys.stdout.flush()
        return call([os.path.join(build_dir, "wlanbench")] + sys.argv[1:],
                    RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print("run.py: timed out: %s" % " ".join(e.cmd), file=sys.stderr)
        return 1
    except OSError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
