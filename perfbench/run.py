#!/usr/bin/env python3
"""Entry point of the EasyTime benchmark.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench on first use, then runs the C++ benchmark, whose last
stdout line is the JSON result. Build output goes to stderr.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
TARGETS = ["easytime_perfbench", "easytime_shard_worker"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS,
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    # Write back what the build (or an earlier run) left dirty, so its
    # writeback does not land on the appends' fsyncs mid-measurement.
    os.sync()
    bench = os.path.join(BUILD_DIR, "easytime_perfbench")
    worker = os.path.join(BUILD_DIR, "easytime", "cluster",
                          "easytime_shard_worker")
    cmd = [bench, "--worker-binary", worker] + sys.argv[1:]
    # Own process group, so a timeout can stop the benchmark and everything it
    # spawned (servers, router, shard workers) in one signal.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
