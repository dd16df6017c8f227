#!/usr/bin/env python3
"""Build and run the Vapro benchmark.

    python3 perfbench/run.py --workload steady_windows|long_run|app_run \
        --seed N --seconds S --trace 0|1 [--smoke]

Configures perfbench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset, builds incrementally, then runs the driver.  The driver's output
and exit status pass through unchanged: the last line of standard output
is the JSON result, and the status is non-zero when any checked operation
failed.  Build output goes to standard error.  Trace, report and journal
files land in <build root>/out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_windows", "long_run", "app_run")
# The first run of a checkout builds; every run must end within 180 s.
RUN_TIMEOUT_S = 170


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "vapro_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the benchmark's own smoke test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the Vapro sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    root = build_root()
    try:
        exe = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, "out")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
