#!/usr/bin/env python3
"""Build and run the paper-workload slowdown benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload incast_4rack --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (the simulator libraries from src/ plus
`perfbench_run`) as a Release build under $CARGO_TARGET_DIR, default
.bench_build, then runs it.  Build output goes to stderr; the
program's report goes to stdout, whose last line is one JSON object with
the keys correct, attempted, failed and metrics.  Exits non-zero without
printing a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("incast_4rack", "memcached_2k", "memcached_32k")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; False on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    """Configure (once) and build perfbench_run; its path, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found under %s" % ROOT,
              file=sys.stderr)
        return None
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", bdir, "--target", "perfbench_run",
                      "-j", jobs]):
        return None
    return os.path.join(bdir, "perfbench_run")


def run_bench(binary, args, extra):
    """Run perfbench_run in its own process group; (exit code, stdout)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("perfbench: perfbench_run timed out after %d s"
              % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, out
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--trace-out",
                    help="span log path (default: under the build dir)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    trace_out = args.trace_out or os.path.join(
        build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))
    extra = ["--trace-out", trace_out] + (["--smoke"] if args.smoke else [])
    code, out = run_bench(binary, args, extra)
    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        print("perfbench: perfbench_run exited with code %d" % code,
              file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: perfbench_run printed no result line",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
