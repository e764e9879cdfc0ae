#!/usr/bin/env python3
"""End-to-end simulator benchmark: builds the simbench binary from source and runs it.

One workload run (what BENCHMARK.json's command names):

    python3 simbench/run.py --workload relay_mesh --seed 1 --seconds 35 --trace 0

prints progress lines and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (and writes the span trace under the
build directory).

    python3 simbench/run.py --report [--seconds 5] [--seed 1]

runs every workload untraced and traced, prints every metric by name with its
unit, runs the output checks, compares relay_mesh_sharded's fingerprint with
relay_mesh's, and runs the self-test. It exits non-zero if any check
fails.

    python3 simbench/run.py --self-test

runs only the self-test.

The build goes to $CARGO_TARGET_DIR/simbench (default .bench_build/simbench,
relative to the repository root) as a CMake Release build of simbench/ plus
the library sources under src/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["relay_mesh", "membership_churn", "relay_mesh_sharded"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "simbench")


def cached_source_dir(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures and builds the binary; returns its path or None."""
    bdir = build_dir()
    cached = cached_source_dir(bdir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(bdir)  # a cache from another checkout location
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "simbench", "-j", jobs]]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log(f"simbench: cannot run {cmd[0]}: {e}")
            return None
        if rc != 0:
            log(f"simbench: build step failed ({rc}): {' '.join(cmd)}")
            return None
    exe = os.path.join(bdir, "simbench")
    return exe if os.path.isfile(exe) else None


def run_bench(exe, args, capture):
    try:
        proc = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"simbench: timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout or ""


def workload_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, f"{workload}_seed{seed}.json")]
    return args


def report(exe, seed, seconds):
    ok = True
    fingerprints = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_bench(exe, workload_args(workload, seed, seconds, trace), True)
            lines = out.strip().splitlines()
            if rc != 0 or not lines:
                print(f"{workload} trace={trace}: run failed ({rc})")
                ok = False
                continue
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("fingerprint "):
                    fingerprints[workload] = line.split()[3]
            status = "ok" if result["correct"] else "FAILED"
            print(f"== {workload} trace={trace}: checks {status}, "
                  f"{result['failed']} of {result['attempted']} operations failed")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>18.6f} {m['unit']}")
            ok = ok and result["correct"]
    same = fingerprints.get("relay_mesh") == fingerprints.get("relay_mesh_sharded")
    print(f"== fingerprint relay_mesh {fingerprints.get('relay_mesh')} "
          f"relay_mesh_sharded {fingerprints.get('relay_mesh_sharded')}: "
          f"{'equal' if same else 'DIFFERENT'}")
    rc, _ = run_bench(exe, ["--self-test"], False)
    return 0 if ok and same and rc == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="host seconds each run measures (default 35; 5 with --report)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.report or a.self_test):
        p.error("one of --workload, --report or --self-test is required")

    exe = build()
    if exe is None:
        return 1
    if a.report:
        return report(exe, a.seed, a.seconds or 5)
    if a.self_test:
        return run_bench(exe, ["--self-test"], False)[0]
    rc, _ = run_bench(exe, workload_args(a.workload, a.seed, a.seconds or 35, a.trace),
                       False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
