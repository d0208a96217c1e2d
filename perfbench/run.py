#!/usr/bin/env python3
"""Build and run the fleet benchmark.

    python3 perfbench/run.py --workload ingest_tree --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and
builds the library, hbbp-tool and the load generator (fleetbench.cc)
in Release mode into .bench_build/; later runs rebuild incrementally.
Each run checks the benchmark's own arithmetic (fleetbench_selftest),
then runs the load generator, which spawns the daemons under
.bench_work/ and prints a human report followed by one JSON result
line. The exit code is the load generator's: non-zero on any
correctness mismatch, early daemon exit or setup failure.

Workloads, their fixed properties and the layer map are recorded in
perfbench/design.json; the run fails if the load generator's printed
configuration no longer matches it.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the benchmark targets incrementally."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
         "--target", "fleetbench", "fleetbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def reap_group(pgid):
    """Kill whatever is left of the run's process group and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"no {need} beside perfbench/: run from a source checkout")
    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    if args.workload not in design["workloads"]:
        die(f"unknown workload '{args.workload}' "
            f"(have: {', '.join(design['workloads'])})")

    try:
        build()
        subprocess.run([os.path.join(BUILD, "fleetbench_selftest")],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    except subprocess.CalledProcessError as e:
        print(f"run.py: build or selftest failed: {e}", file=sys.stderr)
        sys.exit(1)

    cmd = [os.path.join(BUILD, "fleetbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tool", os.path.join(BUILD, "hbbp", "hbbp-tool"),
           "--work", os.path.join(WORK, args.workload),
           "--commit", commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        print("run.py: load generator timed out", file=sys.stderr)
        sys.exit(1)
    reap_group(proc.pid)

    lines = out.splitlines()
    config = next((l[len("config: "):] for l in lines
                   if l.startswith("config: ")), None)
    want = design["workloads"][args.workload]["config"]
    if config is None or json.loads(config) != want:
        print(out, end="", file=sys.stderr)
        print(f"run.py: load generator config {config} does not match "
              f"design.json {json.dumps(want)}", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
