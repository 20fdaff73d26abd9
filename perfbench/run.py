#!/usr/bin/env python3
"""Build and run the StarNUMA pipeline benchmark (see README.md here).

    python3 perfbench/run.py --workload paper_sweep_cold --seed 1 \
        --seconds 25 --trace 0 [--threads 3] [--scale sc1|tiny]

Run from the root of a checkout. The driver binary is built from
source under .bench_build/ on first use. It runs cold: the on-disk
trace cache is switched off and the artifact store left unconfigured
in its environment, and a run whose checkout gains a directory (a
trace cache or store appearing) is reported as incorrect. The last
stdout line is the driver's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_driver"
WORKLOADS = ("paper_sweep_cold", "timing_sweep", "placement_replay")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the driver (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def cold_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("STARNUMA_")}
    env["STARNUMA_TRACE_DIR"] = "off"
    return env


def directories():
    return {p.name for p in ROOT.iterdir() if p.is_dir()}


def run(args):
    """Run the driver once; returns the parsed result object."""
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(args.threads),
           "--scale", args.scale]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    before = directories()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=cold_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    appeared = directories() - before
    if appeared:
        print(f"perfbench: run created {sorted(appeared)}; a cold run "
              f"must not leave a cache behind", file=sys.stderr)
        result["correct"] = False
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, default=3,
                   help="pool workers plus the calling thread")
    p.add_argument("--scale", choices=("sc1", "tiny"), default="sc1")
    args = p.parse_args()
    build()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
