#!/usr/bin/env python3
"""Smoke check for the benchmark at SimScale::tiny().

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced,
each for one second at tiny scale, and fails unless each run is
correct with no failed cell and emits every end_to_end (untraced) or
per_layer (traced) metric named there, with a finite value and the
declared unit. Takes about a minute, most of it the first build.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            where = f"{workload} --trace {trace}"
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit code {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{where}: {metric['name']} = "
                                    f"{got['value']}")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            print(f"smoke: {where}: {len(result['metrics'])} metrics",
                  file=sys.stderr)
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("smoke: all workloads emit every metric", file=sys.stderr)


if __name__ == "__main__":
    main()
