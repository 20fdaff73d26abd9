#!/bin/sh
# Smoke-test the observability pipeline end to end: build, run one
# fast-mode experiment sweep (the Fig. 8 bench) with the one switch
# STARNUMA_OBS_DIR set, and assert that the run directory holds
# exactly its four files and that each parses —
#   stats.json       deterministic stats snapshot
#   trace.json       Chrome trace with phase duration events,
#                    migration instants, and link-utilization
#                    counters
#   timeseries.json  deterministic per-epoch metric streams
#   audit.csv        Algorithm-1 migration decision log
# — then render the joined run-explain report
# (scripts/starnuma_report.py) as report.txt next to them.
# Artifacts land in ${STARNUMA_OBS_DIR:-obs_out}/.
set -e
cd "$(dirname "$0")/.."

if [ ! -d build ]; then
    cmake -B build -G Ninja
fi
cmake --build build --target bench_fig08_main_results

out=${STARNUMA_OBS_DIR:-obs_out}
# Only this script's own outputs are cleared; anything else already
# in the directory fails the four-file check below.
for f in stats.json trace.json timeseries.json audit.csv report.txt; do
    rm -f "$out/$f"
done

STARNUMA_BENCH_FAST=1 STARNUMA_OBS_DIR="$out" \
    ./build/bench/bench_fig08_main_results >/dev/null

python3 - "$out" <<'EOF'
import csv
import json
import os
import sys

run_dir = sys.argv[1]
files = sorted(os.listdir(run_dir))
assert files == ["audit.csv", "stats.json", "timeseries.json",
                 "trace.json"], files
stats_path, trace_path, ts_path, audit_path = (
    os.path.join(run_dir, f)
    for f in ("stats.json", "trace.json", "timeseries.json",
              "audit.csv"))
stats = json.load(open(stats_path))
assert stats, "stats snapshot is empty"

trace = json.load(open(trace_path))["traceEvents"]
for e in trace:
    assert "ph" in e and "pid" in e and "name" in e, e
phases = {e["ph"] for e in trace}
assert "X" in phases, "no duration events"
migrations = [e for e in trace
              if e["ph"] == "i" and e["name"] == "migration"]
assert migrations, "no migration instant events"
link = [e for e in trace
        if e["ph"] == "C" and e["name"].endswith(".linkUtil")]
assert link, "no link-utilization counters"

series = json.load(open(ts_path))
assert series, "time series export is empty"
for key, col in series.items():
    assert set(col) == {"t", "v"}, (key, col.keys())
    assert len(col["t"]) == len(col["v"]), key
timing = [k for k in series if ".timing.phase" in k]
replay = [k for k in series if ".traceSim." in k]
assert timing, "no timing-side (per-epoch) streams"
assert replay, "no replay-side (per-phase) streams"

with open(audit_path) as fh:
    audit = list(csv.DictReader(fh))
assert audit, "audit log is empty"
branches = {r["branch"] for r in audit}
for r in audit:
    assert r["run"] and r["reason"], r
assert branches & {"toPool", "toSharer"}, branches

print("observability OK: %d stats, %d trace events "
      "(%d migration instants, %d link-util samples), "
      "%d streams, %d audit records (%d branches)"
      % (len(stats), len(trace), len(migrations), len(link),
         len(series), len(audit), len(branches)))
EOF

python3 scripts/starnuma_report.py "$out" -o "$out/report.txt"
python3 - "$out/report.txt" <<'EOF'
import sys

report = open(sys.argv[1]).read()
assert "Phases:" in report, "report lacks a phase table"
assert "Decision branches" in report, "report lacks decisions"
assert "Top migrated pages" in report, "report lacks page ranking"
assert "vs base" in report, "report lacks baseline attribution"
print("report OK: %d lines" % len(report.splitlines()))
EOF
echo "artifacts in $out/"
