#!/usr/bin/env python3
"""Explain a StarNUMA run from its run directory.

Joins the three deterministic files one observed run writes into
its STARNUMA_OBS_DIR --

  stats.json       flat sorted-key stats snapshot
  timeseries.json  per-epoch metric streams
  audit.csv        Algorithm-1 decision log

-- into one human-readable report per (workload, setup) run:
phase-by-phase attribution (instructions, cycles, IPC, link
utilization, DRAM traffic, pages migrated -- and, when the same
workload was also run on a baseline setup, the per-phase cycle
delta that says where StarNUMA won or lost), the Algorithm-1
decision-branch histogram with selection reasons, and the most
migrated pages.

`--self-test` writes an embedded miniature run directory, renders
it and checks the result against a golden report; it is wired into
ctest (starnuma_report_selftest).
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from collections import defaultdict

MOVE_BRANCHES = ("toPool", "toSharer", "victimEviction")

BRANCH_REASONS = {
    "toPool": "sharers reached the pool threshold",
    "toSharer": "hot region placed at a random sharer",
    "alreadyPlaced": "current home already a sharer",
    "samePlacement": "chosen destination equals current home",
    "pingPongSuppressed":
        "migrations exceeded a quarter of the phase count",
    "noRoomBackoff": "no pool resident was cold enough to evict",
    "victimEviction": "lowest-numbered cold pool resident",
}


def split_run(key):
    """'bfs.star-t16.summary.ipc' -> ('bfs.star-t16', 'summary.ipc').

    Run prefixes are always '<workload>.<setup>'; neither component
    contains a dot.
    """
    parts = key.split(".", 2)
    if len(parts) < 3:
        return None, key
    return parts[0] + "." + parts[1], parts[2]


def runs_from_flat(flat):
    """-> {run: {metric: value}} from a flat '<run>.<metric>' map."""
    runs = defaultdict(dict)
    for key, value in flat.items():
        run, metric = split_run(key)
        if run is not None:
            runs[run][metric] = value
    return runs


def load_stats(path):
    """-> {run: {metric: value}} from stats.json."""
    with open(path) as fh:
        return runs_from_flat(json.load(fh))


def load_timeseries(path):
    """-> {run: {stream: (ts, vs)}} from timeseries.json."""
    with open(path) as fh:
        flat = json.load(fh)
    return runs_from_flat({k: (col["t"], col["v"])
                           for k, col in flat.items()})


def load_audit(path):
    """-> {run: [record dicts]} from audit.csv."""
    runs = defaultdict(list)
    with open(path) as fh:
        for row in csv.DictReader(fh):
            rec = dict(row)
            for field in ("phase", "region", "page", "sharers",
                          "accesses", "hiThreshold", "loThreshold",
                          "candidates", "from", "to"):
                rec[field] = int(rec[field])
            runs[row["run"]].append(rec)
    return dict(runs)


def load_run_dir(directory):
    """(stats, series, audit) runs from one run directory."""
    return (load_stats(os.path.join(directory, "stats.json")),
            load_timeseries(os.path.join(directory, "timeseries.json")),
            load_audit(os.path.join(directory, "audit.csv")))


def fmt(value, width=10, force_float=False):
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float) and \
            (force_float or value != int(value)):
        return "%*.3f" % (width, value)
    return "%*d" % (width, int(value))


def phase_rows(stats, series):
    """Per-phase metric dicts joined from both artifacts."""
    phases = set()
    for metric in stats:
        if metric.startswith("timing.phase"):
            phases.add(int(metric[len("timing.phase"):].split(".")[0]))
    for stream in series:
        if stream.startswith("timing.phase"):
            phases.add(int(stream[len("timing.phase"):].split(".")[0]))
        elif stream.startswith("traceSim."):
            ts, _ = series[stream]
            phases.update(t - 1 for t in ts)
    rows = []
    for phase in sorted(phases):
        tp = "timing.phase%02d." % phase
        row = {"phase": phase}
        row["instructions"] = stats.get(tp + "instructions")
        row["cycles"] = stats.get(tp + "cycles")
        if row["instructions"] and row["cycles"]:
            row["ipc"] = row["instructions"] / row["cycles"]
        else:
            row["ipc"] = None
        # Mean per-epoch link utilization over every link type the
        # phase sampled, and total DRAM requests.
        utils = []
        for stream, (_, vs) in series.items():
            if stream.startswith(tp + "linkUtil.") and vs:
                utils.append(sum(vs) / len(vs))
        row["linkUtil"] = (sum(utils) / len(utils)) if utils else None
        dram = series.get(tp + "dram.requests")
        row["dramReq"] = sum(dram[1]) if dram else None
        # Replay streams are stamped with the 1-based phase number.
        for stream, name in (("traceSim.migratedPages", "migrated"),
                             ("traceSim.poolPages", "poolPages"),
                             ("traceSim.tlbMissRate", "tlbMissRate")):
            entry = series.get(stream)
            row[name] = None
            if entry:
                ts, vs = entry
                if phase + 1 in ts:
                    row[name] = vs[ts.index(phase + 1)]
        rows.append(row)
    return rows


def pick_baseline(run, all_runs):
    """The baseline run to attribute against, if one was collected."""
    workload = run.split(".", 1)[0]
    setup = run.split(".", 1)[1]
    for candidate_setup in ("baseline", "base"):
        candidate = workload + "." + candidate_setup
        if candidate in all_runs and candidate != run:
            return candidate
    for other in sorted(all_runs):
        if other != run and other.startswith(workload + ".") and \
                "base" in other.split(".", 1)[1] and \
                "base" not in setup:
            return other
    return None


def report_run(out, run, stats, series, audit, baseline_stats,
               baseline_name, top_n):
    workload, setup = run.split(".", 1)
    out.write("=== %s / %s ===\n" % (workload, setup))

    summary = {m[len("summary."):]: v for m, v in stats.items()
               if m.startswith("summary.")}
    if summary:
        out.write("\nSummary:\n")
        for key in sorted(summary):
            out.write("  %-28s %s\n" % (key, fmt(summary[key], 12).strip()))

    rows = phase_rows(stats, series)
    if rows:
        out.write("\nPhases:\n")
        header = ("  phase     instr    cycles    ipc   linkUtil"
                  "    dramReq   migrated  poolPages tlbMissRate")
        if baseline_stats is not None:
            header += "   vs %s" % baseline_name
        out.write(header + "\n")
        for row in rows:
            line = "  %5d%s%s%s%s%s%s%s%s" % (
                row["phase"],
                fmt(row["instructions"]),
                fmt(row["cycles"]),
                fmt(row["ipc"], 7, force_float=True),
                fmt(row["linkUtil"], 11),
                fmt(row["dramReq"], 11),
                fmt(row["migrated"], 11),
                fmt(row["poolPages"], 11),
                fmt(row["tlbMissRate"], 12),
            )
            if baseline_stats is not None:
                base_cycles = baseline_stats.get(
                    "timing.phase%02d.cycles" % row["phase"])
                if base_cycles and row["cycles"]:
                    delta = (base_cycles - row["cycles"]) / base_cycles
                    line += "   %+6.1f%% %s" % (
                        delta * 100,
                        "won" if delta > 0 else
                        ("lost" if delta < 0 else "even"))
                else:
                    line += "         -"
            out.write(line + "\n")

    engine = {m[len("traceSim.engine.") :]: v for m, v in stats.items()
              if m.startswith("traceSim.engine.")}
    if engine:
        out.write("\nMigration engine:\n")
        for key in sorted(engine):
            out.write("  %-28s %s\n" % (key, fmt(engine[key], 12).strip()))

    if audit:
        out.write("\nDecision branches (%d Algorithm-1 decisions):\n"
                  % len(audit))
        counts = defaultdict(int)
        for rec in audit:
            counts[rec["branch"]] += 1
        for branch in sorted(counts, key=lambda b: (-counts[b], b)):
            out.write("  %-20s %6d   %s\n"
                      % (branch, counts[branch],
                         BRANCH_REASONS.get(branch, "")))

        moved = defaultdict(lambda: defaultdict(int))
        for rec in audit:
            if rec["branch"] in MOVE_BRANCHES:
                moved[rec["page"]][rec["branch"]] += 1
        if moved:
            out.write("\nTop migrated pages:\n")
            ranked = sorted(
                moved.items(),
                key=lambda kv: (-sum(kv[1].values()), kv[0]))
            for page, branches in ranked[:top_n]:
                detail = ", ".join(
                    "%s x%d" % (b, branches[b])
                    for b in sorted(branches))
                out.write("  page %-12d %3d moves  (%s)\n"
                          % (page, sum(branches.values()), detail))
    out.write("\n")


def report_cache(out, cache):
    """Artifact-cache tier attribution (DESIGN.md §16): hit/miss
    counts per tier, the differential-resume counters, store I/O and
    the wall-clock split between serving hits and computing misses.
    Rendered when a sweep ran with the cache enabled (runSweep
    publishes the counters under 'sweep.cache.*')."""
    out.write("=== artifact cache (sweep) ===\n\n")

    def tier(name, hits, misses):
        total = hits + misses
        rate = ("  (%3.0f%% hit rate)" % (100.0 * hits / total)) \
            if total else ""
        out.write("  %-12s %6d hit / %6d miss%s\n"
                  % (name, hits, misses, rate))

    tier("trace tier", int(cache.get("traceHits", 0)),
         int(cache.get("traceMisses", 0)))
    tier("result tier", int(cache.get("resultHits", 0)),
         int(cache.get("resultMisses", 0)))
    out.write("  %-12s %6d partial hit(s), %d phase(s) skipped by "
              "differential resume\n"
              % ("state tier", int(cache.get("partialHits", 0)),
                 int(cache.get("phasesSkipped", 0))))
    out.write("  %-12s %6d byte(s) read, %d byte(s) written\n"
              % ("store I/O", int(cache.get("bytesRead", 0)),
                 int(cache.get("bytesWritten", 0))))
    if "hitSeconds" in cache or "missSeconds" in cache:
        out.write("  %-12s %.3fs serving hits, %.3fs computing "
                  "misses\n"
                  % ("wall time", float(cache.get("hitSeconds", 0)),
                     float(cache.get("missSeconds", 0))))
    out.write("\n")


def render(stats_runs, series_runs, audit_runs, only_run, top_n):
    out = io.StringIO()
    # 'sweep.cache' is counter telemetry, not a (workload, setup)
    # run; it gets its own section after the per-run reports.
    cache = dict(stats_runs.get("sweep.cache", {}))
    runs = sorted((set(stats_runs) | set(series_runs) |
                   set(audit_runs)) - {"sweep.cache"})
    if only_run:
        runs = [r for r in runs if r == only_run]
        if not runs:
            raise SystemExit("starnuma-report: run '%s' not present "
                             "in any artifact" % only_run)
    for run in runs:
        stats = stats_runs.get(run, {})
        baseline = pick_baseline(run, stats_runs)
        report_run(out, run, stats, series_runs.get(run, {}),
                   audit_runs.get(run, []),
                   stats_runs.get(baseline) if baseline else None,
                   baseline.split(".", 1)[1] if baseline else None,
                   top_n)
    if cache and not only_run:
        report_cache(out, cache)
    return out.getvalue()


# --- self test -------------------------------------------------------

SELFTEST_STATS = {
    "bfs.star.summary.ipc": 1.25,
    "bfs.star.summary.speedup": 1.4,
    "bfs.star.timing.phase00.instructions": 1000,
    "bfs.star.timing.phase00.cycles": 800,
    "bfs.star.timing.phase01.instructions": 1000,
    "bfs.star.timing.phase01.cycles": 790,
    "bfs.star.traceSim.engine.migratedRegions": 3,
    "bfs.star.traceSim.engine.hiThreshold": 64,
    "bfs.baseline.timing.phase00.instructions": 1000,
    "bfs.baseline.timing.phase00.cycles": 1000,
    "bfs.baseline.timing.phase01.instructions": 1000,
    "bfs.baseline.timing.phase01.cycles": 700,
    "sweep.cache.traceHits": 6,
    "sweep.cache.traceMisses": 2,
    "sweep.cache.resultHits": 12,
    "sweep.cache.resultMisses": 4,
    "sweep.cache.partialHits": 1,
    "sweep.cache.phasesSkipped": 3,
    "sweep.cache.bytesRead": 4096,
    "sweep.cache.bytesWritten": 8192,
    "sweep.cache.hitSeconds": 0.002,
    "sweep.cache.missSeconds": 1.25,
}

SELFTEST_TIMESERIES = {
    "bfs.star.timing.phase00.linkUtil.upi":
        {"t": [20000, 40000], "v": [0.5, 0.7]},
    "bfs.star.timing.phase00.dram.requests":
        {"t": [20000, 40000], "v": [100, 140]},
    "bfs.star.traceSim.migratedPages": {"t": [1, 2], "v": [64, 0]},
    "bfs.star.traceSim.poolPages": {"t": [1, 2], "v": [64, 64]},
}

SELFTEST_AUDIT = {
    "bfs.star": [
        {"phase": 1, "branch": "toPool", "region": 2, "page": 128,
         "sharers": 8, "accesses": 200, "hiThreshold": 64,
         "loThreshold": 4, "candidates": 3, "from": 1, "to": 16,
         "reason": "sharers reached the pool threshold"},
        {"phase": 1, "branch": "toPool", "region": 3, "page": 192,
         "sharers": 9, "accesses": 150, "hiThreshold": 64,
         "loThreshold": 4, "candidates": 3, "from": 0, "to": 16,
         "reason": "sharers reached the pool threshold"},
        {"phase": 2, "branch": "pingPongSuppressed", "region": 2,
         "page": 128, "sharers": 8, "accesses": 180,
         "hiThreshold": 64, "loThreshold": 4, "candidates": 1,
         "from": 16, "to": 1,
         "reason":
             "migrations exceeded a quarter of the phase count"},
    ],
}

SELFTEST_GOLDEN = """\
=== bfs / baseline ===

Phases:
  phase     instr    cycles    ipc   linkUtil    dramReq   migrated  poolPages tlbMissRate
      0      1000      1000  1.000          -          -          -          -           -
      1      1000       700  1.429          -          -          -          -           -

=== bfs / star ===

Summary:
  ipc                          1.250
  speedup                      1.400

Phases:
  phase     instr    cycles    ipc   linkUtil    dramReq   migrated  poolPages tlbMissRate   vs baseline
      0      1000       800  1.250      0.600        240         64         64           -    +20.0% won
      1      1000       790  1.266          -          -          0         64           -    -12.9% lost

Migration engine:
  hiThreshold                  64
  migratedRegions              3

Decision branches (3 Algorithm-1 decisions):
  toPool                    2   sharers reached the pool threshold
  pingPongSuppressed        1   migrations exceeded a quarter of the phase count

Top migrated pages:
  page 128            1 moves  (toPool x1)
  page 192            1 moves  (toPool x1)

=== artifact cache (sweep) ===

  trace tier        6 hit /      2 miss  ( 75% hit rate)
  result tier      12 hit /      4 miss  ( 75% hit rate)
  state tier        1 partial hit(s), 3 phase(s) skipped by differential resume
  store I/O      4096 byte(s) read, 8192 byte(s) written
  wall time    0.002s serving hits, 1.250s computing misses

"""


def write_selftest_dir(directory):
    """Write the embedded fixtures as a run directory."""
    with open(os.path.join(directory, "stats.json"), "w") as fh:
        json.dump(SELFTEST_STATS, fh)
    with open(os.path.join(directory, "timeseries.json"), "w") as fh:
        json.dump(SELFTEST_TIMESERIES, fh)
    with open(os.path.join(directory, "audit.csv"), "w",
              newline="") as fh:
        fields = ["run", "seq", "phase", "branch", "region", "page",
                  "sharers", "accesses", "hiThreshold",
                  "loThreshold", "candidates", "from", "to", "reason"]
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        for run, recs in SELFTEST_AUDIT.items():
            for seq, rec in enumerate(recs):
                writer.writerow(dict(rec, run=run, seq=seq))


def self_test():
    with tempfile.TemporaryDirectory() as directory:
        write_selftest_dir(directory)
        got = render(*load_run_dir(directory), None, 10)
    if got != SELFTEST_GOLDEN:
        sys.stderr.write("report self-test: got\n%s" % got)
        import difflib
        for line in difflib.unified_diff(
                SELFTEST_GOLDEN.splitlines(True),
                got.splitlines(True), "golden", "got"):
            sys.stderr.write(line)
        return 1
    print("report self-test: golden report matches, OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Join a StarNUMA run directory (STARNUMA_OBS_DIR) "
                    "into a run-explain report.")
    parser.add_argument("run_dir", nargs="?",
                        help="run directory holding stats.json, "
                             "timeseries.json and audit.csv")
    parser.add_argument("--run", dest="only_run",
                        help="report a single '<workload>.<setup>'")
    parser.add_argument("--top", type=int, default=10,
                        help="migrated pages to list (default 10)")
    parser.add_argument("-o", "--output",
                        help="write the report here (default stdout)")
    parser.add_argument("--self-test", action="store_true",
                        help="render the embedded miniature run "
                             "against its golden report")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.run_dir:
        parser.error("need a run directory (or --self-test)")

    text = render(*load_run_dir(args.run_dir), args.only_run, args.top)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
