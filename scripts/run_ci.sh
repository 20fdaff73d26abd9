#!/usr/bin/env bash
# Single CI entry point: run the tier-1 test suite, the static gate
# (scripts/run_lint.sh: starnuma-lint D1-D8, the D9-D11 hot-path
# analyzer, the D12-D14 taint/purity analyzer with its artifact
# input manifest, WERROR builds, thread-safety analysis and
# clang-tidy),
# the analyze backstop (scripts/check_hotpath_syms.sh over the
# disassembly of a RelWithDebInfo and a Release build), and the
# sanitizer matrix
# (scripts/run_sanitizers.sh: TSan and ASan+UBSan over ctest), then
# print a per-stage pass/fail/skip summary with wall times. Stages
# whose toolchain is absent on this machine (the clang ones on a
# GCC-only box) report SKIP, not PASS — the summary states what was
# actually checked. Exit status is nonzero when any stage fails, so
# this script is the one thing a CI job needs to invoke.
#
# Usage: scripts/run_ci.sh [stage ...]
#   stages: tier1 lint taint clang-tsa clang-tidy analyze sanitizers
#           obs sweep bench
#   (default: tier1 lint taint clang-tsa clang-tidy analyze
#    sanitizers obs sweep, in order; `obs` smoke-tests the observability
#    pipeline through its one switch, STARNUMA_OBS_DIR: the run
#    directory must hold exactly stats.json, timeseries.json,
#    audit.csv and trace.json, each well-formed, and the run-explain
#    report must render from it (scripts/run_observability.sh). `sweep`
#    smoke-tests warm sweeps over the artifact store: a cold pass
#    against a fresh store, a warm pass against the persisted objects,
#    asserting full result-tier hit rate and cold/warm byte identity,
#    then `example_starnuma_cli cache verify` over every stored
#    object. `bench` is opt-in — it re-measures step-B replay
#    throughput and diffs against the committed BENCH_results.json
#    with scripts/bench_history.py (20% tolerance on the wall-clock
#    replay.* and sweep.* metrics), so only run it on quiet machines)
set -uo pipefail

cd "$(dirname "$0")/.."

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=(tier1 lint taint clang-tsa clang-tidy analyze sanitizers
            obs sweep)
fi

names=()
results=()
times=()

# A stage exits 0 for PASS, 3 for SKIP (required tool not
# installed), anything else for FAIL.
run_stage() {
    local name=$1
    shift
    echo
    echo "========================================================"
    echo "=== CI stage: ${name}"
    echo "========================================================"
    local t0
    t0=$(date +%s)
    "$@"
    case "$?" in
      0) results+=("PASS") ;;
      3) results+=("SKIP") ;;
      *) results+=("FAIL") ;;
    esac
    names+=("${name}")
    times+=("$(( $(date +%s) - t0 ))")
}

tier1() {
    cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
        cmake --build build -j "$(nproc)" &&
        ctest --test-dir build --output-on-failure -j "$(nproc)"
}

analyze() {
    # Source-level interprocedural discipline, then the binary
    # backstop over the tier-1 build's disassembly (-O2) and over a
    # Release build's (-O3), where more of the code is inlined.
    python3 scripts/starnuma_hotpath.py &&
        scripts/check_hotpath_syms.sh build &&
        cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release &&
        cmake --build build-release -j "$(nproc)" \
              --target starnuma_tests &&
        scripts/check_hotpath_syms.sh build-release
}

sweep_guard() {
    # Cold pass against a fresh store, warm pass against the same
    # store: the bench records the warm hit rate, the warm/cold
    # speedup and a byte-identity bit; this stage turns those into
    # hard assertions and then audits every persisted object: any
    # stale or invalid object in this fresh store fails the stage.
    cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
        cmake --build build -j "$(nproc)" \
              --target bench_sweep_incremental example_starnuma_cli ||
        return 1
    local tmp
    tmp=$(mktemp -d) || return 1
    # shellcheck disable=SC2064
    trap "rm -rf '${tmp}'" RETURN
    STARNUMA_CACHE_DIR="${tmp}/store" STARNUMA_BENCH_FAST=1 \
        ./build/bench/bench_sweep_incremental \
        --bench-json="${tmp}/sweep.json" || return 1
    python3 - "${tmp}/sweep.json" <<'EOF' || return 1
import json
import sys

with open(sys.argv[1]) as fh:
    r = json.load(fh)["results"]
failures = []
if r.get("sweep.warm_equals_cold") != 1.0:
    failures.append("warm artifacts are not byte-identical to cold")
if r.get("sweep.cache_hit_rate", 0.0) < 1.0:
    failures.append("warm hit rate %.2f < 1.00"
                    % r.get("sweep.cache_hit_rate", 0.0))
if r.get("sweep.warm_speedup", 0.0) < 5.0:
    failures.append("warm speedup %.1fx < 5x"
                    % r.get("sweep.warm_speedup", 0.0))
for f in failures:
    print("sweep stage: %s" % f)
print("sweep stage: speedup %.1fx, hit rate %.2f, byte-identical %s"
      % (r.get("sweep.warm_speedup", 0.0),
         r.get("sweep.cache_hit_rate", 0.0),
         "yes" if r.get("sweep.warm_equals_cold") == 1.0 else "NO"))
sys.exit(1 if failures else 0)
EOF
    STARNUMA_CACHE_DIR="${tmp}/store" \
        ./build/examples/example_starnuma_cli cache verify
}

bench_guard() {
    if [ ! -f BENCH_results.json ]; then
        echo "bench: no committed BENCH_results.json to compare" \
             "against; run scripts/export_bench_json.sh first" >&2
        return 1
    fi
    cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
        cmake --build build -j "$(nproc)" \
              --target bench_replay_throughput || return 1
    local tmp
    tmp=$(mktemp -d) || return 1
    # shellcheck disable=SC2064
    trap "rm -rf '${tmp}'" RETURN
    # Best-of-3: wall-clock throughput on a shared machine is
    # noisy in one direction only (interference makes it slower,
    # never faster), so the max over repeats is the honest value.
    local i
    for i in 1 2 3; do
        STARNUMA_BENCH_FAST=1 \
            ./build/bench/bench_replay_throughput \
            --bench-json="${tmp}/replay${i}.json" >/dev/null ||
            return 1
    done
    # Fold best-of-3 into one measurement file, then let the
    # history differ apply its per-metric thresholds (replay.* keys
    # get the 20% wall-clock tolerance).
    python3 - "${tmp}"/replay[123].json \
        "${tmp}/current.json" <<'EOF' || return 1
import json
import sys

best = {"schema": "starnuma-bench-v1", "results": {}}
for path in sys.argv[1:-1]:
    with open(path) as fh:
        for key, val in json.load(fh)["results"].items():
            prev = best["results"].get(key)
            best["results"][key] = val if prev is None \
                else max(val, prev)
with open(sys.argv[-1], "w") as fh:
    json.dump(best, fh)
EOF
    python3 scripts/bench_history.py BENCH_results.json \
        "${tmp}/current.json"
}

for stage in "${stages[@]}"; do
    case "${stage}" in
      tier1)      run_stage "tier1 ctest" tier1 ;;
      lint)       run_stage "lint (D1-D11 + WERROR)" \
                            scripts/run_lint.sh python werror ;;
      taint)      run_stage "taint (D12-D14 + artifact manifest)" \
                            scripts/run_lint.sh taint ;;
      clang-tsa)  run_stage "clang thread-safety build" \
                            scripts/run_lint.sh clang-tsa ;;
      clang-tidy) run_stage "clang-tidy" \
                            scripts/run_lint.sh clang-tidy ;;
      analyze)    run_stage "analyze (hot-path + syms backstop)" \
                            analyze ;;
      sanitizers) run_stage "sanitizers (TSan, ASan+UBSan)" \
                            scripts/run_sanitizers.sh ;;
      obs)        run_stage "obs (telemetry + report smoke)" \
                            scripts/run_observability.sh ;;
      sweep)      run_stage "sweep (cold/warm cache smoke)" \
                            sweep_guard ;;
      bench)      run_stage "bench (replay regression guard)" \
                            bench_guard ;;
      *)
        echo "run_ci.sh: unknown stage '${stage}' (expected" \
             "tier1|lint|taint|clang-tsa|clang-tidy|analyze|" \
             "sanitizers|obs|sweep|bench)" >&2
        exit 2
        ;;
    esac
done

echo
echo "=== CI summary ==="
fail=0
for i in "${!names[@]}"; do
    printf '  %-36s %s  (%ss)\n' "${names[$i]}" "${results[$i]}" \
           "${times[$i]}"
    if [ "${results[$i]}" = "FAIL" ]; then
        fail=1
    fi
done
if [ "${fail}" -ne 0 ]; then
    echo "=== CI FAILED ==="
    exit 1
fi
echo "=== CI clean ==="
