/**
 * @file
 * Warm sweeps over the artifact store (DESIGN.md §16): the same full
 * sweep — every bench workload crossed with both system setups — run
 * cold against an empty store and then warm against the step-A
 * traces and experiment results the cold pass persisted. Records the
 * cells-per-second rate of each pass, the warm/cold speedup
 * (`sweep.warm_speedup`), the warm pass's result-tier hit rate, and a
 * byte-identity bit comparing every warm artifact against its cold
 * counterpart. The cache directory is scratch space owned by this
 * bench (emptied via Store::trim(0) before the cold pass), so runs
 * are self-contained and repeatable.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "driver/artifact_cache.hh"
#include "driver/metrics.hh"
#include "sim/table.hh"

using namespace starnuma;

namespace
{

struct SweepTiming
{
    double coldSecs = 0;
    double warmSecs = 0;
    double cells = 0;
    double hitRate = 0;
    bool warmEqualsCold = false;
};

SweepTiming measured;

/** Wall seconds of one full sweep over @p jobs. */
double
timedSweep(const std::vector<driver::SweepJob> &jobs,
           std::vector<driver::ExperimentResult> &results)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    results = driver::runSweep(jobs);
    auto t1 = clock::now();
    benchmark::DoNotOptimize(results.size());
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Bitwise equality of two sweep result sets: exact metric bytes
 *  plus the serialized step-B placement artifact. */
bool
sweepEquals(const std::vector<driver::ExperimentResult> &a,
            const std::vector<driver::ExperimentResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (driver::metricsSnapshot(a[i].metrics).values() !=
            driver::metricsSnapshot(b[i].metrics).values())
            return false;
        if (a[i].placement.serialize() !=
            b[i].placement.serialize())
            return false;
    }
    return true;
}

void
BM_SweepIncremental(benchmark::State &state)
{
    SimScale scale = benchutil::benchScale();
    std::vector<driver::SweepJob> jobs = driver::crossJobs(
        benchutil::benchWorkloads(),
        {driver::SystemSetup::baseline(),
         driver::SystemSetup::starnuma()},
        scale);

    driver::ArtifactCache &cache = driver::ArtifactCache::global();
    const char *env = std::getenv("STARNUMA_CACHE_DIR");
    std::string dir = (env != nullptr && *env != '\0' &&
                       std::string(env) != "0" &&
                       std::string(env) != "off")
                          ? std::string(env)
                          : std::string(".sweep_cache_bench");
    cache.enable(dir);
    cache.store()->trim(0); // empty store: a true cold pass

    for (auto _ : state) {
        cache.resetCounters();
        std::vector<driver::ExperimentResult> cold;
        measured.coldSecs = timedSweep(jobs, cold);

        cache.resetCounters();
        std::vector<driver::ExperimentResult> warm;
        measured.warmSecs = timedSweep(jobs, warm);

        std::uint64_t hits = cache.resultHits();
        std::uint64_t misses = cache.resultMisses();
        measured.cells = static_cast<double>(jobs.size());
        measured.hitRate =
            hits + misses > 0
                ? static_cast<double>(hits) /
                      static_cast<double>(hits + misses)
                : 0.0;
        measured.warmEqualsCold = sweepEquals(cold, warm);
    }
    cache.disable();

    state.counters["cold_secs"] = measured.coldSecs;
    state.counters["warm_secs"] = measured.warmSecs;
    state.counters["hit_rate"] = measured.hitRate;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);

    benchmark::RegisterBenchmark("SweepIncremental",
                                 BM_SweepIncremental)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    int rc = benchutil::runBenchmarks(argc, argv);

    double cold_rate =
        measured.cells / std::max(measured.coldSecs, 1e-9);
    double warm_rate =
        measured.cells / std::max(measured.warmSecs, 1e-9);
    double speedup = measured.coldSecs /
                     std::max(measured.warmSecs, 1e-9);
    benchutil::recordResult("sweep.cold_cells_per_sec", cold_rate);
    benchutil::recordResult("sweep.warm_cells_per_sec", warm_rate);
    benchutil::recordResult("sweep.warm_speedup", speedup);
    benchutil::recordResult("sweep.cache_hit_rate",
                            measured.hitRate);
    benchutil::recordResult("sweep.warm_equals_cold",
                            measured.warmEqualsCold ? 1.0 : 0.0);

    TextTable t({"pass", "wall s", "cells/s"});
    t.addRow({"cold", TextTable::num(measured.coldSecs, 3),
              TextTable::num(cold_rate, 1)});
    t.addRow({"warm", TextTable::num(measured.warmSecs, 3),
              TextTable::num(warm_rate, 1)});
    t.addRow({"speedup", TextTable::num(speedup, 1) + "x",
              "hit rate " + TextTable::num(measured.hitRate, 2)});
    t.addRow({"byte-identical",
              measured.warmEqualsCold ? "yes" : "NO", ""});
    benchutil::printSection(
        "Incremental sweep: cold vs warm artifact-cache pass",
        t.str());
    return rc;
}
