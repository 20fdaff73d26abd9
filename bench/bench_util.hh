/**
 * @file
 * Shared helpers for the figure/table reproduction benches. Each
 * bench binary registers one google-benchmark entry per evaluated
 * configuration (Iterations(1) — the simulations are deterministic)
 * and prints a paper-style table after the benchmark report.
 * Experiment results and workload traces (driver::workloadTrace)
 * are memoized per process; set STARNUMA_CACHE_DIR to also reuse
 * them across bench binaries through the artifact store.
 */

#ifndef STARNUMA_BENCH_BENCH_UTIL_HH
#define STARNUMA_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/sweep.hh"

namespace starnuma
{
namespace benchutil
{

/** Print a titled section containing a rendered table. */
void printSection(const std::string &title, const std::string &body);

/**
 * True when the STARNUMA_BENCH_FAST environment variable is set;
 * benches then shrink the simulated scale for quick smoke runs.
 */
bool fastMode();

/** The scale benches run at (SimScale::sc1, shrunk in fast mode). */
SimScale benchScale();

/**
 * Fan @p jobs out across the worker pool (driver::runSweep) and
 * memoize every result, so subsequent cachedRun/cachedSingleSocket
 * calls for the same configurations are hits. The sweep results are
 * bitwise-identical to running each entry serially; the bench binary
 * just reaches them as fast as the hardware allows.
 */
void prewarm(const std::vector<driver::SweepJob> &jobs);

/** Memoized full-pipeline run. */
const driver::ExperimentResult &cachedRun(
    const std::string &workload, const driver::SystemSetup &setup,
    const SimScale &scale);

/** Memoized single-socket reference run (Table III). */
const driver::RunMetrics &cachedSingleSocket(
    const std::string &workload, const SimScale &scale);

/** Speedup of @p setup over the baseline system. */
double speedupOverBaseline(const std::string &workload,
                           const driver::SystemSetup &setup,
                           const SimScale &scale);

/** The workloads evaluated by the paper-wide benches. */
std::vector<std::string> benchWorkloads();

/**
 * Record one scalar result under a dotted key (e.g.
 * "fig08.speedup_t16.bfs"). Results are written as sorted-key JSON
 * when a --bench-json=<path> flag (or STARNUMA_BENCH_JSON) is
 * active; no-op otherwise.
 */
void recordResult(const std::string &key, double value);

/**
 * Consume the observability flags and start the wall-time clock.
 * Call first thing in main(), before prewarm(), so the run
 * directory captures the sweep itself. Idempotent; runBenchmarks()
 * calls it as a fallback. Flags handled (removed from argv):
 *
 *   --obs-dir=<dir>      write stats.json, timeseries.json,
 *                        audit.csv and trace.json into <dir>
 *                        (same as STARNUMA_OBS_DIR)
 *   --bench-json=<path>  write recorded results + wall time as
 *                        JSON (same as STARNUMA_BENCH_JSON)
 */
void initBench(int *argc, char **argv);

/**
 * Register the standard `--benchmark_*` flags, run the registered
 * benchmarks, and return as main() would.
 */
int runBenchmarks(int argc, char **argv);

} // namespace benchutil
} // namespace starnuma

#endif // STARNUMA_BENCH_BENCH_UTIL_HH
