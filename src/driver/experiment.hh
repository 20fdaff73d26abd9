/**
 * @file
 * Top-level experiment API: runs the full three-step pipeline
 * (capture -> trace simulation -> timing simulation) for one
 * (workload, system) pair and returns the aggregated metrics.
 * Traces are memoized per process (and on disk only through the
 * artifact store, STARNUMA_CACHE_DIR), so sweeping system
 * configurations over the same workload only captures once —
 * mirroring how the paper reuses step-A traces across all evaluated
 * systems. The memo is thread safe: concurrent requests for the same
 * (workload, scale) run exactly one capture and share the resulting
 * trace, so sweep entries can fan out across the worker pool
 * (driver/sweep.hh).
 *
 * Step C runs the paper's literal "N parallel timing simulations"
 * (§IV-A3): each phase simulates on its own machine state,
 * distributed over sim/parallel.hh's pool, and the per-phase
 * metrics merge in phase order — so the result is bitwise-identical
 * for every pool size, including 1.
 */

#ifndef STARNUMA_DRIVER_EXPERIMENT_HH
#define STARNUMA_DRIVER_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "driver/metrics.hh"
#include "driver/system_setup.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"
#include "sim/scale.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace driver
{

/** Metrics plus the placement decisions that produced them. */
struct ExperimentResult
{
    RunMetrics metrics;
    TraceSimResult placement;
};

/** Memoized step-A capture for (workload, scale). Thread safe. */
const trace::WorkloadTrace &workloadTrace(const std::string &name,
                                          const SimScale &scale);

/**
 * Number of actual trace captures the memo has performed so far
 * (cache misses). Lets tests prove that N concurrent requests for
 * one (workload, scale) run exactly one capture.
 */
std::uint64_t workloadTraceCaptures();

/** Run the full pipeline for one configuration. */
ExperimentResult runExperiment(const std::string &workload,
                               const SystemSetup &setup,
                               const SimScale &scale =
                                   SimScale::sc1());

/**
 * The Table III reference point: the workload's detailed socket
 * executing with all pages in local memory.
 */
RunMetrics runSingleSocket(const std::string &workload,
                           const SimScale &scale = SimScale::sc1());

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_EXPERIMENT_HH
