/**
 * @file
 * Parallel experiment sweeps: fan whole (workload, system, scale)
 * pipelines out across sim/parallel.hh's worker pool, the way the
 * paper's evaluation runs its dozens of independent configuration
 * pipelines (§IV, §V). Each entry is an independent runExperiment
 * call; the process-wide trace memo guarantees one capture per
 * (workload, scale) no matter how many entries share it, and
 * results return in the caller's entry order — so a sweep's output
 * is bitwise-identical to running the same entries serially.
 *
 * Locking contract (DESIGN.md §10): this layer owns no mutex. All
 * cross-thread state lives behind ThreadPool's annotated Mutex
 * (sim/parallel.hh) and experiment.cc's trace-memo Mutex; runSweep
 * writes each out[i] from exactly one pool task and reads them only
 * after the parallelFor barrier, which is the happens-before edge.
 */

#ifndef STARNUMA_DRIVER_SWEEP_HH
#define STARNUMA_DRIVER_SWEEP_HH

#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/system_setup.hh"
#include "sim/scale.hh"

namespace starnuma
{
namespace driver
{

/** One entry of a sweep: a full three-step pipeline to run. */
struct SweepJob
{
    std::string workload;
    SystemSetup setup;
    SimScale scale = SimScale::sc1();

    /**
     * Run the Table III "single-socket execution with local memory"
     * reference instead of the full system described by setup.
     */
    bool singleSocket = false;
};

/**
 * Run every job across the worker pool; out[i] is job i's result
 * (for singleSocket jobs only .metrics is populated). Deterministic:
 * the result vector does not depend on the pool size or schedule.
 */
std::vector<ExperimentResult> runSweep(
    const std::vector<SweepJob> &jobs);

/** All (workload, setup) combinations at one scale, row-major in
 *  workload order. */
std::vector<SweepJob> crossJobs(
    const std::vector<std::string> &workloads,
    const std::vector<SystemSetup> &setups, const SimScale &scale);

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_SWEEP_HH
