#include "driver/sweep.hh"

#include "driver/artifact_cache.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/trace_session.hh"
#include "sim/parallel.hh"

namespace starnuma
{
namespace driver
{

std::vector<ExperimentResult>
runSweep(const std::vector<SweepJob> &jobs)
{
    std::vector<ExperimentResult> results =
        ThreadPool::global().parallelMap<ExperimentResult>(
            jobs.size(), [&jobs](std::size_t i) {
                const SweepJob &job = jobs[i];
                obs::TraceSpan span(
                    "sweep " + job.workload + " / " +
                        (job.singleSocket ? "single-socket"
                                          : job.setup.name),
                    "sweep",
                    obs::TraceArgs()
                        .add("job",
                             static_cast<std::uint64_t>(i))
                        .str());
                if (job.singleSocket) {
                    ExperimentResult r;
                    r.metrics =
                        runSingleSocket(job.workload, job.scale);
                    return r;
                }
                return runExperiment(job.workload, job.setup,
                                     job.scale);
            });
    // Cache-tier attribution for this sweep (DESIGN.md §16): the
    // counters are process-wide, so they are sampled after the join
    // barrier above and only while both the cache and the run sink
    // are on — an uncached sweep's stats artifact is unchanged.
    obs::RunSink &sink = obs::RunSink::global();
    if (sink.enabled() && ArtifactCache::global().enabled())
        sink.add("sweep.cache.", sweepCacheSnapshot());
    return results;
}

std::vector<SweepJob>
crossJobs(const std::vector<std::string> &workloads,
          const std::vector<SystemSetup> &setups,
          const SimScale &scale)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * setups.size());
    for (const auto &w : workloads)
        for (const auto &s : setups)
            jobs.push_back({w, s, scale, false});
    return jobs;
}

} // namespace driver
} // namespace starnuma
