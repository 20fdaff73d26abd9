/**
 * @file
 * Workload interface and registry. Each workload implements the
 * real algorithm of its paper counterpart (§IV-E) against the
 * traced simulated address space: setup() builds the dataset with
 * parallel, partitioned initialization (seeding first-touch
 * placement), and step() executes a small unit of one logical
 * thread's work. capture() cooperatively round-robins threads in
 * ~2k-instruction quanta until every thread reaches the scale's
 * instruction target, yielding the per-thread memory traces of
 * step A.
 */

#ifndef STARNUMA_WORKLOADS_WORKLOAD_HH
#define STARNUMA_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/scale.hh"
#include "sim/types.hh"
#include "trace/capture.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace workloads
{

/** Base class for all traced workload kernels. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name ("bfs", "tpcc", ...). */
    virtual std::string name() const = 0;

    /** Build datasets; runs inside the capture's setup mode. */
    virtual void setup(trace::CaptureContext &ctx,
                       const SimScale &scale) = 0;

    /**
     * Execute a small unit of work for thread @p t. Must advance
     * @p t's instruction count by at least one.
     */
    virtual void step(ThreadId t, trace::CaptureContext &ctx) = 0;

    /** Run setup + cooperative stepping; produce the trace. */
    trace::WorkloadTrace capture(const SimScale &scale);
};

/** Names of all registered workloads, in the paper's Fig 8 order. */
std::vector<std::string> workloadNames();

/** Instantiate a workload by name (fatal on unknown name). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed = 1);

} // namespace workloads
} // namespace starnuma

#endif // STARNUMA_WORKLOADS_WORKLOAD_HH
