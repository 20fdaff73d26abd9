#include "workloads/workload.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "workloads/gap.hh"
#include "workloads/genomics.hh"
#include "workloads/kvstore.hh"
#include "workloads/tpcc.hh"

namespace starnuma
{
namespace workloads
{

// lint: artifact-root step_a_trace
trace::WorkloadTrace
Workload::capture(const SimScale &scale)
{
    trace::CaptureContext ctx(scale.threads());
    ctx.beginSetup();
    setup(ctx, scale);
    ctx.endSetup();

    std::uint64_t target = static_cast<std::uint64_t>(scale.phases) *
                           scale.phaseInstructions;
    constexpr std::uint64_t quantum = 2000;

    for (std::uint64_t q = quantum;; q += quantum) {
        bool all_done = true;
        std::uint64_t goal = std::min(q, target);
        for (ThreadId t = 0; t < scale.threads(); ++t) {
            while (ctx.instructions(t) < goal) {
                std::uint64_t before = ctx.instructions(t);
                step(t, ctx);
                sn_assert(ctx.instructions(t) > before,
                          "workload %s made no progress on thread "
                          "%d", name().c_str(), t);
            }
            all_done &= ctx.instructions(t) >= target;
        }
        if (all_done)
            break;
    }
    return ctx.take(name(), target);
}

std::vector<std::string>
workloadNames()
{
    return {"sssp", "bfs", "cc", "tc", "masstree", "tpcc", "fmi",
            "poa"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "bfs")
        return std::make_unique<Bfs>(seed);
    if (name == "cc")
        return std::make_unique<ConnectedComponents>(seed);
    if (name == "sssp")
        return std::make_unique<Sssp>(seed);
    if (name == "tc")
        return std::make_unique<TriangleCount>(seed);
    if (name == "masstree")
        return std::make_unique<KvStore>(seed);
    if (name == "tpcc")
        return std::make_unique<Tpcc>(seed);
    if (name == "fmi")
        return std::make_unique<Fmi>(seed);
    if (name == "poa")
        return std::make_unique<Poa>(seed);
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace workloads
} // namespace starnuma
