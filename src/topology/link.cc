#include "topology/link.hh"

#include <algorithm>

#include "sim/obs/registry.hh"

namespace starnuma
{
namespace topology
{

Link::Link(LinkType type, double bandwidth_gbps,
           Cycles one_way_latency, std::string name)
    : linkType(type), gbps(bandwidth_gbps),
      propLatency(one_way_latency), name_(std::move(name))
{
}

Cycles
Link::transfer(Dir dir, Cycles now, Addr bytes)
{
    Direction &d = side(dir);
    Cycles start = std::max(now, d.nextFree);
    Cycles ser = serializationCycles(bytes, gbps);
    d.queueDelay.sample(static_cast<double>((start - now).value()));
    d.nextFree = start + ser;
    d.bytes += bytes;
    d.busy += ser;
    return start + ser + propLatency;
}

std::uint64_t
Link::bytesMoved(Dir dir) const
{
    return side(dir).bytes;
}

Cycles
Link::busyCycles(Dir dir) const
{
    return side(dir).busy;
}

double
Link::meanQueueDelay(Dir dir) const
{
    return side(dir).queueDelay.mean();
}

double
Link::utilization(Dir dir, Cycles horizon) const
{
    if (horizon == Cycles())
        return 0.0;
    return static_cast<double>(side(dir).busy.value()) /
           static_cast<double>(horizon.value());
}

// lint: cold-path stats export, once per run when observing
void
Link::registerStats(obs::Registry &r,
                    const std::string &prefix) const
{
    const char *dirName[2] = {"fwd", "bwd"};
    for (int d = 0; d < 2; ++d) {
        const Direction &s = dirs[d];
        std::string p = prefix + "." + dirName[d];
        r.addCounter(p + ".bytes", &s.bytes);
        r.addCounterFn(p + ".busyCycles",
                       [&s] { return s.busy.value(); });
        r.addMean(p + ".queueDelay", &s.queueDelay);
    }
}

} // namespace topology
} // namespace starnuma
