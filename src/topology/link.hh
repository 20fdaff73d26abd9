/**
 * @file
 * A bidirectional coherent link (UPI, NUMALink, or CXL) with a
 * fluid-queue contention model per direction: each message occupies
 * the direction for its serialization time, and a message arriving
 * while the direction is busy queues behind it. This captures the
 * queuing delays that §II-A identifies as the dominant loaded-system
 * NUMA cost, at a fraction of a flit-level network model's expense.
 */

#ifndef STARNUMA_TOPOLOGY_LINK_HH
#define STARNUMA_TOPOLOGY_LINK_HH

#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace topology
{

/** Kind of coherent link; determines bandwidth and latency class. */
enum class LinkType
{
    UPI,      ///< intra-chassis socket-to-socket or socket-to-ASIC
    NUMALink, ///< inter-chassis ASIC-to-ASIC
    CXL       ///< socket-to-pool
};

/** Direction selector for a bidirectional link. */
enum class Dir : std::uint8_t { Forward = 0, Backward = 1 };

/** One bidirectional link with independent per-direction queues. */
class Link
{
  public:
    Link(LinkType type, double bandwidth_gbps,
         Cycles one_way_latency, std::string name);

    LinkType type() const { return linkType; }
    const std::string &name() const { return name_; }
    Cycles propagation() const { return propLatency; }
    double bandwidthGbps() const { return gbps; }

    /**
     * Send @p bytes in direction @p dir starting no earlier than
     * @p now. Updates occupancy and stats.
     *
     * @return cycle at which the message arrives at the far end.
     */
    Cycles transfer(Dir dir, Cycles now, Addr bytes);

    /**
     * Arrival time if the message were sent on an idle link; does
     * not mutate state (used for unloaded-latency accounting).
     */
    Cycles
    unloadedArrival(Cycles now, Addr bytes) const
    {
        return now + serializationCycles(bytes, gbps) + propLatency;
    }

    /** Bytes moved in @p dir since construction. */
    std::uint64_t bytesMoved(Dir dir) const;

    /** Cycles the direction was busy serializing. */
    Cycles busyCycles(Dir dir) const;

    /** Mean queueing delay per message in @p dir, cycles. */
    double meanQueueDelay(Dir dir) const;

    /** Utilization of @p dir over [0, @p horizon]. */
    double utilization(Dir dir, Cycles horizon) const;

    /** Register per-direction counters under prefix.{fwd,bwd}. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    struct Direction
    {
        Cycles nextFree;
        std::uint64_t bytes = 0;
        Cycles busy;
        stats::Mean queueDelay;
    };

    Direction &side(Dir dir) { return dirs[static_cast<int>(dir)]; }
    const Direction &
    side(Dir dir) const
    {
        return dirs[static_cast<int>(dir)];
    }

    LinkType linkType;
    double gbps;
    Cycles propLatency;
    std::string name_;
    Direction dirs[2];
};

} // namespace topology
} // namespace starnuma

#endif // STARNUMA_TOPOLOGY_LINK_HH
