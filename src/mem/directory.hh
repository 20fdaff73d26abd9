/**
 * @file
 * Directory-based MESI coherence at cache-block granularity,
 * tracked per socket (i.e., per shared LLC), as §III-C prescribes:
 * directory information is distributed across sockets and the pool
 * aligned with the address space; accesses missing in their
 * originating socket are routed to the home node, which initiates
 * all subsequent coherence actions.
 *
 * The directory distinguishes the two block-transfer shapes of
 * Fig 4: a 3-hop cache-to-cache transfer when the home is a socket
 * (R -> H -> O -> R) and a 4-hop transfer through the pool when the
 * home is the pool (R -> H -> O -> H -> R).
 */

#ifndef STARNUMA_MEM_DIRECTORY_HH
#define STARNUMA_MEM_DIRECTORY_HH

#include <cstdint>
#include <string>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace mem
{

/** What the directory decided for one LLC-missing access. */
struct CoherenceResult
{
    /** Data supplied by another socket's cache, not by memory. */
    bool blockTransfer = false;

    /** Supplier socket when blockTransfer is set. */
    NodeId owner = -1;

    /** True when the transfer is the 4-hop via-pool shape. */
    bool viaPool = false;

    /** Number of remote sharers invalidated (writes only). */
    int invalidations = 0;

    /** Bit mask of the sockets that were invalidated. */
    std::uint64_t invalidatedMask = 0;
};

/** Distributed full-map MESI directory (bit-vector of sockets). */
class Directory
{
  public:
    explicit Directory(int sockets);

    /**
     * Record an LLC miss for @p block by socket @p requester,
     * homed at @p home (a socket or the pool node id).
     *
     * @param write true for stores (requests ownership).
     * @return the coherence actions the protocol performs.
     */
    CoherenceResult access(Addr block, NodeId requester, bool write,
                           NodeId home);

    /**
     * Socket @p socket dropped @p block from its LLC (capacity
     * eviction or shootdown); clears its presence bit.
     */
    void evict(Addr block, NodeId socket);

    /** True if any socket caches @p block. */
    bool cached(Addr block) const;

    /** Number of sockets currently sharing @p block. */
    int sharers(Addr block) const;

    /** Dirty-owner socket of @p block, or -1. */
    NodeId dirtyOwner(Addr block) const;

    /** Blocks with at least one presence bit set. */
    std::size_t trackedBlocks() const { return entries.size(); }

    // Aggregate stats for §V-A's coherence-activity discussion.
    std::uint64_t transactions() const { return transactions_; }
    std::uint64_t blockTransfers() const { return blockTransfers_; }
    std::uint64_t poolTransfers() const { return poolTransfers_; }
    std::uint64_t invalidations() const { return invalidations_; }

    /** Register the aggregate coherence counters. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    struct Entry
    {
        std::uint64_t sharerMask = 0;
        NodeId owner = -1; ///< dirty owner, -1 when block is clean
    };

    int sockets;
    NodeId poolNode;
    FlatMap<Addr, Entry> entries;
    std::uint64_t transactions_;
    std::uint64_t blockTransfers_;
    std::uint64_t poolTransfers_;
    std::uint64_t invalidations_;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_DIRECTORY_HH
