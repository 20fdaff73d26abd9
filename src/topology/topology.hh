/**
 * @file
 * The system interconnect: sockets grouped into chassis, all-to-all
 * UPI within a chassis, FLEX-ASIC + NUMALink between chassis, and
 * (for StarNUMA) a per-socket CXL link to the shared memory pool
 * (Fig 1). Routes are precomputed per node pair; traversals apply
 * per-link fluid-queue contention.
 *
 * FLEX ASIC crossing latency is folded into the NUMALink
 * propagation latency (numalinkNs + 2 * flexAsicNs per direction),
 * which preserves the paper's end-to-end unloaded sums exactly.
 */

#ifndef STARNUMA_TOPOLOGY_TOPOLOGY_HH
#define STARNUMA_TOPOLOGY_TOPOLOGY_HH

#include <memory>
#include <vector>

#include "sim/types.hh"
#include "topology/link.hh"
#include "topology/system_config.hh"

namespace starnuma
{
namespace topology
{

/** Distance class of a memory access, for AMAT decomposition. */
enum class AccessClass
{
    Local,   ///< same socket (80 ns unloaded)
    OneHop,  ///< same chassis, one UPI crossing (130 ns)
    TwoHop,  ///< different chassis, via NUMALink (360 ns)
    Pool     ///< CXL memory pool (180 ns)
};

/** Printable name of an access class. */
const char *accessClassName(AccessClass c);

/** A unidirectional use of one link along a route. */
struct Hop
{
    int link;
    Dir dir;
};

/** Precomputed path between two nodes. */
struct Route
{
    std::vector<Hop> hops;
};

/**
 * The interconnect of one system configuration. Node ids 0..S-1 are
 * sockets; node S is the pool (when configured). FLEX ASICs are
 * interior devices: they appear as link endpoints but are not
 * addressable nodes.
 */
class Topology
{
  public:
    explicit Topology(const SystemConfig &config);

    const SystemConfig &config() const { return cfg; }
    int sockets() const { return cfg.sockets; }
    bool hasPool() const { return cfg.hasPool; }
    NodeId poolNode() const { return cfg.poolNode(); }

    /** Total addressable nodes (sockets + pool when present). */
    int nodes() const { return cfg.sockets + (cfg.hasPool ? 1 : 0); }

    /** Chassis index of a socket. */
    int
    chassisOf(NodeId socket) const
    {
        return static_cast<int>(socket) / cfg.socketsPerChassis;
    }

    /** Distance class between a requesting socket and a home node. */
    AccessClass classify(NodeId src, NodeId dst) const;

    /** Unloaded one-way network latency between nodes, cycles. */
    Cycles unloadedOneWay(NodeId src, NodeId dst) const;

    /**
     * Unloaded end-to-end memory access latency (on-chip + network
     * roundtrip + DRAM) for an access from @p src homed at @p dst.
     */
    Cycles unloadedMemoryAccess(NodeId src, NodeId dst) const;

    /**
     * Move @p bytes from @p src to @p dst starting at @p now, with
     * contention on every link along the route.
     *
     * @return arrival cycle at @p dst.
     */
    Cycles send(NodeId src, NodeId dst, Cycles now, Addr bytes);

    /** Route table entry (exposed for tests and analytics). */
    const Route &route(NodeId src, NodeId dst) const;

    /** All links (for stats reporting). */
    const std::vector<Link> &links() const { return links_; }
    std::vector<Link> &links() { return links_; }

    /** Number of links of @p type. */
    int countLinks(LinkType type) const;

    /** Aggregate bytes moved over links of @p type. */
    std::uint64_t bytesByType(LinkType type) const;

    /** Register every link's counters under prefix.link.<name>. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    int addLink(LinkType type, double gbps, double one_way_ns,
                std::string name);
    void buildLinks();
    void buildRoutes();

    /** Index of the FLEX ASIC a socket attaches to. */
    int asicOf(NodeId socket) const;

    SystemConfig cfg;
    std::vector<Link> links_;

    // linkBetween[a][b]: link connecting interior graph vertices a
    // and b (sockets, then ASICs, then pool), -1 if none. Forward
    // direction is a -> b for a < b.
    std::vector<std::vector<int>> linkBetween;

    std::vector<std::vector<Route>> routes;
};

} // namespace topology
} // namespace starnuma

#endif // STARNUMA_TOPOLOGY_TOPOLOGY_HH
