#include "topology/topology.hh"

#include <string>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace topology
{

const char *
accessClassName(AccessClass c)
{
    switch (c) {
      case AccessClass::Local:  return "local";
      case AccessClass::OneHop: return "1-hop";
      case AccessClass::TwoHop: return "2-hop";
      case AccessClass::Pool:   return "pool";
    }
    return "?";
}

Topology::Topology(const SystemConfig &config) : cfg(config)
{
    sn_assert(cfg.sockets % cfg.socketsPerChassis == 0,
              "sockets must be a multiple of sockets per chassis");
    sn_assert(cfg.socketsPerChassis % 2 == 0,
              "need an even socket count per chassis (2 per ASIC)");
    buildLinks();
    buildRoutes();
}

int
Topology::asicOf(NodeId socket) const
{
    int c = chassisOf(socket);
    int local = static_cast<int>(socket) % cfg.socketsPerChassis;
    int half = cfg.socketsPerChassis / 2;
    return cfg.sockets + 2 * c + (local / half);
}

int
Topology::addLink(LinkType type, double gbps, double one_way_ns,
                  std::string name)
{
    links_.emplace_back(type, gbps, nsToCycles(one_way_ns),
                        std::move(name));
    return static_cast<int>(links_.size()) - 1;
}

void
Topology::buildLinks()
{
    // Interior vertices: sockets, then 2 ASICs per chassis, then
    // (optionally) the pool.
    int asics = 2 * cfg.chassis();
    int vertices = cfg.sockets + asics + (cfg.hasPool ? 1 : 0);
    linkBetween.assign(vertices, std::vector<int>(vertices, -1));

    auto connect = [&](int a, int b, LinkType t, double gbps,
                       double ns, const std::string &name) {
        sn_assert(linkBetween[a][b] == -1, "duplicate link %s",
                  name.c_str());
        int id = addLink(t, gbps, ns, name);
        linkBetween[a][b] = id;
        linkBetween[b][a] = id;
    };

    // Intra-chassis all-to-all socket-to-socket UPI.
    for (int c = 0; c < cfg.chassis(); ++c) {
        int base = c * cfg.socketsPerChassis;
        for (int i = 0; i < cfg.socketsPerChassis; ++i)
            for (int j = i + 1; j < cfg.socketsPerChassis; ++j)
                connect(base + i, base + j, LinkType::UPI,
                        cfg.upiGbps, cfg.upiNs,
                        "upi-s" + std::to_string(base + i) + "-s" +
                            std::to_string(base + j));
    }

    // One UPI link from each socket to its FLEX ASIC.
    for (NodeId s = 0; s < cfg.sockets; ++s)
        connect(s, asicOf(s), LinkType::UPI, cfg.upiGbps, cfg.upiNs,
                "upi-s" + std::to_string(s) + "-a" +
                    std::to_string(asicOf(s) - cfg.sockets));

    // NUMALinks between every pair of FLEX ASICs (8C2 = 28 on the
    // 16-socket system, §II-A). Both ASIC crossings are folded into
    // the link's propagation latency.
    double nl_ns = cfg.numalinkNs + 2 * cfg.flexAsicNs;
    for (int a = 0; a < asics; ++a)
        for (int b = a + 1; b < asics; ++b)
            connect(cfg.sockets + a, cfg.sockets + b,
                    LinkType::NUMALink, cfg.numalinkGbps, nl_ns,
                    "numalink-a" + std::to_string(a) + "-a" +
                        std::to_string(b));

    // Star of CXL links: one per socket, directly to the pool.
    if (cfg.hasPool) {
        int pool_vertex = cfg.sockets + asics;
        for (NodeId s = 0; s < cfg.sockets; ++s)
            connect(s, pool_vertex, LinkType::CXL, cfg.cxlGbps,
                    cfg.cxlOneWayNs,
                    "cxl-s" + std::to_string(s) + "-pool");
    }
}

void
Topology::buildRoutes()
{
    int n = nodes();
    int asics = 2 * cfg.chassis();
    int pool_vertex = cfg.sockets + asics;

    auto vertex = [&](NodeId node) {
        return node == cfg.poolNode() ? pool_vertex
                                      : static_cast<int>(node);
    };
    auto hop = [&](int a, int b) {
        int id = linkBetween[a][b];
        sn_assert(id >= 0, "no link between vertices %d and %d", a, b);
        // Forward direction is low-vertex -> high-vertex.
        return Hop{id, a < b ? Dir::Forward : Dir::Backward};
    };

    routes.assign(n, std::vector<Route>(n));
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (src == dst)
                continue;
            Route &r = routes[src][dst];
            if (src == cfg.poolNode() || dst == cfg.poolNode()) {
                // Pool routes are a single CXL hop; pool-to-socket
                // is the reverse direction of the socket's link.
                r.hops.push_back(hop(vertex(src), vertex(dst)));
            } else if (chassisOf(src) == chassisOf(dst)) {
                r.hops.push_back(hop(src, dst));
            } else {
                int a_src = asicOf(src);
                int a_dst = asicOf(dst);
                r.hops.push_back(hop(src, a_src));
                r.hops.push_back(hop(a_src, a_dst));
                r.hops.push_back(hop(a_dst, dst));
            }
        }
    }
}

AccessClass
Topology::classify(NodeId src, NodeId dst) const
{
    if (cfg.hasPool && dst == cfg.poolNode())
        return AccessClass::Pool;
    if (src == dst)
        return AccessClass::Local;
    if (chassisOf(src) == chassisOf(dst))
        return AccessClass::OneHop;
    return AccessClass::TwoHop;
}

Cycles
Topology::unloadedOneWay(NodeId src, NodeId dst) const
{
    Cycles total;
    for (const Hop &h : route(src, dst).hops)
        total += links_[h.link].propagation();
    return total;
}

Cycles
Topology::unloadedMemoryAccess(NodeId src, NodeId dst) const
{
    return nsToCycles(cfg.onChipNs) + 2 * unloadedOneWay(src, dst) +
           nsToCycles(cfg.dramNs);
}

Cycles
Topology::send(NodeId src, NodeId dst, Cycles now, Addr bytes)
{
    for (const Hop &h : route(src, dst).hops)
        now = links_[h.link].transfer(h.dir, now, bytes);
    return now;
}

const Route &
Topology::route(NodeId src, NodeId dst) const
{
    sn_assert(src >= 0 && src < nodes() && dst >= 0 && dst < nodes(),
              "route endpoints out of range (%d, %d)", src, dst);
    return routes[src][dst];
}

int
Topology::countLinks(LinkType type) const
{
    int n = 0;
    for (const Link &l : links_)
        if (l.type() == type)
            ++n;
    return n;
}

std::uint64_t
Topology::bytesByType(LinkType type) const
{
    std::uint64_t total = 0;
    for (const Link &l : links_) {
        if (l.type() == type)
            total += l.bytesMoved(Dir::Forward) +
                     l.bytesMoved(Dir::Backward);
    }
    return total;
}

// lint: cold-path stats export, once per run when observing
void
Topology::registerStats(obs::Registry &r,
                        const std::string &prefix) const
{
    for (const Link &l : links_)
        l.registerStats(r, prefix + ".link." + l.name());
}

} // namespace topology
} // namespace starnuma
