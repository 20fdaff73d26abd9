#include "mem/directory.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace mem
{

Directory::Directory(int n_sockets)
    : sockets(n_sockets), poolNode(n_sockets), transactions_(0),
      blockTransfers_(0), poolTransfers_(0), invalidations_(0)
{
    sn_assert(n_sockets > 0 && n_sockets <= 64,
              "directory bit-vector supports up to 64 sockets");
}

CoherenceResult
Directory::access(Addr block, NodeId requester, bool write,
                  NodeId home)
{
    sn_assert(requester >= 0 && requester < sockets,
              "requester %d out of range", requester);
    ++transactions_;

    CoherenceResult result;
    Entry &e = entries[block];
    std::uint64_t req_bit = 1ULL << requester;

    // A dirty copy in another socket's cache supplies the data.
    if (e.owner >= 0 && e.owner != requester) {
        result.blockTransfer = true;
        result.owner = e.owner;
        result.viaPool = (home == poolNode);
        ++blockTransfers_;
        if (result.viaPool)
            ++poolTransfers_;
    }

    if (write) {
        // Invalidate every other sharer; requester becomes the
        // exclusive dirty owner.
        std::uint64_t others = e.sharerMask & ~req_bit;
        result.invalidations = std::popcount(others);
        result.invalidatedMask = others;
        invalidations_ += result.invalidations;
        e.sharerMask = req_bit;
        e.owner = requester;
    } else {
        // The previous dirty owner (if any) downgrades to shared;
        // memory is now up to date.
        e.sharerMask |= req_bit;
        e.owner = -1;
    }
    return result;
}

void
Directory::evict(Addr block, NodeId socket)
{
    auto it = entries.find(block);
    if (it == entries.end())
        return;
    Entry &e = it->second;
    e.sharerMask &= ~(1ULL << socket);
    if (e.owner == socket)
        e.owner = -1;
    if (e.sharerMask == 0)
        entries.erase(it);
}

bool
Directory::cached(Addr block) const
{
    return entries.find(block) != entries.end();
}

int
Directory::sharers(Addr block) const
{
    auto it = entries.find(block);
    return it == entries.end()
               ? 0
               : std::popcount(it->second.sharerMask);
}

NodeId
Directory::dirtyOwner(Addr block) const
{
    auto it = entries.find(block);
    return it == entries.end() ? -1 : it->second.owner;
}

// lint: cold-path stats export, once per run when observing
void
Directory::registerStats(obs::Registry &r,
                         const std::string &prefix) const
{
    r.addCounter(prefix + ".transactions", &transactions_);
    r.addCounter(prefix + ".blockTransfers", &blockTransfers_);
    r.addCounter(prefix + ".poolTransfers", &poolTransfers_);
    r.addCounter(prefix + ".invalidations", &invalidations_);
    r.addCounterFn(prefix + ".trackedBlocks",
                   [this] { return trackedBlocks(); });
}

} // namespace mem
} // namespace starnuma
