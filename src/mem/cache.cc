#include "mem/cache.hh"

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace mem
{

Cache::Cache(const CacheConfig &config)
    : ways(config.ways), hits_(0), misses_(0), evictions_(0)
{
    sn_assert(config.ways > 0 && config.sizeBytes >= blockBytes,
              "bad cache geometry");
    // size / (block x ways) sets, rounded up to a power of two, >= 1.
    std::uint32_t n = 1;
    while (n < config.sizeBytes / (blockBytes * config.ways))
        n <<= 1;
    setMask = n - 1;
    tags.assign(static_cast<std::size_t>(n) * ways, emptyWay);
}

std::uint32_t
Cache::blockNumber(Addr addr)
{
    // Trace records keep 31-bit block numbers (MemRecord), and
    // CaptureContext::alloc stops short of the last one; above it a
    // block would alias the dirty bit or the empty-way sentinel.
    Addr block = addr / blockBytes;
    sn_assert(block < (emptyWay & ~dirtyBit),
              "block %#llx is beyond the cache's block numbers",
              static_cast<unsigned long long>(block));
    return static_cast<std::uint32_t>(block);
}

int
Cache::find(const std::uint32_t *set, std::uint32_t block) const
{
    // An empty way never matches: its masked sentinel is above every
    // block number.
    int w = 0;
    while (w < ways && (set[w] & ~dirtyBit) != block)
        ++w;
    return w;
}

CacheAccess
Cache::access(Addr addr, bool write)
{
    std::uint32_t block = blockNumber(addr);
    std::uint32_t *set = &tags[setBase(block)];
    std::uint32_t entry = write ? block | dirtyBit : block;

    CacheAccess result;
    int w = find(set, block);
    if (w < ways) {
        entry |= set[w] & dirtyBit;
        ++hits_;
        result.hit = true;
    } else {
        // The last way is the least recently used block, or empty
        // when the set still has room.
        w = ways - 1;
        ++misses_;
        if (set[w] != emptyWay) {
            ++evictions_;
            result.evicted = true;
            result.victim = Addr(set[w] & ~dirtyBit) * blockBytes;
            result.victimDirty = (set[w] & dirtyBit) != 0;
        }
    }
    // Shift the more recent ways down one slot and put the block in
    // front.
    for (; w > 0; --w)
        set[w] = set[w - 1];
    set[0] = entry;
    return result;
}

bool
Cache::contains(Addr addr) const
{
    std::uint32_t block = blockNumber(addr);
    return find(&tags[setBase(block)], block) < ways;
}

bool
Cache::invalidate(Addr addr)
{
    std::uint32_t block = blockNumber(addr);
    std::uint32_t *set = &tags[setBase(block)];
    int w = find(set, block);
    if (w == ways)
        return false;
    // Close the gap so the valid ways stay a prefix, MRU order kept.
    for (; w + 1 < ways; ++w)
        set[w] = set[w + 1];
    set[ways - 1] = emptyWay;
    return true;
}

int
Cache::invalidatePage(Addr addr)
{
    int dropped = 0;
    Addr page = pageAddr(addr);
    for (Addr block = page; block < page + pageBytes;
         block += blockBytes)
        dropped += invalidate(block);
    return dropped;
}

// lint: cold-path stats export, once per run when observing
void
Cache::registerStats(obs::Registry &r,
                     const std::string &prefix) const
{
    r.addCounter(prefix + ".hits", &hits_);
    r.addCounter(prefix + ".misses", &misses_);
    r.addCounter(prefix + ".evictions", &evictions_);
    r.addGaugeFn(prefix + ".hitRate",
                 [this] { return hitRate(); });
}

} // namespace mem
} // namespace starnuma
