/**
 * @file
 * Set-associative write-back cache with LRU replacement. Used in
 * two roles: the per-socket shared LLC of the detailed socket, and
 * the "LLC-sized cache" each light socket keeps to filter accesses
 * and support coherence modeling (§IV-B). Trace capture's private
 * filter is trace::CaptureFilter, which hits exactly where this
 * cache would (DESIGN.md §18).
 */

#ifndef STARNUMA_MEM_CACHE_HH
#define STARNUMA_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include <string>

#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace mem
{

/** Geometry of a cache. */
struct CacheConfig
{
    Addr sizeBytes;
    int ways;
};

/** Outcome of a cache access, including any evicted victim. */
struct CacheAccess
{
    bool hit = false;
    bool evicted = false;      ///< a valid victim block was replaced
    Addr victim = 0;           ///< block address of the victim
    bool victimDirty = false;  ///< victim needs writeback
};

/** Tag-only set-associative cache model (no data storage). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up the block containing @p addr, allocating on miss.
     * @param write marks the block dirty.
     */
    CacheAccess access(Addr addr, bool write);

    /** True if the block containing @p addr is present. */
    bool contains(Addr addr) const;

    /**
     * Remove the block containing @p addr (coherence invalidation
     * or page-migration shootdown).
     * @return true if the block was present.
     */
    bool invalidate(Addr addr);

    /** Invalidate every block of the page containing @p addr. */
    int invalidatePage(Addr addr);

    /** Drop all contents and zero the stats. */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Fraction of accesses that hit. */
    double
    hitRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) /
                           static_cast<double>(total)
                     : 0.0;
    }

    std::size_t sets() const { return sets_.size() / ways; }
    int associativity() const { return ways; }

    /** Register hit/miss/eviction counters and the hit rate. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::size_t setIndex(Addr block) const;

    // Lines stored set-major: set s occupies [s*ways, (s+1)*ways).
    std::vector<Line> sets_;
    int ways;
    std::size_t numSets;
    std::uint64_t useClock;
    std::uint64_t hits_;
    std::uint64_t misses_;
    std::uint64_t evictions_;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_CACHE_HH
