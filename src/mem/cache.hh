/**
 * @file
 * Set-associative write-back cache with LRU replacement. Used in
 * two roles: the per-socket shared LLC of the detailed socket, and
 * the "LLC-sized cache" each light socket keeps to filter accesses
 * and support coherence modeling (§IV-B). Each set holds its ways'
 * u32 block numbers in most-recently-used order, the dirty flag in
 * bit 31, so a 16-way set is one 64 B host cache line and
 * replacement is "drop the last" (DESIGN.md §17). Trace capture's
 * private filter is trace::CaptureFilter, the same layout without
 * dirty bits, victims or invalidation (DESIGN.md §18).
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

    /** Register hit/miss/eviction counters and the hit rate. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    /** Flag of a way whose block must be written back. */
    static constexpr std::uint32_t dirtyBit = 1u << 31;
    /** An empty way; no block number reaches it, dirty or not. */
    static constexpr std::uint32_t emptyWay = ~std::uint32_t(0);

    /** Block number of @p addr, checked below the two flags. */
    static std::uint32_t blockNumber(Addr addr);

    /** Index in tags of the first way of @p block's set. */
    std::size_t
    setBase(std::uint32_t block) const
    {
        return (block & setMask) * static_cast<std::size_t>(ways);
    }

    /** Way of @p block in @p set, or ways when absent. */
    int find(const std::uint32_t *set, std::uint32_t block) const;

    // Set-major: set s occupies [s*ways, (s+1)*ways), MRU first;
    // the valid ways are always a prefix of the set.
    std::vector<std::uint32_t> tags;
    std::uint32_t setMask;
    int ways;
    std::uint64_t hits_;
    std::uint64_t misses_;
    std::uint64_t evictions_;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_CACHE_HH
