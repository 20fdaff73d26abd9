/**
 * @file
 * The shared TLB directory StarNUMA adopts from DiDi [64]
 * (§III-D3): a structure that tracks which cores currently cache a
 * translation of each page, so a migration's TLB shootdowns are
 * sent only to the cores that actually hold the entry, and victim
 * cores handle the invalidation entirely in hardware. Without it,
 * every migrated page interrupts every core in the system.
 *
 * The directory is maintained alongside the per-core TlbAnnex
 * instances during trace simulation; its hit statistics quantify
 * how many IPIs the hardware support eliminates.
 */

#ifndef STARNUMA_CORE_TLB_DIRECTORY_HH
#define STARNUMA_CORE_TLB_DIRECTORY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace core
{

/** Holder bit-set: up to 256 cores (4 x 64-bit words). */
struct TlbHolderMask
{
    std::array<std::uint64_t, 4> words{};

    void set(int core) { words[core >> 6] |= 1ULL << (core & 63); }
    void clear(int core)
    {
        words[core >> 6] &= ~(1ULL << (core & 63));
    }
    bool
    test(int core) const
    {
        return words[core >> 6] & (1ULL << (core & 63));
    }
    bool
    any() const
    {
        return words[0] | words[1] | words[2] | words[3];
    }
    int count() const;
};

/** Full-map directory over TLB-resident translations. */
class TlbDirectory
{
  public:
    explicit TlbDirectory(int cores);

    /**
     * Switch to flat-table storage over page numbers
     * [base, base + pages). Must be called while no translation is
     * tracked; every page filled afterwards must fall in the range.
     */
    void preallocate(PageNum base, std::size_t pages);

    /** Core @p core filled a TLB entry for page number @p page. */
    // lint: hot-path one fill per TLB miss
    void
    fill(PageNum page, int core)
    {
        sn_assert(core >= 0 && core < cores,
                  "fill by unknown core %d", core);
        if (flat.empty()) {
            map[page].set(core);
        } else {
            TlbHolderMask &m = flat[flatSlot(page)];
            if (!m.any())
                ++flatTracked;
            m.set(core);
        }
    }

    /** Core @p core evicted its TLB entry for @p page. */
    // lint: hot-path one eviction per TLB replacement
    void
    evict(PageNum page, int core)
    {
        if (flat.empty()) {
            auto it = map.find(page);
            if (it == map.end())
                return;
            it->second.clear(core);
            if (!it->second.any())
                map.erase(it);
        } else {
            TlbHolderMask &m = flat[flatSlot(page)];
            if (!m.any())
                return;
            m.clear(core);
            if (!m.any())
                --flatTracked;
        }
    }

    /** Holder set of cores currently caching @p page. */
    TlbHolderMask holders(PageNum page) const;

    /** Number of cores currently caching @p page. */
    int holderCount(PageNum page) const;

    /**
     * Shoot down @p page: clears the page's entry and returns how
     * many cores actually needed an invalidation — the number of
     * shootdown messages DiDi sends, versus @p totalCores IPIs for
     * a conventional software shootdown.
     */
    int shootdown(PageNum page);

    /** Pages with at least one holder. */
    std::size_t
    trackedPages() const
    {
        return flat.empty() ? map.size() : flatTracked;
    }

    // Cumulative statistics.
    std::uint64_t shootdownsSent() const { return sent_; }
    std::uint64_t shootdownsSaved() const { return saved_; }

    /**
     * Fraction of per-core invalidations avoided relative to
     * broadcasting to all cores.
     */
    double savingsRatio() const;

    /** Register shootdown counters and the savings ratio. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    /** Flat-mode slot of @p page (panics when out of range). */
    std::size_t
    flatSlot(PageNum page) const
    {
        std::uint64_t slot = page.value() - flatBase.value();
        sn_assert(slot < flat.size(),
                  "page outside the preallocated range");
        return static_cast<std::size_t>(slot);
    }

    int cores;
    FlatMap<PageNum, TlbHolderMask> map;
    std::vector<TlbHolderMask> flat; // flat mode: mask per slot
    PageNum flatBase{0};
    std::size_t flatTracked = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t saved_ = 0;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_TLB_DIRECTORY_HH
