/**
 * @file
 * Per-core TLB with the counter annex of §III-D1 (after [41], [47]):
 * each TLB entry carries an i-bit counter incremented on every
 * LLC-missing load to its page. On TLB eviction the hardware page
 * table walker folds the annex value into the in-memory metadata
 * region. A per-entry marker bit, set once per migration phase,
 * forces hot never-evicted entries to flush their counts on their
 * next access.
 */

#ifndef STARNUMA_CORE_TLB_ANNEX_HH
#define STARNUMA_CORE_TLB_ANNEX_HH

#include <cstdint>
#include <vector>

#include "core/region_tracker.hh"
#include "core/tlb_directory.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace core
{

/** Geometry of the TLB the annex extends. */
struct TlbConfig
{
    int entries = 64;
    int ways = 4;
};

/** A core's TLB + counter annex, feeding one RegionTracker. */
class TlbAnnex
{
  public:
    /**
     * @param socket the socket this core belongs to (its presence
     *        bit in the tracker).
     */
    TlbAnnex(const TlbConfig &config, RegionTracker &owning_tracker,
             NodeId socket_id);

    /**
     * Record an LLC-missing access to @p vaddr: TLB lookup (fill on
     * miss, flushing any evicted entry's annex), counter increment,
     * and marker-triggered flush.
     */
    void recordAccess(Addr vaddr);

    /**
     * Record @p count consecutive LLC-missing accesses to @p vaddr.
     * Identical to calling recordAccess(vaddr) @p count times: the
     * first access makes the page resident and nothing can evict it
     * mid-run, so the remaining count-1 are guaranteed hits with a
     * clear marker bit, applied in one batch.
     */
    void recordAccessRun(Addr vaddr, std::uint64_t count);

    /** Set the marker bit on every entry (once per phase). */
    void setMarkers();

    /** Flush every annex counter to the tracker (end of phase). */
    void flushAll();

    /**
     * Invalidate the translation of page number @p page if cached
     * (a TLB shootdown for a migrating page); flushes its annex
     * first.
     * @return true if the entry was present.
     */
    bool shootdown(PageNum page);

    std::uint64_t tlbMisses() const { return misses_; }
    std::uint64_t tlbHits() const { return hits_; }
    std::uint64_t annexFlushes() const { return flushes_; }

    /**
     * Attach the DiDi-style shared TLB directory (§III-D3): fills
     * and evictions of this TLB are mirrored there so shootdowns
     * can target only the cores holding a translation.
     */
    void
    attachDirectory(TlbDirectory *dir, int core)
    {
        directory = dir;
        coreId = core;
    }

  private:
    struct Entry
    {
        PageNum page;
        std::uint64_t lastUse = 0;
        std::uint32_t counter = 0;
        bool valid = false;
        bool marker = false;
    };

    void flushEntry(Entry &e);
    std::size_t setOf(PageNum page) const;

    RegionTracker &tracker;
    NodeId socket;
    TlbDirectory *directory = nullptr;
    int coreId = 0;
    int ways;
    std::size_t numSets;
    std::uint32_t counterMax;
    std::vector<Entry> sets;
    std::uint64_t useClock;
    std::uint64_t hits_;
    std::uint64_t misses_;
    std::uint64_t flushes_;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_TLB_ANNEX_HH
