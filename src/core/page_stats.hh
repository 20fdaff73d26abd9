/**
 * @file
 * Per-page, per-socket access counting. This is the "zero-cost
 * per-socket knowledge of all accesses to every 4KB page" the paper
 * grants the baseline's migration policy (§IV-C), and the input to
 * the oracular static placement of §V-B. It is deliberately *not*
 * hardware-feasible — that is the point of the comparison with
 * StarNUMA's region-granular T_i trackers.
 *
 * This sits on the baseline's per-record hot path, so the counter
 * blocks live in arena-backed flat storage: a flat table indexed by
 * (page - base) (sim/dense_table.hh) finds the page's block, and the
 * per-socket counters are a contiguous uint32_t array bump-allocated
 * from a chained arena (one malloc'd vector per page would dominate
 * the replay profile).
 */

#ifndef STARNUMA_CORE_PAGE_STATS_HH
#define STARNUMA_CORE_PAGE_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/arena.hh"
#include "sim/dense_table.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace core
{

/** Exact per-socket access counts for every touched page. */
class PageAccessStats
{
  public:
    explicit PageAccessStats(int sockets);

    /**
     * Reserve table slots for page numbers [base, base + pages), so
     * the replay loop never grows the table. Must be called before
     * the first access is recorded.
     */
    void preallocate(PageNum base, std::size_t pages);

    /** Count @p count accesses to page @p page by @p socket. */
    // lint: hot-path one count per replayed record batch (baseline)
    STARNUMA_AUDITED void
    record(PageNum page, NodeId socket, std::uint32_t count = 1)
    {
        std::uint32_t *&block = blocks.slot(page);
        if (!block) {
            block = newBlock();
            noteFirstAccess(page);
        }
        block[socket] += count;
    }

    /** Total accesses to @p page across sockets. */
    std::uint64_t totalAccesses(PageNum page) const;

    /** Number of distinct sockets that accessed @p page. */
    int sharers(PageNum page) const;

    /** Socket with the most accesses to @p page (-1 if untouched). */
    NodeId majoritySocket(PageNum page) const;

    int sockets() const { return sockets_; }

    /**
     * Visit (page, per-socket counts) for every touched page, in
     * first-access order; @p counts points at sockets() entries.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (PageNum page : order)
            fn(page, findBlock(page));
    }

    /** Drop all counts; arena storage is reused for the next phase. */
    void reset();

  private:
    /** A zeroed sockets_-wide counter block from the arena chain. */
    std::uint32_t *newBlock();

    /**
     * Out-of-line first-access append: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * record() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. preallocate() reserves the
     * capacity, so during replay the push never reallocates.
     */
    // lint: cold-path capacity reserved in preallocate()
    STARNUMA_COLD_PATH void
    noteFirstAccess(PageNum page)
    {
        order.push_back(page);
    }

    /** Block of @p page (null if untouched). */
    const std::uint32_t *findBlock(PageNum page) const;

    int sockets_;
    DenseTable<PageNum, std::uint32_t *> blocks;
    std::vector<PageNum> order; // first-access order
    std::vector<Arena> arenas;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_PAGE_STATS_HH
