/**
 * @file
 * Oracular static initial placement (§V-B): using a priori
 * knowledge of the workload's entire access pattern, place every
 * page once, before execution, with no runtime migration. On the
 * baseline, each page goes to its majority-accessor socket; on
 * StarNUMA, the hottest widely shared pages additionally go to the
 * pool, up to its capacity.
 */

#ifndef STARNUMA_CORE_ORACLE_HH
#define STARNUMA_CORE_ORACLE_HH

#include <cstdint>

#include "core/page_stats.hh"
#include "mem/page_map.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace core
{

/** Builds a static placement from whole-run access statistics. */
class OraclePlacement
{
  public:
    explicit OraclePlacement(int sockets) : stats(sockets) {}

    /**
     * Reserve the access-count table over page numbers
     * [base, base + pages) (see PageAccessStats::preallocate).
     */
    void
    preallocate(PageNum base, std::size_t pages)
    {
        stats.preallocate(base, pages);
    }

    /** Whole-run access knowledge feed (all phases). */
    // lint: hot-path one count per replayed record batch (oracle)
    void
    recordAccess(PageNum page, NodeId socket,
                 std::uint32_t count = 1)
    {
        stats.record(page, socket, count);
    }

    /**
     * Write the placement into @p pages (replacing any existing
     * mapping for touched pages).
     *
     * @param use_pool place widely shared pages in the pool.
     * @param pool_capacity_pages pool space limit.
     * @param pool_sharer_threshold sharing degree for pool
     *        placement (paper: 8).
     * @return number of pages placed in the pool.
     */
    std::uint64_t place(mem::PageMap &pages, bool use_pool,
                        std::uint64_t pool_capacity_pages,
                        int pool_sharer_threshold = 8);

  private:
    PageAccessStats stats;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_ORACLE_HH
