/**
 * @file
 * Page-to-home-node mapping with first-touch initial placement
 * (§IV-C) and migration support. Pages are keyed by page number.
 * The map also tracks per-node page counts so capacity policies
 * (pool limit, victim selection) can query occupancy cheaply.
 *
 * Homes live in a flat table indexed by (page - base)
 * (sim/dense_table.hh), so every hot-path touch() is a bounds-checked
 * load. Traces captured against the simulator's bump allocator cover
 * one contiguous page range, which replay reserves up front with
 * preallocate(); a page outside it grows the table. A separate
 * insertion-order vector drives forEach().
 */

#ifndef STARNUMA_MEM_PAGE_MAP_HH
#define STARNUMA_MEM_PAGE_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/dense_table.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace mem
{

/** Home node returned for pages that were never touched. */
constexpr NodeId invalidNode = -1;

/** Page table mapping page numbers to home nodes. */
class PageMap
{
  public:
    /** @param nodes addressable home nodes (sockets + pool). */
    explicit PageMap(int nodes);

    /**
     * Reserve table slots for page numbers [base, base + pages), so
     * the replay loop never grows the table. Must be called before
     * the first page is mapped.
     */
    void preallocate(PageNum base, std::uint64_t pages);

    /** Home of page @p page, or invalidNode if unmapped. */
    // lint: hot-path one lookup per modeled access
    NodeId
    home(PageNum page) const
    {
        const NodeId *h = homes.find(page);
        return h ? *h : invalidNode;
    }

    /**
     * First-touch lookup: maps the page to @p toucher's socket on
     * first access, then sticks.
     * @return the (possibly just-assigned) home node.
     */
    // lint: hot-path one touch per replayed record batch
    STARNUMA_AUDITED NodeId
    touch(PageNum page, NodeId toucher)
    {
        NodeId &h = homes.slot(page);
        if (h == invalidNode) {
            sn_assert(toucher >= 0 && static_cast<std::size_t>(
                                          toucher) < counts.size(),
                      "first-touch by unknown node %d", toucher);
            h = toucher;
            ++counts[toucher];
            ++firstTouch;
            noteMapped(page);
        }
        return h;
    }

    /** Force page @p page to live on node @p node (migration). */
    void setHome(PageNum page, NodeId node);

    /** Number of mapped pages homed at @p node. */
    std::uint64_t pagesAt(NodeId node) const;

    /** Total mapped pages. */
    std::uint64_t totalPages() const { return order.size(); }

    /** Pages whose initial placement came from first touch. */
    std::uint64_t firstTouchPages() const { return firstTouch; }

    /** Visit every (page, home) entry, in insertion order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (PageNum page : order)
            fn(page, *homes.find(page));
    }

  private:
    /**
     * Out-of-line append of a newly mapped page: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * touch() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. preallocate() reserves the
     * capacity, so during replay the push never reallocates.
     */
    // lint: cold-path capacity reserved in preallocate()
    STARNUMA_COLD_PATH void
    noteMapped(PageNum page)
    {
        order.push_back(page);
    }

    DenseTable<PageNum, NodeId> homes{invalidNode};
    std::vector<PageNum> order; // insertion order
    std::vector<std::uint64_t> counts;
    std::uint64_t firstTouch;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_PAGE_MAP_HH
