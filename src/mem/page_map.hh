/**
 * @file
 * Page-to-home-node mapping with first-touch initial placement
 * (§IV-C) and migration support. Pages are keyed by page number.
 * The map also tracks per-node page counts so capacity policies
 * (pool limit, victim selection) can query occupancy cheaply.
 *
 * Two storage modes share one interface. By default pages live in a
 * FlatMap (any key pattern). Traces captured against the simulator's
 * bump allocator cover one contiguous page range, so replay can call
 * preallocate() to switch to a flat page table — a plain array
 * indexed by (page - base) — which turns every hot-path touch() into
 * a bounds-checked load. Observable behavior, including the
 * insertion-order forEach(), is identical in both modes.
 */

#ifndef STARNUMA_MEM_PAGE_MAP_HH
#define STARNUMA_MEM_PAGE_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/flat_map.hh"
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
     * Switch to flat-table storage over page numbers
     * [base, base + pages). Must be called before the first page is
     * mapped; every page touched afterwards must fall in the range.
     */
    void preallocate(PageNum base, std::uint64_t pages);

    /** Home of page @p page, or invalidNode if unmapped. */
    // lint: hot-path one lookup per modeled access
    NodeId
    home(PageNum page) const
    {
        if (flat.empty()) {
            auto it = map.find(page);
            return it == map.end() ? invalidNode : it->second;
        }
        std::uint64_t slot = page.value() - flatBase.value();
        return slot < flat.size() ? flat[slot] : invalidNode;
    }

    /**
     * First-touch lookup: maps the page to @p toucher's socket on
     * first access, then sticks.
     * @return the (possibly just-assigned) home node.
     */
    // lint: hot-path one touch per replayed record batch
    NodeId
    touch(PageNum page, NodeId toucher)
    {
        if (flat.empty())
            return touchMapped(page, toucher);
        NodeId &h = flat[flatSlot(page)];
        if (h == invalidNode) {
            sn_assert(toucher >= 0 && static_cast<std::size_t>(
                                          toucher) < counts.size(),
                      "first-touch by unknown node %d", toucher);
            h = toucher;
            ++counts[toucher];
            ++firstTouch;
            noteFirstTouch(page);
        }
        return h;
    }

    /** Force page @p page to live on node @p node (migration). */
    void setHome(PageNum page, NodeId node);

    /** Number of mapped pages homed at @p node. */
    std::uint64_t pagesAt(NodeId node) const;

    /** Total mapped pages. */
    std::uint64_t
    totalPages() const
    {
        return flat.empty() ? map.size() : order.size();
    }

    /** Pages whose initial placement came from first touch. */
    std::uint64_t firstTouchPages() const { return firstTouch; }

    /** Visit every (page, home) entry, in insertion order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (flat.empty()) {
            for (const auto &[page, node] : map)
                fn(page, node);
        } else {
            for (PageNum page : order)
                fn(page, flat[page.value() - flatBase.value()]);
        }
    }

  private:
    NodeId touchMapped(PageNum page, NodeId toucher);

    /**
     * Out-of-line first-touch append: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * touch() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. Capacity is reserved in
     * preallocate(), so the push never actually reallocates.
     */
    // lint: cold-path capacity reserved in preallocate()
    STARNUMA_COLD_PATH void
    noteFirstTouch(PageNum page)
    {
        order.push_back(page);
    }

    /** Flat-mode slot of @p page (panics when out of range). */
    std::uint64_t
    flatSlot(PageNum page) const
    {
        std::uint64_t slot = page.value() - flatBase.value();
        sn_assert(slot < flat.size(),
                  "page outside the preallocated range");
        return slot;
    }

    FlatMap<PageNum, NodeId> map;
    std::vector<NodeId> flat;    // flat mode: home per slot
    std::vector<PageNum> order;  // flat mode: insertion order
    PageNum flatBase{0};
    std::vector<std::uint64_t> counts;
    std::uint64_t firstTouch;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_PAGE_MAP_HH
