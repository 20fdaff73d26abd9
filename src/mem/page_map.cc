#include "mem/page_map.hh"

#include "sim/logging.hh"

namespace starnuma
{
namespace mem
{

PageMap::PageMap(int nodes) : counts(nodes, 0), firstTouch(0)
{
    sn_assert(nodes > 0, "page map needs at least one node");
}

// lint: cold-path one-time setup before the replay loop
void
PageMap::preallocate(PageNum base, std::uint64_t pages)
{
    homes.reserve(base, pages);
    order.reserve(pages);
}

void
PageMap::setHome(PageNum page, NodeId node)
{
    sn_assert(node >= 0 &&
                  static_cast<std::size_t>(node) < counts.size(),
              "migrating page to unknown node %d", node);
    NodeId &h = homes.slot(page);
    if (h == invalidNode)
        noteMapped(page);
    else
        --counts[h];
    h = node;
    ++counts[node];
}

std::uint64_t
PageMap::pagesAt(NodeId node) const
{
    sn_assert(node >= 0 &&
                  static_cast<std::size_t>(node) < counts.size(),
              "pagesAt of unknown node %d", node);
    return counts[node];
}

} // namespace mem
} // namespace starnuma
