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
    sn_assert(map.empty() && flat.empty(),
              "preallocate before mapping any page");
    if (pages == 0)
        return;
    flatBase = base;
    flat.assign(pages, invalidNode);
    order.reserve(pages);
}

NodeId
PageMap::touchMapped(PageNum page, NodeId toucher)
{
    auto [it, inserted] = map.try_emplace(page, toucher);
    if (inserted) {
        sn_assert(toucher >= 0 &&
                      static_cast<std::size_t>(toucher) < counts.size(),
                  "first-touch by unknown node %d", toucher);
        ++counts[toucher];
        ++firstTouch;
    }
    return it->second;
}

void
PageMap::setHome(PageNum page, NodeId node)
{
    sn_assert(node >= 0 &&
                  static_cast<std::size_t>(node) < counts.size(),
              "migrating page to unknown node %d", node);
    if (flat.empty()) {
        auto it = map.find(page);
        if (it == map.end()) {
            map.emplace(page, node);
        } else {
            --counts[it->second];
            it->second = node;
        }
    } else {
        NodeId &h = flat[flatSlot(page)];
        if (h == invalidNode) {
            // lint: cold-path a page's first mapping; preallocate()
            // reserved the order vector, so this never reallocates
            order.push_back(page);
        } else {
            --counts[h];
        }
        h = node;
    }
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
