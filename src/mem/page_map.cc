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

void
PageMap::saveState(std::vector<std::uint8_t> &out) const
{
    bool flat_mode = !flat.empty();
    putVarint(out, flat_mode ? 1 : 0);
    if (flat_mode) {
        putVarint(out, flatBase.value());
        putVarint(out, flat.size());
    }
    putVarint(out, firstTouch);
    putVarint(out, totalPages());
    std::int64_t prev = 0;
    forEach([&](PageNum page, NodeId node) {
        std::int64_t v = static_cast<std::int64_t>(page.value());
        putVarint(out, zigzag(v - prev));
        prev = v;
        putVarint(out, static_cast<std::uint64_t>(node));
    });
}

// lint: cold-path resume-state decode, once per resumed run
bool
PageMap::loadState(ByteReader &r)
{
    if (!map.empty() || !flat.empty())
        return false;
    std::uint64_t flat_mode = 0, ft = 0, n = 0;
    if (!r.getVarint(flat_mode) || flat_mode > 1)
        return false;
    if (flat_mode) {
        std::uint64_t base = 0, pages = 0;
        if (!r.getVarint(base) || !r.getVarint(pages))
            return false;
        preallocate(PageNum(base), pages);
    }
    if (!r.getVarint(ft) || !r.getVarint(n) || n > r.remaining())
        return false;
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0, node = 0;
        if (!r.getVarint(delta) || !r.getVarint(node) ||
            node >= counts.size())
            return false;
        prev += unzigzag(delta);
        PageNum page(static_cast<std::uint64_t>(prev));
        if (flat_mode) {
            std::uint64_t slot = page.value() - flatBase.value();
            if (slot >= flat.size() || flat[slot] != invalidNode)
                return false;
            flat[slot] = static_cast<NodeId>(node);
            order.push_back(page);
        } else {
            auto [it, inserted] = map.try_emplace(
                page, static_cast<NodeId>(node));
            (void)it;
            if (!inserted)
                return false;
        }
        ++counts[node];
    }
    firstTouch = ft;
    return true;
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
