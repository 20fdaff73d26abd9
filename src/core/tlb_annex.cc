#include "core/tlb_annex.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace starnuma
{
namespace core
{

namespace
{

std::size_t
toPowerOfTwo(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // anonymous namespace

// lint: cold-path construction is per-run setup
TlbAnnex::TlbAnnex(const TlbConfig &config,
                   RegionTracker &owning_tracker, NodeId socket_id)
    : tracker(owning_tracker), socket(socket_id),
      ways(config.ways), useClock(0), hits_(0), misses_(0)
{
    sn_assert(config.entries >= config.ways && config.ways > 0,
              "bad TLB geometry");
    numSets = toPowerOfTwo(config.entries / config.ways);
    sets.assign(numSets * ways, Entry{});
    counterMax =
        tracker.counterBits() == 0
            ? 0
            : static_cast<std::uint32_t>(
                  (1ULL << tracker.counterBits()) - 1);
}

std::size_t
TlbAnnex::setOf(PageNum page) const
{
    return static_cast<std::size_t>(page.value()) & (numSets - 1);
}

void
TlbAnnex::flushEntry(Entry &e)
{
    if (!e.valid)
        return;
    // The PTW adds the annex value into the metadata region. With a
    // T_0 design there is no value to add: the presence bit alone is
    // recorded (the key saving of T_0, §III-D1).
    tracker.record(pageBase(e.page), socket,
                   counterMax == 0 ? 0 : e.counter);
    e.counter = 0;
    e.marker = false;
}

// lint: hot-path one lookup per LLC-missing access
TlbAnnex::Entry &
TlbAnnex::recordAccess(Addr vaddr)
{
    PageNum page = pageNumber(vaddr);
    Entry *set = &sets[setOf(page) * ways];
    ++useClock;

    Entry *lru = &set[0];
    for (int w = 0; w < ways; ++w) {
        Entry &e = set[w];
        if (e.valid && e.page == page) {
            ++hits_;
            e.lastUse = useClock;
            if (e.marker) {
                // Periodic marker hit: fold the running count into
                // memory so hot resident entries are not invisible.
                flushEntry(e);
            }
            if (counterMax > 0 && e.counter < counterMax)
                ++e.counter;
            else if (counterMax == 0)
                e.counter = 0;
            return e;
        }
        if (!e.valid)
            lru = &e;
        else if (lru->valid && e.lastUse < lru->lastUse)
            lru = &e;
    }

    ++misses_;
    flushEntry(*lru); // PTW folds the victim's annex into memory
    lru->valid = true;
    lru->page = page;
    lru->lastUse = useClock;
    lru->counter = counterMax > 0 ? 1 : 0;
    lru->marker = false;
    // The fill itself also records the toucher's presence bit: a
    // page walk reaches the metadata region anyway.
    if (counterMax == 0)
        tracker.record(vaddr, socket, 0);
    return *lru;
}

// lint: hot-path one batched update per replayed record run
void
TlbAnnex::recordAccessRun(Addr vaddr, std::uint64_t count)
{
    Entry &e = recordAccess(vaddr);
    if (count <= 1)
        return;
    std::uint64_t extra = count - 1;
    useClock += extra;
    hits_ += extra;
    e.lastUse = useClock;
    if (counterMax > 0) {
        std::uint64_t next = e.counter + extra;
        e.counter = next > counterMax
                        ? counterMax
                        : static_cast<std::uint32_t>(next);
    }
}

void
TlbAnnex::setMarkers()
{
    for (Entry &e : sets)
        if (e.valid)
            e.marker = true;
}

void
TlbAnnex::flushAll()
{
    for (Entry &e : sets)
        if (e.valid && (e.counter > 0 || counterMax == 0))
            flushEntry(e);
}

bool
TlbAnnex::shootdown(PageNum pn)
{
    Entry *set = &sets[setOf(pn) * ways];
    for (int w = 0; w < ways; ++w) {
        Entry &e = set[w];
        if (e.valid && e.page == pn) {
            flushEntry(e);
            e.valid = false;
            return true;
        }
    }
    return false;
}

// lint: cold-path stats export, once per observed run
std::size_t
TlbAnnex::residentPages(std::span<const TlbAnnex> tlbs)
{
    std::vector<PageNum> pages;
    for (const TlbAnnex &tlb : tlbs)
        for (const Entry &e : tlb.sets)
            if (e.valid)
                pages.push_back(e.page);
    std::sort(pages.begin(), pages.end());
    return static_cast<std::size_t>(
        std::unique(pages.begin(), pages.end()) - pages.begin());
}

} // namespace core
} // namespace starnuma
