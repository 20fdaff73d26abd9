#include "core/tlb_annex.hh"

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
      ways(config.ways),
      useClock(0), hits_(0), misses_(0), flushes_(0)
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
    ++flushes_;
}

// lint: hot-path one lookup per LLC-missing access
void
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
            return;
        }
        if (!e.valid)
            lru = &e;
        else if (lru->valid && e.lastUse < lru->lastUse)
            lru = &e;
    }

    ++misses_;
    if (directory && lru->valid)
        directory->evict(lru->page, coreId);
    flushEntry(*lru); // PTW folds the victim's annex into memory
    if (directory)
        directory->fill(page, coreId);
    lru->valid = true;
    lru->page = page;
    lru->lastUse = useClock;
    lru->counter = counterMax > 0 ? 1 : 0;
    lru->marker = false;
    // The fill itself also records the toucher's presence bit: a
    // page walk reaches the metadata region anyway.
    if (counterMax == 0)
        tracker.record(vaddr, socket, 0);
}

// lint: hot-path one batched update per replayed record run
void
TlbAnnex::recordAccessRun(Addr vaddr, std::uint64_t count)
{
    recordAccess(vaddr);
    if (count <= 1)
        return;
    PageNum page = pageNumber(vaddr);
    Entry *set = &sets[setOf(page) * ways];
    Entry *e = nullptr;
    for (int w = 0; w < ways; ++w) {
        if (set[w].valid && set[w].page == page) {
            e = &set[w];
            break;
        }
    }
    sn_assert(e != nullptr, "just-accessed page must be resident");
    std::uint64_t extra = count - 1;
    useClock += extra;
    hits_ += extra;
    e->lastUse = useClock;
    if (counterMax > 0) {
        std::uint64_t next = e->counter + extra;
        e->counter = next > counterMax
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
            if (directory)
                directory->evict(pn, coreId);
            return true;
        }
    }
    return false;
}

} // namespace core
} // namespace starnuma
