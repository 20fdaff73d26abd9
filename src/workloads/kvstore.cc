#include "workloads/kvstore.hh"

#include "sim/logging.hh"

namespace starnuma
{
namespace workloads
{

namespace
{

/** Simulated bytes per tree node (three cache lines). */
constexpr Addr nodeBytes = 192;

/** Simulated bytes per value. */
constexpr Addr valueBytes = 64;

} // anonymous namespace

KvStore::KvStore(std::uint64_t rng_seed, std::uint32_t keys,
                 double read_fraction)
    : seed(rng_seed), numKeys(keys), readFraction(read_fraction)
{
    sn_assert(numKeys > 0, "kvstore needs at least one key");
    // Level sizes, leaves up: ceil(keys / fanout) leaves, then
    // ceil(width / (fanout + 1)) nodes per level up to one root.
    levelBase.push_back(0);
    std::uint32_t width = (numKeys - 1) / fanout + 1;
    for (;;) {
        levelBase.push_back(levelBase.back() + width);
        if (width == 1)
            break;
        width = (width - 1) / (fanout + 1) + 1;
    }
    sn_assert(treeDepth() <= maxLevels, "kvstore tree too deep");
}

void
KvStore::setup(trace::CaptureContext &ctx, const SimScale &scale)
{
    int threads = scale.threads();
    threadRng.clear();
    for (int t = 0; t < threads; ++t)
        threadRng.emplace_back(seed + 1000 + t);

    values.resize(numKeys);
    for (std::uint32_t k = 0; k < numKeys; ++k)
        values[k] = std::uint64_t(k) * 3 + 1;

    const std::uint32_t leaves = levelBase[1];
    const std::uint32_t nodes = levelBase.back();
    nodeBase = ctx.alloc(static_cast<Addr>(nodes) * nodeBytes);
    valueBase = ctx.alloc(static_cast<Addr>(numKeys) * valueBytes);

    // Partitioned load phase: thread t first-touches the values and
    // leaves of its key range; the internal nodes land wherever
    // the finishing thread runs.
    for (int t = 0; t < threads; ++t) {
        std::uint32_t lo = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(numKeys) * t / threads);
        std::uint32_t hi = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(numKeys) * (t + 1) / threads);
        for (std::uint32_t k = lo; k < hi; ++k)
            ctx.store(t, valueBase + k * valueBytes);
        for (std::uint32_t leaf = lo / fanout;
             leaf <= (hi ? (hi - 1) / fanout : 0); ++leaf)
            ctx.store(t, nodeBase + leaf * nodeBytes);
    }
    ThreadId finisher = threads / 2;
    for (std::uint32_t n = leaves; n < nodes; ++n)
        ctx.store(finisher, nodeBase + n * nodeBytes);
}

void
KvStore::step(ThreadId t, trace::CaptureContext &ctx)
{
    Rng &rng = threadRng[t];
    std::uint32_t key = rng.range32(numKeys);
    // Root-to-leaf descent: a binary search over each node touches
    // its key lines and the child-pointer line.
    Path path = pathTo(key);
    for (int k = treeDepth() - 1; k >= 0; --k) {
        Addr node = nodeBase + path[k] * nodeBytes;
        ctx.load(t, node);
        ctx.load(t, node + 2 * blockBytes);
        ctx.instr(t, 8);
    }
    Addr vaddr = valueBase + static_cast<Addr>(key) * valueBytes;
    if (rng.chance(readFraction)) {
        ctx.load(t, vaddr);
        ctx.instr(t, 12);
    } else {
        ctx.load(t, vaddr);
        values[key] = std::uint64_t(key) * 7 + rng.next32() % 16;
        ctx.store(t, vaddr);
        ctx.instr(t, 14);
    }
}

bool
KvStore::lookupValue(std::uint64_t key, std::uint64_t *out) const
{
    if (key >= numKeys)
        return false;
    *out = values[key];
    return true;
}

} // namespace workloads
} // namespace starnuma
