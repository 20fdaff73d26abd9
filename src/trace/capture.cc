#include "trace/capture.hh"

#include <algorithm>
#include <bit>

namespace starnuma
{
namespace trace
{

CaptureFilter::CaptureFilter(const mem::CacheConfig &config)
    : ways(config.ways)
{
    sn_assert(config.ways > 0 && config.sizeBytes >= blockBytes,
              "bad cache geometry");
    // mem::Cache's set count: rounded up to a power of two, >= 1.
    std::uint32_t n = 1;
    while (n < config.sizeBytes / (blockBytes * config.ways))
        n <<= 1;
    setMask = n - 1;
    tags.assign(static_cast<std::size_t>(n) * ways, emptyTag);
}

CaptureContext::CaptureContext(int threads, mem::CacheConfig filter)
    : nextAddr(baseAddr), inSetup(false)
{
    sn_assert(threads > 0, "capture needs at least one thread");
    state.reserve(threads);
    for (int t = 0; t < threads; ++t)
        state.emplace_back(filter);
}

Addr
CaptureContext::alloc(Addr bytes)
{
    Addr base = nextAddr;
    nextAddr += pagesCovering(bytes) * pageBytes;
    // The filters keep u32 block numbers (CaptureFilter::emptyTag).
    sn_assert(nextAddr / blockBytes < CaptureFilter::emptyTag,
              "simulated address space exhausted");
    std::size_t words = (pagesCovering(footprint()) + 63) / 64;
    written.resize(words, 0);
    touched.resize(words, 0);
    return base;
}

std::uint64_t
CaptureContext::minInstructions() const
{
    std::uint64_t lo = ~std::uint64_t(0);
    for (const auto &ts : state)
        lo = std::min(lo, ts.instructions);
    return lo;
}

WorkloadTrace
CaptureContext::take(const std::string &workload,
                     std::uint64_t instructions_per_thread)
{
    WorkloadTrace t;
    t.workload = workload;
    t.threads = threads();
    t.instructionsPerThread = instructions_per_thread;
    t.footprintBytes = footprint();
    if (nextAddr > baseAddr) {
        // The bump allocator spans one contiguous page range;
        // every access and first touch falls inside it.
        t.minPage = pageNumber(baseAddr);
        t.maxPage = pageNumber(nextAddr - 1);
    }
    t.firstTouches = std::move(firstTouches);
    // Ascending page order, straight off the bitmap.
    std::uint64_t first = pageNumber(baseAddr).value();
    for (std::size_t w = 0; w < written.size(); ++w)
        for (std::uint64_t bits = written[w]; bits; bits &= bits - 1)
            t.writtenPages.push_back(
                PageNum(first + w * 64 + std::countr_zero(bits)));
    t.perThread.reserve(state.size());
    for (auto &ts : state)
        t.perThread.push_back(std::move(ts.records));
    return t;
}

} // namespace trace
} // namespace starnuma
