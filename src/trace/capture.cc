#include "trace/capture.hh"

#include <algorithm>
#include <bit>

namespace starnuma
{
namespace trace
{

CaptureFilter::CaptureFilter(const FilterGeometry &geometry)
    : ways(geometry.ways)
{
    sn_assert(geometry.ways > 0 && geometry.sizeBytes >= blockBytes,
              "bad cache geometry");
    // mem::Cache's set count: rounded up to a power of two, >= 1.
    std::uint32_t n = 1;
    while (n < geometry.sizeBytes / (blockBytes * geometry.ways))
        n <<= 1;
    setMask = n - 1;
    tags.assign(static_cast<std::size_t>(n) * ways, emptyTag);
}

bool
CaptureFilter::accessSlow(std::uint32_t *set, std::uint32_t block)
{
    // Scan ways 1.. while shifting each more recent block down one
    // slot; a hit stops where the block was, a miss drops the least
    // recently used block off the end.
    std::uint32_t carry = set[0];
    set[0] = block;
    for (int w = 1; w < ways; ++w) {
        std::uint32_t tag = set[w];
        set[w] = carry;
        if (tag == block)
            return true;
        carry = tag;
    }
    return false;
}

CaptureContext::CaptureContext(int threads, FilterGeometry filter)
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
    // Records and filters keep 31-bit block numbers (MemRecord).
    sn_assert(nextAddr / blockBytes < MemRecord::writeBit,
              "simulated address space exhausted");
    std::size_t words = (pagesCovering(footprint()) + 63) / 64;
    written.resize(words, 0);
    touched.resize(words, 0);
    return base;
}

// lint: cold-path untimed set-up, before the traced run
void
CaptureContext::setupAccess(ThreadId t, Addr vaddr, bool write)
{
    if (write && !testAndSet(touched, pagesIn(vaddr - baseAddr)))
        firstTouches.push_back({pageNumber(vaddr), t});
}

void
CaptureContext::append(ThreadState &ts, Addr vaddr, bool write)
{
    // lint: cold-path amortized growth of the record vector
    ts.records.emplace_back(ts.instructions, vaddr, write);
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
    for (auto &ts : state) {
        // Records hold u32 counts (MemRecord); Workload::capture
        // bounds the run, this catches any other caller.
        sn_assert(ts.instructions <= MemRecord::maxInstr,
                  "instruction count %llu overflows a trace record",
                  static_cast<unsigned long long>(ts.instructions));
        t.perThread.push_back(std::move(ts.records));
    }
    return t;
}

} // namespace trace
} // namespace starnuma
