#include "trace/columnar.hh"

#include <algorithm>

namespace starnuma
{
namespace trace
{

namespace
{

constexpr std::uint64_t columnarMagic =
    0x53544152434f4c33ULL; // "STARCOL3"

/** Upper bound accepted for any length field: a count larger than
 *  the remaining bytes cannot be real (every element costs at least
 *  one byte), so fuzzer-supplied counts never drive allocations. */
bool
plausibleCount(std::uint64_t n, const ByteReader &r)
{
    return n <= r.remaining();
}

} // anonymous namespace

// lint: artifact-root step_a_trace
std::vector<std::uint8_t>
encodeColumnar(const WorkloadTrace &t)
{
    std::vector<std::uint8_t> out;
    // Size guess: sc1 captures encode to 2.3-3.9 bytes per record
    // (3.5 overall), so 4 covers every kernel without regrowth.
    out.reserve(64 + t.workload.size() +
                static_cast<std::size_t>(t.totalRecords()) * 4);

    putVarint(out, columnarMagic);
    putVarint(out, columnarVersion);
    putVarint(out, t.workload.size());
    out.insert(out.end(), t.workload.begin(), t.workload.end());
    putVarint(out, static_cast<std::uint64_t>(t.threads));
    putVarint(out, t.instructionsPerThread);
    putVarint(out, t.footprintBytes);

    // First touches: insertion-ordered page deltas + thread ids.
    putVarint(out, t.firstTouches.size());
    std::uint64_t prev_page = 0;
    for (const FirstTouch &ft : t.firstTouches) {
        std::uint64_t page = ft.page.value();
        putVarint(out, zigzag(static_cast<std::int64_t>(
                            page - prev_page)));
        putVarint(out, static_cast<std::uint64_t>(ft.thread));
        prev_page = page;
    }

    // Written pages (sorted by the capture, so deltas are small).
    putVarint(out, t.writtenPages.size());
    prev_page = 0;
    for (PageNum wp : t.writtenPages) {
        putVarint(out, zigzag(static_cast<std::int64_t>(
                            wp.value() - prev_page)));
        prev_page = wp.value();
    }

    // Per-thread SoA record columns.
    for (const auto &recs : t.perThread) {
        putVarint(out, recs.size());
        // Column 1: instruction-count deltas (nondecreasing, so
        // the wrapping unsigned delta is the value itself).
        std::uint64_t prev = 0;
        for (const MemRecord &r : recs) {
            putVarint(out, r.instr - prev);
            prev = r.instr;
        }
        // Column 2: zigzag block-number deltas.
        prev = 0;
        for (const MemRecord &r : recs) {
            putVarint(out, zigzag(static_cast<std::int64_t>(
                                r.block() - prev)));
            prev = r.block();
        }
        // Column 3: write flags, 8 per byte.
        std::uint8_t bits = 0;
        int filled = 0;
        for (const MemRecord &r : recs) {
            bits = static_cast<std::uint8_t>(
                bits |
                (static_cast<unsigned>(r.isWrite()) << filled));
            if (++filled == 8) {
                out.push_back(bits);
                bits = 0;
                filled = 0;
            }
        }
        if (filled)
            out.push_back(bits);
    }
    return out;
}

// lint: hot-path decode inner loops run once per trace record; the
// only allocations are the count-bounded up-front ones marked below.
bool
decodeColumnar(const std::uint8_t *data, std::size_t size,
               WorkloadTrace &out)
{
    ByteReader r(data, size);
    std::uint64_t magic = 0, version = 0, name_len = 0;
    if (!r.getVarint(magic) || magic != columnarMagic)
        return false;
    if (!r.getVarint(version) || version != columnarVersion)
        return false;
    if (!r.getVarint(name_len) || !plausibleCount(name_len, r))
        return false;
    // lint: cold-path one count-bounded allocation per decode
    out.workload.resize(static_cast<std::size_t>(name_len));
    if (!r.getBytes(out.workload.data(), out.workload.size()))
        return false;

    std::uint64_t threads = 0;
    if (!r.getVarint(threads) || threads > 1024)
        return false;
    out.threads = static_cast<int>(threads);
    if (!r.getVarint(out.instructionsPerThread))
        return false;
    if (!r.getVarint(out.footprintBytes))
        return false;

    // Recompute the page span (not stored in the format) from the
    // pages this decode pass visits anyway.
    std::uint64_t min_page = ~std::uint64_t(0);
    std::uint64_t max_page = 0;

    std::uint64_t n = 0;
    if (!r.getVarint(n) || !plausibleCount(n, r))
        return false;
    out.firstTouches.clear();
    // lint: cold-path one count-bounded allocation per decode
    out.firstTouches.reserve(static_cast<std::size_t>(n));
    std::uint64_t prev_page = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t dpage = 0, thread = 0;
        if (!r.getVarint(dpage) || !r.getVarint(thread) ||
            thread >= threads)
            return false;
        prev_page += static_cast<std::uint64_t>(unzigzag(dpage));
        min_page = std::min(min_page, prev_page);
        max_page = std::max(max_page, prev_page);
        // lint: cold-path capacity reserved above; never grows
        out.firstTouches.push_back(
            {PageNum(prev_page),
             static_cast<ThreadId>(thread)});
    }

    if (!r.getVarint(n) || !plausibleCount(n, r))
        return false;
    out.writtenPages.clear();
    // lint: cold-path one count-bounded allocation per decode
    out.writtenPages.reserve(static_cast<std::size_t>(n));
    prev_page = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t dpage = 0;
        if (!r.getVarint(dpage))
            return false;
        prev_page += static_cast<std::uint64_t>(unzigzag(dpage));
        // lint: cold-path capacity reserved above; never grows
        out.writtenPages.push_back(PageNum(prev_page));
    }

    // lint: cold-path one thread-count-bounded allocation per decode
    out.perThread.assign(static_cast<std::size_t>(threads), {});
    for (auto &recs : out.perThread) {
        if (!r.getVarint(n) || !plausibleCount(n, r))
            return false;
        // lint: cold-path one count-bounded allocation per thread
        recs.resize(static_cast<std::size_t>(n));
        // Every running value must fit its record field; a wrapped
        // or oversized sum is corrupt, not truncated.
        std::uint64_t prev = 0;
        for (auto &rec : recs) {
            std::uint64_t d = 0;
            if (!r.getVarint(d) || d > MemRecord::maxInstr - prev)
                return false;
            prev += d;
            rec.instr = static_cast<std::uint32_t>(prev);
        }
        prev = 0;
        for (auto &rec : recs) {
            std::uint64_t d = 0;
            if (!r.getVarint(d))
                return false;
            prev += static_cast<std::uint64_t>(unzigzag(d));
            if (prev >= MemRecord::writeBit)
                return false;
            rec.packed = static_cast<std::uint32_t>(prev);
            std::uint64_t page = pageNumber(rec.vaddr()).value();
            min_page = std::min(min_page, page);
            max_page = std::max(max_page, page);
        }
        std::size_t bitmap_bytes =
            (recs.size() + 7) / 8;
        if (r.remaining() < bitmap_bytes)
            return false;
        for (std::size_t i = 0; i < recs.size(); i += 8) {
            std::uint8_t bits = 0;
            if (!r.getBytes(&bits, 1))
                return false;
            for (std::size_t b = 0;
                 b < 8 && i + b < recs.size(); ++b)
                if (bits & (1u << b))
                    recs[i + b].packed |= MemRecord::writeBit;
        }
    }
    if (min_page <= max_page) {
        out.minPage = PageNum(min_page);
        out.maxPage = PageNum(max_page);
    } else {
        out.minPage = PageNum(0);
        out.maxPage = PageNum(0);
    }
    return true;
}

} // namespace trace
} // namespace starnuma
