/**
 * @file
 * The instrumentation context workloads run against — our stand-in
 * for the paper's Pin-based tracer (§IV-A1). Workload kernels
 * allocate simulated memory from a flat virtual address space and
 * report their loads, stores, and compute instructions per logical
 * thread. Each thread's accesses pass through a private cache
 * filter sized like an L1+L2 (so recorded accesses approximate the
 * LLC-bound stream, as the paper's distributions do); survivors are
 * appended to the thread's memory trace with the current dynamic
 * instruction count.
 *
 * During setup (between beginSetup/endSetup) accesses are untimed
 * and unfiltered: they only record which thread first touched each
 * page, seeding first-touch placement the way parallel
 * initialization does on a real system.
 *
 * Every access must fall inside the bump allocator's page range;
 * the per-page written/touched flags are dense bitmaps over it
 * (DESIGN.md §18).
 */

#ifndef STARNUMA_TRACE_CAPTURE_HH
#define STARNUMA_TRACE_CAPTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{

/**
 * The private-cache filter of one capture thread: tag-only,
 * set-associative, exact LRU. Each set holds its ways' block numbers
 * as u32 in most-recently-used order, so an 8-way set is 32 bytes
 * and replacement is "drop the last". It has the set count and hit
 * sequence of a mem::Cache of the same geometry (DESIGN.md §18),
 * without the dirty bits, victims and use clock capture never reads.
 * Block numbers must stay below emptyTag (addresses below 256 GB).
 */
class CaptureFilter
{
  public:
    explicit CaptureFilter(const mem::CacheConfig &config);

    /**
     * Look up the block containing @p addr and make it the set's
     * most recently used, allocating on miss.
     * @return true on a hit.
     */
    bool
    access(Addr addr)
    {
        auto block = static_cast<std::uint32_t>(addr / blockBytes);
        std::uint32_t *set = &tags[(block & setMask) * ways];
        int w = 0;
        while (w < ways && set[w] != block)
            ++w;
        bool hit = w < ways;
        // Shift the more recent ways down one slot; a miss drops
        // the least recently used block off the end.
        for (w = hit ? w : ways - 1; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = block;
        return hit;
    }

    /** Tag of an empty way; no block number reaches it. */
    static constexpr std::uint32_t emptyTag = ~std::uint32_t(0);

  private:
    // Set-major: set s occupies [s*ways, (s+1)*ways), MRU first.
    std::vector<std::uint32_t> tags;
    std::uint32_t setMask;
    int ways;
};

/** Capture-side instrumentation for one workload run. */
class CaptureContext
{
  public:
    /**
     * @param threads logical threads of the run.
     * @param filter geometry of the per-thread capture filter
     *        (default: a 256 KB, 8-way L2 proxy).
     */
    explicit CaptureContext(int threads,
                            mem::CacheConfig filter = {256 * 1024,
                                                       8});

    int threads() const { return static_cast<int>(state.size()); }

    // --- Simulated address space ---

    /**
     * Allocate @p bytes of simulated memory (page aligned).
     * @return the region's base virtual address.
     */
    Addr alloc(Addr bytes);

    /** Bytes allocated so far (the workload footprint). */
    Addr footprint() const { return nextAddr - baseAddr; }

    // --- Setup (untimed first-touch) mode ---

    void beginSetup() { inSetup = true; }
    void endSetup() { inSetup = false; }

    // --- Per-thread instrumentation ---

    /** Account @p n non-memory instructions to thread @p t. */
    void
    instr(ThreadId t, std::uint64_t n = 1)
    {
        state[t].instructions += n;
    }

    /** A load by thread @p t from @p vaddr. */
    void load(ThreadId t, Addr vaddr) { access(t, vaddr, false); }

    /** A store by thread @p t to @p vaddr. */
    void store(ThreadId t, Addr vaddr) { access(t, vaddr, true); }

    /** Thread @p t's dynamic instruction count. */
    std::uint64_t
    instructions(ThreadId t) const
    {
        return state[t].instructions;
    }

    /** Smallest instruction count across threads. */
    std::uint64_t minInstructions() const;

    /** Move the capture out as a WorkloadTrace. */
    WorkloadTrace take(const std::string &workload,
                       std::uint64_t instructions_per_thread);

  private:
    void
    access(ThreadId t, Addr vaddr, bool write)
    {
        sn_assert(t >= 0 && static_cast<std::size_t>(t) < state.size(),
                  "access by unknown thread %d", t);
        sn_assert(vaddr >= baseAddr && vaddr < nextAddr,
                  "access to %#llx outside the allocated range",
                  static_cast<unsigned long long>(vaddr));
        // Page index relative to the first allocated page.
        std::size_t page = pagesIn(vaddr - baseAddr);
        if (inSetup) {
            // Setup accesses are untimed; writes seed first touch.
            if (write && !testAndSet(touched, page))
                firstTouches.push_back({pageNumber(vaddr), t});
            return;
        }
        ThreadState &ts = state[t];
        ++ts.instructions; // the memory op is an instruction too
        if (write)
            testAndSet(written, page);
        if (!ts.filter.access(vaddr))
            ts.records.emplace_back(ts.instructions, vaddr, write);
    }

    /** Set bit @p i of @p bits; @return its previous value. */
    static bool
    testAndSet(std::vector<std::uint64_t> &bits, std::size_t i)
    {
        std::uint64_t mask = std::uint64_t(1) << (i % 64);
        bool was = bits[i / 64] & mask;
        bits[i / 64] |= mask;
        return was;
    }

    struct ThreadState
    {
        explicit ThreadState(const mem::CacheConfig &cfg)
            : filter(cfg), instructions(0)
        {
        }

        CaptureFilter filter;
        std::uint64_t instructions;
        std::vector<MemRecord> records;
    };

    static constexpr Addr baseAddr = 0x10000000;

    std::vector<ThreadState> state;
    // One bit per allocated page, indexed from baseAddr's page:
    // pages written in the timed run, and pages first-touched
    // during setup.
    std::vector<std::uint64_t> written;
    std::vector<std::uint64_t> touched;
    std::vector<FirstTouch> firstTouches;
    Addr nextAddr;
    bool inSetup;
};

/**
 * A typed view over a simulated allocation: indexes translate to
 * traced loads/stores while the actual values live in a real
 * std::vector owned by the workload.
 */
template <typename T>
class TracedArray
{
  public:
    TracedArray() : base_(0) {}

    /** Allocate backing simulated memory for @p n elements. */
    void
    allocate(CaptureContext &ctx, std::size_t n)
    {
        data_.assign(n, T{});
        base_ = ctx.alloc(n * sizeof(T));
    }

    std::size_t size() const { return data_.size(); }
    Addr base() const { return base_; }

    /** Simulated address of element @p i. */
    Addr
    addrOf(std::size_t i) const
    {
        return base_ + i * sizeof(T);
    }

    /** Traced read of element @p i by thread @p t. */
    const T &
    read(CaptureContext &ctx, ThreadId t, std::size_t i)
    {
        ctx.load(t, addrOf(i));
        return data_[i];
    }

    /** Traced write of element @p i by thread @p t. */
    void
    write(CaptureContext &ctx, ThreadId t, std::size_t i, T value)
    {
        ctx.store(t, addrOf(i));
        data_[i] = value;
    }

    /** Untraced access (setup-time or bookkeeping). */
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    std::vector<T> data_;
    Addr base_;
};

} // namespace trace
} // namespace starnuma

#endif // STARNUMA_TRACE_CAPTURE_HH
