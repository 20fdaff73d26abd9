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

#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{

/**
 * Size and associativity of a capture filter: the two fields of a
 * mem::CacheConfig it mirrors, kept here so the trace layer does not
 * depend on mem.
 */
struct FilterGeometry
{
    Addr sizeBytes;
    int ways;
};

/**
 * The private-cache filter of one capture thread: tag-only,
 * set-associative, exact LRU. Each set holds its ways' block numbers
 * as u32 in most-recently-used order, so an 8-way set is 32 bytes
 * and replacement is "drop the last". It has the set count and hit
 * sequence of a mem::Cache of the same geometry (DESIGN.md §18),
 * without the dirty bits, victims and invalidation capture never uses.
 * Block numbers stay below MemRecord::writeBit, so never reach
 * emptyTag (CaptureContext::alloc asserts it).
 */
class CaptureFilter
{
  public:
    explicit CaptureFilter(const FilterGeometry &geometry);

    /**
     * Look up the block containing @p addr and make it the set's
     * most recently used, allocating on miss. A hit at the MRU way,
     * most lookups, moves nothing and returns here; the rest go to
     * accessSlow().
     * @return true on a hit.
     */
    // lint: hot-path one probe per traced access
    STARNUMA_AUDITED bool
    access(Addr addr)
    {
        auto block = static_cast<std::uint32_t>(addr / blockBytes);
        std::uint32_t *set = &tags[(block & setMask) * ways];
        if (set[0] == block)
            return true;
        return accessSlow(set, block);
    }

    /** Tag of an empty way; no block number reaches it. */
    static constexpr std::uint32_t emptyTag = ~std::uint32_t(0);

  private:
    /**
     * The rest of a lookup whose block is not at @p set's MRU way:
     * walk ways 1.., shifting each more recent block down, and put
     * the block in front. Outlined but not cold: deeper hits and
     * misses are a third of all lookups (DESIGN.md §18).
     */
    STARNUMA_HOT_ROOT bool accessSlow(std::uint32_t *set,
                                      std::uint32_t block);

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
                            FilterGeometry filter = {256 * 1024, 8});

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
    /**
     * The timed path of every traced access, inline in each kernel;
     * set-up accesses and the record append are outlined, so this
     * body allocates nothing.
     */
    // lint: hot-path one call per traced load or store
    STARNUMA_AUDITED void
    access(ThreadId t, Addr vaddr, bool write)
    {
        sn_assert(t >= 0 && static_cast<std::size_t>(t) < state.size(),
                  "access by unknown thread %d", t);
        sn_assert(vaddr >= baseAddr && vaddr < nextAddr,
                  "access to %#llx outside the allocated range",
                  static_cast<unsigned long long>(vaddr));
        if (inSetup) {
            setupAccess(t, vaddr, write);
            return;
        }
        ThreadState &ts = state[t];
        ++ts.instructions; // the memory op is an instruction too
        // Page bits are indexed from the first allocated page.
        if (write)
            testAndSet(written, pagesIn(vaddr - baseAddr));
        if (!ts.filter.access(vaddr))
            append(ts, vaddr, write);
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
        explicit ThreadState(const FilterGeometry &cfg)
            : filter(cfg), instructions(0)
        {
        }

        CaptureFilter filter;
        std::uint64_t instructions;
        std::vector<MemRecord> records;
    };

    /** An untimed set-up access: a write seeds first touch. */
    STARNUMA_COLD_PATH void setupAccess(ThreadId t, Addr vaddr,
                                        bool write);

    /**
     * Append the record of a filter miss. Outlined so the vector's
     * growth (and its operator new) stays out of access(); not cold,
     * since a fifth of all lookups miss the filter.
     */
    STARNUMA_HOT_ROOT void append(ThreadState &ts, Addr vaddr,
                                  bool write);

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
