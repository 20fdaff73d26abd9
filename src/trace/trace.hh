/**
 * @file
 * In-memory trace records for step A of the methodology (§IV-A1);
 * the stored encoding is trace/columnar.hh. A workload run produces
 * one memory trace per logical thread; each record is an access that
 * missed the capture-time private-cache filter, tagged with the
 * thread's dynamic instruction count — exactly the information the
 * paper's Pin-based tracer records. Traces carry a first-touch list
 * from the workload's (untimed) setup, which seeds the page map the
 * way parallel initialization seeds first-touch placement on a real
 * machine.
 */

#ifndef STARNUMA_TRACE_TRACE_HH
#define STARNUMA_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace starnuma
{
namespace trace
{

/** One filtered memory access. The write flag lives in bit 63. */
struct MemRecord
{
    std::uint64_t instr; ///< dynamic instruction count at the access
    std::uint64_t packed;

    static constexpr std::uint64_t writeBit = 1ULL << 63;

    MemRecord() : instr(0), packed(0) {}
    MemRecord(std::uint64_t instr_no, Addr vaddr, bool write)
        : instr(instr_no), packed(vaddr | (write ? writeBit : 0))
    {
    }

    Addr vaddr() const { return packed & ~writeBit; }
    bool isWrite() const { return packed & writeBit; }
};

/** First-touch seed: which thread first wrote each page in setup. */
struct FirstTouch
{
    PageNum page;
    ThreadId thread;
};

/** Complete capture of one workload run (all threads). */
struct WorkloadTrace
{
    std::string workload;
    int threads = 0;
    std::uint64_t instructionsPerThread = 0;
    Addr footprintBytes = 0;

    /** Per-thread filtered memory access streams. */
    std::vector<std::vector<MemRecord>> perThread;

    /** Setup-time first touches (page placement seed). */
    std::vector<FirstTouch> firstTouches;

    /**
     * Inclusive page span covering every record and first touch.
     * The capture bump allocator hands out one contiguous address
     * range, so replay can preallocate flat page tables over it.
     * Both zero means unknown (hand-built traces); replay then
     * derives the span with a linear scan.
     */
    PageNum minPage{0};
    PageNum maxPage{0};

    /**
     * Page numbers written at least once during the run (tracked
     * independently of the filter, so stores that hit the capture
     * filter still mark their page read-write).
     */
    std::vector<PageNum> writtenPages;

    /** Total records across threads. */
    std::uint64_t totalRecords() const;

    /** Records per kilo-instruction (the filter's output rate). */
    double recordsPerKiloInstruction() const;
};

} // namespace trace
} // namespace starnuma

#endif // STARNUMA_TRACE_TRACE_HH
