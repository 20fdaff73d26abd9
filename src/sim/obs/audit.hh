/**
 * @file
 * Structured migration-decision audit log (DESIGN.md §14). Every
 * Algorithm-1 evaluation that reaches a decision branch in
 * core/migration.cc appends one AuditRecord: which phase, which
 * region (and its first page), how its access count compared to the
 * HI threshold, how large the candidate set was, which branch fired
 * and — for victim evictions — why that victim was selected. The
 * record order is the engine's deterministic decision order, so the
 * serialized log is byte-identical for any STARNUMA_THREADS.
 *
 * Mitosis-style attribution (PAPERS.md): joining this log with the
 * time series and the stats snapshot is what lets
 * scripts/starnuma_report.py explain *why* each page moved, not
 * just how many did.
 *
 * The process-wide aggregation point is obs::RunSink
 * (sim/obs/obs.hh): each experiment's log lands under its
 * "<workload>.<setup>" run key in the run directory's audit.csv.
 */

#ifndef STARNUMA_SIM_OBS_AUDIT_HH
#define STARNUMA_SIM_OBS_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/annotations.hh"

namespace starnuma
{
namespace obs
{

/** Which Algorithm-1 arm decided a region's fate this phase. */
enum class AuditBranch : std::uint8_t
{
    ToPool,             ///< hot + widely shared -> pooled memory
    ToSharer,           ///< hot -> a random sharing socket
    AlreadyPlaced,      ///< resident at a sharer: no move
    SamePlacement,      ///< chosen destination equals current home
    PingPongSuppressed, ///< migrated too often: suppressed
    NoRoomBackoff,      ///< pool full, no cold victim: backed off
    VictimEviction,     ///< evicted from the pool to make room
};

/** Stable lowerCamel name of @p b (trace/report vocabulary). */
const char *auditBranchName(AuditBranch b);

/** Human-readable selection reason of @p b's decision. */
const char *auditBranchReason(AuditBranch b);

/** One Algorithm-1 decision (field semantics in DESIGN.md §14). */
struct AuditRecord
{
    std::uint32_t phase = 0;
    AuditBranch branch = AuditBranch::ToSharer;
    std::uint64_t region = 0;
    std::uint64_t page = 0; ///< first page of the region
    std::uint32_t sharers = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hiThreshold = 0;
    std::uint64_t loThreshold = 0;
    std::uint32_t candidates = 0; ///< candidate-set size this phase
    std::int32_t from = -1;
    std::int32_t to = -1;
};

/**
 * An append-only record list owned by one migration engine.
 * Single-threaded per owner; cross-experiment aggregation goes
 * through obs::RunSink.
 */
class AuditLog
{
  public:
    /** Append one decision record. */
    // lint: cold-path per-decision bookkeeping inside the
    // once-per-phase Algorithm 1 pass
    STARNUMA_COLD_PATH void append(const AuditRecord &r);

    void reserve(std::size_t n) { recs.reserve(n); }
    bool empty() const { return recs.empty(); }
    std::size_t size() const { return recs.size(); }

    const std::vector<AuditRecord> &
    records() const
    {
        return recs;
    }

    /**
     * CSV rows of this log (no header), each prefixed with
     * @p run and a per-run sequence number. Column order is
     * auditCsvHeader().
     */
    std::string csvRows(const std::string &run) const;

  private:
    std::vector<AuditRecord> recs;
};

/** Header row matching AuditLog::csvRows. */
const char *auditCsvHeader();

} // namespace obs
} // namespace starnuma

#endif // STARNUMA_SIM_OBS_AUDIT_HH
