/**
 * @file
 * Step B of the methodology (§IV-A2): one loop replays the captured
 * memory traces (no timing) through first touch and one placement
 * policy — the T_i tracker + TLB annexes + Algorithm 1 on a pool
 * system, zero-cost perfect page knowledge on the baseline, or the
 * §V-B static oracle — and emits one checkpoint per phase: the
 * page-to-node map at the phase's start plus the migrations to be
 * modeled during that phase by the timing simulation (step C).
 */

#ifndef STARNUMA_DRIVER_TRACE_SIM_HH
#define STARNUMA_DRIVER_TRACE_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/migration.hh"
#include "core/perfect_policy.hh"
#include "core/replication.hh"
#include "driver/system_setup.hh"
#include "sim/bytes.hh"
#include "sim/flat_map.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/registry.hh"
#include "sim/obs/timeseries.hh"
#include "sim/scale.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace driver
{

/** Inputs of one phase's timing simulation. */
struct Checkpoint
{
    /** Page -> home node at the start of the phase. */
    FlatMap<PageNum, NodeId> pageHome;

    /** Region migrations occurring during this phase (StarNUMA). */
    std::vector<core::RegionMigration> regionMigrations;

    /** Page migrations occurring during this phase (baseline). */
    std::vector<core::PageMigration> pageMigrations;

    /** Pages moved by this phase's migrations. */
    std::uint64_t migratedPages(int pages_per_region) const;
};

/**
 * Dense page range [lo, lo + pages) of a trace, which the flat page
 * and region tables of replay (step B) and timing (step C) reserve
 * before the first record. Captured traces bump-allocate their
 * address space, so the span covers every page the run touches
 * (records and first touches); capture and the columnar decoder
 * stamp it on the trace, and hand-built traces pay one linear scan
 * here. pages == 0 when the trace is empty or implausibly sparse — a
 * span wider than the footprint plus 1024 pages of slack — and the
 * tables then reserve nothing and grow to the keys they meet.
 */
struct PageSpan
{
    PageNum lo{0};
    std::uint64_t pages = 0;

    /** Last page of a non-empty span. */
    PageNum last() const { return lo + PageNum(pages - 1); }
};

PageSpan densePageSpan(const trace::WorkloadTrace &trace);

/** Output of step B. */
struct TraceSimResult
{
    std::vector<Checkpoint> checkpoints;
    std::uint64_t poolCapacityPages = 0;
    std::uint64_t footprintPages = 0;

    // Migration statistics (Table IV).
    std::uint64_t migratedRegions = 0;
    std::uint64_t migratedPagesTotal = 0;
    double poolMigrationFraction = 0.0;
    std::uint64_t victimEvictions = 0;
    std::uint64_t pingPongSuppressed = 0;

    /** Pages resident in the pool at the end of the run. */
    std::uint64_t pagesInPool = 0;

    /** §V-F replication plan (empty unless enabled in the setup). */
    core::ReplicationPlan replication;

    // DiDi-style shootdown statistics (§III-D3): invalidations
    // sent to the cores holding a migrated page vs IPIs avoided.
    std::uint64_t tlbShootdownsSent = 0;
    std::uint64_t tlbShootdownsSaved = 0;

    /**
     * The tracker's migration-engine / TLB-directory registry
     * snapshot, taken at the end of the run while the obs::RunSink
     * is enabled; empty otherwise. Not part of the serialize() image.
     */
    obs::Snapshot stats;

    /**
     * Per-phase replay telemetry (DESIGN.md §14), sampled once per
     * migration phase with the phase number as timestamp: pool
     * occupancy, TLB miss count and rate, pages migrated, targeted
     * shootdown messages. Populated only while the obs::RunSink is
     * enabled; empty otherwise. Not part of the serialize() image.
     */
    obs::TimeSeries timeseries;

    /**
     * The tracker policy's structured Algorithm-1 decision log
     * (DESIGN.md §14). Populated only while the obs::RunSink is
     * enabled; empty otherwise. Not part of the serialize() image.
     */
    obs::AuditLog audit;

    /**
     * Serialize the checkpoints (step B's output artifact, §IV-A2)
     * so timing simulations can run later or elsewhere; the
     * artifact store (DESIGN.md §16) persists these bytes. Format
     * v2: varint/delta coded (sim/bytes.hh primitives), written in
     * sorted page order so artifacts are byte-identical across runs.
     */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Decode a serialize() image from @p r, leaving the reader
     * positioned after it (embeddable in larger records).
     * @return false on malformed input.
     */
    bool deserialize(ByteReader &r);
};

/** The memory-trace simulator. */
class TraceSim
{
  public:
    TraceSim(const SystemSetup &system_setup,
             const SimScale &sim_scale);

    /** Run all phases over @p trace under the setup's policy. */
    TraceSimResult run(const trace::WorkloadTrace &trace);

  private:
    template <typename Policy>
    void replay(const trace::WorkloadTrace &trace, Policy &policy,
                TraceSimResult &result);

    NodeId socketOf(ThreadId t) const;

    const SystemSetup &setup;
    SimScale scale;
};

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_TRACE_SIM_HH
