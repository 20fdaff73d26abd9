/**
 * @file
 * StarNUMA's migration candidate selection (Algorithm 1, §III-D2):
 * once per migration phase, an OS thread scans the metadata region;
 * any region whose access count exceeds the HI threshold migrates to
 * the pool when its sharing degree is at least 8 sockets, otherwise
 * to a random sharer. When the destination is out of capacity, a
 * cold victim (accesses <= LO) is first evicted to a random sharer.
 * Regions that ping-pong (migrated more than a quarter of the
 * current phase number) are suppressed. HI starts low and is
 * adjusted each phase as a simple function of the candidate count
 * relative to the migration limit (§IV-C); with a T_0 tracker a
 * fixed "touched by all sockets" criterion is used instead.
 */

#ifndef STARNUMA_CORE_MIGRATION_HH
#define STARNUMA_CORE_MIGRATION_HH

#include <cstdint>
#include <vector>

#include "core/region_tracker.hh"
#include "sim/flat_map.hh"
#include "mem/page_map.hh"
#include "sim/obs/audit.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace core
{

/** Policy knobs for Algorithm 1. */
struct MigrationConfig
{
    /** Counter width of the tracker (16 -> T16, 0 -> T0). */
    int counterBits = 16;

    /** Initial HI (migrate) threshold, region accesses per phase. */
    std::uint32_t hiThresholdStart = 64;
    std::uint32_t hiThresholdMin = 8;
    std::uint32_t hiThresholdMax = 1u << 20;

    /** Initial LO (victim) threshold. */
    std::uint32_t loThresholdStart = 4;
    std::uint32_t loThresholdMax = 1024;

    /** Per-phase migration limit, in 4 KB pages. */
    std::uint32_t migrationLimitPages = 4096;

    /**
     * When set (the default for full runs), the driver derives the
     * per-phase limit from the workload footprint instead of the
     * absolute value above: limit = footprintPages * this. The
     * paper tunes an absolute 0..256K-page limit per workload at
     * 1G-instruction phases (§IV-C); a footprint fraction is the
     * scale-invariant equivalent.
     */
    double migrationLimitFraction = 0.25;
    bool scaleLimitToFootprint = true;

    /** Sharing degree at which the pool becomes the destination. */
    int poolSharerThreshold = 8;

    /** False on the baseline system (no pool destination). */
    bool poolEnabled = true;

    /**
     * Algorithm 1 literally picks random(region.sharers) as the
     * destination of narrowly shared regions, which reshuffles
     * regions that are already placed at one of their sharers (a
     * T_i tracker cannot rank sharers). When false (default), a
     * socket-to-socket migration is skipped if the current home is
     * itself a sharer — a strict improvement with no extra tracker
     * state. Set true to reproduce the literal pseudocode.
     */
    bool randomSharerReshuffle = false;
};

/** One region-granular migration decision. */
struct RegionMigration
{
    RegionId region;
    NodeId from;
    NodeId to;
    bool victimEviction; ///< emitted to make room at the pool
};

/** The per-phase migration decision engine. */
class MigrationEngine
{
  public:
    MigrationEngine(const MigrationConfig &config, int n_sockets,
                    bool has_pool, Addr region_bytes,
                    std::uint64_t seed = 1);

    /**
     * Run Algorithm 1 over the tracker's touched regions. Applies
     * the decisions to @p pages (remapping every page of each
     * migrated region), resets the tracker, and adapts thresholds.
     *
     * @param pool_capacity_pages pool space limit in pages.
     * @param phase 1-based migration phase number.
     * @return ordered migration list (victim evictions included).
     */
    std::vector<RegionMigration> decidePhase(
        RegionTracker &tracker, mem::PageMap &pages,
        std::uint64_t pool_capacity_pages, int phase);

    std::uint32_t hiThreshold() const { return hi; }
    std::uint32_t loThreshold() const { return lo; }

    // Cumulative stats across phases (Table IV input).
    std::uint64_t migratedRegions() const { return migrated_; }
    std::uint64_t migratedToPool() const { return toPool_; }
    std::uint64_t victimEvictions() const { return victims_; }
    std::uint64_t pingPongSuppressed() const { return suppressed_; }

    /** Fraction of (non-victim) migrations whose target is the pool. */
    double poolMigrationFraction() const;

    /** Regions currently resident in the pool (engine's view). */
    std::size_t poolRegions() const { return poolResidents.size(); }

    /** Register the cumulative counters and live thresholds. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

    /**
     * Structured record of every Algorithm-1 decision across the
     * phases run so far. Populated only while the obs::RunSink is
     * enabled (one relaxed load per phase); empty otherwise.
     */
    const obs::AuditLog &audit() const { return audit_; }

  private:
    NodeId currentLocation(RegionId region,
                           const mem::PageMap &pages) const;
    void moveRegion(RegionId region, NodeId to, mem::PageMap &pages);
    NodeId randomSharer(const TrackerEntry &e);
    bool pingPonging(RegionId region, int phase) const;

    MigrationConfig cfg;
    int sockets;
    bool hasPool;
    NodeId poolNode;
    Addr regionBytes;
    int pagesPerRegion;
    Rng rng;

    std::uint32_t hi;
    std::uint32_t lo;

    FlatMap<RegionId, int> migrationCounts;
    FlatSet<RegionId> poolResidents;

    std::uint64_t migrated_;
    std::uint64_t toPool_;
    std::uint64_t victims_;
    std::uint64_t suppressed_;

    obs::AuditLog audit_;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_MIGRATION_HH
