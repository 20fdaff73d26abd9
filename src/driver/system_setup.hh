/**
 * @file
 * A complete evaluated configuration: the hardware (topology) plus
 * the placement/migration policy. Named factories cover every
 * configuration in §V: the baseline with perfect-knowledge dynamic
 * page migration, StarNUMA with T16 or T0 trackers, the bandwidth
 * and latency variants of Figs 10-11, the pool-capacity variant of
 * Fig 12, and the static-oracle placements of Fig 9. A setup fixes
 * its policy for the whole run: step B replays every phase under the
 * same Algorithm-1 knobs (§IV-A2).
 */

#ifndef STARNUMA_DRIVER_SYSTEM_SETUP_HH
#define STARNUMA_DRIVER_SYSTEM_SETUP_HH

#include <string>

#include "core/migration.hh"
#include "core/replication.hh"
#include "topology/system_config.hh"

namespace starnuma
{
namespace driver
{

/** Initial placement / runtime migration strategy. */
enum class Placement
{
    /** First touch + per-phase dynamic migration (§IV-C). */
    FirstTouchDynamic,

    /** Oracular static placement, no runtime migration (§V-B). */
    StaticOracle
};

/** One evaluated configuration. */
struct SystemSetup
{
    std::string name;
    topology::SystemConfig sys;
    core::MigrationConfig migration;
    Placement placement = Placement::FirstTouchDynamic;

    /** Region size used by the tracker/engine. The paper uses 512 KB
     *  at 16 TB of memory; 16 KB keeps a comparable region count at
     *  the scaled-down footprints. */
    Addr regionBytes = 16 * 1024;

    /** §V-F alternative: replicate read-only widely shared pages. */
    bool replicateReadOnly = false;
    core::ReplicationConfig replication;

    // --- §V configurations ---

    /** Baseline 16-socket, perfect-knowledge page migration. */
    static SystemSetup baseline();

    /** StarNUMA with the T16 tracker (the default, §V-A). */
    static SystemSetup starnuma();

    /** StarNUMA with the counter-less T0 tracker (Fig 8a). */
    static SystemSetup starnumaT0();

    /** Fig 10: pool behind a CXL switch (270 ns pool access). */
    static SystemSetup starnumaSwitched();

    /** Fig 11 variants. */
    static SystemSetup baselineIsoBW();
    static SystemSetup baseline2xBW();
    static SystemSetup starnumaHalfBW();

    /** Fig 12: single-socket-sized pool (1/17 of footprint). */
    static SystemSetup starnumaSmallPool();

    /** Fig 9: static oracular placement on either architecture. */
    static SystemSetup baselineStatic();
    static SystemSetup starnumaStatic();

    /** §V-F: baseline + idealized read-only page replication. */
    static SystemSetup baselineReplication();
};

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_SYSTEM_SETUP_HH
