/**
 * @file
 * Tests for StarNUMA's contribution: region trackers (T0/T16), the
 * TLB counter annex, Algorithm 1's migration engine (thresholds,
 * pool placement, victims, ping-pong), the baseline's perfect-
 * knowledge policy, oracle placement, and shootdown costs.
 */

#include <gtest/gtest.h>

#include "core/migration.hh"
#include "core/oracle.hh"
#include "core/page_stats.hh"
#include "core/perfect_policy.hh"
#include "core/region_tracker.hh"
#include "core/shootdown.hh"
#include "core/tlb_annex.hh"

namespace starnuma
{
namespace core
{
namespace
{

constexpr Addr kRegion = 64 * 1024; // scaled-down region size

// --- RegionTracker ---

TEST(RegionTracker, RecordsSharersAndCounts)
{
    RegionTracker t(16, 16, kRegion);
    t.record(0x1000, 3, 5);
    t.record(0x2000, 7, 2); // same 64 KB region
    const auto &e = t.entry(0);
    EXPECT_EQ(e.accesses, 7u);
    EXPECT_EQ(e.sharerCount(), 2);
    EXPECT_TRUE(e.sharerMask & (1ULL << 3));
    EXPECT_TRUE(e.sharerMask & (1ULL << 7));
}

TEST(RegionTracker, SeparateRegionsSeparateEntries)
{
    RegionTracker t(16, 16, kRegion);
    t.record(0, 0);
    t.record(kRegion, 1);
    EXPECT_EQ(t.touchedRegions(), 2u);
    EXPECT_EQ(t.entry(0).sharerCount(), 1);
    EXPECT_EQ(t.entry(1).sharerCount(), 1);
}

TEST(RegionTracker, CounterSaturates)
{
    RegionTracker t(4, 16, kRegion); // T4: max 15
    t.record(0, 0, 100);
    EXPECT_EQ(t.entry(0).accesses, 15u);
}

TEST(RegionTracker, T0TracksOnlyPresence)
{
    RegionTracker t(0, 16, kRegion);
    t.record(0, 5, 1000);
    EXPECT_EQ(t.entry(0).accesses, 0u);
    EXPECT_EQ(t.entry(0).sharerCount(), 1);
}

TEST(RegionTracker, PaperMetadataRegionSize)
{
    // §III-D4: 16 TB of memory, 512 KB regions, T16, 16 sockets
    // -> 32M entries x 4 B = 128 MB metadata region.
    RegionTracker t(16, 16, 512 * 1024);
    EXPECT_EQ(t.entryBytes(), 4u);
    EXPECT_EQ(t.metadataBytes(16ULL << 40), 128ULL << 20);
    EXPECT_EQ(t.pagesPerRegion(), 128);
}

TEST(RegionTracker, ScanAndResetClears)
{
    RegionTracker t(16, 16, kRegion);
    t.record(0, 0);
    t.record(kRegion, 1);
    int seen = 0;
    t.scanAndReset([&](RegionId, const TrackerEntry &) { ++seen; });
    EXPECT_EQ(seen, 2);
    EXPECT_EQ(t.touchedRegions(), 0u);
    EXPECT_EQ(t.entry(0).sharerCount(), 0);
}

TEST(RegionTracker, RegionOfAndFirstPage)
{
    RegionTracker t(16, 16, kRegion);
    EXPECT_EQ(t.regionOf(kRegion - 1), 0u);
    EXPECT_EQ(t.regionOf(kRegion), 1u);
    EXPECT_EQ(t.firstPage(2), PageNum(2 * kRegion / pageBytes));
}

// --- TlbAnnex ---

TEST(TlbAnnex, EvictionFlushesCounterToTracker)
{
    RegionTracker tracker(16, 16, kRegion);
    TlbAnnex tlb({4, 1}, tracker, 2); // 4 sets, direct mapped

    // Hammer one page, then push it out with conflicting pages.
    for (int i = 0; i < 10; ++i)
        tlb.recordAccess(0x0);
    EXPECT_EQ(tracker.entry(0).accesses, 0u); // not yet flushed
    tlb.recordAccess(4 * pageBytes); // same TLB set -> evicts page 0
    EXPECT_EQ(tracker.entry(0).accesses, 10u);
    EXPECT_TRUE(tracker.entry(0).sharerMask & (1ULL << 2));
}

TEST(TlbAnnex, FlushAllDrainsResidentCounters)
{
    RegionTracker tracker(16, 16, kRegion);
    TlbAnnex tlb({64, 4}, tracker, 0);
    for (int i = 0; i < 7; ++i)
        tlb.recordAccess(0x0);
    tlb.flushAll();
    EXPECT_EQ(tracker.entry(0).accesses, 7u);
}

TEST(TlbAnnex, MarkerCapturesHotResidentPages)
{
    RegionTracker tracker(16, 16, kRegion);
    TlbAnnex tlb({64, 4}, tracker, 0);
    for (int i = 0; i < 5; ++i)
        tlb.recordAccess(0x40);
    tlb.setMarkers();
    // Next access to the marked entry flushes the annex value.
    tlb.recordAccess(0x40);
    EXPECT_EQ(tracker.entry(0).accesses, 5u);
}

TEST(TlbAnnex, ShootdownInvalidatesAndFlushes)
{
    RegionTracker tracker(16, 16, kRegion);
    TlbAnnex tlb({64, 4}, tracker, 0);
    tlb.recordAccess(0x1000);
    tlb.recordAccess(0x1008);
    EXPECT_TRUE(tlb.shootdown(pageNumber(0x1000)));
    EXPECT_EQ(tracker.entry(0).accesses, 2u);
    EXPECT_FALSE(tlb.shootdown(pageNumber(0x1000))); // already gone
    // Re-access misses the TLB again.
    auto misses = tlb.tlbMisses();
    tlb.recordAccess(0x1000);
    EXPECT_EQ(tlb.tlbMisses(), misses + 1);
}

TEST(TlbAnnex, T0RecordsPresenceWithoutCounting)
{
    RegionTracker tracker(0, 16, kRegion);
    TlbAnnex tlb({64, 4}, tracker, 9);
    tlb.recordAccess(0x0);
    EXPECT_TRUE(tracker.entry(0).sharerMask & (1ULL << 9));
    EXPECT_EQ(tracker.entry(0).accesses, 0u);
}

TEST(TlbAnnex, HitsAndMissesCounted)
{
    RegionTracker tracker(16, 16, kRegion);
    TlbAnnex tlb({64, 4}, tracker, 0);
    tlb.recordAccess(0x0);
    tlb.recordAccess(0x10);
    tlb.recordAccess(pageBytes);
    EXPECT_EQ(tlb.tlbMisses(), 2u);
    EXPECT_EQ(tlb.tlbHits(), 1u);
}

TEST(TlbAnnex, ShootdownReportsResidency)
{
    // A shootdown targets a core only while its TLB holds the page,
    // which is what a DiDi-style directory (§III-D3) records.
    RegionTracker tracker(16, 16, kRegion);
    TlbAnnex tlb({4, 1}, tracker, 0); // 4 sets, direct mapped
    tlb.recordAccess(0x0);
    tlb.recordAccess(4 * pageBytes); // same set: evicts page 0
    EXPECT_FALSE(tlb.shootdown(PageNum(0)));
    EXPECT_TRUE(tlb.shootdown(PageNum(4)));
    EXPECT_FALSE(tlb.shootdown(PageNum(4)));
}

// --- MigrationEngine ---

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : tracker(16, 16, kRegion), pages(17),
          engine(MigrationConfig{}, 16, kRegion, 42)
    {
    }

    /** Touch every page of @p region so it is mapped at @p home. */
    void
    mapRegion(RegionId region, NodeId home)
    {
        Addr first = region * kRegion / pageBytes;
        for (Addr p = first; p < first + kRegion / pageBytes; ++p)
            pages.setHome(PageNum(p), home);
    }

    /** Record accesses from @p sharers distinct sockets. */
    void
    heatRegion(RegionId region, int sharers, std::uint32_t count)
    {
        for (int s = 0; s < sharers; ++s)
            tracker.record(region * kRegion, s, count);
    }

    RegionTracker tracker;
    mem::PageMap pages;
    MigrationEngine engine;
};

TEST_F(MigrationTest, WidelySharedHotRegionGoesToPool)
{
    mapRegion(0, 3);
    heatRegion(0, 16, 100); // hot, shared by all
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].to, 16); // pool node
    EXPECT_EQ(plan[0].from, 3);
    EXPECT_EQ(pages.home(PageNum(0)), 16);
    EXPECT_EQ(engine.migratedToPool(), 1u);
    EXPECT_DOUBLE_EQ(engine.poolMigrationFraction(), 1.0);
}

TEST_F(MigrationTest, NarrowlySharedRegionGoesToASharer)
{
    mapRegion(0, 9);
    heatRegion(0, 3, 100); // sharers 0,1,2 < threshold 8
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_LT(plan[0].to, 3);
    EXPECT_EQ(engine.migratedToPool(), 0u);
}

TEST_F(MigrationTest, ColdRegionStays)
{
    mapRegion(0, 3);
    heatRegion(0, 16, 1); // 16 accesses < HI 64
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(pages.home(PageNum(0)), 3);
}

TEST_F(MigrationTest, AlreadyAtBestLocationNoMove)
{
    mapRegion(0, 16); // already in the pool
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, 100000, 1);
    // Re-heat and re-decide; location is the pool both times.
    heatRegion(0, 16, 100);
    auto plan = engine.decidePhase(tracker, pages, 100000, 2);
    EXPECT_TRUE(plan.empty());
}

TEST_F(MigrationTest, MigrationLimitRespected)
{
    MigrationConfig cfg;
    cfg.migrationLimitPages = kRegion / pageBytes; // one region
    MigrationEngine limited(cfg, 16, kRegion, 7);
    for (RegionId r = 0; r < 4; ++r) {
        mapRegion(r, 1);
        heatRegion(r, 16, 100);
    }
    auto plan = limited.decidePhase(tracker, pages, 100000, 1);
    EXPECT_EQ(plan.size(), 1u);
}

TEST_F(MigrationTest, PoolCapacityTriggersVictimEviction)
{
    int ppr = static_cast<int>(kRegion / pageBytes);
    // Region 0 resident in pool (cold), region 1 hot and shared.
    mapRegion(0, 5);
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, ppr, 1); // region 0 -> pool

    mapRegion(1, 5);
    heatRegion(1, 16, 100);
    // Pool only fits one region: region 0 must be evicted first.
    auto plan = engine.decidePhase(tracker, pages, ppr, 2);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_TRUE(plan[0].victimEviction);
    EXPECT_EQ(plan[0].region, 0u);
    EXPECT_EQ(plan[0].from, 16);
    EXPECT_FALSE(plan[1].victimEviction);
    EXPECT_EQ(pages.home(PageNum(ppr)), 16); // region 1's first page
    EXPECT_EQ(engine.victimEvictions(), 1u);
}

TEST_F(MigrationTest, HotPoolResidentsAreNotVictims)
{
    int ppr = static_cast<int>(kRegion / pageBytes);
    mapRegion(0, 5);
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, ppr, 1); // region 0 -> pool

    // Both regions hot this phase; region 0 is above LO so it is
    // not evictable and region 1's migration is skipped.
    mapRegion(1, 5);
    heatRegion(0, 16, 100);
    heatRegion(1, 16, 100);
    auto plan = engine.decidePhase(tracker, pages, ppr, 2);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(pages.home(PageNum(0)), 16); // region 0 stayed
}

TEST_F(MigrationTest, PingPongSuppression)
{
    mapRegion(0, 3);
    // Migrate the region once (phase 1), then keep it hot: by
    // phase 2, one migration > 2/4 suppresses further moves.
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, 100000, 1);
    pages.setHome(PageNum(0), 3); // pretend something moved it back
    for (Addr p = 1; p < kRegion / pageBytes; ++p)
        pages.setHome(PageNum(p), 3);
    heatRegion(0, 16, 100);
    auto plan = engine.decidePhase(tracker, pages, 100000, 2);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(engine.pingPongSuppressed(), 1u);
}

TEST_F(MigrationTest, T0UsesAllSocketsCriterion)
{
    MigrationConfig cfg;
    cfg.counterBits = 0;
    MigrationEngine t0(cfg, 16, kRegion, 3);
    RegionTracker tracker0(0, 16, kRegion);

    mapRegion(0, 2);
    mapRegion(1, 2);
    for (int s = 0; s < 16; ++s)
        tracker0.record(0, s, 0); // region 0: all sockets
    for (int s = 0; s < 15; ++s)
        tracker0.record(kRegion, s, 0); // region 1: 15 sockets
    auto plan = t0.decidePhase(tracker0, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].region, 0u);
    EXPECT_EQ(plan[0].to, 16);
}

TEST_F(MigrationTest, PlacedAtASharerStaysPut)
{
    // A hot, narrowly shared region already homed at one of its
    // sharers is not reshuffled (DESIGN.md deviation from the
    // literal random(sharers) destination).
    mapRegion(0, 2);
    heatRegion(0, 4, 100); // sharers 0..3 include the home
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(pages.home(PageNum(0)), 2);
}

TEST_F(MigrationTest, LiteralReshuffleFlagRestoresAlgorithm1)
{
    MigrationConfig cfg;
    cfg.randomSharerReshuffle = true;
    MigrationEngine literal(cfg, 16, kRegion, 2);
    mapRegion(0, 2);
    heatRegion(0, 2, 100); // sharers {0, 1}; home 2 not a sharer
    auto plan = literal.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_LT(plan[0].to, 2);
}

TEST_F(MigrationTest, HiThresholdAdaptsUpUnderPressure)
{
    MigrationConfig cfg;
    cfg.migrationLimitPages = kRegion / pageBytes; // 1 region
    MigrationEngine eng(cfg, 16, kRegion, 11);
    for (RegionId r = 0; r < 20; ++r) {
        mapRegion(r, 1);
        heatRegion(r, 16, 1000);
    }
    std::uint32_t before = eng.hiThreshold();
    eng.decidePhase(tracker, pages, 1u << 20, 1);
    EXPECT_GT(eng.hiThreshold(), before);
}

TEST_F(MigrationTest, HiThresholdAdaptsDownWhenQuiet)
{
    MigrationConfig cfg;
    cfg.hiThresholdStart = 1024;
    cfg.migrationLimitPages = 64 * (kRegion / pageBytes);
    MigrationEngine eng(cfg, 16, kRegion, 13);
    mapRegion(0, 1);
    heatRegion(0, 16, 10); // below HI
    eng.decidePhase(tracker, pages, 1u << 20, 1);
    EXPECT_LT(eng.hiThreshold(), 1024u);
}

// --- PerfectPagePolicy ---

TEST(PerfectPolicy, MovesPageToMajoritySocket)
{
    mem::PageMap pages(17);
    pages.setHome(PageNum(10), 0);
    PerfectPagePolicy policy(16, 1000);
    for (int i = 0; i < 8; ++i)
        policy.recordAccess(PageNum(10), 5);
    policy.recordAccess(PageNum(10), 0);
    auto plan = policy.decidePhase(pages);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].to, 5);
    EXPECT_EQ(pages.home(PageNum(10)), 5);
}

TEST(PerfectPolicy, RespectsLimitHottestFirst)
{
    mem::PageMap pages(17);
    pages.setHome(PageNum(1), 0);
    pages.setHome(PageNum(2), 0);
    PerfectPagePolicy policy(16, 1);
    for (int i = 0; i < 100; ++i)
        policy.recordAccess(PageNum(1), 3);
    for (int i = 0; i < 10; ++i)
        policy.recordAccess(PageNum(2), 3);
    auto plan = policy.decidePhase(pages);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].page, PageNum(1));
    EXPECT_EQ(pages.home(PageNum(2)), 0);
}

TEST(PerfectPolicy, IgnoresColdAndWellPlacedPages)
{
    mem::PageMap pages(17);
    pages.setHome(PageNum(1), 3);
    pages.setHome(PageNum(2), 0);
    PerfectPagePolicy policy(16, 1000, 4);
    for (int i = 0; i < 100; ++i)
        policy.recordAccess(PageNum(1), 3); // already home
    policy.recordAccess(PageNum(2), 5); // too cold (1 < 4)
    EXPECT_TRUE(policy.decidePhase(pages).empty());
}

// --- PageAccessStats ---

TEST(PageStats, MajorityAndSharers)
{
    PageAccessStats st(16);
    st.record(PageNum(7), 2);
    st.record(PageNum(7), 2);
    st.record(PageNum(7), 9);
    EXPECT_EQ(st.majoritySocket(PageNum(7)), 2);
    EXPECT_EQ(st.sharers(PageNum(7)), 2);
    EXPECT_EQ(st.totalAccesses(PageNum(7)), 3u);
    EXPECT_EQ(st.majoritySocket(PageNum(8)), -1);
}

// --- OraclePlacement ---

TEST(Oracle, PrivatePagesGoToTheirSocket)
{
    OraclePlacement oracle(16);
    mem::PageMap pages(17);
    oracle.recordAccess(PageNum(1), 4);
    oracle.recordAccess(PageNum(1), 4);
    oracle.place(pages, true, 1000);
    EXPECT_EQ(pages.home(PageNum(1)), 4);
}

TEST(Oracle, WidelySharedPagesGoToPool)
{
    OraclePlacement oracle(16);
    mem::PageMap pages(17);
    for (int s = 0; s < 10; ++s)
        oracle.recordAccess(PageNum(1), s);
    std::uint64_t placed = oracle.place(pages, true, 1000);
    EXPECT_EQ(placed, 1u);
    EXPECT_EQ(pages.home(PageNum(1)), 16);
}

TEST(Oracle, BaselineModeNeverUsesPool)
{
    OraclePlacement oracle(16);
    mem::PageMap pages(17);
    for (int s = 0; s < 16; ++s)
        oracle.recordAccess(PageNum(1), s);
    EXPECT_EQ(oracle.place(pages, false, 1000), 0u);
    EXPECT_LT(pages.home(PageNum(1)), 16);
}

TEST(Oracle, PoolCapacityTakesHottestPages)
{
    OraclePlacement oracle(16);
    mem::PageMap pages(17);
    // Page 1: 10 sharers, 10 accesses. Page 2: 10 sharers, 20.
    for (int s = 0; s < 10; ++s)
        oracle.recordAccess(PageNum(1), s);
    for (int rep = 0; rep < 2; ++rep)
        for (int s = 0; s < 10; ++s)
            oracle.recordAccess(PageNum(2), s);
    EXPECT_EQ(oracle.place(pages, true, 1), 1u);
    EXPECT_EQ(pages.home(PageNum(2)), 16);
    EXPECT_LT(pages.home(PageNum(1)), 16); // overflowed to majority socket
}

// --- ShootdownModel ---

TEST(Shootdown, HardwareCostIsPerPage)
{
    ShootdownModel m;
    EXPECT_EQ(m.hardwareCost(0), Cycles(0));
    EXPECT_EQ(m.hardwareCost(10), Cycles(30000));
}

TEST(Shootdown, SoftwareCostScalesWithCores)
{
    // §III-D3: conventional shootdowns interrupt every core; the
    // hardware-supported design must be orders cheaper at scale.
    ShootdownModel m;
    EXPECT_EQ(m.softwareCost(10, 448), Cycles(10u * 448u * 4000u));
    EXPECT_GT(m.softwareCost(1, 448), 100 * m.hardwareCost(1));
}

} // anonymous namespace
} // namespace core
} // namespace starnuma
